"""Data sources: CSV files split into source and stream, plus two generators.

Both generators are fully determined by a seed. The triangular-wave family is
a stationary sanity check (no drift); the rotating-Gaussian family drifts by
construction, rotating the class layout in a fixed coordinate plane a little
further with every batch.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import LabeledSet, MiniBatch, _class_count
from .errors import ConfigError, InsufficientData, ParseError, SchemaMismatch
from .subspaces import Array, _count, _real, _real_rows

# Rotating-Gaussian family geometry. Class means sit at this radius; the
# noise std is 1.0 along e1 (the mean axis), ROTATING_NUISANCE_STD along e2
# and e4, and ROTATING_TAIL_STD elsewhere. The ordering signal > nuisance >
# tail pins the retained subspace to (e1, e2, e4), keeps the rotation target
# e3 out of it, and leaves enough tail noise for the transform to suppress.
ROTATING_CLASS_RADIUS = 2.5
ROTATING_NUISANCE_STD = 2.0
ROTATING_TAIL_STD = 1.5

# Triangular base waves for the waveform family: peak positions on 21 points.
WAVE_PEAKS = (7, 11, 15)
WAVE_PAIRS = ((0, 1), (0, 2), (1, 2))
WAVEFORM_DIM = 21
WAVEFORM_NOISE_DIMS = 19


@dataclass(frozen=True)
class StreamSpec:
    """Shape of a generated dataset: batch size, batch count, seed (>= 0), source rows; all integers."""

    batch_size: int
    batch_count: int
    seed: int
    source_size: int = 500

    def __post_init__(self) -> None:
        for name, minimum in (("batch_size", 2), ("batch_count", 1), ("seed", 0), ("source_size", 4)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """A labelled source set plus an ordered stream of batches."""

    source: LabeledSet
    stream: tuple[MiniBatch, ...]


def load_csv(path: str | Path, source_fraction: float, batch_size: int, has_header: bool = False) -> DatasetBundle:
    """Read feature columns plus a trailing integer label column.

    Rows keep file order: the first ceil(source_fraction * N) rows become the
    labelled source, the rest are chunked into full batches of batch_size
    (a trailing partial batch is dropped). Blank lines are skipped, and with
    has_header the first non-blank record is a header. The settings are
    checked before the file is opened: source_fraction in (0, 1), batch_size
    an integer >= 2, has_header a bool. Errors name a record by the file
    line it starts on.
    """
    source_fraction = _real("source_fraction", source_fraction)
    if not 0.0 < source_fraction < 1.0:
        raise ConfigError(f"source_fraction must lie in (0, 1), got {source_fraction}")
    batch_size = _count("batch_size", batch_size, 2)
    if not isinstance(has_header, bool):
        raise ConfigError(f"has_header must be a bool, got {has_header!r}")
    rows: list[list[float]] = []
    labels: list[int] = []
    expected = None
    header = has_header
    with open(path, newline="", encoding="utf-8") as fh:
        for r, record in _records(fh):
            if not record:
                continue
            if header:
                header = False
                continue
            if expected is None:
                expected = len(record)
                if expected < 2:
                    raise SchemaMismatch(f"row {r}: need at least one feature column plus a label")
            if len(record) != expected:
                raise SchemaMismatch(f"row {r}: expected {expected} columns, got {len(record)}")
            parsed = []
            for c, cell in enumerate(record, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(f"row {r}, column {c}: {cell!r} is not a number") from None
            label = parsed[-1]
            if not label.is_integer():
                raise ParseError(f"row {r}, column {expected}: label {label!r} is not an integer")
            if label < 0:
                raise ParseError(f"row {r}, column {expected}: label {label!r} is negative")
            if label >= 2.0**63:
                raise ParseError(f"row {r}, column {expected}: label {label!r} does not fit in 64 bits")
            rows.append(parsed[:-1])
            labels.append(int(label))
    if not rows:
        raise InsufficientData(f"no data rows in {path}")
    x = _real_rows(rows, "rows")
    y = np.array(labels, dtype=np.int64)
    n_classes = _class_count(y)

    n_source = math.ceil(source_fraction * x.shape[0])
    source_y = y[:n_source]
    class_counts = np.bincount(source_y, minlength=n_classes)
    if class_counts.min() < 2:
        raise InsufficientData(
            f"source split needs >= 2 rows of every class, got counts {class_counts.tolist()}"
        )
    source = LabeledSet(x=x[:n_source], y=source_y)

    batches = []
    for start in range(n_source, x.shape[0] - batch_size + 1, batch_size):
        end = start + batch_size
        batches.append(MiniBatch(x=x[start:end], true_labels=y[start:end]))
    if not batches:
        raise InsufficientData(f"no full batches of size {batch_size} after the source split")
    return DatasetBundle(source=source, stream=tuple(batches))


def _records(fh: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """csv.reader's records, each with the line it starts on, which names it as its row.

    A quoted cell may span lines, so a record starts on the line after the
    one the previous record ended on. A malformed record is a ParseError
    naming that line too.
    """
    reader = csv.reader(fh)
    start = 1
    try:
        for record in reader:
            yield start, record
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"row {start}: {exc}") from None


def _balanced_labels(rng: np.random.Generator, n: int, classes: int) -> Array:
    labels = np.arange(n, dtype=np.int64) % classes
    return rng.permutation(labels)


def _draw(spec: StreamSpec, classes: int, rows: Callable[[np.random.Generator, Array, int], Array]) -> DatasetBundle:
    """The one seeded draw of a generated stream, from one default_rng(spec.seed).

    The source comes first, then batches n = 1..batch_count; each is balanced
    labels, then rows(rng, labels, n), with n = 0 for the source. So the
    source and the first m batches do not depend on batch_count beyond what
    rows makes of n.
    """
    if spec.source_size < 2 * classes:
        raise ConfigError(f"source_size must be >= {2 * classes} for {classes} classes, got {spec.source_size}")
    rng = np.random.default_rng(spec.seed)
    labels = _balanced_labels(rng, spec.source_size, classes)
    source = LabeledSet(x=rows(rng, labels, 0), y=labels)
    batches = []
    for n in range(1, spec.batch_count + 1):
        labels = _balanced_labels(rng, spec.batch_size, classes)
        batches.append(MiniBatch(x=rows(rng, labels, n), true_labels=labels))
    return DatasetBundle(source=source, stream=tuple(batches))


def gen_waveform(spec: StreamSpec, variant: str = "w21") -> DatasetBundle:
    """Three-class waveform mixture; "w40" appends 19 pure-noise dimensions.

    Every row mixes two of three triangular base waves with a uniform weight
    plus unit noise; the class is the wave pair. Source and stream are drawn
    from the same law, so this family has no drift.
    """
    if variant not in ("w21", "w40"):
        raise ConfigError(f"variant must be 'w21' or 'w40', got {variant!r}")
    noise_dims = WAVEFORM_NOISE_DIMS if variant == "w40" else 0
    grid = np.arange(1, WAVEFORM_DIM + 1, dtype=np.float64)
    waves = np.maximum(6.0 - np.abs(grid - np.array(WAVE_PEAKS)[:, None]), 0.0)
    pairs = np.array(WAVE_PAIRS)

    def rows(rng: np.random.Generator, labels: Array, n: int) -> Array:
        u = rng.uniform(0.0, 1.0, size=labels.shape[0])[:, None]
        x = u * waves[pairs[labels, 0]] + (1.0 - u) * waves[pairs[labels, 1]]
        x = x + rng.standard_normal((labels.shape[0], WAVEFORM_DIM))
        if noise_dims:
            x = np.hstack([x, rng.standard_normal((labels.shape[0], noise_dims))])
        return x

    return _draw(spec, 3, rows)


def gen_rotating_drift(
    spec: StreamSpec,
    classes: int = 2,
    d: int = 10,
    total_rotation: float = math.pi / 3,
) -> DatasetBundle:
    """Gaussian classes whose layout rotates a bit further with every batch.

    Class means sit on a circle in the (e1, e2) plane at radius
    ROTATING_CLASS_RADIUS with axis-aligned noise (see the constants above).
    Batch n (1-based) is rotated by (n / batch_count) * total_rotation in the
    (e1, e3) plane, so the source-trained layout degrades monotonically while
    the class geometry stays intact.
    """
    classes = _count("classes", classes, 2)
    d = _count("d", d, 4)
    total_rotation = _real("total_rotation", total_rotation)
    if not 0.0 <= total_rotation <= math.pi / 2:
        raise ConfigError(f"total_rotation must lie in [0, pi/2], got {total_rotation}")
    means = np.zeros((classes, d))
    for j in range(classes):
        phase = 2.0 * math.pi * j / classes
        means[j, 0] = ROTATING_CLASS_RADIUS * math.cos(phase)
        means[j, 1] = ROTATING_CLASS_RADIUS * math.sin(phase)
    stds = np.full(d, ROTATING_TAIL_STD)
    stds[0] = 1.0
    stds[1] = ROTATING_NUISANCE_STD
    stds[3] = ROTATING_NUISANCE_STD

    def rows(rng: np.random.Generator, labels: Array, n: int) -> Array:
        x = means[labels] + rng.standard_normal((labels.shape[0], d)) * stds
        if n:
            # columns 0 and 2 times the plane rotation's 2 x 2 block, elementwise so that no BLAS
            # kernel's rounding reaches the bytes; both are formed before either is written
            angle = (n / spec.batch_count) * total_rotation
            c, s = math.cos(angle), math.sin(angle)
            x0, x2 = x[:, 0], x[:, 2]
            x[:, 0], x[:, 2] = x0 * c - x2 * s, x0 * s + x2 * c
        return x

    return _draw(spec, classes, rows)
