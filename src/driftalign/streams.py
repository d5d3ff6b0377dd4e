"""Data sources: CSV files split into source and stream, plus two generators.

Both generators are fully determined by a seed. The triangular-wave family is
a stationary sanity check (no drift); the rotating-Gaussian family drifts by
construction, rotating the class layout in a fixed coordinate plane a little
further with every batch.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import LabeledSet, _class_count, _class_labels
from .errors import ConfigError, DimensionMismatch, InsufficientData, ParseError, SchemaMismatch
from .pipeline import MiniBatch
from .subspaces import _count, _real

Array = np.ndarray

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


@dataclass(frozen=True)
class CsvSchema:
    """How to read a CSV: source split, batch size, and whether to skip a header row."""

    source_fraction: float
    batch_size: int
    has_header: bool = False

    def __post_init__(self) -> None:
        fraction = _real("source_fraction", self.source_fraction)
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"source_fraction must lie in (0, 1), got {fraction}")
        batch_size = _count("batch_size", self.batch_size, 2)
        if not isinstance(self.has_header, bool):
            raise ConfigError(f"has_header must be a bool, got {self.has_header!r}")
        object.__setattr__(self, "source_fraction", fraction)
        object.__setattr__(self, "batch_size", batch_size)


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """A labelled source set plus an ordered stream of equally sized batches."""

    source: LabeledSet
    stream: tuple[MiniBatch, ...]

    def __post_init__(self) -> None:
        if len(self.stream) < 1:
            raise InsufficientData("stream must contain at least one batch")
        d = self.source.n_features
        sizes = {b.n_rows for b in self.stream}
        for b in self.stream:
            if b.x.shape[1] != d:
                raise DimensionMismatch(f"batch has {b.x.shape[1]} features, source has {d}")
        if len(sizes) != 1:
            raise DimensionMismatch(f"batches must share one size, got {sorted(sizes)}")


def load_csv(path: str | Path, schema: CsvSchema) -> DatasetBundle:
    """Read feature columns plus a trailing integer label column.

    Rows keep file order: the first ceil(source_fraction * N) rows become the
    labelled source, the rest are chunked into full batches of batch_size
    (a trailing partial batch is dropped).
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    expected = None
    with open(path, newline="", encoding="utf-8") as fh:
        for r, record in enumerate(_records(fh), start=1):
            if r == 1 and schema.has_header:
                continue
            if not record:
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
            if abs(label) >= 2.0**63:
                raise ParseError(f"row {r}, column {expected}: label {label!r} does not fit in 64 bits")
            rows.append(parsed[:-1])
            labels.append(int(label))
    if not rows:
        raise InsufficientData(f"no data rows in {path}")
    x = np.asarray(rows, dtype=np.float64)
    y = _class_labels(np.asarray(labels, dtype=np.int64))
    n_classes = _class_count(y)

    n_source = math.ceil(schema.source_fraction * x.shape[0])
    source_y = y[:n_source]
    class_counts = np.bincount(source_y, minlength=n_classes)
    if class_counts.min() < 2:
        raise InsufficientData(
            f"source split needs >= 2 rows of every class, got counts {class_counts.tolist()}"
        )
    source = LabeledSet(x=x[:n_source], y=source_y)

    batches = []
    bs = schema.batch_size
    for start in range(n_source, x.shape[0] - bs + 1, bs):
        batches.append(MiniBatch(x=x[start : start + bs], true_labels=y[start : start + bs]))
    if not batches:
        raise InsufficientData(f"no full batches of size {bs} after the source split")
    return DatasetBundle(source=source, stream=tuple(batches))


def _records(fh: Iterable[str]) -> Iterator[list[str]]:
    """csv.reader's records, with a malformed one raised as a ParseError naming its row."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None


def _triangular_waves() -> Array:
    waves = np.zeros((3, WAVEFORM_DIM))
    grid = np.arange(1, WAVEFORM_DIM + 1, dtype=np.float64)
    for i, peak in enumerate(WAVE_PEAKS):
        waves[i] = np.maximum(6.0 - np.abs(grid - peak), 0.0)
    return waves


def _waveform_rows(rng: np.random.Generator, labels: Array, noise_dims: int) -> Array:
    waves = _triangular_waves()
    u = rng.uniform(0.0, 1.0, size=labels.shape[0])[:, None]
    first = waves[[WAVE_PAIRS[int(c)][0] for c in labels]]
    second = waves[[WAVE_PAIRS[int(c)][1] for c in labels]]
    x = u * first + (1.0 - u) * second + rng.standard_normal((labels.shape[0], WAVEFORM_DIM))
    if noise_dims:
        x = np.hstack([x, rng.standard_normal((labels.shape[0], noise_dims))])
    return x


def _balanced_labels(rng: np.random.Generator, n: int, classes: int) -> Array:
    labels = np.arange(n, dtype=np.int64) % classes
    return rng.permutation(labels)


def gen_waveform(spec: StreamSpec, variant: str = "w21") -> DatasetBundle:
    """Three-class waveform mixture; "w40" appends 19 pure-noise dimensions.

    Every row mixes two of three triangular base waves with a uniform weight
    plus unit noise; the class is the wave pair. Source and stream are drawn
    from the same law, so this family has no drift.
    """
    if variant not in ("w21", "w40"):
        raise ConfigError(f"variant must be 'w21' or 'w40', got {variant!r}")
    noise_dims = WAVEFORM_NOISE_DIMS if variant == "w40" else 0
    rng = np.random.default_rng(spec.seed)
    if spec.source_size < 2 * 3:
        raise ConfigError(f"source_size must be >= 6 for three classes, got {spec.source_size}")
    src_labels = _balanced_labels(rng, spec.source_size, 3)
    source = LabeledSet(x=_waveform_rows(rng, src_labels, noise_dims), y=src_labels)
    batches = []
    for _ in range(spec.batch_count):
        labels = _balanced_labels(rng, spec.batch_size, 3)
        batches.append(MiniBatch(x=_waveform_rows(rng, labels, noise_dims), true_labels=labels))
    return DatasetBundle(source=source, stream=tuple(batches))


def _plane_rotation(d: int, angle: float) -> Array:
    rot = np.eye(d)
    rot[0, 0] = math.cos(angle)
    rot[0, 2] = -math.sin(angle)
    rot[2, 0] = math.sin(angle)
    rot[2, 2] = math.cos(angle)
    return rot


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
    if spec.source_size < 2 * classes:
        raise ConfigError(f"source_size must be >= {2 * classes} for {classes} classes")
    rng = np.random.default_rng(spec.seed)
    means = np.zeros((classes, d))
    for j in range(classes):
        phase = 2.0 * math.pi * j / classes
        means[j, 0] = ROTATING_CLASS_RADIUS * math.cos(phase)
        means[j, 1] = ROTATING_CLASS_RADIUS * math.sin(phase)
    stds = np.full(d, ROTATING_TAIL_STD)
    stds[0] = 1.0
    stds[1] = ROTATING_NUISANCE_STD
    stds[3] = ROTATING_NUISANCE_STD

    src_labels = _balanced_labels(rng, spec.source_size, classes)
    src_x = means[src_labels] + rng.standard_normal((spec.source_size, d)) * stds
    source = LabeledSet(x=src_x, y=src_labels)

    batches = []
    for n in range(1, spec.batch_count + 1):
        angle = (n / spec.batch_count) * total_rotation
        rot = _plane_rotation(d, angle)
        labels = _balanced_labels(rng, spec.batch_size, classes)
        noise = rng.standard_normal((spec.batch_size, d)) * stds
        x = (means[labels] + noise) @ rot.T
        batches.append(MiniBatch(x=x, true_labels=labels))
    return DatasetBundle(source=source, stream=tuple(batches))
