"""A seeded fuzz of the CLI over random CSV files and settings: every call ends in a documented exit code.

Each example writes a CSV of random rows and runs ``run`` or ``ablate`` on it.
Some files carry faults: cells replaced by NaN, infinities, entries beyond the
magnitude bound or text, bad labels, or rows of the wrong width. Some settings
are out of range. The expected exit code comes from this module's own oracle,
which reads only the generated file and settings: 3 for a setting checked
before the file is read, then 2 for a fault in the file, then 3 for a setting
checked after it, else 0.
"""

import json
import math
import random
import warnings
from dataclasses import dataclass

from driftalign.cli import main

EXAMPLES = 150
SEED = 20261020
VARIANTS = ("pca", "gfk", "gfk_fb", "gfk_gmean", "gfk_gmean_fb")
# Replacement cells: those float() reads, each non-finite or beyond the
# bound, and those it cannot read at all (a BOM, hex, a quoted comma, ...).
NUMBER_FAULTS = ("nan", "inf", "-inf", "1e400", "1e151", "-1e200", "1e300", "-2e155")
TEXT_FAULTS = ("abc", "", "0x1p3", "\ufeff1.5", '"1,5"', "1.5.2")
# Replacement labels: fractional, negative, not a number, beyond 64 bits, text;
# a label past the classes leaves a gap, and is added per file.
LABEL_FAULTS = ("1.5", "-1", "nan", "1e30", "abc")
# Out-of-range settings. The source split and batch size are checked before
# the file is opened, the rest after it is read.
EARLY_SETTINGS = {"--source-frac": ("0", "1", "-0.5", "1.5", "nan", "inf"), "--batch": ("1", "0", "-3")}
LATE_SETTINGS = {"--knn-neighbors": ("0", "-2"), "--svm-lambda": ("0", "-1", "inf", "nan"), "--svm-epochs": ("0",)}


@dataclass
class Example:
    lines: list
    argv: list
    n_rows: int
    labels: list
    bad_cells: list  # (data row, token); the label column's faults are in bad_labels
    bad_labels: int
    bad_width: bool
    source_frac: float
    batch: int
    early_bad: bool
    late_bad: bool
    variants: int


def make_example(rng):
    """One random file and argument list, and what the oracle needs to know about them."""
    d, classes = rng.randint(3, 7), rng.randint(2, 3)
    n = rng.randint(16, 48)
    labels = [i % classes for i in range(2 * classes)] + [rng.randrange(classes) for _ in range(n - 2 * classes)]
    rows = [[f"{rng.gauss(2.0 * y if j == 0 else 0.0, 1.0):.6g}" for j in range(d)] + [str(y)]
            for y in labels]
    bad_cells, bad_labels, bad_width = [], 0, False
    # One kind of fault a file, so that no fault hides another.
    fault = rng.choice(("none", "none", "cell", "cell", "label", "width"))
    if fault in ("cell", "label"):
        # about 1% of the cells, each at most once, all with the same token
        width = 1 if fault == "label" else d
        token = rng.choice(LABEL_FAULTS + (str(classes + 3),) if fault == "label" else NUMBER_FAULTS + TEXT_FAULTS)
        for cell in rng.sample(range(n * width), max(1, round(0.01 * n * (d + 1)))):
            i, j = divmod(cell, width)
            if fault == "label":
                rows[i][d] = token
                bad_labels += 1
            else:
                rows[i][j] = token
                bad_cells.append((i, token))
    elif fault == "width":
        row = rows[rng.randrange(n)]
        if rng.random() < 0.5:
            row.pop()
        else:
            row.append("0.5")
        bad_width = True
    lines = [",".join(row) for row in rows]
    # Blank lines are skipped wherever they are, and a skipped header is never read.
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randrange(len(lines) + 1), "")
    header = rng.random() < 0.3
    if header:
        lines.insert(0, ",".join(f"f{j}" for j in range(d)) + ",label")

    settings = {
        "--source-frac": repr(round(rng.uniform(0.2, 0.8), 3)),
        "--batch": str(rng.randint(4, 12)),
        "--k": str(rng.randint(1, (d - 1) // 2)),
    }
    classifier = rng.choice(("knn", "svm"))
    if classifier == "knn":
        settings["--knn-neighbors"] = rng.choice(("1", "3"))
    else:
        settings.update({"--svm-lambda": rng.choice(("0.001", "0.1")), "--svm-epochs": str(rng.randint(1, 3))})
    early_bad = late_bad = False
    if rng.random() < 0.2:
        name = rng.choice(sorted(EARLY_SETTINGS))
        settings[name] = rng.choice(EARLY_SETTINGS[name])
        early_bad = True
    if rng.random() < 0.2:
        # a classifier's settings are checked only for that classifier; k must be >= 1 and below d/2
        name = rng.choice([name for name in LATE_SETTINGS if name in settings] + ["--k"])
        settings[name] = rng.choice(LATE_SETTINGS.get(name, ("0", "-1", str(math.ceil(d / 2)), str(d))))
        late_bad = True
    ablate = rng.random() < 0.2
    argv = ["ablate"] if ablate else ["run", "--variant", rng.choice(VARIANTS)]
    argv += ["--classifier", classifier, *(part for item in settings.items() for part in item), "--zero-timings"]
    if header:
        argv.append("--skip-header")
    return Example(lines=lines, argv=argv, n_rows=n, labels=labels, bad_cells=bad_cells, bad_labels=bad_labels,
                   bad_width=bad_width, source_frac=float(settings["--source-frac"]), batch=int(settings["--batch"]),
                   early_bad=early_bad, late_bad=late_bad, variants=len(VARIANTS) if ablate else 1)


def batch_count(ex):
    """Full batches after the source split: the leading ceil(frac * N) rows are the source."""
    n_source = math.ceil(ex.source_frac * ex.n_rows)
    return (ex.n_rows - n_source) // ex.batch


def expected_exit(ex):
    """The exit code the documented policy gives the example, from its file and settings alone."""
    if ex.early_bad:
        return 3
    if ex.bad_labels or ex.bad_width or any(token in TEXT_FAULTS for _, token in ex.bad_cells):
        return 2
    n_source = math.ceil(ex.source_frac * ex.n_rows)
    used = n_source + batch_count(ex) * ex.batch
    # every number fault is NaN, infinite or beyond the bound, which only the source and full batches are checked for
    if any(i < used for i, _ in ex.bad_cells):
        return 2
    source = ex.labels[:n_source]
    if min(source.count(y) for y in set(ex.labels)) < 2 or batch_count(ex) == 0:
        return 2
    return 3 if ex.late_bad else 0


def test_the_oracle_reads_faults_and_settings():
    ex = Example(lines=[], argv=[], n_rows=20, labels=[0, 1] * 10, bad_cells=[], bad_labels=0, bad_width=False,
                 source_frac=0.5, batch=4, early_bad=False, late_bad=False, variants=1)
    assert batch_count(ex) == 2 and expected_exit(ex) == 0
    assert expected_exit(Example(**{**vars(ex), "bad_cells": [(17, "nan")]})) == 2
    # rows 18 and 19 are the dropped tail after two batches of 4, where only text is an error
    assert expected_exit(Example(**{**vars(ex), "bad_cells": [(18, "nan")]})) == 0
    assert expected_exit(Example(**{**vars(ex), "bad_cells": [(18, "abc")]})) == 2
    assert expected_exit(Example(**{**vars(ex), "batch": 11})) == 2
    assert expected_exit(Example(**{**vars(ex), "late_bad": True})) == 3
    assert expected_exit(Example(**{**vars(ex), "late_bad": True, "bad_width": True})) == 2
    assert expected_exit(Example(**{**vars(ex), "early_bad": True, "bad_width": True})) == 3
    assert expected_exit(Example(**{**vars(ex), "source_frac": 0.1})) == 2


def test_every_call_ends_in_its_documented_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    found, codes = [], []
    for n in range(EXAMPLES):
        ex = make_example(rng)
        data, out = tmp_path / f"{n}.csv", tmp_path / f"{n}.json"
        data.write_text("\n".join(ex.lines) + "\n", encoding="utf-8")
        argv = [*ex.argv, "--csv", str(data), "--out", str(out)]
        expected = expected_exit(ex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # a traceback is a bug whatever its class
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        codes.append(code)
        problems = [f"warned {w.message}" for w in caught]
        if code != expected:
            problems.append(f"exit {code!r}, expected {expected}")
        if code in (2, 3):
            prefix = "data error: " if code == 2 else "config error: "
            if not (err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")):
                problems.append(f"stderr {err!r}")
            if out.exists():
                problems.append("wrote a report")
        elif code == 0:
            variants = json.loads(out.read_text(encoding="utf-8"))["variants"]
            lengths = [len(v["per_batch"]) for v in variants]
            if err or lengths != [batch_count(ex)] * ex.variants:
                problems.append(f"stderr {err!r}, per_batch lengths {lengths}")
        if problems:
            found.append((n, argv[:-4], problems))
    assert found == []
    # the seed reaches every exit code the oracle can give
    assert {0, 2, 3} <= set(codes)
