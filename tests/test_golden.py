"""Golden outputs: the bytes every documented command writes, the labels every rung predicts, the streams drawn.

Each command below is run once in process, by the session's ``outputs``
fixture (tests/conftest.py), whose runs the README and criterion 7 checks
read too. Its --zero-timings report, and a transcript of its exit code,
stdout and stderr, must equal the files under tests/golden/ byte for byte; a
mismatch prints a unified diff. The predicted labels of every batch of every
ladder rung on the reference drift stream are pinned by one sha256, since the
reports hold accuracies, and a label flip that keeps the counts moves no
accuracy. The bytes both generators draw are pinned by another sha256. The
files were recorded with numpy's float64 on x86, under the OpenBLAS core and
numpy SIMD targets that kernels.txt names; a failing diff names both when
this run's differ. A change that moves any byte says which and why, and
``PYTHONPATH=src python tests/test_golden.py`` rewrites them. One ablate
command also runs in two subprocesses, under one and two OpenBLAS threads,
and both reports must equal its golden file. The stream and label digests
and one ablate report are checked again under other x86 kernels: OpenBLAS's
Haswell (AVX2) and Prescott (SSE3) cores, and numpy without its AVX-512 loops.
"""

import ctypes
import difflib
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from conftest import README, pinned_form, readme_commands, run_command, settings
import driftalign
from driftalign import (
    VARIANT_FLAGS,
    PipelineConfig,
    StreamSpec,
    gen_rotating_drift,
    gen_waveform,
    init_pipeline,
    process_batch,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# Golden name -> argv, without --out. The run and ablate commands are the
# README's with --zero-timings; "criterion7" is the acceptance gate's run,
# which parses to the settings of "ablate_rotating" and so shares its run.
COMMANDS = {
    "run_rotating": "run --gen rotating --batch 50 --batch-count 60 --seed 0 --variant gfk_gmean_fb --k 3",
    "run_waveform21": "run --gen waveform21 --batch 100 --batch-count 6 --seed 0 --variant gfk_gmean_fb --k 10",
    "ablate_rotating": "ablate --gen rotating --batch 50 --batch-count 60 --seed 0",
    "ablate_rotating_b10": "ablate --gen rotating --batch 10 --batch-count 300 --seed 0",
    "ablate_waveform21": "ablate --gen waveform21 --k 10 --batch 100 --batch-count 20 --seed 0",
    "ablate_waveform40": "ablate --gen waveform40 --k 10 --batch 100 --batch-count 20 --seed 0",
    "criterion7": "ablate --gen rotating --batch 50 --batch-count 60 --source-size 500 --seed 0",
    "ablate_waveform40_svm": "ablate --gen waveform40 --k 10 --classifier svm",
    "verify": "verify",
    "verify_instances10": "verify --instances 10",
    "verify_inject_fault": "verify --inject-fault gfk-cross-sign",
}
COMMANDS = {name: line.split() + ([] if line.startswith("verify") else ["--zero-timings"])
             for name, line in COMMANDS.items()}


def ladder_label_digest():
    """sha256 of the int64 labels that process_batch predicts, rung by rung, batch by batch.

    The stream is the acceptance gate's reference drift stream (seed 0, 60
    batches of 50 rows, d=10, k=3).
    """
    spec = StreamSpec(batch_size=50, batch_count=60, seed=0, source_size=500)
    bundle = gen_rotating_drift(spec, classes=2, d=10, total_rotation=math.pi / 3)
    digest = hashlib.sha256()
    for variant in VARIANT_FLAGS:
        state = init_pipeline(bundle.source, PipelineConfig(sub_dim=3, variant=variant))
        for batch in bundle.stream:
            labels, state, _ = process_batch(state, batch)
            digest.update(labels.astype(np.int64).tobytes())
    return digest.hexdigest() + "\n"


def stream_digest():
    """sha256 of the generated bytes: source x and y, then each batch's x and labels, over four streams.

    A changed row reaches the reports and the ladder digest only when it flips
    a label; this pins every byte both generators draw.
    """
    bundles = (
        gen_rotating_drift(StreamSpec(50, 60, 0, 500), classes=2, d=10, total_rotation=math.pi / 3),
        gen_rotating_drift(StreamSpec(30, 7, 3, 90), classes=3, d=8, total_rotation=0.7),
        gen_waveform(StreamSpec(100, 20, 0), "w21"),
        gen_waveform(StreamSpec(100, 20, 0), "w40"),
    )
    digest = hashlib.sha256()
    for bundle in bundles:
        arrays = [bundle.source.x, bundle.source.y]
        for batch in bundle.stream:
            arrays += [batch.x, batch.true_labels]
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest() + "\n"


def kernels():
    """'openblas CORE, numpy TARGETS': the OpenBLAS core and numpy's enabled SIMD dispatch targets in this process.

    The rounding digits of the golden bytes depend on both. The core is read
    from the OpenBLAS that numpy's wheel bundles, and is 'unknown' where no
    bundled library has the scipy_openblas_get_corename64_ symbol.
    """
    core = "unknown"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    features = _multiarray_umath.__cpu_features__
    targets = " ".join(t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t))
    return f"openblas {core}, numpy {targets}\n"


def golden_diff(name, got, run_kernels=None):
    """'' if got equals the golden file's bytes, else a unified diff from the file to got.

    When the kernels the golden files were recorded under differ from
    ``run_kernels`` (this process's by default), a failing diff ends with a
    line naming both.
    """
    path = GOLDEN / name
    expected = path.read_bytes()
    if got == expected:
        return ""
    lines = difflib.unified_diff(expected.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
                                 fromfile=f"tests/golden/{name}", tofile="this run")
    diff = "".join(lines) or f"{name}: bytes differ\n"
    recorded, run = (GOLDEN / "kernels.txt").read_text().strip(), (run_kernels or kernels()).strip()
    return diff if recorded == run else f"{diff}recorded under {recorded}; this run under {run}\n"


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_is_golden(outputs, name):
    diff = "".join(golden_diff(name + suffix, data) for suffix, data in sorted(outputs(COMMANDS[name]).items()))
    if diff:
        pytest.fail(diff, pytrace=False)


def test_every_readme_command_is_pinned():
    pinned = {settings(argv) for argv in COMMANDS.values()}
    for argv, _ in readme_commands(README.read_text()):
        assert settings(pinned_form(argv)) in pinned, " ".join(argv)


def test_ladder_labels_are_golden():
    diff = golden_diff("ladder_labels.sha256", ladder_label_digest().encode())
    if diff:
        pytest.fail(diff, pytrace=False)


def test_generated_streams_are_golden():
    diff = golden_diff("streams.sha256", stream_digest().encode())
    if diff:
        pytest.fail(diff, pytrace=False)


def test_ablate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS that splits a product over threads may sum it in another order;
    # the report must not see that
    argv = [sys.executable, "-m", "driftalign", *COMMANDS["ablate_waveform40"]]
    stdouts = []
    for threads in ("1", "2"):
        report = tmp_path / f"threads{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(driftalign.__file__).resolve().parents[1])}
        result = subprocess.run([*argv, "--out", str(report)], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        diff = golden_diff("ablate_waveform40.json", report.read_bytes())
        if diff:
            pytest.fail(f"OPENBLAS_NUM_THREADS={threads}\n{diff}", pytrace=False)
        stdouts.append(result.stdout)
    assert stdouts[0] == stdouts[1]


# Each setting picks another kernel of the same OpenBLAS build, or turns off
# numpy's AVX-512 loops as a host without them would.
KERNEL_SETTINGS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
}
# Prints {golden name: this process's bytes, as text} and the kernels it ran under.
KERNEL_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from conftest import run_command
from test_golden import COMMANDS, kernels, ladder_label_digest, stream_digest
with tempfile.TemporaryDirectory() as workdir:
    ablate = run_command(COMMANDS["ablate_rotating"], workdir)
got = {"streams.sha256": stream_digest(), "ladder_labels.sha256": ladder_label_digest(),
       **{"ablate_rotating" + suffix: data.decode() for suffix, data in ablate.items()}}
print(json.dumps({"kernels": kernels(), "got": got}))
"""


@pytest.mark.parametrize("setting", KERNEL_SETTINGS)
def test_pins_do_not_depend_on_the_x86_kernels(setting):
    # the generated streams, the ladder's labels and the ablate bytes must not
    # read the rounding of one BLAS or SIMD kernel
    env = {**os.environ, **KERNEL_SETTINGS[setting],
           "PYTHONPATH": str(Path(driftalign.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", KERNEL_PROBE, str(Path(__file__).parent)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert sorted(probe["got"]) == ["ablate_rotating.json", "ablate_rotating.out", "ladder_labels.sha256",
                                    "streams.sha256"]
    diff = "".join(golden_diff(name, got.encode(), probe["kernels"]) for name, got in sorted(probe["got"].items()))
    if diff:
        pytest.fail(f"{setting}\n{diff}", pytrace=False)


def test_a_failing_diff_names_the_kernels(monkeypatch):
    recorded = (GOLDEN / "kernels.txt").read_text()
    assert recorded.startswith("openblas ") and ", numpy " in recorded
    monkeypatch.setattr(sys.modules[__name__], "kernels", lambda: "openblas Prescott, numpy X86_V3\n")
    assert golden_diff("streams.sha256", stream_digest().encode()) == ""
    diff = golden_diff("streams.sha256", b"0" * 64 + b"\n")
    assert diff.startswith("--- tests/golden/streams.sha256\n")
    assert diff.splitlines()[-1] == f"recorded under {recorded.strip()}; this run under openblas Prescott, numpy X86_V3"
    assert golden_diff("streams.sha256", b"0" * 64 + b"\n", recorded) == diff.rsplit("recorded under", 1)[0]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in COMMANDS.items():
            for suffix, data in run_command(argv, workdir).items():
                (GOLDEN / (name + suffix)).write_bytes(data)
    (GOLDEN / "ladder_labels.sha256").write_text(ladder_label_digest())
    (GOLDEN / "streams.sha256").write_text(stream_digest())
    (GOLDEN / "kernels.txt").write_text(kernels())
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
