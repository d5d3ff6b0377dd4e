"""Golden outputs: the bytes every documented command writes, and the labels every rung predicts.

Each command below is run once in process, by the session's ``outputs``
fixture (tests/conftest.py), whose runs the README and criterion 7 checks
read too. Its --zero-timings report, and a transcript of its exit code,
stdout and stderr, must equal the files under tests/golden/ byte for byte; a
mismatch prints a unified diff. The predicted labels of every batch of every
ladder rung on the reference drift stream are pinned by one sha256, since the
reports hold accuracies, and a label flip that keeps the counts moves no
accuracy. The files were recorded with numpy's float64 on x86; a change that
moves any byte says which and why, and
``PYTHONPATH=src python tests/test_golden.py`` rewrites them. One ablate
command also runs in two subprocesses, under one and two OpenBLAS threads,
and both reports must equal its golden file.
"""

import difflib
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import README, pinned_form, readme_commands, run_command, settings
import driftalign
from driftalign import VARIANT_FLAGS, PipelineConfig, StreamSpec, gen_rotating_drift, init_pipeline, process_batch

GOLDEN = Path(__file__).resolve().parent / "golden"

# Golden name -> argv, without --out. The run and ablate commands are the
# README's with --zero-timings; "criterion7" is the acceptance gate's run,
# which parses to the settings of "ablate_rotating" and so shares its run.
COMMANDS = {
    "run_rotating": "run --gen rotating --batch 50 --batch-count 60 --seed 0 --variant gfk_gmean_fb --k 3",
    "run_waveform21": "run --gen waveform21 --batch 100 --batch-count 6 --seed 0 --variant gfk_gmean_fb --k 10",
    "ablate_rotating": "ablate --gen rotating --batch 50 --batch-count 60 --seed 0",
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


def golden_diff(name, got):
    """'' if got equals the golden file's bytes, else a unified diff from the file to got."""
    path = GOLDEN / name
    expected = path.read_bytes()
    if got == expected:
        return ""
    lines = difflib.unified_diff(expected.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
                                 fromfile=f"tests/golden/{name}", tofile="this run")
    return "".join(lines) or f"{name}: bytes differ\n"


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in COMMANDS.items():
            for suffix, data in run_command(argv, workdir).items():
                (GOLDEN / (name + suffix)).write_bytes(data)
    (GOLDEN / "ladder_labels.sha256").write_text(ladder_label_digest())
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
