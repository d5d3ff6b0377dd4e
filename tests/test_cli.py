"""Command line interface: exit codes, report schema, reproducible bytes."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import driftalign
from driftalign.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def readme_commands(text):
    """(argv, expected exit code) for every `driftalign` line of the sh blocks in README text.

    A trailing comment of the form `exits N` documents a nonzero exit code.
    """
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if not command.startswith("driftalign "):
                continue
            documented = re.search(r"exits (\d)", comment)
            commands.append((shlex.split(command)[1:], int(documented.group(1)) if documented else 0))
    return commands


def two_class_csv(path, bad_row=None, bad_cell="nan", bad_column=2):
    """Four features and a label; row bad_row + 1, column bad_column (1-based) holds bad_cell."""
    rng = np.random.default_rng(0)
    lines = []
    for i in range(120):
        feats = rng.standard_normal(4) + (3.0 if i % 2 else -3.0)
        cells = [f"{v:.6f}" for v in feats] + [str(i % 2)]
        if i == bad_row:
            cells[bad_column - 1] = bad_cell
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def rotating_args(out, *extra):
    return (
        "run", "--gen", "rotating", "--batch", "30", "--batch-count", "6",
        "--source-size", "120", "--seed", "0", "--variant", "gfk_gmean_fb",
        "--out", str(out), *extra,
    )


def csv_label_args(tmp_path, label):
    data = two_class_csv(tmp_path / "labels.csv", bad_row=5, bad_cell=label, bad_column=5)
    return (
        "run", "--csv", str(data), "--source-frac", "0.3", "--batch", "20",
        "--k", "1", "--variant", "gfk", "--out", str(tmp_path / "x.json"),
    )


SVM_ARGS = ("--variant", "gfk", "--classifier", "svm", "--svm-epochs", "2")

# Bad inputs, each with the exit code its error base sets and the one line of
# stderr it prints. Before every error was a DriftAlignError, the negative
# seeds exited 3 only through numpy's own ValueError, the non-finite
# --svm-lambda values exited 0 with NaN weights, the label nan exited 3 and
# the labels inf and 1e300 ended in a traceback. A subnormal --svm-lambda
# made 1/lambda infinite and the weights NaN, and exited 0 with a warning.
BAD_INPUTS = [
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", "--seed", "-1"), 3,
                 "config error: seed must be >= 0, got -1", id="seed"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-seed", "-1"), 3,
                 "config error: seed must be >= 0, got -1", id="svm-seed"),
    pytest.param(lambda tmp: ("verify", "--seed", "-1"), 3,
                 "config error: seed must be >= 0, got -1", id="verify-seed"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", "--knn-neighbors", "0"), 3,
                 "config error: n_neighbors must be >= 1, got 0", id="knn-neighbors"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-epochs", "0"), 3,
                 "config error: epochs must be >= 1, got 0", id="svm-epochs"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-lambda", "-1"), 3,
                 "config error: regularization must be positive, got -1.0", id="svm-lambda-negative"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-lambda", "nan"), 3,
                 "config error: regularization must be finite, got nan", id="svm-lambda-nan"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-lambda", "inf"), 3,
                 "config error: regularization must be finite, got inf", id="svm-lambda-inf"),
    pytest.param(lambda tmp: rotating_args(tmp / "x.json", *SVM_ARGS, "--svm-lambda", "1e-320"), 2,
                 "data error: SVM training with regularization 1e-320 gave non-finite weights",
                 id="svm-lambda-subnormal"),
    pytest.param(lambda tmp: ("verify", "--instances", "0"), 3,
                 "config error: instances must be >= 1, got 0", id="verify-instances"),
    pytest.param(lambda tmp: csv_label_args(tmp, "nan"), 2,
                 "data error: row 6, column 5: label nan is not an integer", id="csv-label-nan"),
    pytest.param(lambda tmp: csv_label_args(tmp, "inf"), 2,
                 "data error: row 6, column 5: label inf is not an integer", id="csv-label-inf"),
    pytest.param(lambda tmp: csv_label_args(tmp, "1e300"), 2,
                 "data error: row 6, column 5: label 1e+300 does not fit in 64 bits", id="csv-label-1e300"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, message", BAD_INPUTS)
    def test_bad_input_exits_with_its_base_code_and_one_line(self, tmp_path, capsys, argv, code, message):
        assert run_cli(*argv(tmp_path)) == code
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert not (tmp_path / "x.json").exists()

    def test_successful_run_returns_zero(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run_cli(*rotating_args(out)) == 0
        assert out.exists()

    def test_usage_error_returns_one(self, tmp_path):
        # --variant is required for run
        code = run_cli("run", "--gen", "rotating", "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_removed_diagnostics_flag_is_a_usage_error(self, tmp_path):
        assert run_cli(*rotating_args(tmp_path / "x.json", "--diagnostics")) == 1

    def test_unknown_variant_is_a_usage_error(self, tmp_path):
        code = run_cli(*rotating_args(tmp_path / "x.json")[:-3], "--variant", "nope",
                       "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_missing_csv_returns_two(self, tmp_path):
        code = run_cli(
            "run", "--csv", str(tmp_path / "absent.csv"), "--variant", "pca",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_csv_that_is_a_directory_returns_two(self, tmp_path, capsys):
        code = run_cli("run", "--csv", str(tmp_path), "--variant", "pca", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_non_utf8_csv_returns_two(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"1.0,2.0,0\n\xff1.5,2.5,1\n")
        code = run_cli("run", "--csv", str(data), "--variant", "pca", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("where", ["directory", "missing_parent", "empty"])
    def test_unwritable_out_is_a_usage_error_before_the_stream_is_read(self, tmp_path, capsys, where):
        # the CSV does not exist either: a usage error means it was never opened
        out = {"directory": str(tmp_path), "missing_parent": str(tmp_path / "absent" / "x.json"), "empty": ""}[where]
        code = run_cli("run", "--csv", str(tmp_path / "absent.csv"), "--variant", "pca", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --out:")
        assert not (tmp_path / "absent").exists()

    def test_unparseable_csv_returns_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n1.5,oops,1\n3.0,4.0,0\n5.0,6.0,1\n" * 5)
        code = run_cli(
            "run", "--csv", str(bad), "--variant", "pca", "--source-frac", "0.4",
            "--batch", "2", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2, column 2" in err

    @pytest.mark.parametrize("nan_row", [5, 60], ids=["source", "stream"])
    def test_non_finite_csv_cell_returns_two(self, tmp_path, capsys, nan_row):
        data = two_class_csv(tmp_path / "nan.csv", bad_row=nan_row)
        code = run_cli(
            "run", "--csv", str(data), "--source-frac", "0.3", "--batch", "20",
            "--k", "1", "--variant", "gfk", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err

    @pytest.mark.parametrize("row", [5, 60], ids=["source", "stream"])
    def test_csv_cell_beyond_the_magnitude_bound_returns_two(self, tmp_path, capsys, row):
        data = two_class_csv(tmp_path / "big.csv", bad_row=row, bad_cell="1e160")
        code = run_cli(
            "run", "--csv", str(data), "--source-frac", "0.3", "--batch", "20",
            "--k", "1", "--variant", "gfk", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "beyond" in err

    def test_oversized_subspace_returns_three_citing_the_rule(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run_cli(*rotating_args(out, "--k", "5", "--dim", "10"))
        assert code == 3
        assert "k < d/2" in capsys.readouterr().err

    def test_zero_svm_epochs_returns_three(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run_cli(*rotating_args(out, "--variant", "gfk", "--classifier", "svm", "--svm-epochs", "0"))
        assert code == 3
        assert "epochs must be >= 1" in capsys.readouterr().err

    def test_only_the_named_classifier_params_are_checked(self, tmp_path, capsys):
        # --svm-epochs 0 is ignored by a kNN run, as --knn-neighbors 0 is by an SVM run
        assert run_cli(*rotating_args(tmp_path / "k.json", "--svm-epochs", "0")) == 0
        assert run_cli(*rotating_args(tmp_path / "x.json", "--knn-neighbors", "0")) == 3
        assert "n_neighbors must be >= 1" in capsys.readouterr().err
        svm_args = ("--classifier", "svm", "--svm-epochs", "2", "--knn-neighbors", "0")
        assert run_cli(*rotating_args(tmp_path / "s.json", *svm_args)) == 0

    def test_bad_rotation_returns_three(self, tmp_path):
        code = run_cli(*rotating_args(tmp_path / "x.json", "--rotation", "3.0"))
        assert code == 3

    def test_injected_fault_fails_verification_with_four(self, capsys):
        code = run_cli("verify", "--instances", "3", "--inject-fault", "gfk-cross-sign")
        assert code == 4
        assert "kernel_matches_quadrature" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", [(), ("--inject-fault", "gfk-cross-sign")], ids=["clean", "fault"])
    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_verify_without_instances_returns_three(self, capsys, instances, fault):
        assert run_cli("verify", "--instances", instances, *fault) == 3
        captured = capsys.readouterr()
        assert "instances must be >= 1" in captured.err
        assert "passed" not in captured.out

    def test_small_verify_passes(self, capsys):
        assert run_cli("verify", "--instances", "3") == 0
        assert "properties passed" in capsys.readouterr().out


class TestTraceSchema:
    def test_run_report_fields(self, tmp_path):
        out = tmp_path / "trace.json"
        run_cli(*rotating_args(out))
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "variants"}
        assert payload["config"]["command"] == "run"
        assert payload["config"]["data"]["generator"] == "rotating"
        (variant,) = payload["variants"]
        assert variant["name"] == "gfk_gmean_fb"
        assert variant["classifier"] == "knn"
        assert len(variant["per_batch"]) == 6
        assert len(variant["running"]) == 6
        assert variant["final"] == variant["running"][-1]
        assert set(variant["seconds_per_step"]) == {"pca", "mean", "gfk", "predict"}

    def test_ablate_covers_the_whole_ladder_in_order(self, tmp_path):
        out = tmp_path / "ladder.json"
        code = run_cli(
            "ablate", "--gen", "rotating", "--batch", "30", "--batch-count", "5",
            "--source-size", "120", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = [v["name"] for v in payload["variants"]]
        assert names == ["pca", "gfk", "gfk_fb", "gfk_gmean", "gfk_gmean_fb"]

    def test_short_variant_names_are_usage_errors(self, tmp_path, capsys):
        # fb, gmean and gmean_fb were once aliases; each ladder step has one name
        out = tmp_path / "alias.json"
        code = run_cli(
            "run", "--gen", "rotating", "--batch", "30", "--batch-count", "4",
            "--source-size", "120", "--variant", "gmean_fb", "--out", str(out),
        )
        assert code == 1
        assert "invalid choice: 'gmean_fb'" in capsys.readouterr().err
        assert not out.exists()

    def test_running_equals_mean_of_per_batch_prefixes(self, tmp_path):
        out = tmp_path / "trace.json"
        run_cli(*rotating_args(out))
        (variant,) = json.loads(out.read_text())["variants"]
        scored = []
        for i, a in enumerate(variant["per_batch"]):
            if a is not None:
                scored.append(a)
            assert abs(variant["running"][i] - sum(scored) / len(scored)) < 1e-12

    def test_csv_input_round_trips_through_the_pipeline(self, tmp_path):
        data = two_class_csv(tmp_path / "data.csv")
        out = tmp_path / "csv_trace.json"
        code = run_cli(
            "run", "--csv", str(data), "--source-frac", "0.3", "--batch", "20",
            "--k", "1", "--variant", "gfk", "--out", str(out),
        )
        assert code == 0
        (variant,) = json.loads(out.read_text())["variants"]
        assert variant["final"] > 0.9


class TestDeterminism:
    def test_zero_timings_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = (
            "ablate", "--gen", "rotating", "--batch", "30", "--batch-count", "5",
            "--source-size", "120", "--zero-timings",
        )
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timings_change_but_accuracies_do_not(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(*rotating_args(out)) == 0
        va = json.loads(a.read_text())["variants"][0]
        vb = json.loads(b.read_text())["variants"][0]
        assert va["per_batch"] == vb["per_batch"]
        assert va["running"] == vb["running"]


def core_primitive_names():
    """Backticked names that head each bullet of README's "Core primitives" list."""
    section = README.read_text().split("### Core primitives", 1)[1].split("\n## ", 1)[0]
    names = []
    for bullet in re.split(r"\n- ", section)[1:]:
        head = " ".join(bullet.split()).split(":", 1)[0]
        names += re.findall(r"`(\w+)`", head)
    return names


class TestReadmePrimitives:
    def test_every_listed_primitive_is_exported(self):
        names = core_primitive_names()
        assert "flow_kernel" in names and "train" in names
        missing = [n for n in names if n not in driftalign.__all__ or not hasattr(driftalign, n)]
        assert not missing, f"README lists names driftalign does not export: {missing}"


class TestReadmeCommands:
    def test_readme_documents_every_subcommand(self):
        documented = {argv[0] for argv, _ in readme_commands(README.read_text())}
        assert documented == {"run", "ablate", "verify"}

    @pytest.mark.parametrize(
        "argv,expected", readme_commands(README.read_text()),
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_readme_command_exits_as_documented(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == expected


LADDER_SECTION = README.read_text().split("\n## What each step does\n", 1)[1].split("\n## ", 1)[0]


def ladder_finals_table():
    """{--gen value: (header names, finals in percent as printed)} from README's "What each step does" table."""
    header = re.search(r"^\| `--gen` \|(.*)\|$", LADDER_SECTION, flags=re.M).group(1)
    names = [cell.strip() for cell in header.split("|")]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", LADDER_SECTION, flags=re.M)
    return {gen: (names, [cell.strip() for cell in cells.split("|")]) for gen, cells in rows}


class TestReadmeLadder:
    def test_each_ablate_command_has_a_table_row(self):
        gens = [argv[argv.index("--gen") + 1] for argv, _ in readme_commands(LADDER_SECTION)]
        assert gens == ["rotating", "waveform21", "waveform40"]
        assert sorted(ladder_finals_table()) == sorted(gens)

    @pytest.mark.parametrize("argv", [argv for argv, _ in readme_commands(LADDER_SECTION)], ids=" ".join)
    def test_ablate_prints_the_readme_finals(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert argv[0] == "ablate" and run_cli(*argv) == 0
        printed = re.findall(r"^(\w+) +knn +final accuracy (\S+)$", capsys.readouterr().out, flags=re.M)
        names, percents = ladder_finals_table()[argv[argv.index("--gen") + 1]]
        assert printed == [(name, f"{float(p) / 100:.4f}") for name, p in zip(names, percents, strict=True)]
