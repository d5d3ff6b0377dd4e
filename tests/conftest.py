"""Fixtures and helpers shared by the test modules.

Every documented command (the README's `driftalign` lines and the golden
commands of tests/test_golden.py) runs at most once per session, through the
``outputs`` fixture: the golden tests compare its bytes, and the README and
acceptance tests read its exit code and stdout from the same run.
"""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from driftalign import StreamSpec, gen_rotating_drift
from driftalign.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
LADDER_SECTION = README.read_text().split("\n## What each step does\n", 1)[1].split("\n## ", 1)[0]


def _object_holding_complex(a):
    out = a.astype(object)
    out.flat[-1] += 1j
    return out


# A float array's values in each dtype kind the float64 gate rejects. A plain
# cast would keep the real part of the complex array, parse the strings and
# bytes, cast the object floats, and raise numpy's TypeError on the object
# complex.
NON_REAL = {
    "complex": lambda a: a + 1j,
    "str": lambda a: a.astype(str),
    "bytes": lambda a: a.astype(bytes),
    "object_complex": _object_holding_complex,
    "object_float": lambda a: a.astype(object),
}


@pytest.fixture(params=list(NON_REAL))
def non_real(request):
    """Maps a float array to the same values in a dtype that is not bool, integer or float."""
    return NON_REAL[request.param]


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


def variants_table():
    """{variant name: (target subspace, transform, feedback) cells} from README's "Variants" table."""
    section = README.read_text().split("\n### Variants\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", section, flags=re.M)
    return {name: tuple(cell.strip() for cell in cells.split("|")) for name, cells in rows}


def ladder_finals_table():
    """{--gen value: (header names, finals in percent as printed)} from README's "What each step does" table."""
    header = re.search(r"^\| `--gen` \|(.*)\|$", LADDER_SECTION, flags=re.M).group(1)
    names = [cell.strip() for cell in header.split("|")]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", LADDER_SECTION, flags=re.M)
    return {gen: (names, [cell.strip() for cell in cells.split("|")]) for gen, cells in rows}


def pinned_stream(seed=0):
    """The acceptance gate's reference drift stream at a seed: 500 source rows, 60 batches of 50, d=10.

    Seed 0 is the stream the pins and the golden ladder labels read, at k=3.
    """
    spec = StreamSpec(batch_size=50, batch_count=60, seed=seed, source_size=500)
    return gen_rotating_drift(spec, classes=2, d=10, total_rotation=math.pi / 3)


def pinned_form(argv):
    """The golden form of a README command: its --out PATH dropped and --zero-timings added."""
    if "--out" not in argv:
        return argv
    at = argv.index("--out")
    return [*argv[:at], *argv[at + 2:], "--zero-timings"]


def run_command(argv, workdir):
    """{golden suffix: bytes} of one in-process run: the report as ".json" if it writes one, and ".out"."""
    report = Path(workdir) / "report.json"
    argv = argv if argv[0] == "verify" else [*argv, "--out", str(report)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    transcript = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    outputs = {".out": transcript.encode()}
    if report.exists():
        outputs[".json"] = report.read_bytes()
        report.unlink()
    return outputs


def read_transcript(data):
    """(exit code, stdout, stderr) of a run, read back from the ".out" bytes of run_command."""
    head, rest = data.decode().split("\n--- stdout\n", 1)
    stdout, stderr = rest.split("--- stderr\n", 1)
    return int(head.removeprefix("exit ")), stdout, stderr


def settings(argv):
    """What a command does: its subcommand and parsed arguments, without where the report goes."""
    parsed = vars(build_parser().parse_args(argv if argv[0] == "verify" else [*argv, "--out", "-"]))
    return argv[0], tuple(sorted((k, v) for k, v in parsed.items() if k not in ("out", "func")))


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    """Outputs of a command by argv; commands with equal settings share one run."""
    workdir = tmp_path_factory.mktemp("documented")
    runs = {}

    def get(argv):
        key = settings(argv)
        if key not in runs:
            runs[key] = run_command(argv, workdir)
        return runs[key]

    return get


def pytest_collection_modifyitems(items):
    # The golden tests go first, so each documented command executes in the
    # test that compares its bytes, and the tests that read its run come later.
    items.sort(key=lambda item: item.path.name != "test_golden.py")
