"""One failure policy: an error's base decides whether a batch is skipped and how the CLI exits."""

import ast
import dataclasses
import importlib
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import driftalign
from driftalign import (
    ConfigError,
    DataError,
    DimensionMismatch,
    DriftAlignError,
    KnnParams,
    LabeledSet,
    MiniBatch,
    NonFiniteData,
    NumericalError,
    NumericalHealthError,
    PipelineConfig,
    StreamSpec,
    Subspace,
    SvmParams,
    TransformKernel,
    apply_transform,
    evaluate,
    gen_rotating_drift,
    init_pipeline,
    load_csv,
    pca_subspace,
    predict,
    principal_system,
    process_batch,
    train,
    update_mean,
    variant_config,
)
from driftalign.cli import main
from driftalign.flow_kernel import flow_kernel
from driftalign.subspaces import MAX_ABS_ENTRY, _bounded_rows, _entry_fault
from driftalign.verify import NoConvergence, exp_tangent, geodesic_suite, orthonormalize

cli_module = importlib.import_module("driftalign.cli")
errors_module = importlib.import_module("driftalign.errors")
pipeline_module = importlib.import_module("driftalign.pipeline")

SOURCES = sorted(Path(driftalign.__file__).parent.glob("*.py"))
# (module, function, class) of each raise that is not a DriftAlignError: the
# type checks of train and predict, and the CLI's two argparse hooks, which
# argparse turns into a usage error (exit 1).
OTHER_RAISES = {
    ("classifiers.py", "train", "TypeError"),
    ("classifiers.py", "predict", "TypeError"),
    ("cli.py", "error", "UsageError"),
    ("cli.py", "_out_path", "ArgumentTypeError"),
}
# (module, function) of each except clause that may name ValueError: float()
# reports an unparseable CSV cell with one, which load_csv turns into a ParseError,
# and np.asarray a ragged nested sequence, which _array turns into a DimensionMismatch.
VALUE_ERROR_HANDLERS = {("streams.py", "load_csv"), ("subspaces.py", "_array")}
# (module, function) of each use of _is_integer: every integer setting goes through _count.
INTEGER_CHECKERS = {("subspaces.py", "_count")}
# (module, function) of each raise of NonFiniteData: the stored-row gate for an
# _entry_fault of stored rows, and _bounded_rows, the one gate for the rows a
# computation reads, for a non-finite entry or a row past the length bound.
NON_FINITE_RAISERS = {
    ("classifiers.py", "_stored_rows"),
    ("subspaces.py", "_bounded_rows"),
}
# (module, function) of each use of np.isfinite: _bounded_rows for the rows a
# computation reads, and _entry_fault, the one entry scan of stored rows and of
# stored geometry and model arrays, each naming the cause after a failed scan;
# then the label check and the mean suite's verdict.
FINITENESS_CHECKERS = {
    ("subspaces.py", "_bounded_rows"),
    ("subspaces.py", "_entry_fault"),
    ("classifiers.py", "_class_labels"),
    ("verify.py", "mean_suite"),
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ERRORS = list(subclasses(DriftAlignError))
EXIT_CODES = {ConfigError: 3, DataError: 2, NumericalError: 2}
# What process_batch calls on a batch, in order, for a variant with every step.
SITES = ("apply_transform", "pca_subspace", "update_mean", "flow_kernel", "predict")


def bases(cls):
    return [base for base in EXIT_CODES if issubclass(cls, base)]


def by_name(cls):
    return cls.__name__


def test_the_walk_finds_every_exported_error():
    # NoConvergence is raised only by the karcher_mean oracle, so driftalign.verify exports it
    exported = [getattr(driftalign, name) for name in driftalign.__all__] + [NoConvergence]
    errors = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, DriftAlignError)}
    assert errors == {DriftAlignError, *ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=by_name)
def test_every_error_descends_from_exactly_one_base(cls):
    assert len(bases(cls)) == 1


@pytest.mark.parametrize("cls", [DriftAlignError, *ERRORS], ids=by_name)
def test_no_error_is_a_value_error(cls):
    # so a ValueError from numpy or from a bug is never taken for a config or data error
    assert not issubclass(cls, ValueError)


@pytest.mark.parametrize("cls", ERRORS, ids=by_name)
def test_cli_exit_code_follows_the_base(cls, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise cls("injected")

    monkeypatch.setattr(cli_module, "run_stream", fail)
    out = tmp_path / "report.json"
    code = main(["run", "--gen", "rotating", "--batch-count", "2", "--variant", "gfk", "--out", str(out)])
    (base,) = bases(cls)
    assert code == EXIT_CODES[base]
    kind = "config" if base is ConfigError else "data"
    assert capsys.readouterr().err == f"{kind} error: injected\n"
    assert not out.exists()


def test_a_plain_value_error_propagates_out_of_the_cli(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise ValueError("injected")

    monkeypatch.setattr(cli_module, "run_stream", fail)
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="injected"):
        main(["run", "--gen", "rotating", "--batch-count", "2", "--variant", "gfk", "--out", str(out)])
    assert capsys.readouterr().err == ""
    assert not out.exists()


def enclosed(tree, wanted):
    """(innermost enclosing function or None, node) for each node that wanted(node) accepts."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if wanted(child):
                yield function, child
            yield from visit(child, inner)

    yield from visit(tree, None)


def raises_and_handlers(tree):
    """(innermost enclosing function or None, node) for each raise statement and except clause."""
    return enclosed(tree, lambda node: isinstance(node, (ast.Raise, ast.ExceptHandler)))


def integer_checks(tree):
    """(innermost enclosing function or None, node) for each use of _is_integer, called or passed on."""
    return enclosed(tree, lambda node: (isinstance(node, ast.Name) and node.id == "_is_integer")
                    or (isinstance(node, ast.Attribute) and node.attr == "_is_integer"))


def non_finite_raises(tree):
    """(innermost enclosing function or None, node) for each raise statement that names NonFiniteData."""
    return [(function, node) for function, node in raises_and_handlers(tree)
            if isinstance(node, ast.Raise) and "NonFiniteData" in named_classes(node.exc)]


def finiteness_tests(tree):
    """(innermost enclosing function or None, node) for each use of numpy's isfinite, called or passed on."""
    return enclosed(tree, lambda node: (isinstance(node, ast.Name) and node.id == "isfinite")
                    or (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")))


def rank_tolerance_reads(tree):
    """(innermost enclosing function or None, node) for each read of RANK_REL_TOL, by name or attribute."""
    return enclosed(tree, lambda node: isinstance(getattr(node, "ctx", None), ast.Load) and (
        (isinstance(node, ast.Name) and node.id == "RANK_REL_TOL")
        or (isinstance(node, ast.Attribute) and node.attr == "RANK_REL_TOL")))


def rng_uses(tree):
    """(innermost enclosing function or None, node) for each use of default_rng, called or passed on."""
    return enclosed(tree, lambda node: (isinstance(node, ast.Name) and node.id == "default_rng")
                    or (isinstance(node, ast.Attribute) and node.attr == "default_rng"))


def errstate_uses(tree):
    """(innermost enclosing function or None, node) for each use of errstate: a call, a with or a decorator.

    A decorator counts as inside the function it decorates.
    """
    return enclosed(tree, lambda node: (isinstance(node, ast.Name) and node.id == "errstate")
                    or (isinstance(node, ast.Attribute) and node.attr == "errstate"))


def named_classes(node):
    """Names of the classes an exception expression or except clause type names."""
    if node is None:
        return []
    if isinstance(node, ast.Call):
        return named_classes(node.func)
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in named_classes(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return [ast.dump(node)]


def is_package_error(name):
    cls = getattr(errors_module, name, None)
    return isinstance(cls, type) and issubclass(cls, DriftAlignError)


def test_the_lint_sees_every_module():
    assert {path.name for path in SOURCES} >= {"cli.py", "errors.py", "streams.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_names_a_package_error(path):
    # a bare raise names nothing, and fails too
    found = []
    for function, node in raises_and_handlers(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            names = named_classes(node.exc) or ["<bare raise>"]
            for name in names:
                if not is_package_error(name) and (path.name, function, name) not in OTHER_RAISES:
                    found.append(f"{path.name}:{node.lineno} in {function}: raise {name}")
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_except_clause_names_value_error(path):
    found = []
    for function, node in raises_and_handlers(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler) and "ValueError" in named_classes(node.type):
            if (path.name, function) not in VALUE_ERROR_HANDLERS:
                found.append(f"{path.name}:{node.lineno} in {function}")
    assert found == []


def test_the_lint_reads_raises_and_handlers():
    source = (
        "def f():\n"
        "    try:\n"
        "        raise ValueError('x')\n"
        "    except (KeyError, ValueError):\n"
        "        raise\n"
    )
    (f1, raised), (f2, handler), (f3, bare) = raises_and_handlers(ast.parse(source))
    assert f1 == f2 == f3 == "f"
    assert named_classes(raised.exc) == ["ValueError"]
    assert named_classes(handler.type) == ["KeyError", "ValueError"]
    assert named_classes(bare.exc) == []


def test_integer_settings_are_checked_only_by_count():
    sites = {(path.name, function) for path in SOURCES
             for function, _ in integer_checks(ast.parse(path.read_text()))}
    assert sites == INTEGER_CHECKERS


def test_the_lint_reads_every_use_of_is_integer():
    source = (
        "from .subspaces import _is_integer\n"
        "def f(x):\n"
        "    return _is_integer(x)\n"
        "g = subspaces._is_integer\n"
        "h = list(map(_is_integer, []))\n"
    )
    assert [(f, node.lineno) for f, node in integer_checks(ast.parse(source))] == [("f", 3), (None, 4), (None, 5)]


def test_non_finite_data_is_raised_only_by_the_row_gate_and_the_bounds():
    sites = {(path.name, function) for path in SOURCES
             for function, _ in non_finite_raises(ast.parse(path.read_text()))}
    assert sites == NON_FINITE_RAISERS


def test_finiteness_is_tested_only_by_the_gates():
    sites = {(path.name, function) for path in SOURCES
             for function, _ in finiteness_tests(ast.parse(path.read_text()))}
    assert sites == FINITENESS_CHECKERS


def test_the_lint_reads_every_non_finite_raise_and_finiteness_test():
    source = (
        "from numpy import isfinite\n"
        "def f(a):\n"
        "    if not np.isfinite(a).all():\n"
        "        raise NonFiniteData('a')\n"
        "    if not math.isfinite(a[0]):\n"
        "        raise errors.NonFiniteData('b')\n"
        "    raise ValueError('c')\n"
        "def g(a):\n"
        "    return list(map(isfinite, a)), numpy.isfinite\n"
    )
    tree = ast.parse(source)
    assert [(f, node.lineno) for f, node in non_finite_raises(tree)] == [("f", 4), ("f", 6)]
    assert [(f, node.lineno) for f, node in finiteness_tests(tree)] == [("f", 3), ("g", 9), ("g", 9)]


def test_one_function_reads_the_rank_tolerance():
    # the rank decision has one home, shared by pca_subspace and verify.orthonormalize
    sites = {(path.name, function) for path in SOURCES
             for function, _ in rank_tolerance_reads(ast.parse(path.read_text()))}
    assert sites == {("subspaces.py", "_rank")}


def test_the_lint_reads_every_read_of_the_rank_tolerance():
    source = (
        "from .subspaces import RANK_REL_TOL\n"
        "RANK_REL_TOL = 1e-12\n"
        "def f(sv):\n"
        "    return sv > RANK_REL_TOL * sv[0]\n"
        "cut = subspaces.RANK_REL_TOL\n"
    )
    assert [(f, node.lineno) for f, node in rank_tolerance_reads(ast.parse(source))] == [("f", 4), (None, 5)]


def test_one_function_seeds_the_generators():
    # both generators draw through _draw: the source, then each batch, from one default_rng(seed)
    streams = (Path(driftalign.__file__).parent / "streams.py").read_text()
    assert {function for function, _ in rng_uses(ast.parse(streams))} == {"_draw"}


def test_the_lint_reads_every_use_of_default_rng():
    source = (
        "from numpy.random import default_rng\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "def g(seed):\n"
        "    def rows():\n"
        "        return default_rng(seed)\n"
        "    return rows\n"
        "make = default_rng\n"
    )
    assert [(f, node.lineno) for f, node in rng_uses(ast.parse(source))] == [("f", 3), ("rows", 6), (None, 8)]


def test_only_the_pegasos_loop_mutes_floating_point_errors():
    # the gates bound every stored array, so no product needs its overflow
    # muted; Pegasos training can overflow before the gate sees its weights
    sites = {(path.name, function) for path in SOURCES
             for function, _ in errstate_uses(ast.parse(path.read_text()))}
    assert sites == {("classifiers.py", "_train_linear_svm")}


def test_the_lint_reads_every_use_of_errstate():
    source = (
        "from numpy import errstate\n"
        "@np.errstate(over='ignore')\n"
        "def f(m):\n"
        "    return m.T @ m\n"
        "def g(m):\n"
        "    with numpy.errstate(all='ignore'):\n"
        "        return m - m.T\n"
        "def h(m):\n"
        "    np.errstate(all='ignore').__enter__()\n"
        "mute = errstate\n"
    )
    assert [(f, node.lineno) for f, node in errstate_uses(ast.parse(source))] == [
        ("f", 2), ("g", 6), ("h", 9), (None, 10)]


@pytest.fixture(scope="module")
def fed_state():
    """A gfk_gmean_fb state after one batch, so the next batch reaches every site."""
    bundle = gen_rotating_drift(StreamSpec(batch_size=30, batch_count=2, seed=0, source_size=120))
    state = init_pipeline(bundle.source, variant_config("gfk_gmean_fb", sub_dim=3))
    _, state, _ = process_batch(state, bundle.stream[0])
    return state, bundle.stream[1]


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("cls", ERRORS, ids=by_name)
def test_process_batch_skips_numerical_errors_and_propagates_the_rest(cls, site, fed_state, monkeypatch):
    state, batch = fed_state
    calls = []

    def fail(*args):
        calls.append(site)
        raise cls("injected")

    monkeypatch.setattr(pipeline_module, site, fail)
    if issubclass(cls, NumericalError):
        predictions, new_state, diagnostics = process_batch(state, batch)
        assert predictions is None
        assert new_state is state
        assert diagnostics.error == f"{cls.__name__}: injected"
    else:
        with pytest.raises(cls, match="injected"):
            process_batch(state, batch)
    assert calls == [site]


def stream_bytes(bundle):
    arrays = [bundle.source.x, bundle.source.y]
    for batch in bundle.stream:
        arrays += [batch.x, batch.true_labels]
    return b"".join(a.tobytes() for a in arrays)


def csv_bundle(**settings):
    """What load_csv reads, with the given settings, from a 40-row CSV of two alternating classes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("".join(f"{i % 7}.5,{i % 3},{i % 2}\n" for i in range(40)))
        return load_csv(path, **{"source_fraction": 0.5, "batch_size": 5, **settings})


# Each float setting or argument, used with a given value.
REAL_SETTINGS = {
    "flow parameter": lambda value: evaluate(
        principal_system(Subspace(np.eye(6)[:, :2]), Subspace(np.eye(6)[:, 1:3])), value
    ),
    "regularization": lambda value: SvmParams(regularization=value),
    "source_fraction": lambda value: csv_bundle(source_fraction=value),
    "total_rotation": lambda value: gen_rotating_drift(
        StreamSpec(batch_size=4, batch_count=1, seed=0, source_size=8), total_rotation=value
    ),
}


NOT_REAL = [pytest.param(value, f"must be a real number, got {re.escape(repr(value))}", id=label)
            for label, value in [("abc", "abc"), ("numeric_string", "0.5"), ("None", None), ("True", True),
                                 ("numpy_bool", np.bool_(False)), ("list", [0.5])]]


@pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
@pytest.mark.parametrize("value, message", [*NOT_REAL, pytest.param(10**400, "must be finite", id="huge_int")])
def test_float_settings_accept_only_real_numbers(name, value, message):
    # 'abc' raised ValueError from float(), None and the strings a TypeError,
    # or the string was stored as it was; 10**400 overflows float()
    with pytest.raises(ConfigError, match=f"{name} {message}"):
        REAL_SETTINGS[name](value)


def test_float_settings_are_stored_as_python_floats():
    for value in (np.float32(0.25), np.float64(0.25), np.int64(1) / 4):
        assert type(SvmParams(regularization=value).regularization) is float
        assert stream_bytes(csv_bundle(source_fraction=value)) == stream_bytes(csv_bundle(source_fraction=0.25))
    assert SvmParams(regularization=np.int64(2)).regularization == 2.0


SPEC = {"batch_size": 10, "batch_count": 2, "seed": 0, "source_size": 40}
SPEC_OBJ = StreamSpec(**SPEC)
# Each integer setting: a valid value, and what a run keeps of the setting. A
# constructor stores it, so a numpy integer must come back as a Python int;
# the functions keep only their results, which must not change.
INTEGER_SETTINGS = {
    "PipelineConfig.sub_dim": (3, lambda value: PipelineConfig(sub_dim=value).sub_dim),
    "KnnParams.n_neighbors": (3, lambda value: KnnParams(n_neighbors=value).n_neighbors),
    "SvmParams.epochs": (2, lambda value: SvmParams(epochs=value).epochs),
    "SvmParams.seed": (3, lambda value: SvmParams(seed=value).seed),
    **{f"StreamSpec.{name}": (SPEC[name], lambda value, name=name: getattr(StreamSpec(**{**SPEC, name: value}), name))
       for name in SPEC},
    "load_csv.batch_size": (5, lambda value: stream_bytes(csv_bundle(batch_size=value))),
    "update_mean.count": (2, lambda value: update_mean(Subspace(np.eye(6)[:, :2]), value,
                                                       Subspace(np.eye(6)[:, 1:3])).basis.tobytes()),
    "gen_rotating_drift.classes": (3, lambda value: stream_bytes(gen_rotating_drift(SPEC_OBJ, classes=value))),
    "gen_rotating_drift.d": (8, lambda value: stream_bytes(gen_rotating_drift(SPEC_OBJ, d=value))),
    "verify.seed": (5, lambda value: geodesic_suite(value, 1)),
    "verify.instances": (2, lambda value: geodesic_suite(0, value)),
}


@pytest.mark.parametrize("name", sorted(INTEGER_SETTINGS))
def test_numpy_integer_settings_act_as_python_ints(name):
    value, kept = INTEGER_SETTINGS[name]
    plain, numpy_int = kept(value), kept(np.int64(value))
    assert numpy_int == plain
    assert type(numpy_int) is type(plain)


# A valid value of each type the array entry points take alongside an array.
BASE = Subspace(np.eye(6)[:, :2])
SYSTEM = principal_system(BASE, Subspace(np.eye(6)[:, 2:4]))
KERNEL = flow_kernel(BASE, Subspace(np.eye(6)[:, 2:4]))
MODEL = train(LabeledSet(x=np.eye(6), y=[0, 1, 0, 1, 0, 1]), KnnParams())
RAGGED = [[1.0, 2.0], [3.0]]
RAGGED_LABELS = [[0], [1], [2, 3]]


@pytest.mark.parametrize("name, call", [
    ("x", lambda: LabeledSet(x=RAGGED, y=[0, 1])),
    ("y", lambda: LabeledSet(x=np.eye(3), y=RAGGED_LABELS)),
    ("batch", lambda: MiniBatch(x=RAGGED)),
    ("labels", lambda: MiniBatch(x=np.ones((3, 2)), true_labels=RAGGED_LABELS)),
    ("data matrix", lambda: pca_subspace(RAGGED, 1)),
    ("data", lambda: apply_transform(RAGGED, KERNEL)),
    ("queries", lambda: predict(MODEL, RAGGED)),
    ("basis", lambda: Subspace(RAGGED)),
    ("matrix", lambda: orthonormalize(RAGGED)),
    ("tangent", lambda: exp_tangent(BASE, RAGGED)),
], ids=["LabeledSet.x", "LabeledSet.y", "MiniBatch.x", "MiniBatch.true_labels", "pca_subspace",
        "apply_transform", "predict", "Subspace", "orthonormalize", "exp_tangent"])
def test_ragged_input_is_a_dimension_mismatch_naming_the_array(name, call):
    # numpy's "inhomogeneous shape" ValueError used to escape from np.asarray
    with pytest.raises(DimensionMismatch) as exc:
        call()
    assert str(exc.value) == f"{name} is ragged: its nested sequences differ in length"


MALFORMED = {
    "ragged": RAGGED,
    "0-d": np.array(1.0),
    "3-d": np.ones((2, 2, 2)),
    "empty": np.zeros((0, 0)),
    "object": np.ones((2, 2), dtype=object),
}
# Every public callable that takes an array, with the array in one argument
# and valid values in the others, and what it may raise: a DriftAlignError,
# or the TypeError that train and predict raise for an object of the wrong type.
ARRAY_TAKERS = {
    "Subspace": (lambda a: Subspace(a), DriftAlignError),
    **{f"PrincipalSystem.{name}": (lambda a, name=name: dataclasses.replace(SYSTEM, **{name: a}), DriftAlignError)
       for name in ("a_rot", "tail", "b_rot", "angles")},
    "TransformKernel.frame": (lambda a: TransformKernel(frame=a, weights=KERNEL.weights), DriftAlignError),
    "TransformKernel.weights": (lambda a: TransformKernel(frame=KERNEL.frame, weights=a), DriftAlignError),
    "LabeledSet.x": (lambda a: LabeledSet(x=a, y=[0, 1]), DriftAlignError),
    "LabeledSet.y": (lambda a: LabeledSet(x=np.eye(2), y=a), DriftAlignError),
    "MiniBatch.x": (lambda a: MiniBatch(x=a), DriftAlignError),
    "MiniBatch.true_labels": (lambda a: MiniBatch(x=np.ones((2, 2)), true_labels=a), DriftAlignError),
    "pca_subspace": (lambda a: pca_subspace(a, 1), DriftAlignError),
    "apply_transform": (lambda a: apply_transform(a, KERNEL), DriftAlignError),
    "predict": (lambda a: predict(MODEL, a), DriftAlignError),
    "predict.model": (lambda a: predict(a, np.ones((2, 6))), TypeError),
    "train": (lambda a: train(a, KnnParams()), TypeError),
    "orthonormalize": (lambda a: orthonormalize(a), DriftAlignError),
    "exp_tangent": (lambda a: exp_tangent(BASE, a), DriftAlignError),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("taker", sorted(ARRAY_TAKERS))
def test_malformed_arrays_raise_only_documented_errors(taker, kind):
    # the raise and except lints read only the package's own statements; this
    # feeds each entry point what numpy itself would reject or mis-shape
    call, allowed = ARRAY_TAKERS[taker]
    with pytest.raises(allowed):
        call(MALFORMED[kind])


# A valid array for each entry point in ARRAY_TAKERS that takes one, the name
# its finiteness message gives it, and its gate's class: row data is
# NonFiniteData from _bounded_rows or, when stored, from
# classifiers._stored_rows, and stored geometry NumericalHealthError from
# _read_only.
FINITE_ARRAYS = {
    "Subspace": (BASE.basis, "basis", NumericalHealthError),
    **{f"PrincipalSystem.{name}": (getattr(SYSTEM, name), name, NumericalHealthError)
       for name in ("a_rot", "tail", "b_rot", "angles")},
    "TransformKernel.frame": (KERNEL.frame, "frame", NumericalHealthError),
    "TransformKernel.weights": (KERNEL.weights, "weights", NumericalHealthError),
    "LabeledSet.x": (np.eye(2), "x", NonFiniteData),
    "MiniBatch.x": (np.ones((2, 2)), "batch", NonFiniteData),
    "pca_subspace": (np.eye(6), "data matrix", NonFiniteData),
    "apply_transform": (np.ones((2, 6)), "data", NonFiniteData),
    "predict": (np.ones((2, 6)), "queries", NonFiniteData),
    "orthonormalize": (np.eye(6)[:, :2], "matrix", NonFiniteData),
    "exp_tangent": (0.5 * np.eye(6)[:, 2:4], "tangent", NonFiniteData),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("taker", sorted(FINITE_ARRAYS))
def test_a_non_finite_entry_stops_at_its_gate_without_a_warning(taker, bad):
    # an infinite factor, kernel array or tangent used to reach a Gram product
    # or m - m.T, and numpy's "invalid value" warning escaped
    valid, name, error = FINITE_ARRAYS[taker]
    call, _ = ARRAY_TAKERS[taker]
    call(valid)
    a = valid.copy()
    a.flat[a.size // 2] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as exc:
            call(a)
    assert type(exc.value) is error
    assert str(exc.value) == f"{name} has non-finite entries"
    assert caught == []


# Every taker of the stored-array gate, subspaces._read_only.
STORED_ARRAYS = sorted(taker for taker, (_, _, error) in FINITE_ARRAYS.items() if error is NumericalHealthError)


@pytest.mark.parametrize("big", [1e200, 1e307, -1.7e308])
@pytest.mark.parametrize("where", ["one", "all"])
@pytest.mark.parametrize("taker", STORED_ARRAYS)
def test_a_huge_finite_entry_fails_the_gram_check_without_a_warning(taker, where, big):
    # past about 1e154 the Gram product overflowed, and numpy's "overflow
    # encountered in matmul" escaped before the right error was raised. The
    # stored-array bound now stops such an entry in every stored array,
    # before a Gram product, m - m.T or a kernel or SVM product is formed.
    valid, name, _ = FINITE_ARRAYS[taker]
    call, _ = ARRAY_TAKERS[taker]
    a = valid.copy()
    if where == "one":
        a.flat[a.size // 2] = big
    else:
        a[...] = big
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalHealthError) as exc:
            call(a)
    assert type(exc.value) is NumericalHealthError
    assert str(exc.value) == f"{name} has entries beyond +-1e+150"
    assert caught == []


@pytest.mark.parametrize("taker", ["LabeledSet.x", "MiniBatch.x"])
def test_the_stored_row_gate_names_the_cause(taker):
    # one scan admits stored rows, and only a failed one looks for its cause:
    # a non-finite entry is named even beside a huge finite one, and the shape
    # is checked before either
    valid, name, _ = FINITE_ARRAYS[taker]
    call, _ = ARRAY_TAKERS[taker]
    both, huge = valid.copy(), valid.copy()
    both[0, 0], both[-1, -1] = np.nan, 1e200
    huge[-1, -1] = 1e200
    for a, cause in ((both, "non-finite entries"), (huge, "entries beyond +-1e+150")):
        with pytest.raises(NonFiniteData) as exc:
            call(a)
        assert str(exc.value) == f"{name} has {cause}"
    with pytest.raises(DimensionMismatch):
        call(np.array([np.nan, 1.0]))


# Every taker of the computed-row gate, subspaces._bounded_rows.
COMPUTED_ROWS = ["apply_transform", "exp_tangent", "orthonormalize", "pca_subspace", "predict"]


@pytest.mark.parametrize("big", [1e200, 1e307, -1.7e308])
@pytest.mark.parametrize("where", ["one", "all"])
@pytest.mark.parametrize("taker", COMPUTED_ROWS)
def test_a_huge_finite_entry_fails_the_length_gate_without_a_warning(taker, where, big):
    # pca_subspace, orthonormalize and exp_tangent checked only finiteness, and
    # pca_subspace rescaled such rows; every computation now bounds its rows
    # by length before any product is formed
    valid, name, _ = FINITE_ARRAYS[taker]
    call, _ = ARRAY_TAKERS[taker]
    a = valid.copy()
    if where == "one":
        a.flat[a.size // 2] = big
    else:
        a[...] = big
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteData) as exc:
            call(a)
    assert str(exc.value) == f"{name}: a row is longer than sqrt(d) * 1e+150"
    assert caught == []


@pytest.mark.parametrize("taker", COMPUTED_ROWS)
def test_the_computed_row_gate_names_a_non_finite_entry_first(taker):
    # one scan admits the rows, and only a failed one looks for its cause
    valid, name, _ = FINITE_ARRAYS[taker]
    call, _ = ARRAY_TAKERS[taker]
    both = valid.copy()
    both.flat[0], both.flat[-1] = np.nan, 1e200
    with pytest.raises(NonFiniteData) as exc:
        call(both)
    assert str(exc.value) == f"{name} has non-finite entries"


def test_rows_at_the_entry_bound_pass_the_length_gate_at_every_width():
    # the squared length, a sum of d squares, rounds: without a margin rows of
    # +-1e150 read too long at 675 of these widths, the first at d=29
    for d in range(1, 1025):
        rows = np.full((2, d), MAX_ABS_ENTRY)
        rows[1, ::2] = -MAX_ABS_ENTRY
        _bounded_rows(rows, "rows", 2)


@pytest.mark.parametrize(
    "entry, fault",
    [(MAX_ABS_ENTRY, None), (-MAX_ABS_ENTRY, None), (np.nan, "non-finite entries"), (np.inf, "non-finite entries"),
     (-np.inf, "non-finite entries"), (np.nextafter(MAX_ABS_ENTRY, np.inf), "entries beyond +-1e+150"),
     (-1.7e308, "entries beyond +-1e+150")],
    ids=["bound", "-bound", "nan", "inf", "-inf", "next_past_bound", "-1.7e308"],
)
def test_the_one_entry_scan_names_its_fault(entry, fault):
    # the bound itself is admitted; the float just past it is not
    a = np.ones((4, 3))
    a[2, 1] = entry
    assert _entry_fault(a) == fault


def test_huge_opposite_kernel_weights_fail_the_symmetry_check_without_a_warning():
    # finite weights of opposite sign near the float limit overflowed m - m.T,
    # and numpy's "overflow encountered in subtract" escaped before the error;
    # the stored-array bound now stops them before m - m.T is formed
    w = KERNEL.weights.copy()
    w[0, 1], w[1, 0] = 1.7e308, -1.7e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalHealthError) as exc:
            TransformKernel(frame=KERNEL.frame, weights=w)
    assert str(exc.value) == "weights has entries beyond +-1e+150"
    assert caught == []


def test_svm_weights_beyond_the_bound_fail_at_train():
    # the one input class the bound narrows: rows at the row bound gave
    # finite weights near 1.6e151 (whose scores still fit) and trained;
    # the same rows divided by 20 still train
    rng = np.random.default_rng(20)
    x = np.clip(6e149 * rng.standard_normal((20, 10)), -1e150, 1e150)
    data = LabeledSet(x=x, y=np.arange(20) % 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalHealthError) as exc:
            train(data, SvmParams())
    assert str(exc.value) == "SVM weights for regularization 0.0001 has entries beyond +-1e+150"
    assert caught == []
    train(LabeledSet(x=x / 20, y=data.y), SvmParams())


def test_data_rows_beyond_the_length_bound_stop_before_the_kernel_product():
    # rows of 1.7e308 overflowed the frame product, warned, and came back NaN
    a, b = (Subspace(np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 3)))[0]) for seed in (0, 1))
    kernel = flow_kernel(a, b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteData) as exc:
            apply_transform(np.full((2, 10), 1.7e308), kernel)
    assert str(exc.value) == "data: a row is longer than sqrt(d) * 1e+150"
    assert caught == []
    assert np.isfinite(apply_transform(np.full((2, 10), 1e150), kernel)).all()
