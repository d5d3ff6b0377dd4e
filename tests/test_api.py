"""The public API and the boundary between the online path and its oracles."""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftalign
from driftalign import (
    LabeledSet,
    MiniBatch,
    StreamSpec,
    Subspace,
    TransformKernel,
    gen_rotating_drift,
    init_pipeline,
    process_batch,
    subspaces,
    variant_config,
)

PACKAGE = Path(driftalign.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
# The modules that may import driftalign.verify: the verify command, and itself.
VERIFY_IMPORTERS = {"cli.py", "verify.py"}
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"
# Tracer patches whose binding the package no longer has. The tracer skips
# them, so their spans read 0; the benchmark may drop them at any time.
UNBOUND_TRACER_PATCHES = {
    ("pipeline", "complement"), ("subspace_mean", "complement"), ("subspaces", "complement"),
    ("verify", "complement"), ("subspaces", "_qr_polish"), ("subspace_mean", "geodesic"), ("verify", "geodesic"),
    ("pipeline", "init_mean"), ("subspace_mean", "evaluate"), ("subspace_mean", "principal_system"),
}

PUBLIC_API = {
    "AccuracyTrace", "BatchDiagnostics", "ConfigError", "CsvSchema", "DataError", "DatasetBundle",
    "DimensionMismatch", "DimensionViolation", "DomainError", "DriftAlignError",
    "InsufficientData", "KnnParams", "LabeledSet", "MeanSubspaceState", "MiniBatch", "NonFiniteData",
    "NumericalError", "NumericalHealthError", "ParseError", "PipelineConfig",
    "PipelineState", "PrincipalSystem", "RankDeficient", "SchemaMismatch", "SharedFactorFailure",
    "StreamSpec", "Subspace", "SvmParams", "TransformKernel", "VARIANT_FLAGS",
    "apply_transform", "evaluate", "flow_kernel", "gen_rotating_drift", "gen_waveform",
    "init_pipeline", "load_csv", "pca_subspace", "predict", "principal_system", "process_batch",
    "run_stream", "train", "update_mean", "variant_config",
}


def verify_imports(tree):
    """Line numbers of the imports of driftalign.verify in a module of the package."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1 and (node.module == "verify" or (node.module is None and any(
                alias.name == "verify" for alias in node.names)))
            if relative or node.module == "driftalign.verify":
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(alias.name == "driftalign.verify" for alias in node.names):
            lines.append(node.lineno)
    return lines


def defined_names(tree):
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def unread_imports(tree):
    """(line, name) of each name a module imports and never reads; a name in __all__ counts as read.

    ``from __future__`` imports name compiler features, not values, and are skipped.
    """
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def tracer_patches():
    """(module, attribute) of each entry of the benchmark tracer's PATCHES, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PATCHES"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACER} assigns no PATCHES")


def tracer_binding(module_name, attr):
    """The module of the package that holds a tracer patch's callable binding, or None where the tracer skips it."""
    try:
        module = importlib.import_module(f"driftalign.{module_name}")
    except ModuleNotFoundError:
        return None
    return module if callable(getattr(module, attr, None)) else None


def test_tracer_patches_reach_the_package():
    # a call moved off its patched binding silently turns that span to 0
    patches = tracer_patches()
    unbound = {(module, attr) for module, attr in patches if tracer_binding(module, attr) is None}
    assert len(patches) > len(unbound)
    assert unbound <= UNBOUND_TRACER_PATCHES


def test_the_tracer_sees_every_principal_system_the_online_path_builds(monkeypatch):
    # a principal_system call through a binding the tracer does not patch is
    # missing from subspaces.principal_system.calls; _shared_factors counts them all
    counts = {"traced": 0, "built": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for module_name, attr in tracer_patches():
        module = tracer_binding(module_name, attr) if attr == "principal_system" else None
        if module is not None:
            monkeypatch.setattr(module, attr, counting("traced", getattr(module, attr)))
    monkeypatch.setattr(subspaces, "_shared_factors", counting("built", subspaces._shared_factors))
    spec = StreamSpec(batch_size=50, batch_count=60, seed=0, source_size=500)
    bundle = gen_rotating_drift(spec, classes=2, d=10, total_rotation=math.pi / 3)
    state = init_pipeline(bundle.source, variant_config("gfk_gmean_fb", sub_dim=3))
    for batch in bundle.stream[:3]:
        _, state, _ = process_batch(state, batch)
    # batch 0 builds only the kernel; batches 1 and 2 also move the mean
    assert counts == {"traced": 5, "built": 5}


def test_the_benchmark_imports_resolve():
    # the tests do not run the benchmark, so a name dropped from the package would fail only there
    workloads = ast.parse((BENCHMARKS / "workloads.py").read_text())
    imported = {alias.name for node in ast.walk(workloads)
                if isinstance(node, ast.ImportFrom) and node.module == "driftalign" for alias in node.names}
    run = ast.parse((BENCHMARKS / "run.py").read_text())
    used = {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute) and (
        isinstance(node.value, ast.Name) and node.value.id == "da"
        or isinstance(node.value, ast.Attribute) and node.value.attr == "da")}
    assert imported and used
    assert sorted(name for name in imported | used if not hasattr(driftalign, name)) == []
    assert callable(importlib.import_module("driftalign.verify").run_all)


def float_type(node):
    """True if node spells a float type: float, np.float32, "f8" and the like."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return np.dtype(node.value).kind == "f"
        except TypeError:
            return False
    name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
    return name in {"float", "float16", "float32", "float64", "half", "single", "double", "longdouble"}


def float_casts(tree):
    """Line numbers of the casts to a float type: np.asarray or np.array with a float dtype, and .astype."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        position = {"asarray": 1, "array": 1, "astype": 0}.get(node.func.attr)
        if position is None:
            continue
        types = node.args[position : position + 1] + [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(float_type(t) for t in types):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_cast_lint_reads_every_float_spelling():
    source = (
        "np.asarray(x, dtype=np.float64)\n"
        "np.array(x, float)\n"
        "x.astype(np.float32)\n"
        "x.astype(dtype='f8')\n"
        "np.asarray(y, dtype=np.int64)\n"
        "y.astype(np.int64)\n"
        "np.array(x)\n"
        "np.zeros(3, dtype=np.float64)\n"
    )
    assert float_casts(ast.parse(source)) == [1, 2, 3, 4]


def test_only_the_gate_casts_to_float():
    # every array enters through subspaces._real_rows, which checks the dtype kind before it casts
    gate = next(node for node in ast.parse((PACKAGE / "subspaces.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_real_rows")
    allowed = [f"subspaces.py:{line}" for line in float_casts(gate)]
    found = [f"{path.name}:{line}" for path in SOURCES for line in float_casts(ast.parse(path.read_text()))]
    assert len(allowed) == 1
    assert found == allowed


@pytest.mark.parametrize("dtype", [np.bool_, np.int32, np.float32])
def test_the_gate_stores_the_float64_cast(dtype):
    rows = np.random.default_rng(2).standard_normal((4, 3)).astype(dtype)
    basis = np.eye(6, 2, dtype=dtype)
    stored = [(LabeledSet(x=rows, y=np.array([0, 1, 0, 1])).x, rows), (MiniBatch(x=rows).x, rows),
              (Subspace(basis).basis, basis)]
    for out, given in stored:
        assert out.dtype == np.float64
        assert out.tobytes() == np.asarray(given, dtype=np.float64).tobytes()


def test_public_api_is_pinned():
    assert set(driftalign.__all__) == PUBLIC_API
    assert len(driftalign.__all__) == len(PUBLIC_API) == 45
    assert [name for name in driftalign.__all__ if getattr(driftalign, name, None) is None] == []


def test_the_boundary_lint_reads_every_import_form():
    source = (
        "from .verify import run_all\n"
        "from . import verify\n"
        "from driftalign.verify import karcher_mean\n"
        "import driftalign.verify\n"
        "from .verifying import x\n"
        "from .subspaces import verify\n"
    )
    assert verify_imports(ast.parse(source)) == [1, 2, 3, 4]


def test_the_import_lint_reads_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import DataError, ParseError as Bad\n"
        "from .subspaces import Array, _rows\n"
        "__all__ = ['DataError']\n"
        "def f(x: Array):\n"
        "    return np.asarray(x)\n"
    )
    assert unread_imports(ast.parse(source)) == [(2, "os"), (4, "Bad"), (5, "_rows")]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(ast.parse(path.read_text())) == []


def test_only_cli_and_verify_import_verify():
    found = [f"{path.name}:{line}" for path in SOURCES if path.name not in VERIFY_IMPORTERS
             for line in verify_imports(ast.parse(path.read_text()))]
    assert found == []


def sibling_imports(tree):
    """(module, name) of each name a package module imports from another; name is None for a module itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = ([] if node.level == 0 else ["driftalign"]) + (node.module.split(".") if node.module else [])
            if parts[:1] == ["driftalign"]:
                found += [(parts[1], alias.name) if len(parts) > 1 else (alias.name, None) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], None) for alias in node.names if alias.name.startswith("driftalign.")]
    return found


def test_the_sibling_lint_reads_every_import_form():
    source = (
        "from .pipeline import MiniBatch, _rows\n"
        "from . import pipeline\n"
        "from driftalign.pipeline import run_stream\n"
        "from driftalign import streams\n"
        "import driftalign.classifiers\n"
        "import numpy as np\n"
        "from numpy import linalg\n"
    )
    assert sibling_imports(ast.parse(source)) == [
        ("pipeline", "MiniBatch"), ("pipeline", "_rows"), ("pipeline", None), ("pipeline", "run_stream"),
        ("streams", None), ("classifiers", None),
    ]


def test_the_row_set_contract_lives_in_classifiers():
    # MiniBatch sits beside LabeledSet, so the data sources need no pipeline,
    # and the pipeline needs none of the private row and label gates
    streams = sibling_imports(ast.parse((PACKAGE / "streams.py").read_text()))
    assert [module for module, _ in streams if module == "pipeline"] == []
    pipeline = sibling_imports(ast.parse((PACKAGE / "pipeline.py").read_text()))
    assert {name for _, name in pipeline if name and name.startswith("_")} <= {"_count"}
    classifiers = importlib.import_module("driftalign.classifiers")
    assert MiniBatch is importlib.import_module("driftalign.pipeline").MiniBatch is classifiers.MiniBatch


def test_no_verify_name_is_public():
    names = defined_names(ast.parse((PACKAGE / "verify.py").read_text()))
    assert {"karcher_mean", "quadrature_kernel", "random_subspace", "run_all"} <= names
    assert names & set(driftalign.__all__) == set()


def test_library_modules_hold_no_oracle():
    # the oracles live in verify; the value types build no dense d x d matrix
    moved = {"karcher_mean", "log_tangent", "exp_tangent", "quadrature_kernel", "orthonormalize", "random_subspace",
             "principal_angles", "geodesic_distance"}
    for name in ("subspaces", "flow_kernel"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert defined_names(tree) & moved == set(), name
    assert not hasattr(Subspace, "projector")
    assert not hasattr(TransformKernel, "g")


def test_no_module_defines_init_mean():
    # a running mean starts as MeanSubspaceState(first, 1); no wrapper restates it
    assert [path.name for path in SOURCES if "init_mean" in defined_names(ast.parse(path.read_text()))] == []


def test_only_subspaces_defines_array():
    # one Array alias; the other modules import it from subspaces
    assert [path.name for path in SOURCES if "Array" in defined_names(ast.parse(path.read_text()))] == ["subspaces.py"]
    for name in ("classifiers", "flow_kernel", "pipeline", "streams", "verify"):
        assert importlib.import_module(f"driftalign.{name}").Array is subspaces.Array, name


def test_importing_the_package_leaves_verify_unloaded():
    # the benchmark times `import driftalign.verify` on its own; the package must not pull it in
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, driftalign; print(sorted(m for m in sys.modules if m.startswith('driftalign')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(out.stdout)
    assert "driftalign.subspaces" in loaded
    assert "driftalign.verify" not in loaded
