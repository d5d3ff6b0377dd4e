"""The public API and the boundary between the online path and its oracles."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftalign
from driftalign import LabeledSet, MiniBatch, Subspace, TransformKernel

PACKAGE = Path(driftalign.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# The modules that may import driftalign.verify: the verify command, and itself.
VERIFY_IMPORTERS = {"cli.py", "verify.py"}
TRACER = PACKAGE.parents[1] / "benchmarks" / "tracer.py"
# Tracer patches whose binding the package no longer has. The tracer skips
# them, so their spans read 0; the benchmark may drop them at any time.
UNBOUND_TRACER_PATCHES = {
    ("pipeline", "complement"), ("subspace_mean", "complement"), ("subspaces", "complement"),
    ("verify", "complement"), ("subspaces", "_qr_polish"), ("subspace_mean", "geodesic"), ("verify", "geodesic"),
    ("pipeline", "init_mean"),
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


def tracer_patches():
    """(module, attribute) of each entry of the benchmark tracer's PATCHES, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PATCHES"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACER} assigns no PATCHES")


def test_tracer_patches_reach_the_package():
    # a call moved off its patched binding silently turns that span to 0
    patches = tracer_patches()
    unbound = {(module, attr) for module, attr in patches
               if not callable(getattr(importlib.import_module(f"driftalign.{module}"), attr, None))}
    assert len(patches) > len(unbound)
    assert unbound <= UNBOUND_TRACER_PATCHES


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


def test_only_cli_and_verify_import_verify():
    found = [f"{path.name}:{line}" for path in SOURCES if path.name not in VERIFY_IMPORTERS
             for line in verify_imports(ast.parse(path.read_text()))]
    assert found == []


def test_no_verify_name_is_public():
    names = defined_names(ast.parse((PACKAGE / "verify.py").read_text()))
    assert {"karcher_mean", "quadrature_kernel", "random_subspace", "run_all"} <= names
    assert names & set(driftalign.__all__) == set()


def test_library_modules_hold_no_oracle():
    # the oracles live in verify; the value types build no dense d x d matrix
    moved = {"karcher_mean", "log_tangent", "exp_tangent", "quadrature_kernel", "orthonormalize", "random_subspace",
             "principal_angles", "geodesic_distance"}
    for name in ("subspaces", "subspace_mean", "flow_kernel"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert defined_names(tree) & moved == set(), name
    assert not hasattr(Subspace, "projector")
    assert not hasattr(TransformKernel, "g")


def test_no_module_defines_init_mean():
    # a running mean starts as MeanSubspaceState(first, 1); no wrapper restates it
    assert [path.name for path in SOURCES if "init_mean" in defined_names(ast.parse(path.read_text()))] == []


def test_importing_the_package_leaves_verify_unloaded():
    # the benchmark times `import driftalign.verify` on its own; the package must not pull it in
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, driftalign; print(sorted(m for m in sys.modules if m.startswith('driftalign')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(out.stdout)
    assert "driftalign.subspaces" in loaded
    assert "driftalign.verify" not in loaded
