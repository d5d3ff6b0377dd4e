"""One failure policy: an error's base decides whether a batch is skipped and how the CLI exits."""

import importlib

import pytest

import driftalign
from driftalign import (
    ConfigError,
    DataError,
    DriftAlignError,
    NumericalError,
    StreamSpec,
    gen_rotating_drift,
    init_pipeline,
    process_batch,
    variant_config,
)
from driftalign.cli import main

cli_module = importlib.import_module("driftalign.cli")
pipeline_module = importlib.import_module("driftalign.pipeline")


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
    exported = [getattr(driftalign, name) for name in driftalign.__all__]
    errors = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, DriftAlignError)}
    assert errors == {DriftAlignError, *ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=by_name)
def test_every_error_descends_from_exactly_one_base(cls):
    assert len(bases(cls)) == 1


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
