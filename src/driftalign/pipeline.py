"""Online adaptation pipeline over a stream of unlabelled mini-batches.

The bare ``pca`` rung is the frozen source classifier on raw rows: it only
predicts. A gfk rung runs per batch: (with feedback) a multiply by the
previous kernel, PCA of the batch, (with gmean) a running-mean update, the
flow-kernel transform, then prediction. State is a constant-size record
(source subspace, classifier, running mean, last kernel), so memory does not
grow with the stream, and every step sees only current and past batches.

A config names one variant of the ablation ladder, and VARIANT_FLAGS maps the
name to its (gfk, gmean, feedback) flags. With gmean the kernel's target is
the running mean, else the batch subspace.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import (
    KnnModel,
    KnnParams,
    LabeledSet,
    LinearSvmModel,
    SvmParams,
    _check_entries,
    _class_labels,
    predict,
    train,
)
from .errors import ConfigError, DimensionMismatch, NumericalError, SchemaMismatch
from .flow_kernel import TransformKernel, apply_transform, flow_kernel
from .subspaces import Array, MeanSubspaceState, Subspace, _count, _read_only, _rows, pca_subspace, update_mean

# Variant name -> (gfk, gmean, feedback), in ladder order.
VARIANT_FLAGS: dict[str, tuple[bool, bool, bool]] = {
    "pca": (False, False, False),
    "gfk": (True, False, False),
    "gfk_fb": (True, False, True),
    "gfk_gmean": (True, True, False),
    "gfk_gmean_fb": (True, True, True),
}

STEP_NAMES = ("pca", "mean", "gfk", "predict")


@dataclass(frozen=True)
class PipelineConfig:
    """Subspace dimension (an integer >= 1), variant and classifier for one pipeline run.

    ``variant`` is one of the five VARIANT_FLAGS names, the ladder steps.
    ``classifier``'s type names the model.
    """

    sub_dim: int
    variant: str = "pca"
    classifier: KnnParams | SvmParams = KnnParams()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sub_dim", _count("sub_dim", self.sub_dim, 1))
        if self.variant not in VARIANT_FLAGS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {list(VARIANT_FLAGS)}")
        if not isinstance(self.classifier, (KnnParams, SvmParams)):
            raise ConfigError(f"classifier must be KnnParams or SvmParams, got {self.classifier!r}")


def variant_config(name: str, sub_dim: int, classifier: str = "knn") -> PipelineConfig:
    """Config for a VARIANT_FLAGS name, with the default KnnParams ("knn") or SvmParams ("svm")."""
    defaults = {"knn": KnnParams(), "svm": SvmParams()}
    if classifier not in defaults:
        raise ConfigError(f"classifier must be 'knn' or 'svm', got {classifier!r}")
    return PipelineConfig(sub_dim=sub_dim, variant=name, classifier=defaults[classifier])


@dataclass(frozen=True, eq=False)
class MiniBatch:
    """One unlabelled batch of stream rows; labels ride along for scoring only.

    Entries must be finite with magnitude at most classifiers.MAX_ABS_ENTRY,
    and labels, when given, integers >= 0.
    """

    x: Array
    true_labels: Array | None = None

    def __post_init__(self) -> None:
        x = _rows(self.x, "batch", 2)
        _check_entries(x, "batch")
        object.__setattr__(self, "x", _read_only(x, "batch"))
        if self.true_labels is not None:
            object.__setattr__(self, "true_labels", _class_labels(self.true_labels, x.shape[0], "labels"))

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Everything carried between batches; size is independent of the stream."""

    config: PipelineConfig
    source_subspace: Subspace
    model: KnnModel | LinearSvmModel
    mean_state: MeanSubspaceState | None
    last_kernel: TransformKernel | None


@dataclass
class BatchDiagnostics:
    """Per-batch bookkeeping: step timings, and the error of a skipped batch."""

    step_seconds: dict[str, float]
    error: str | None = None


def init_pipeline(source: LabeledSet, config: PipelineConfig) -> PipelineState:
    """Fit the source subspace and classifier; no stream data is touched."""
    source_subspace = pca_subspace(source.x, config.sub_dim)
    model = train(source, config.classifier)
    return PipelineState(
        config=config,
        source_subspace=source_subspace,
        model=model,
        mean_state=None,
        last_kernel=None,
    )


def process_batch(
    state: PipelineState,
    batch: MiniBatch,
) -> tuple[Array | None, PipelineState, BatchDiagnostics]:
    """Run one batch: the bare rung only predicts; a gfk rung first runs its flagged steps.

    Returns (predictions, new_state, diagnostics). A NumericalError in any
    step skips the batch: the result is (None, state, diagnostics), with the
    same state object and "<ClassName>: <message>" as diagnostics.error, so
    the stream goes on as if the batch had been left out. Only a gfk rung can
    skip: the bare rung scores every batch that MiniBatch accepts, while a
    batch whose centered rank is below sub_dim (a flat batch, at any sub_dim)
    is a RankDeficient skip on each gfk rung. Any other error propagates; a
    batch whose width is not the source's raises DimensionMismatch before any step.
    """
    d = state.source_subspace.ambient_dim
    if batch.x.shape[1] != d:
        raise DimensionMismatch(f"batch has {batch.x.shape[1]} features, source has {d}")
    cfg = state.config
    gfk, gmean, feedback = VARIANT_FLAGS[cfg.variant]
    timings = dict.fromkeys(STEP_NAMES, 0.0)
    try:
        step, t0 = "pca", time.perf_counter()
        x_pre = batch.x
        if feedback and state.last_kernel is not None:
            x_pre = apply_transform(batch.x, state.last_kernel)
        if gfk:
            batch_subspace = pca_subspace(x_pre, cfg.sub_dim)
        timings[step] = time.perf_counter() - t0

        step, t0 = "mean", time.perf_counter()
        mean_state = state.mean_state
        if gmean:
            if mean_state is None:
                mean_state = MeanSubspaceState(batch_subspace, 1)
            else:
                mean_state = update_mean(mean_state, batch_subspace)
        timings[step] = time.perf_counter() - t0

        step, t0 = "gfk", time.perf_counter()
        kernel = state.last_kernel
        x_adapted = x_pre
        if gfk:
            kernel = flow_kernel(state.source_subspace, mean_state.mean if gmean else batch_subspace)
            x_adapted = apply_transform(x_pre, kernel)
        timings[step] = time.perf_counter() - t0

        step, t0 = "predict", time.perf_counter()
        predictions = predict(state.model, x_adapted)
        timings[step] = time.perf_counter() - t0
    except NumericalError as exc:
        timings[step] = time.perf_counter() - t0
        return None, state, BatchDiagnostics(step_seconds=timings, error=f"{type(exc).__name__}: {exc}")

    new_state = replace(state, mean_state=mean_state, last_kernel=kernel)
    return predictions, new_state, BatchDiagnostics(step_seconds=timings)


@dataclass(frozen=True, eq=False)
class AccuracyTrace:
    """Per-batch and running accuracies for one stream run.

    ``per_batch[n]`` is None when batch n was skipped; ``running[n]`` averages
    the scored batches so far and is None until the first one succeeds.
    """

    per_batch: tuple[float | None, ...]
    running: tuple[float | None, ...]
    step_seconds: dict[str, float]

    @property
    def final(self) -> float | None:
        return self.running[-1] if self.running else None


def run_stream(
    source: LabeledSet,
    stream: Iterable[MiniBatch],
    configs: Sequence[PipelineConfig],
) -> tuple[AccuracyTrace, ...]:
    """Drive every config over one read of the stream and score each batch.

    The configs share sub_dim and classifier, so the source fit is made once
    and each config's state starts from it. ``stream`` is any iterable of
    MiniBatch; each batch goes through the configs in order before the next is
    read, and must carry true labels, used for scoring only. Returns one
    AccuracyTrace per config, in config order.
    """
    shared = {(cfg.sub_dim, cfg.classifier) for cfg in configs}
    if len(shared) != 1:
        pairs = sorted(map(repr, shared))
        raise ConfigError(f"run_stream needs configs that share one sub_dim and classifier, got {pairs}")
    fitted = init_pipeline(source, configs[0])
    states = [replace(fitted, config=cfg) for cfg in configs]
    per_batch: list[list[float | None]] = [[] for _ in configs]
    step_totals = [dict.fromkeys(STEP_NAMES, 0.0) for _ in configs]
    for batch in stream:
        if batch.true_labels is None:
            raise SchemaMismatch("stream batches must carry true_labels for scoring")
        for i, state in enumerate(states):
            predictions, states[i], diag = process_batch(state, batch)
            for name in STEP_NAMES:
                step_totals[i][name] += diag.step_seconds[name]
            per_batch[i].append(None if predictions is None else float(np.mean(predictions == batch.true_labels)))
    traces = []
    for accuracies, totals in zip(per_batch, step_totals):
        running, scored_sum, scored_n = [], 0.0, 0
        for accuracy in accuracies:
            if accuracy is not None:
                scored_sum, scored_n = scored_sum + accuracy, scored_n + 1
            running.append(scored_sum / scored_n if scored_n else None)
        traces.append(AccuracyTrace(per_batch=tuple(accuracies), running=tuple(running), step_seconds=totals))
    return tuple(traces)
