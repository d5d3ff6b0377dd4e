"""Online loop: variants, causality, the running metric, and failure handling."""

import math

import numpy as np
import pytest

from driftalign import (
    ConfigError,
    MiniBatch,
    PipelineConfig,
    PipelineState,
    NonFiniteData,
    StreamSpec,
    VARIANT_ALIASES,
    VARIANT_FLAGS,
    gen_rotating_drift,
    init_pipeline,
    predict,
    process_batch,
    run_stream,
    train,
    variant_config,
)
from driftalign.subspaces import pca_subspace


def small_bundle(seed=0, batch_count=10, rotation=math.pi / 3):
    spec = StreamSpec(batch_size=40, batch_count=batch_count, seed=seed, source_size=200)
    return gen_rotating_drift(spec, classes=2, d=10, total_rotation=rotation)


class TestConfig:
    def test_ladder_flags(self):
        assert list(VARIANT_FLAGS) == ["pca", "gfk", "gfk_fb", "gfk_gmean", "gfk_gmean_fb"]
        assert VARIANT_FLAGS["pca"] == (False, False, False)
        assert VARIANT_FLAGS["gfk_gmean_fb"] == (True, True, True)

    @pytest.mark.parametrize("alias", sorted(VARIANT_ALIASES))
    def test_alias_yields_the_flags_of_its_canonical_name(self, alias):
        canonical = variant_config(VARIANT_ALIASES[alias], sub_dim=3)
        assert variant_config(alias, sub_dim=3) == canonical
        assert VARIANT_FLAGS[VARIANT_ALIASES[alias]] == (
            canonical.use_gfk, canonical.use_gmean, canonical.use_feedback
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_config("pca_gfk", sub_dim=3)

    def test_feedback_without_gfk_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(sub_dim=3, use_gfk=False, use_gmean=False, use_feedback=True)

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(sub_dim=3, use_gfk=False, use_gmean=False, use_feedback=False,
                           classifier="tree")

    def test_minibatch_needs_two_finite_rows(self):
        from driftalign import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            MiniBatch(x=np.ones((1, 5)))
        bad = np.ones((3, 5))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            MiniBatch(x=bad)

    def test_non_finite_batch_is_a_data_error(self):
        bad = np.ones((3, 5))
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteData):
            MiniBatch(x=bad)


class TestVariantCoherence:
    def test_bare_variant_equals_direct_source_predictions(self):
        bundle = small_bundle()
        cfg = variant_config("pca", sub_dim=3)
        state = init_pipeline(bundle.source, cfg)
        model = train(bundle.source, "knn")
        for batch in bundle.stream:
            preds, state, _ = process_batch(state, batch)
            assert np.array_equal(preds, predict(model, batch.x))

    def test_first_batch_identical_with_and_without_mean(self):
        bundle = small_bundle()
        first = bundle.stream[0]
        p1, _, _ = process_batch(init_pipeline(bundle.source, variant_config("gfk", sub_dim=3)), first)
        p2, _, _ = process_batch(init_pipeline(bundle.source, variant_config("gfk_gmean", sub_dim=3)), first)
        assert np.array_equal(p1, p2)

    def test_second_batch_feedback_is_the_kernel_product(self):
        bundle = small_bundle()
        cfg = variant_config("gfk_fb", sub_dim=3)
        state0 = init_pipeline(bundle.source, cfg)
        _, state1, _ = process_batch(state0, bundle.stream[0])
        # replicate batch 2 by hand from the stored kernel, applied as the pipeline does
        from driftalign import apply_transform, flow_kernel

        x_pre = apply_transform(bundle.stream[1].x, state1.last_kernel)
        target = pca_subspace(x_pre, 3)
        kernel = flow_kernel(state1.source_subspace, target)
        by_hand = predict(state1.model, apply_transform(x_pre, kernel))
        via_pipeline, _, _ = process_batch(state1, bundle.stream[1])
        assert np.array_equal(via_pipeline, by_hand)


class TestCausalityAndMetric:
    @pytest.mark.parametrize("name", list(VARIANT_FLAGS))
    def test_truncated_rerun_reproduces_the_prefix(self, name):
        bundle = small_bundle()
        cfg = variant_config(name, sub_dim=3)
        full = run_stream(bundle.source, bundle.stream, cfg)
        half = run_stream(bundle.source, bundle.stream[:5], cfg)
        assert full.per_batch[:5] == half.per_batch  # bit-for-bit, no tolerance
        assert full.running[:5] == half.running

    def test_running_metric_matches_brute_force(self):
        bundle = small_bundle()
        trace = run_stream(bundle.source, bundle.stream, variant_config("gfk_gmean_fb", sub_dim=3))
        scored = []
        for i, value in enumerate(trace.per_batch):
            if value is not None:
                scored.append(value)
            assert abs(trace.running[i] - np.mean(scored)) < 1e-12

    def test_stream_without_labels_is_rejected(self):
        bundle = small_bundle()
        naked = (MiniBatch(x=bundle.stream[0].x),)
        with pytest.raises(ValueError):
            run_stream(bundle.source, naked, variant_config("pca", sub_dim=3))


class TestFailureHandling:
    def test_rank_deficient_batch_is_skipped_without_state_change(self):
        bundle = small_bundle()
        cfg = variant_config("gfk_gmean", sub_dim=3)
        state = init_pipeline(bundle.source, cfg)
        preds, state, _ = process_batch(state, bundle.stream[0])
        assert preds is not None
        flat = MiniBatch(x=np.ones((20, 10)))  # rank zero after centering
        preds2, state2, diag2 = process_batch(state, flat)
        assert preds2 is None
        assert diag2.error is not None
        assert state2 is state
        preds3, _, _ = process_batch(state2, bundle.stream[1])
        assert preds3 is not None

    def test_skipped_batches_leave_the_denominator(self):
        bundle = small_bundle(batch_count=4)
        flat = MiniBatch(x=np.ones((20, 10)), true_labels=np.zeros(20, dtype=int))
        stream = (bundle.stream[0], flat, bundle.stream[1])
        trace = run_stream(bundle.source, stream, variant_config("gfk", sub_dim=3))
        assert trace.per_batch[1] is None
        assert trace.running[1] == trace.running[0]
        expected = (trace.per_batch[0] + trace.per_batch[2]) / 2.0
        assert abs(trace.running[2] - expected) < 1e-12


class TestStateShape:
    def test_state_holds_no_per_batch_history(self):
        bundle = small_bundle()
        cfg = variant_config("gfk_gmean_fb", sub_dim=3)
        state = init_pipeline(bundle.source, cfg)
        for batch in bundle.stream:
            _, state, _ = process_batch(state, batch)
        fields = set(PipelineState.__dataclass_fields__)
        assert fields == {
            "config", "source_subspace", "model",
            "mean_state", "last_kernel", "batch_count",
        }
        # the persistent matrices depend only on d and k, never on batch count
        assert state.last_kernel.frame.shape == (10, 6)
        assert state.last_kernel.weights.shape == (6, 6)
        assert state.mean_state.mean.basis.shape == (10, 3)
        assert state.batch_count == len(bundle.stream)

    def test_step_timings_cover_the_four_steps(self):
        bundle = small_bundle(batch_count=3)
        trace = run_stream(bundle.source, bundle.stream, variant_config("gfk_gmean_fb", sub_dim=3))
        assert set(trace.step_seconds) == {"pca", "mean", "gfk", "predict"}
        assert len(trace.seconds_per_batch) == 3

    def test_diagnostics_record_target_angles(self):
        bundle = small_bundle(batch_count=2)
        cfg = variant_config("gfk", sub_dim=3, diagnostics=True)
        state = init_pipeline(bundle.source, cfg)
        _, state, diag = process_batch(state, bundle.stream[0])
        assert diag.target_angles is not None
        assert diag.target_angles.shape == (3,)
        assert isinstance(diag.near_orthogonal, bool)
