"""Online loop: variants, causality, the running metric, and failure handling."""

import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftalign import (
    ConfigError,
    DimensionMismatch,
    KnnParams,
    LabeledSet,
    MiniBatch,
    PipelineConfig,
    PipelineState,
    NonFiniteData,
    NumericalHealthError,
    SchemaMismatch,
    SharedFactorFailure,
    StreamSpec,
    SvmParams,
    VARIANT_FLAGS,
    apply_transform,
    gen_rotating_drift,
    init_pipeline,
    predict,
    process_batch,
    run_stream,
    train,
    variant_config,
)
from driftalign.classifiers import MAX_ABS_ENTRY
from driftalign.cli import main as cli_main
from driftalign.subspaces import pca_subspace
from conftest import pinned_stream, variants_table

pipeline_module = importlib.import_module("driftalign.pipeline")


def small_bundle(seed=0, batch_count=10, rotation=math.pi / 3):
    spec = StreamSpec(batch_size=40, batch_count=batch_count, seed=seed, source_size=200)
    return gen_rotating_drift(spec, classes=2, d=10, total_rotation=rotation)


def tiny_bundle(seed):
    spec = StreamSpec(batch_size=30, batch_count=6, seed=seed, source_size=120)
    return gen_rotating_drift(spec, classes=2, d=10, total_rotation=math.pi / 3)


# Every name a config accepts: the five ladder steps.
ALL_VARIANT_NAMES = st.sampled_from(sorted(VARIANT_FLAGS))

# (variant name, step it calls): update_mean for the gmean variants, flow_kernel
# for the gfk ones. The pca variant only predicts, and predict raises no
# numerical error on a batch MiniBatch accepts, so the bare rung has no
# failure to inject; the gfk rungs' rank-deficient batch is covered by the
# flat-batch property.
INJECTION_SITES = st.sampled_from([
    (name, site)
    for name in sorted(VARIANT_FLAGS)
    for site, flag in (("flow_kernel", 0), ("update_mean", 1))
    if VARIANT_FLAGS[name][flag]
])


class TestConfig:
    def test_ladder_flags(self):
        assert list(VARIANT_FLAGS) == ["pca", "gfk", "gfk_fb", "gfk_gmean", "gfk_gmean_fb"]
        assert VARIANT_FLAGS["pca"] == (False, False, False)
        assert VARIANT_FLAGS["gfk_gmean_fb"] == (True, True, True)

    def test_readme_variants_table_states_the_flags(self):
        expected = {
            name: ("running mean" if gmean else "per batch" if gfk else "none",
                   "flow kernel" if gfk else "none (raw features)",
                   "yes" if feedback else "no")
            for name, (gfk, gmean, feedback) in VARIANT_FLAGS.items()
        }
        assert variants_table() == expected

    @pytest.mark.parametrize("name", ["fb", "gmean", "gmean_fb"])
    def test_short_variant_names_are_rejected(self, name):
        # these were aliases of the gfk_ names; the error lists only the ladder
        expected = f"unknown variant {name!r}; expected one of {list(VARIANT_FLAGS)}"
        for make in (lambda: PipelineConfig(sub_dim=3, variant=name), lambda: variant_config(name, sub_dim=3)):
            with pytest.raises(ConfigError) as info:
                make()
            assert str(info.value) == expected

    def test_config_fields_are_the_variant_and_its_parameters(self):
        assert list(PipelineConfig.__dataclass_fields__) == ["sub_dim", "variant", "classifier"]
        assert PipelineConfig(sub_dim=3).variant == "pca"
        assert PipelineConfig(sub_dim=3).classifier == KnnParams()
        assert PipelineConfig(sub_dim=3, classifier=SvmParams(epochs=5)).classifier == SvmParams(epochs=5)

    def test_variant_config_names_the_default_params(self):
        assert variant_config("gfk", sub_dim=10).classifier == KnnParams()
        assert variant_config("gfk", sub_dim=10, classifier="svm").classifier == SvmParams()

    @pytest.mark.parametrize("sub_dim", [3.5, 3.0, "3", True])
    def test_non_integer_sub_dim_rejected(self, sub_dim):
        with pytest.raises(ConfigError, match="sub_dim must be an integer"):
            PipelineConfig(sub_dim=sub_dim)

    def test_sub_dim_is_stored_as_int(self):
        config = PipelineConfig(sub_dim=np.int64(3))
        assert type(config.sub_dim) is int and config.sub_dim == 3
        with pytest.raises(ConfigError, match="sub_dim must be >= 1"):
            PipelineConfig(sub_dim=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_config("pca_gfk", sub_dim=3)
        with pytest.raises(ConfigError, match="unknown variant"):
            PipelineConfig(sub_dim=3, variant="pca_gfk")

    def test_unknown_classifier_rejected(self):
        # a config takes a params object; the string names belong to variant_config
        for bad in ("tree", "knn", None):
            with pytest.raises(ConfigError, match="classifier must be KnnParams or SvmParams"):
                PipelineConfig(sub_dim=3, classifier=bad)
        with pytest.raises(ConfigError, match="classifier must be 'knn' or 'svm', got 'tree'"):
            variant_config("gfk", sub_dim=3, classifier="tree")

    @pytest.mark.parametrize("labels, match", [
        ([0.5, 1.7, -0.2, 1.0], "must be integers"),
        ([0, 1, -1, 1], "must be >= 0"),
        ([0, 1, math.nan, 1], "must be integers"),
    ], ids=["fractional", "negative", "nan"])
    def test_minibatch_rejects_labels_it_would_change(self, labels, match):
        # astype(int64) used to store [0.5, 1.7, -0.2, 1.0] as [0, 1, 0, 1]
        with pytest.raises(SchemaMismatch, match=match):
            MiniBatch(x=np.eye(4, 5), true_labels=labels)

    @pytest.mark.parametrize("labels", [[0, 1, 0], [[0, 1, 0, 1]]], ids=["too_few", "2-d"])
    def test_minibatch_needs_one_label_per_row(self, labels):
        with pytest.raises(DimensionMismatch, match=r"labels must have shape \(4,\)"):
            MiniBatch(x=np.eye(4, 5), true_labels=labels)

    def test_minibatch_needs_two_finite_rows(self):
        with pytest.raises(DimensionMismatch):
            MiniBatch(x=np.ones((1, 5)))
        with pytest.raises(DimensionMismatch, match=r"got shape \(50, 0\)"):
            MiniBatch(x=np.ones((50, 0)))
        bad = np.ones((3, 5))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteData):
            MiniBatch(x=bad)

    @pytest.mark.parametrize(
        "x",
        [np.ones((3, 6)) + 1j, [[1.0, 2.0], [3.0, 4.0 + 0j]], [["1", "2"], ["3", "4"]], [[b"1", b"2"], [b"3", b"4"]],
         np.array([[1.0, 2.0], [3.0, 4j]], dtype=object), np.ones((3, 6), dtype=object)],
        ids=["array", "list", "str", "bytes", "object_complex", "object_float"],
    )
    def test_complex_batch_is_a_data_error(self, x):
        # the array was accepted as all ones; the list and the object complex
        # raised a TypeError; strings, bytes and object floats were cast
        with pytest.raises(SchemaMismatch, match="batch must be real"):
            MiniBatch(x=x)

    def test_non_finite_batch_is_a_data_error(self):
        bad = np.ones((3, 5))
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteData):
            MiniBatch(x=bad)

    @pytest.mark.parametrize("big", [1e160, -1e151])
    def test_batch_beyond_the_magnitude_bound_is_a_data_error(self, big):
        bad = np.ones((3, 5))
        bad[2, 0] = big
        with pytest.raises(NonFiniteData, match="beyond"):
            MiniBatch(x=bad)

    def test_batches_at_the_bound_are_scored_after_the_transform(self):
        # the kernel can push single entries past the bound, but never a row past sqrt(d) times it
        rng = np.random.default_rng(0)
        shift = np.repeat([[0.0] * 10, [5e149] * 10], 100, axis=0)
        source = LabeledSet(x=1e149 * rng.standard_normal((200, 10)) + shift, y=np.repeat([0, 1], 100))
        state = init_pipeline(source, variant_config("gfk_gmean_fb", sub_dim=3))
        batch = MiniBatch(x=np.clip(6e149 * rng.standard_normal((50, 10)), -MAX_ABS_ENTRY, MAX_ABS_ENTRY))
        for _ in range(2):
            predictions, state, _ = process_batch(state, batch)
            assert predictions is not None
        assert np.abs(apply_transform(batch.x, state.last_kernel)).max() > MAX_ABS_ENTRY


class TestVariantCoherence:
    def test_bare_variant_equals_direct_source_predictions(self, monkeypatch):
        bundle = pinned_stream()
        state = init_pipeline(bundle.source, variant_config("pca", sub_dim=3))
        model = train(bundle.source, KnnParams())

        def forbidden(*args):
            raise AssertionError("the bare rung ran a step other than predict")

        for site in ("pca_subspace", "apply_transform", "update_mean", "flow_kernel"):
            monkeypatch.setattr(pipeline_module, site, forbidden)
        flat = MiniBatch(x=np.ones((20, 10)))  # rank zero after centering
        for batch in (*bundle.stream, flat):
            preds, state, diag = process_batch(state, batch)
            assert diag.error is None
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
        (full,) = run_stream(bundle.source, bundle.stream, [cfg])
        (half,) = run_stream(bundle.source, bundle.stream[:5], [cfg])
        assert full.per_batch[:5] == half.per_batch  # bit-for-bit, no tolerance
        assert full.running[:5] == half.running

    @settings(max_examples=40, deadline=None)
    @given(name=ALL_VARIANT_NAMES, seed=st.integers(0, 10_000), prefix=st.integers(1, 5))
    def test_any_prefix_of_any_stream_reproduces_the_full_run(self, name, seed, prefix):
        bundle = tiny_bundle(seed)
        cfg = variant_config(name, sub_dim=3)
        (full,) = run_stream(bundle.source, bundle.stream, [cfg])
        (part,) = run_stream(bundle.source, bundle.stream[:prefix], [cfg])
        assert full.per_batch[:prefix] == part.per_batch
        assert full.running[:prefix] == part.running
        # a ladder run steps every rung exactly as a run of that rung alone
        configs = [variant_config(rung, sub_dim=3) for rung in VARIANT_FLAGS]
        ladder = run_stream(bundle.source, bundle.stream, configs)
        for config, trace in zip(configs, ladder, strict=True):
            (alone,) = run_stream(bundle.source, bundle.stream, [config])
            assert trace.per_batch == alone.per_batch  # bit-for-bit, no tolerance
            assert trace.running == alone.running

    def test_running_metric_matches_brute_force(self):
        bundle = small_bundle()
        (trace,) = run_stream(bundle.source, bundle.stream, [variant_config("gfk_gmean_fb", sub_dim=3)])
        scored = []
        for i, value in enumerate(trace.per_batch):
            if value is not None:
                scored.append(value)
            assert abs(trace.running[i] - np.mean(scored)) < 1e-12

    def test_stream_without_labels_is_rejected(self):
        bundle = small_bundle()
        naked = (MiniBatch(x=bundle.stream[0].x),)
        with pytest.raises(SchemaMismatch):
            run_stream(bundle.source, naked, [variant_config("pca", sub_dim=3)])


class TestOnePass:
    def count_training(self, monkeypatch):
        calls = []

        def counted(data, params):
            calls.append(params)
            return train(data, params)

        monkeypatch.setattr(pipeline_module, "train", counted)
        return calls

    def test_an_svm_ladder_trains_once(self, monkeypatch):
        calls = self.count_training(monkeypatch)
        bundle = small_bundle(batch_count=3)
        params = SvmParams(epochs=5)
        configs = [PipelineConfig(sub_dim=3, variant=name, classifier=params) for name in VARIANT_FLAGS]
        traces = run_stream(bundle.source, bundle.stream, configs)
        assert calls == [params]
        assert len(traces) == len(VARIANT_FLAGS)
        assert all(len(trace.per_batch) == 3 for trace in traces)

    def test_ablate_trains_once(self, monkeypatch, tmp_path):
        calls = self.count_training(monkeypatch)
        code = cli_main([
            "ablate", "--gen", "rotating", "--batch", "30", "--batch-count", "3", "--source-size", "120",
            "--classifier", "svm", "--svm-epochs", "2", "--out", str(tmp_path / "ladder.json"),
        ])
        assert code == 0
        assert len(calls) == 1

    def test_a_generator_stream_gives_the_same_traces(self):
        bundle = small_bundle(batch_count=4)
        configs = [variant_config(name, sub_dim=3) for name in VARIANT_FLAGS]
        from_tuple = run_stream(bundle.source, bundle.stream, configs)
        from_generator = run_stream(bundle.source, (batch for batch in bundle.stream), configs)
        assert [(t.per_batch, t.running) for t in from_generator] == [(t.per_batch, t.running) for t in from_tuple]

    @pytest.mark.parametrize("configs", [
        [],
        [variant_config("pca", sub_dim=3), variant_config("gfk", sub_dim=2)],
        [variant_config("pca", sub_dim=3), variant_config("gfk", sub_dim=3, classifier="svm")],
        [variant_config("pca", sub_dim=3), PipelineConfig(sub_dim=3, variant="gfk", classifier=KnnParams(3))],
    ], ids=["empty", "sub_dim", "classifier_type", "classifier_params"])
    def test_configs_must_share_sub_dim_and_classifier(self, configs, monkeypatch):
        calls = self.count_training(monkeypatch)
        with pytest.raises(ConfigError, match="run_stream needs configs that share one sub_dim and classifier"):
            run_stream(small_bundle(batch_count=1).source, (), configs)
        assert calls == []


class TestFailureHandling:
    @pytest.mark.parametrize("width", [5, 12])
    @pytest.mark.parametrize("name", ["pca", "gfk", "gfk_gmean_fb"])
    def test_batch_of_the_wrong_width_is_a_data_error_before_any_step(self, name, width, monkeypatch):
        # a 5-column batch raised DimensionViolation, a ConfigError, from PCA's k < d/2 check
        bundle = small_bundle(batch_count=1)
        state = init_pipeline(bundle.source, variant_config(name, sub_dim=3))
        _, state, _ = process_batch(state, bundle.stream[0])
        calls = []
        for site in ("apply_transform", "pca_subspace", "update_mean", "flow_kernel", "predict"):
            monkeypatch.setattr(pipeline_module, site, lambda *args, site=site: calls.append(site))
        wrong = MiniBatch(x=np.random.default_rng(0).standard_normal((50, width)))
        with pytest.raises(DimensionMismatch, match=f"batch has {width} features, source has 10"):
            process_batch(state, wrong)
        assert calls == []

    @pytest.mark.parametrize("sub_dim", [1, 2, 3])
    @pytest.mark.parametrize("level", [1.0, 0.1])
    def test_rank_deficient_batch_is_skipped_without_state_change(self, sub_dim, level):
        # the mean of 0.1s rounds, and feedback's product of the ones does, so centring leaves rounding noise
        bundle = small_bundle()
        flat = MiniBatch(x=np.full((20, 10), level))
        for name, (gfk, _, _) in VARIANT_FLAGS.items():
            state = init_pipeline(bundle.source, variant_config(name, sub_dim=sub_dim))
            preds, state, _ = process_batch(state, bundle.stream[0])
            assert preds is not None
            preds2, state2, diag2 = process_batch(state, flat)
            if not gfk:
                # the bare rung is the frozen classifier on raw rows: it scores the batch
                assert np.array_equal(preds2, predict(state.model, flat.x)) and diag2.error is None
                continue
            assert preds2 is None
            assert diag2.error == f"RankDeficient: centered data has numerical rank 0 < k={sub_dim}"
            assert state2 is state
            preds3, _, _ = process_batch(state2, bundle.stream[1])
            assert preds3 is not None

    @settings(max_examples=40, deadline=None)
    @given(
        name=ALL_VARIANT_NAMES,
        seed=st.integers(0, 10_000),
        position=st.integers(0, 6),
        rows=st.integers(2, 40),
        tenths=st.integers(-50, 50),
        sub_dim=st.integers(1, 3),
    )
    def test_skipping_a_flat_batch_equals_omitting_it(self, name, seed, position, rows, tenths, sub_dim):
        bundle = tiny_bundle(seed)
        flat = MiniBatch(x=np.full((rows, 10), tenths / 10))
        cfg = variant_config(name, sub_dim=sub_dim)
        state = init_pipeline(bundle.source, cfg)
        expected = []
        for batch in bundle.stream:
            preds, state, _ = process_batch(state, batch)
            expected.append(preds)
        state = init_pipeline(bundle.source, cfg)
        got = []
        for i, batch in enumerate(bundle.stream[:position] + (flat,) + bundle.stream[position:]):
            preds, new_state, diag = process_batch(state, batch)
            if i == position and name == "pca":
                # the bare rung is the frozen classifier on raw rows: it scores the batch
                assert np.array_equal(preds, predict(state.model, flat.x)) and diag.error is None
            elif i == position:
                assert preds is None and new_state is state and diag.error is not None
            else:
                got.append(preds)
            state = new_state
        assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))

    @settings(max_examples=40, deadline=None)
    @given(
        case=INJECTION_SITES,
        error=st.sampled_from([NumericalHealthError, SharedFactorFailure]),
        seed=st.integers(0, 10_000),
        position=st.integers(0, 6),
    )
    def test_skipping_a_numerical_failure_equals_omitting_the_batch(self, case, error, seed, position):
        name, site = case
        if site == "update_mean":
            position = max(position, 1)  # batch 0 starts the mean: MeanSubspaceState(first, 1)
        bundle = tiny_bundle(seed)
        # A batch of the same law, failed by the error injected at ``site``.
        failed = tiny_bundle(seed + 1).stream[0]
        cfg = variant_config(name, sub_dim=3)
        state = init_pipeline(bundle.source, cfg)
        expected = []
        for batch in bundle.stream:
            preds, state, _ = process_batch(state, batch)
            expected.append(preds)
        original = getattr(pipeline_module, site)
        hits = []

        def failing(*args):
            # ``batch`` is the loop variable of the run below
            hits.append(batch is failed)
            if batch is failed:
                raise error("injected")
            return original(*args)

        state = init_pipeline(bundle.source, cfg)
        got = []
        with mock.patch.object(pipeline_module, site, failing):
            for batch in bundle.stream[:position] + (failed,) + bundle.stream[position:]:
                preds, new_state, diag = process_batch(state, batch)
                if batch is failed:
                    assert preds is None and new_state is state
                    assert diag.error == f"{error.__name__}: injected"
                else:
                    got.append(preds)
                state = new_state
        assert hits.count(True) == 1
        assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))

    def test_skipped_batches_leave_the_denominator(self):
        bundle = small_bundle(batch_count=4)
        flat = MiniBatch(x=np.ones((20, 10)), true_labels=np.zeros(20, dtype=int))
        stream = (bundle.stream[0], flat, bundle.stream[1])
        (trace,) = run_stream(bundle.source, stream, [variant_config("gfk", sub_dim=3)])
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
            "mean_state", "last_kernel",
        }
        # the persistent matrices depend only on d and k, never on batch count
        assert state.last_kernel.frame.shape == (10, 6)
        assert state.last_kernel.weights.shape == (6, 6)
        assert state.mean_state.mean.basis.shape == (10, 3)
        assert state.mean_state.count == len(bundle.stream)

    def test_step_timings_cover_the_four_steps(self):
        bundle = small_bundle(batch_count=3)
        (trace,) = run_stream(bundle.source, bundle.stream, [variant_config("gfk_gmean_fb", sub_dim=3)])
        assert set(trace.step_seconds) == {"pca", "mean", "gfk", "predict"}
        assert len(trace.per_batch) == 3

    def test_a_run_peaks_near_one_distance_matrix(self):
        # the reference stream: 1-NN over 500 source rows, 60 batches of 50
        # rows. kNN predict's 50 x 500 float64 ranking array (200 kB) is the
        # largest live array. The run peaks at 1.11 of it after other tests
        # and at 1.18 alone, where numpy's first argmin and argmax calls leave
        # about 12 kB of caches
        spec = StreamSpec(batch_size=50, batch_count=60, seed=0, source_size=500)
        bundle = gen_rotating_drift(spec, classes=2, d=10, total_rotation=math.pi / 3)
        cfg = variant_config("gfk_gmean_fb", sub_dim=3)
        tracemalloc.start()
        try:
            state = init_pipeline(bundle.source, cfg)
            for batch in bundle.stream:
                _, state, _ = process_batch(state, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 50 * 500 * 8
