"""Running mean on the manifold plus the iterative reference mean."""

import importlib

import numpy as np
import pytest

from driftalign import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    SchemaMismatch,
    StreamSpec,
    evaluate,
    gen_rotating_drift,
    init_pipeline,
    process_batch,
    update_mean,
    variant_config,
)
from driftalign.subspaces import ORTHONORMALITY_TOL, Subspace, pca_subspace, principal_system
from driftalign.verify import (
    NoConvergence,
    exp_tangent,
    geodesic_distance,
    karcher_mean,
    log_tangent,
    orthonormalize,
    principal_angles,
    random_subspace,
)

verify_module = importlib.import_module("driftalign.verify")
subspaces_module = importlib.import_module("driftalign.subspaces")

LOG_SHAPES = [(10, 3), (16, 4), (40, 10), (30, 1), (7, 3), (12, 5)]


def perturbed(base, scale, rng):
    return orthonormalize(base.basis + scale * rng.standard_normal(base.basis.shape))


def reference_log_tangent(base, target):
    """The log map through the library's principal system, as log_tangent computed it before the closed form."""
    s = principal_system(base, target)
    return -(s.tail * s.angles) @ s.a_rot.T


def tangent_at(base, length, rng):
    """A random tangent at ``base`` of Frobenius norm ``length``."""
    raw = rng.standard_normal(base.basis.shape)
    tangent = raw - base.basis @ (base.basis.T @ raw)
    return tangent * (length / np.linalg.norm(tangent))


class TestRunningMean:
    def test_init_is_the_subspace_itself(self):
        # a gmean rung's mean is its first batch subspace, count 1
        bundle = gen_rotating_drift(StreamSpec(batch_size=20, batch_count=1, seed=0, source_size=40), d=10)
        state = init_pipeline(bundle.source, variant_config("gfk_gmean", sub_dim=3))
        assert (state.mean, state.mean_count) == (None, 0)
        _, state, _ = process_batch(state, bundle.stream[0])
        assert state.mean_count == 1
        assert np.array_equal(state.mean.basis, pca_subspace(bundle.stream[0].x, 3).basis)

    def test_fixed_point_under_repeated_self_updates(self):
        rng = np.random.default_rng(1)
        s = random_subspace(12, 4, rng)
        mean = s
        for count in range(1, 51):
            mean = update_mean(mean, count, s)
        assert principal_angles(mean, s).max() < 1e-13

    def test_two_subspace_mean_is_the_midpoint(self):
        rng = np.random.default_rng(2)
        a = random_subspace(11, 3, rng)
        b = random_subspace(11, 3, rng)
        midpoint = evaluate(principal_system(a, b), 0.5)
        assert principal_angles(update_mean(a, 1, b), midpoint).max() < 1e-13

    def test_step_size_follows_one_over_count(self):
        # third update moves exactly a quarter of the way: 1/(3+1)
        rng = np.random.default_rng(3)
        center = random_subspace(10, 2, rng)
        mean = update_mean(update_mean(center, 1, center), 2, center)
        target = perturbed(center, 0.2, rng)
        full = geodesic_distance(mean, target)
        step = geodesic_distance(mean, update_mean(mean, 3, target))
        assert abs(step - full / 4.0) < 1e-14

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        mean = random_subspace(10, 3, rng)
        with pytest.raises(DimensionMismatch):
            update_mean(mean, 1, random_subspace(12, 3, rng))

    @pytest.mark.parametrize("count, message", [(2.7, "count must be an integer"), (True, "count must be an integer"),
                                                (0, "count must be >= 1")])
    def test_count_must_be_a_positive_integer(self, count, message):
        # 2.7 used to be stored as 2
        mean = random_subspace(10, 3, np.random.default_rng(5))
        with pytest.raises(ConfigError, match=message):
            update_mean(mean, count, mean)


class TestTangentMaps:
    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(5)
        base = random_subspace(12, 3, rng)
        target = perturbed(base, 0.15, rng)
        tangent = log_tangent(base, target)
        recovered = exp_tangent(base, tangent)
        assert principal_angles(recovered, target).max() < 1e-13

    def test_zero_tangent_maps_to_base(self):
        rng = np.random.default_rng(6)
        base = random_subspace(9, 2, rng)
        recovered = exp_tangent(base, np.zeros((9, 2)))
        assert principal_angles(recovered, base).max() < 1e-14

    def test_non_real_tangent_rejected(self, non_real):
        rng = np.random.default_rng(5)
        base = random_subspace(12, 3, rng)
        tangent = log_tangent(base, perturbed(base, 0.15, rng))
        with pytest.raises(SchemaMismatch, match="^tangent must be real"):
            exp_tangent(base, non_real(tangent))

    @pytest.mark.parametrize("shape", [(10, 2), (12, 3), (30,)])
    def test_tangent_of_the_wrong_shape_rejected(self, shape):
        # a tangent is row data: one that is not 2-d fails the row gate's shape check first
        base = random_subspace(10, 3, np.random.default_rng(8))
        with pytest.raises(DimensionMismatch) as exc:
            exp_tangent(base, np.zeros(shape))
        if len(shape) == 2:
            assert str(exc.value) == f"tangent must be 10 x 3, got {shape}"
        else:
            assert str(exc.value) == f"tangent must be a 2-d array of at least 1 x 1, got shape {shape}"

    def test_tangent_along_the_base_rejected(self):
        # a multiple of the base itself is no tangent; it used to be polished back to the base
        rng = np.random.default_rng(8)
        base = random_subspace(10, 3, rng)
        with pytest.raises(DomainError, match="not orthogonal to the base"):
            exp_tangent(base, 0.7 * base.basis)

    def test_tangent_just_off_the_tangent_space_rejected(self):
        rng = np.random.default_rng(9)
        base = random_subspace(10, 3, rng)
        raw = rng.standard_normal((10, 3))
        tangent = 0.3 * (raw - base.basis @ (base.basis.T @ raw))
        exp_tangent(base, tangent)
        # move one column along the base by just over the tolerance
        bent = tangent + 2.0 * ORTHONORMALITY_TOL * np.outer(base.basis[:, 0], [1.0, 0.0, 0.0])
        assert np.abs(base.basis.T @ bent).max() > ORTHONORMALITY_TOL
        with pytest.raises(DomainError):
            exp_tangent(base, bent)

    def test_tangent_norm_equals_geodesic_distance(self):
        rng = np.random.default_rng(7)
        base = random_subspace(14, 4, rng)
        target = perturbed(base, 0.1, rng)
        tangent = log_tangent(base, target)
        assert abs(np.linalg.norm(tangent) - geodesic_distance(base, target)) < 1e-14

    @pytest.mark.parametrize("d, k", LOG_SHAPES)
    def test_closed_form_matches_the_principal_system_log(self, d, k):
        # random pairs, and the same targets under a rotated basis: the tangent depends only on the span
        rng = np.random.default_rng(100 * d + k)
        worst = 0.0
        for _ in range(10):
            base = random_subspace(d, k, rng)
            target = random_subspace(d, k, rng)
            rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
            for t in (target, Subspace(target.basis @ rotation)):
                worst = max(worst, float(np.abs(log_tangent(base, t) - reference_log_tangent(base, t)).max()))
        assert worst < 1e-11

    @pytest.mark.parametrize("d, k", [(10, 3), (16, 4)])
    def test_tiny_angles_keep_their_direction(self, d, k):
        # principal_system fills a direction whose sine is below 1e-9 arbitrarily; the closed form does not
        rng = np.random.default_rng(12 + d)
        for _ in range(5):
            base = random_subspace(d, k, rng)
            target = exp_tangent(base, tangent_at(base, 1e-9, rng))
            recovered = exp_tangent(base, log_tangent(base, target))
            assert principal_angles(recovered, target).max() < 1e-13

    def test_right_angle_is_outside_the_domain(self):
        # (e0, e1, e2) vs (e0, e1, e5): B^T T is exactly singular, and numpy's LinAlgError is a ValueError
        eye = np.eye(8)
        base = Subspace(eye[:, [0, 1, 2]])
        target = Subspace(eye[:, [0, 1, 5]])
        with pytest.raises(DomainError, match="principal angle is pi/2"):
            log_tangent(base, target)

    @pytest.mark.parametrize("other", [(12, 3), (10, 2)])
    def test_mismatched_shapes_rejected(self, other):
        rng = np.random.default_rng(13)
        with pytest.raises(DimensionMismatch, match="different spaces"):
            log_tangent(random_subspace(10, 3, rng), random_subspace(*other, rng))


class TestKarcherMean:
    def test_two_point_mean_matches_midpoint(self):
        rng = np.random.default_rng(8)
        a = random_subspace(10, 3, rng)
        b = perturbed(a, 0.3, rng)
        mean = karcher_mean([a, b])
        midpoint = evaluate(principal_system(a, b), 0.5)
        assert principal_angles(mean, midpoint).max() < 1e-12

    def test_mean_of_identical_subspaces_is_immediate(self):
        rng = np.random.default_rng(9)
        s = random_subspace(8, 2, rng)
        mean = karcher_mean([s, s, s])
        assert principal_angles(mean, s).max() < 1e-14

    def test_impossible_tolerance_raises(self, monkeypatch):
        # the settings are module constants, read at call time
        monkeypatch.setattr(verify_module, "KARCHER_TOL", 0.0)
        monkeypatch.setattr(verify_module, "KARCHER_MAX_ITER", 3)
        rng = np.random.default_rng(10)
        a = random_subspace(10, 3, rng)
        pts = [perturbed(a, 0.2, rng) for _ in range(4)]
        with pytest.raises(NoConvergence, match="still >= 0e\\+00 after 3 iterations"):
            karcher_mean(pts)

    def test_no_call_reaches_the_principal_system(self, monkeypatch):
        # the oracle must not share the online path's factorisation, and it steps once per unconverged iteration
        rng = np.random.default_rng(14)
        center = random_subspace(10, 3, rng)
        cloud = [exp_tangent(center, tangent_at(center, 0.3, rng)) for _ in range(8)]
        calls = {"principal_system": 0, "_shared_factors": 0, "log_tangent": 0, "exp_tangent": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        # verify's quadrature and geodesic suite call principal_system; karcher_mean must not
        monkeypatch.setattr(verify_module, "principal_system", counted("principal_system", principal_system),
                            raising=False)
        monkeypatch.setattr(subspaces_module, "_shared_factors",
                            counted("_shared_factors", subspaces_module._shared_factors))
        for name in ("log_tangent", "exp_tangent"):
            monkeypatch.setattr(verify_module, name, counted(name, getattr(verify_module, name)))
        karcher_mean(cloud)
        assert calls["principal_system"] == calls["_shared_factors"] == 0
        iterations, rest = divmod(calls["log_tangent"], 8)
        assert rest == 0 and iterations > 1
        assert calls["exp_tangent"] == iterations - 1

    def test_no_subspaces_rejected(self):
        with pytest.raises(InsufficientData, match="need at least one subspace"):
            karcher_mean([])

    @pytest.mark.parametrize("other", [(12, 3), (10, 2)])
    def test_mixed_shapes_rejected(self, other):
        rng = np.random.default_rng(15)
        same = random_subspace(10, 3, rng)
        with pytest.raises(DimensionMismatch, match="^subspaces must share ambient and subspace dimensions$"):
            karcher_mean([same, same, random_subspace(*other, rng)])

    def test_running_mean_tracks_karcher_inside_a_tight_ball(self):
        # the running rule is order-dependent, so only closeness is asserted
        rng = np.random.default_rng(11)
        center = random_subspace(12, 3, rng)
        pts = [perturbed(center, 0.05, rng) for _ in range(8)]
        mean = pts[0]
        for count, p in enumerate(pts[1:], start=1):
            mean = update_mean(mean, count, p)
        reference = karcher_mean(pts)
        diameter = max(
            geodesic_distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]
        )
        deviation = geodesic_distance(mean, reference)
        assert np.isfinite(deviation)
        assert deviation < diameter
