"""Closed-form transform kernel against its quadrature oracle."""

import dataclasses
import importlib
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import read_transcript
from driftalign import (
    ConfigError,
    DimensionMismatch,
    DimensionViolation,
    DomainError,
    NonFiniteData,
    NumericalHealthError,
    SchemaMismatch,
    Subspace,
    TransformKernel,
    apply_transform,
    evaluate,
    principal_system,
    update_mean,
)
from driftalign.flow_kernel import SMALL_ANGLE, flow_kernel
from driftalign.verify import (
    KERNEL_GRID,
    KERNEL_QUADRATURE_NODES,
    _dense_kernel,
    flip_cross_sign,
    geodesic_suite,
    kernel_suite,
    mean_suite,
    orthonormalize,
    quadrature_kernel,
    random_subspace,
    run_all,
)

verify_module = importlib.import_module("driftalign.verify")


def kernel_pair(d, k, seed):
    rng = np.random.default_rng(seed)
    source = random_subspace(d, k, rng)
    target = random_subspace(d, k, rng)
    return source, target


def right_angle_pair():
    # source spans e1, target spans e2: the widest angle a flow can turn through
    source = Subspace(basis=np.array([[1.0], [0.0], [0.0]]))
    target = Subspace(basis=np.array([[0.0], [1.0], [0.0]]))
    return source, target


def per_node_quadrature(source, target, nodes):
    """Composite Simpson rule with one validated evaluate() call per node."""
    system = principal_system(source, target)
    acc = np.zeros((source.ambient_dim, source.ambient_dim))
    h = 1.0 / nodes
    for j in range(nodes + 1):
        w = 1.0 if j in (0, nodes) else (4.0 if j % 2 else 2.0)
        phi = evaluate(system, j * h).basis
        acc += w * (phi @ phi.T)
    g = acc * (h / 3.0)
    return 0.5 * (g + g.T)


def flow_formula(system, t):
    """The flow point as evaluate() computed it before the batched evaluator."""
    th = system.angles
    head = system.base.basis @ system.a_rot
    return head * np.cos(t * th) - system.tail * np.sin(t * th)


class TestCanonicalValues:
    def test_right_angle_pair_in_the_plane(self):
        # diagonal is 1/2, off-diagonal 1/pi
        g = _dense_kernel(flow_kernel(*right_angle_pair()))
        assert abs(g[0, 0] - 0.5) < 1e-12
        assert abs(g[1, 1] - 0.5) < 1e-12
        assert abs(abs(g[0, 1]) - 1.0 / math.pi) < 1e-12
        assert abs(g[2, 2]) < 1e-12

    def test_right_angle_matches_quadrature_including_sign(self):
        source, target = right_angle_pair()
        closed = _dense_kernel(flow_kernel(source, target))
        numeric = quadrature_kernel(source, target)
        assert np.abs(closed - numeric).max() < 1e-10

    def test_zero_angle_gives_the_projector(self):
        rng = np.random.default_rng(0)
        s = random_subspace(10, 3, rng)
        g = _dense_kernel(flow_kernel(s, s))
        assert np.abs(g - s.basis @ s.basis.T).max() < 1e-9


class TestOracleAgreement:
    @pytest.mark.parametrize("d,k,seed", [(8, 2, 1), (10, 3, 2), (12, 1, 3), (16, 5, 4)])
    def test_matches_gauss_legendre_quadrature(self, d, k, seed):
        source, target = kernel_pair(d, k, seed)
        closed = _dense_kernel(flow_kernel(source, target))
        numeric = quadrature_kernel(source, target)
        assert np.abs(closed - numeric).max() < 1e-8

    def test_the_rule_takes_only_the_pair(self):
        # one fixed rule: no node count to pass, and no bound on one
        assert list(inspect.signature(quadrature_kernel).parameters) == ["source", "target"]
        with pytest.raises(TypeError):
            quadrature_kernel(*kernel_pair(8, 2, 6), KERNEL_QUADRATURE_NODES)
        assert not hasattr(verify_module, "MAX_QUADRATURE_NODES")

    def test_the_rule_is_the_16_point_gauss_legendre_rule(self, monkeypatch):
        # node j's basis is the axis e_j, so the kernel's diagonal reads the
        # weights; the nodes are the times the flow is evaluated at
        times = []

        def axes(head, tail, angles, t):
            times.append(t)
            return np.eye(head.shape[0])[:, : len(t), None]

        monkeypatch.setattr(verify_module, "_flow_bases", axes)
        g = quadrature_kernel(*kernel_pair(KERNEL_QUADRATURE_NODES, 1, 18))
        x, w = np.polynomial.legendre.leggauss(KERNEL_QUADRATURE_NODES)
        assert np.abs(np.sort(times[0]) - 0.5 * (x + 1.0)).max() < 1e-15
        order = np.argsort(times[0])
        assert np.abs(g.diagonal()[order] - 0.5 * w).max() < 1e-15
        assert np.array_equal(g, np.diag(g.diagonal()))

    @pytest.mark.parametrize(
        "pair", [lambda: kernel_pair(10, 1, 15), lambda: kernel_pair(12, 3, 16), right_angle_pair],
        ids=["d10k1", "d12k3", "right_angle"],
    )
    def test_oracle_matches_per_node_simpson_reference(self, pair):
        # the 10^4-subinterval Simpson rule, one evaluate() per node, is the reference
        source, target = pair()
        gauss = quadrature_kernel(source, target)
        reference = per_node_quadrature(source, target, 10_000)
        assert np.abs(gauss - reference).max() < 1e-14

    def test_one_broadcast_flow_evaluation_per_call(self, monkeypatch):
        # a per-node or per-chunk loop would call _flow_bases more than once
        calls = []
        original = verify_module._flow_bases

        def counted(*args):
            calls.append(args[3].shape)
            return original(*args)

        monkeypatch.setattr(verify_module, "_flow_bases", counted)
        quadrature_kernel(*kernel_pair(12, 3, 16))
        assert calls == [(KERNEL_QUADRATURE_NODES,)]

    @pytest.mark.parametrize(
        "corrupt,message",
        [(lambda b: 1.001 * b, "not orthonormal"), (lambda b: b * np.nan, "non-finite")],
        ids=["scaled", "nan"],
    )
    def test_every_chunk_basis_is_validated(self, monkeypatch, corrupt, message):
        original = verify_module._flow_bases
        monkeypatch.setattr(verify_module, "_flow_bases", lambda *a: corrupt(original(*a)))
        source, target = kernel_pair(8, 2, 17)
        with pytest.raises(NumericalHealthError, match=message):
            quadrature_kernel(source, target)

    @pytest.mark.parametrize("eps, passed", [(1e-9, True), (5e-8, False)], ids=["2e-9", "1e-7"])
    def test_geodesic_suite_measures_orthonormality_at_its_own_tolerance(self, monkeypatch, eps, passed):
        # a Subspace rejects a Gram deviation of 2e-9, so the suite must measure bases it never validates
        original = verify_module._flow_bases
        monkeypatch.setattr(verify_module, "_flow_bases", lambda *a: original(*a) * (1.0 + eps))
        check, endpoint = geodesic_suite(seed=0, instances=9)[:2]
        assert check.name == "geodesic_orthonormal_along_flow"
        assert check.passed is passed
        worst = float(check.detail.split()[1])
        assert 1.5 * eps < worst < 2.5 * eps
        # at 5e-8 the endpoint cosines overshoot 1: a failed property, not a NumericalHealthError
        assert endpoint.name == "geodesic_endpoint_recovery"
        assert endpoint.passed is passed

    def test_a_nan_deviation_fails_the_property(self, monkeypatch):
        # a NaN compares false with everything, and used to pass as "worst 0.000e+00"
        original = verify_module._flow_bases

        def with_nan(*args):
            bases = original(*args)
            bases[0, 2, 0] = np.nan  # the midpoint basis, so the endpoint checks stay finite
            return bases

        monkeypatch.setattr(verify_module, "_flow_bases", with_nan)
        check = geodesic_suite(seed=0, instances=3)[0]
        assert check.name == "geodesic_orthonormal_along_flow"
        assert not check.passed
        assert check.detail == "worst nan vs tolerance 1e-08 at instance seed (0, 0)"

    @pytest.mark.parametrize("script, detail", [
        ([(0.0,) * 5, (0.0, 2e-8, 0.0, 0.0, 0.0), (1e-8,) * 5, (0.0, 0.0, 0.0, 2e-8, 0.0), (0.0,) * 5],
         "worst 2.000e-08 vs tolerance 1e-08 at instance seed (0, 1)"),
        ([(0.0,) * 5, (0.5,) * 5, (0.0,) * 5, (0.0, math.nan, 0.0, 0.0, 0.0), (1.0,) * 5],
         "worst nan vs tolerance 1e-08 at instance seed (0, 3)"),
        ([(0.5,) * 5, (0.0,) * 5, (0.0, 0.0, 0.0, 0.0, math.nan), (1.0,) * 5, (0.0,) * 5],
         "worst nan vs tolerance 1e-08 at instance seed (0, 2)"),
        ([(0.0,) * 5] * 5, "worst 0.000e+00 vs tolerance 1e-08"),
    ], ids=["tie-keeps-first", "nan-sticks", "nan-at-last-point", "all-zero"])
    def test_the_worst_instance_rule(self, monkeypatch, script, detail):
        # five flow points per instance: the largest deviation or the first NaN
        # is the worst, nothing replaces a NaN, and a tie keeps the first instance
        values = iter(value for instance in script for value in instance)
        monkeypatch.setattr(verify_module, "_gram_deviation", lambda basis: next(values))
        check = geodesic_suite(0, 5)[0]
        assert check.name == "geodesic_orthonormal_along_flow"
        assert check.detail == detail
        assert check.passed is (detail == "worst 0.000e+00 vs tolerance 1e-08")
        assert next(values, None) is None

    def test_a_nan_distance_fails_the_karcher_bound(self, monkeypatch):
        monkeypatch.setattr(verify_module, "geodesic_distance", lambda a, b: math.nan)
        check = mean_suite(0, 2)[3]
        assert check.name == "mean_deviation_vs_karcher"
        assert not check.passed
        assert check.detail == "max deviation nan (must stay below cloud diameter) at instance seed (0, 1000)"

    @pytest.mark.parametrize("far", [False, True], ids=["nan", "excess"])
    def test_only_a_later_instance_failing_the_karcher_bound_is_named(self, monkeypatch, far):
        # instance 0 is at d=10 and instance 1 at d=16; only instance 1 fails,
        # with a NaN distance or an order-free mean far outside its cloud
        distance, karcher = verify_module.geodesic_distance, verify_module.karcher_mean

        def nan_at_16(a, b):
            return math.nan if a.ambient_dim == 16 else distance(a, b)

        def far_at_16(subspaces):
            mean = karcher(subspaces)
            if mean.ambient_dim == 16 and len(subspaces) == 8:
                return Subspace(np.eye(16)[:, 12:])
            return mean

        if far:
            monkeypatch.setattr(verify_module, "karcher_mean", far_at_16)
        else:
            monkeypatch.setattr(verify_module, "geodesic_distance", nan_at_16)
        check = mean_suite(0, 2)[3]
        assert check.name == "mean_deviation_vs_karcher"
        assert not check.passed
        assert check.detail.endswith("(must stay below cloud diameter) at instance seed (0, 1001)")

    def test_injected_cross_sign_fault_is_caught_by_the_suite(self):
        checks = {c.name: c for c in run_all(0, 1, inject_fault="gfk-cross-sign")}
        assert not checks["kernel_matches_quadrature"].passed

    def test_the_failing_instance_replays_from_its_printed_key(self, outputs):
        # the FAIL line names the key the suite seeded its worst instance with
        _, stdout, _ = read_transcript(outputs(["verify", "--inject-fault", "gfk-cross-sign"])[".out"])
        line = next(line for line in stdout.splitlines() if line.startswith("FAIL"))
        worst, seed, index = re.fullmatch(
            r"FAIL  kernel_matches_quadrature +worst (\S+) vs tolerance 1e-08 at instance seed \((\d+), (\d+)\)",
            line).groups()
        rng = np.random.default_rng((int(seed), int(index)))
        d, k = KERNEL_GRID[(int(index) - 2000) % len(KERNEL_GRID)]  # the kernel suite's offset is 2000
        source = random_subspace(d, k, rng)
        target = random_subspace(d, k, rng)
        closed = flip_cross_sign(flow_kernel(source, target))
        assert f"{np.max(np.abs(closed - quadrature_kernel(source, target))):.3e}" == worst == "5.413e-01"

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault 'gfk-sign'"):
            run_all(0, 1, inject_fault="gfk-sign")

    @pytest.mark.parametrize("instances, passed_on", [(None, {}), (3, {"instances": 3})])
    def test_run_all_passes_an_instance_count_only_when_given(self, monkeypatch, instances, passed_on):
        # each suite's own default is the one run_all uses
        seen = {}

        def recorder(name):
            def suite(seed, **kwargs):
                seen[name] = kwargs
                return []
            return suite

        for name in ("geodesic_suite", "mean_suite", "kernel_suite"):
            monkeypatch.setattr(verify_module, name, recorder(name))
        run_all(0, instances)
        assert seen == {
            "geodesic_suite": passed_on,
            "mean_suite": passed_on,
            "kernel_suite": {**passed_on, "flip_cross": False},
        }

    @pytest.mark.parametrize("instances", [0, -3])
    @pytest.mark.parametrize(
        "suite",
        [run_all, lambda seed, n: run_all(seed, n, inject_fault="gfk-cross-sign"),
         geodesic_suite, mean_suite, kernel_suite],
        ids=["run_all", "run_all_with_fault", "geodesic", "mean", "kernel"],
    )
    def test_fewer_than_one_instance_rejected(self, suite, instances):
        # zero instances would report every property as passed, the fault included
        with pytest.raises(ConfigError, match="instances must be >= 1"):
            suite(0, instances)

    @pytest.mark.parametrize(
        "seed, instances, message",
        [(-1, 1, "seed must be >= 0, got -1"), (0.5, 1, "seed must be an integer"),
         (0, 1.5, "instances must be an integer"), (0, True, "instances must be an integer")],
    )
    @pytest.mark.parametrize(
        "suite", [run_all, geodesic_suite, mean_suite, kernel_suite], ids=["run_all", "geodesic", "mean", "kernel"]
    )
    def test_seed_and_instances_checked_before_numpy_sees_them(self, suite, seed, instances, message):
        # a negative seed used to fail inside numpy's default_rng with a plain ValueError
        with pytest.raises(ConfigError, match=message):
            suite(seed, instances)

    def test_oracle_is_exactly_symmetric_without_symmetrization(self):
        for d, k, seed in ((8, 2, 1), (10, 3, 2), (12, 1, 3), (16, 5, 4)):
            g = quadrature_kernel(*kernel_pair(d, k, seed))
            assert np.array_equal(g, g.T)

    def test_wrong_cross_sign_breaks_agreement(self):
        # the same check the fault-injection path relies on
        source, target = kernel_pair(10, 3, 7)
        wrong = flip_cross_sign(flow_kernel(source, target))
        numeric = quadrature_kernel(source, target)
        assert np.abs(wrong - numeric).max() > 1e-8

    def test_flipped_kernel_carries_the_positive_cross_integral(self):
        # the faulted dense G is the closed form with the odd term's sign flipped, exactly
        source, target = kernel_pair(10, 3, 8)
        kernel = flow_kernel(source, target)
        th = principal_system(source, target).angles
        k = th.shape[0]
        flipped = reference_weights(th)
        flipped[:k, k:] = flipped[k:, :k] = np.diag((1.0 - np.cos(2.0 * th)) / (4.0 * th))
        wrong = flip_cross_sign(kernel)
        assert np.array_equal(wrong, (kernel.frame @ flipped) @ kernel.frame.T)
        # a symmetric matrix with its spectrum in [0, 1], so only the oracle can tell
        assert np.abs(wrong - wrong.T).max() < 1e-12
        eigs = np.linalg.eigvalsh(wrong)
        assert -1e-9 < eigs[0] and eigs[-1] < 1.0 + 1e-9


class TestFlowEvaluation:
    @pytest.mark.parametrize("d,k,seed", [(6, 1, 18), (10, 3, 19), (30, 5, 20), (40, 2, 21)])
    def test_evaluate_is_bit_identical_to_the_flow_formula(self, d, k, seed):
        rng = np.random.default_rng(seed)
        system = principal_system(random_subspace(d, k, rng), random_subspace(d, k, rng))
        for t in (0.0, 1e-9, 0.1, 1.0 / 3.0, 0.5, 0.77, 1.0):
            assert np.array_equal(evaluate(system, t).basis, flow_formula(system, t))

    def test_parameter_outside_the_unit_interval_rejected(self):
        source, target = kernel_pair(8, 2, 22)
        system = principal_system(source, target)
        for t in (1.5, -0.1):
            with pytest.raises(DomainError):
                evaluate(system, t)


def reference_weights(angles):
    """The 2k x 2k weights assembled block by block, the plain way."""
    small = angles < SMALL_ANGLE
    safe = np.where(small, 1.0, angles)
    w_cos = np.where(small, 1.0, 0.5 + np.sin(2.0 * safe) / (4.0 * safe))
    w_cross = np.where(small, 0.0, -1.0 * (1.0 - np.cos(2.0 * safe)) / (4.0 * safe))
    w_sin = np.where(small, 0.0, 0.5 - np.sin(2.0 * safe) / (4.0 * safe))
    w_cos, w_cross, w_sin = map(np.diag, (w_cos, w_cross, w_sin))
    return np.block([[w_cos, w_cross], [w_cross, w_sin]])


class TestWeightAssembly:
    @pytest.mark.parametrize("d,k", [(10, 1), (10, 3), (16, 4), (40, 10)])
    def test_weights_and_frame_match_the_block_assembly(self, d, k):
        rng = np.random.default_rng(d * k)
        for _ in range(10):
            source, target = random_subspace(d, k, rng), random_subspace(d, k, rng)
            kernel = flow_kernel(source, target)
            system = principal_system(source, target)
            assert kernel.weights.tobytes() == reference_weights(system.angles).tobytes()
            frame = np.hstack([source.basis @ system.a_rot, system.tail])
            assert kernel.frame.tobytes() == frame.tobytes()

    def test_small_angles_take_the_limits(self):
        # identical spans and one shared direction put angles below SMALL_ANGLE
        rng = np.random.default_rng(41)
        source = random_subspace(11, 3, rng)
        shared = orthonormalize(np.hstack([source.basis[:, :1], rng.standard_normal((11, 2))]))
        for target in (source, shared):
            angles = principal_system(source, target).angles
            assert (angles < SMALL_ANGLE).any()
            weights = flow_kernel(source, target).weights
            assert weights.tobytes() == reference_weights(angles).tobytes()


class TestKernelProperties:
    def test_symmetric_with_unit_interval_spectrum(self):
        for seed in range(5):
            source, target = kernel_pair(12, 4, seed)
            g = _dense_kernel(flow_kernel(source, target))
            assert np.abs(g - g.T).max() < 1e-12
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() > -1e-9
            assert eigs.max() < 1.0 + 1e-9

    def test_invariant_under_target_basis_rotation(self):
        rng = np.random.default_rng(8)
        source, target = kernel_pair(11, 3, 9)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = Subspace(basis=target.basis @ q)
        g1 = _dense_kernel(flow_kernel(source, target))
        g2 = _dense_kernel(flow_kernel(source, rotated))
        assert np.abs(g1 - g2).max() < 1e-9

    FRAME = np.eye(6)[:, :4]
    ANGLES = np.array([0.0, 0.7])

    def test_valid_factors_are_accepted(self):
        kernel = TransformKernel(frame=self.FRAME, angles=self.ANGLES)
        assert kernel.ambient_dim == 6
        assert kernel.weights.tobytes() == reference_weights(self.ANGLES).tobytes()

    def test_the_weights_are_derived_not_passed(self):
        # the kernel is built from its frame and angles alone
        assert [f.name for f in dataclasses.fields(TransformKernel) if f.init] == ["frame", "angles"]
        with pytest.raises(TypeError):
            TransformKernel(frame=self.FRAME, angles=self.ANGLES, weights=np.eye(4))

    def test_rejects_non_orthonormal_frame(self):
        with pytest.raises(NumericalHealthError, match="frame is not orthonormal"):
            TransformKernel(frame=1.001 * self.FRAME, angles=self.ANGLES)

    @pytest.mark.parametrize("extreme", [-1e-6, np.pi / 2 + 1e-6], ids=["below_zero", "above_right_angle"])
    def test_rejects_angles_outside_zero_to_right_angle(self, extreme):
        # the one angle gate: no kernel with a spectrum outside [0, 1] can be built
        angles = self.ANGLES.copy()
        angles[1] = extreme
        with pytest.raises(DomainError) as exc:
            TransformKernel(frame=self.FRAME, angles=angles)
        assert str(exc.value) == "principal angles must lie in [0, pi/2]"

    @pytest.mark.parametrize(
        "frame_cols, angles", [(4, np.zeros(3)), (0, np.zeros(0))], ids=["mismatched", "no_angles"]
    )
    def test_rejects_mismatched_factor_shapes(self, frame_cols, angles):
        # the empty pair used to escape as numpy's zero-size reduction ValueError
        with pytest.raises(DimensionViolation):
            TransformKernel(frame=self.FRAME[:, :frame_cols], angles=angles)

    @pytest.mark.parametrize("name", ["frame", "angles"])
    def test_non_real_factor_rejected(self, name, non_real):
        factors = {"frame": self.FRAME, "angles": self.ANGLES}
        factors[name] = non_real(factors[name])
        with pytest.raises(SchemaMismatch, match=f"^{name} must be real"):
            TransformKernel(**factors)

    def test_kernel_matrix_is_read_only(self):
        source, target = kernel_pair(8, 2, 10)
        kernel = flow_kernel(source, target)
        assert kernel.frame.shape == (8, 4) and kernel.angles.shape == (2,) and kernel.weights.shape == (4, 4)
        for m in (kernel.frame, kernel.angles, kernel.weights):
            with pytest.raises(ValueError):
                m[0] = 2.0


def closed_form_spectrum(angles):
    """The eigenvalues (1 +- sin(theta)/theta) / 2 of W, ascending; 1 and 0 below SMALL_ANGLE."""
    small = angles < SMALL_ANGLE
    half = np.where(small, 0.5, np.sin(angles) / (2.0 * np.where(small, 1.0, angles)))
    return np.sort(np.concatenate((0.5 + half, 0.5 - half)))


class TestSpectrumIdentity:
    """The kernel's spectrum is its angles: each gives W one 2 x 2 block with eigenvalues (1 +- sin(theta)/theta)/2."""

    EDGES = np.array([0.0, SMALL_ANGLE / 2, np.nextafter(SMALL_ANGLE, 0.0), SMALL_ANGLE, 2 * SMALL_ANGLE,
                      1e-4, 1.0, np.pi / 2])

    def test_the_weights_spectrum_is_the_closed_form_within_the_unit_interval(self):
        # the edges together and one by one, then 500 random sets with k <= 20
        rng = np.random.default_rng(23)
        randoms = (rng.uniform(0.0, np.pi / 2, rng.integers(1, 21)) for _ in range(500))
        for angles in (self.EDGES, *self.EDGES[:, None], *randoms):
            kernel = TransformKernel(frame=np.eye(2 * angles.shape[0]), angles=angles)
            eigs = np.linalg.eigvalsh(kernel.weights)
            assert np.abs(eigs - closed_form_spectrum(angles)).max() <= 1e-14
            assert -1e-15 <= eigs[0] and eigs[-1] <= 1.0 + 1e-15


class TestApplyTransform:
    def test_rows_map_through_the_matrix(self):
        source, target = kernel_pair(9, 2, 11)
        kernel = flow_kernel(source, target)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 9))
        factored = ((x @ kernel.frame) @ kernel.weights) @ kernel.frame.T
        np.testing.assert_allclose(apply_transform(x, kernel), factored, atol=0, rtol=0)
        # the dense G is the same map up to rounding, not bit for bit
        assert np.abs(apply_transform(x, kernel) - x @ _dense_kernel(kernel)).max() < 1e-12

    def test_column_count_mismatch_rejected(self):
        source, target = kernel_pair(9, 2, 13)
        kernel = flow_kernel(source, target)
        with pytest.raises(DimensionMismatch):
            apply_transform(np.ones((4, 8)), kernel)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # NaN rows used to come out as NaN rows
        x = np.ones((4, 9))
        x[2, 5] = bad
        with pytest.raises(NonFiniteData, match="^data has non-finite entries$"):
            apply_transform(x, flow_kernel(*kernel_pair(9, 2, 13)))

    def test_complex_rows_rejected(self, non_real):
        kernel = flow_kernel(*kernel_pair(9, 2, 13))
        with pytest.raises(SchemaMismatch, match="data must be real"):
            apply_transform(non_real(np.ones((4, 9))), kernel)

    def test_stream_path_builds_no_d_by_d_array(self):
        # mean update, kernel build and apply at d=1000 stay far below one
        # d x d float64 array (8 MB); a quarter of it is the bound
        d, k = 1000, 3
        rng = np.random.default_rng(15)
        source, first, second = (random_subspace(d, k, rng) for _ in range(3))
        x = rng.standard_normal((50, d))
        tracemalloc.start()
        try:
            mean = update_mean(first, 1, second)
            apply_transform(x, flow_kernel(source, mean))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 / 4

    def test_projection_behavior_at_zero_angle(self):
        rng = np.random.default_rng(14)
        s = random_subspace(10, 3, rng)
        kernel = flow_kernel(s, s)
        x = rng.standard_normal((5, 10))
        np.testing.assert_allclose(apply_transform(x, kernel), x @ (s.basis @ s.basis.T), atol=1e-9)
