"""Geometry layer: orthonormalization, principal angles, geodesics, PCA."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftalign import (
    ConfigError,
    DimensionMismatch,
    DimensionViolation,
    DomainError,
    NonFiniteData,
    NumericalHealthError,
    PrincipalSystem,
    RankDeficient,
    SchemaMismatch,
    SharedFactorFailure,
    Subspace,
    TransformKernel,
    evaluate,
    pca_subspace,
    principal_system,
)
from driftalign.flow_kernel import SYMMETRY_TOL, flow_kernel
from driftalign.subspaces import (
    COSINE_OVERSHOOT_TOL,
    RESIDUAL_COLUMN_TOL,
    _angle_factors,
    _orthonormal_extension,
    _rank,
)
from driftalign.verify import geodesic_distance, orthonormalize, principal_angles, random_subspace


def planar_pair(d, phi):
    """Two one-dimensional subspaces separated by exactly phi radians."""
    a = np.zeros((d, 1))
    a[0, 0] = 1.0
    b = np.zeros((d, 1))
    b[0, 0] = math.cos(phi)
    b[1, 0] = math.sin(phi)
    return Subspace(basis=a), Subspace(basis=b)


class TestSubspaceType:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(NumericalHealthError):
            Subspace(basis=np.ones((4, 2)))

    def test_rejects_k_not_below_d(self):
        with pytest.raises(DimensionViolation):
            Subspace(basis=np.eye(3))

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1-d", "3-d"])
    def test_rejects_a_basis_that_is_not_2d(self, shape):
        with pytest.raises(DimensionViolation, match=rf"^basis must be a 2-d array, got shape \({shape[0]},"):
            Subspace(basis=np.ones(shape))

    def test_basis_is_read_only(self):
        s = Subspace(basis=np.eye(6)[:, :2])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 7.0

    def test_non_real_basis_rejected(self, non_real):
        with pytest.raises(SchemaMismatch, match="^basis must be real"):
            Subspace(non_real(np.eye(6)[:, :2]))


class TestOrthonormalize:
    def test_gram_is_identity(self):
        rng = np.random.default_rng(0)
        s = orthonormalize(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(4), atol=1e-12)

    def test_preserves_span(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((12, 3))
        s = orthonormalize(m)
        # every original column stays inside the produced span
        residual = m - s.basis @ (s.basis.T @ m)
        assert np.abs(residual).max() < 1e-9

    def test_rank_deficient_matrix_rejected(self):
        m = np.ones((8, 3))
        with pytest.raises(RankDeficient):
            orthonormalize(m)

    def test_a_singular_value_at_the_cutoff_is_dropped(self):
        # one rule for both callers: a singular value at the cutoff does not count
        m = np.zeros((10, 2))
        m[0, 0], m[1, 1] = 1.0, 1e-12
        assert np.linalg.svd(m, compute_uv=False).tolist() == [1.0, 1e-12]
        with pytest.raises(RankDeficient, match="numerical rank < 2"):
            orthonormalize(m)

    def test_k_at_or_above_half_d_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionViolation, match="k < d/2"):
            orthonormalize(rng.standard_normal((10, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        m = np.random.default_rng(3).standard_normal((8, 3))
        m[2, 1] = bad
        with pytest.raises(NonFiniteData, match="matrix has non-finite entries"):
            orthonormalize(m)

    # complex was rejected already; the cast parsed strings and object floats
    @pytest.mark.parametrize("non_real", ["str", "bytes", "object_complex", "object_float"], indirect=True)
    def test_non_real_matrix_rejected(self, non_real):
        m = np.random.default_rng(3).standard_normal((8, 3))
        with pytest.raises(SchemaMismatch, match="^matrix must be real"):
            orthonormalize(non_real(m))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.sampled_from([7, 11, 16]), k=st.sampled_from([1, 2, 3]))
    def test_span_invariant_under_column_mixing(self, seed, d, k):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, k))
        mix = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        angles = principal_angles(orthonormalize(m), orthonormalize(m @ mix))
        # seeds 0-10000 measure at most 7.4e-12, from the worst-conditioned mixes
        assert angles.max() < 1e-10


class TestOrthonormalExtension:
    def test_a_span_whose_least_weight_axes_project_to_rank_one(self):
        cols = np.zeros((4, 2))
        cols[[0, 1], 0] = cols[[2, 3], 1] = 1.0 / math.sqrt(2.0)
        # every axis has weight 1/2; one QR of the two least-weight axes projected
        # off the span (e1 and e2) would meet (e1 - e2)/2 twice
        projected = np.eye(4)[:, :2] - cols @ cols[:2].T
        sv = np.linalg.svd(projected, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]
        full = np.hstack([cols, _orthonormal_extension(cols, 2)])
        assert np.abs(full.T @ full - np.eye(4)).max() < 1e-15

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(("n", "c", "m"), [(5, 1, 4), (10, 3, 4), (12, 6, 6), (40, 3, 3)])
    def test_random_spans(self, seed, n, c, m):
        cols = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, c)))[0]
        ext = _orthonormal_extension(cols, m)
        assert ext.shape == (n, m)
        full = np.hstack([cols, ext])
        assert np.abs(full.T @ full - np.eye(c + m)).max() < 1e-14


    @pytest.mark.parametrize("n", [4, 10, 40, 256])
    def test_the_normalisation_is_np_linalg_norm_bit_for_bit(self, n):
        # the extension divides by math.sqrt(v.dot(v)); np.linalg.norm of a 1-d
        # float64 vector is the same dot product and correctly rounded root
        rng = np.random.default_rng(n)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for _ in range(200):
                v = scale * rng.standard_normal(n)
                assert math.sqrt(v.dot(v)) == np.linalg.norm(v)

def system_pairs():
    """The kinds of pair the thin system must handle, one pytest.param each."""
    rng = np.random.default_rng(20)
    a = random_subspace(12, 4, rng)
    b = random_subspace(12, 4, rng)
    base = random_subspace(10, 3, rng)
    near = orthonormalize(base.basis + 1e-9 * rng.standard_normal((10, 3)))
    same = random_subspace(9, 2, rng)
    shared = random_subspace(11, 3, rng)
    one_shared = orthonormalize(np.hstack([shared.basis[:, :1], rng.standard_normal((11, 2))]))
    return [
        pytest.param(a, b, id="random"),
        pytest.param(base, near, id="nearly_identical"),
        pytest.param(same, same, id="identical"),
        pytest.param(*planar_pair(5, math.pi / 2), id="planar_right_angle"),
        # one unresolved column beside two resolved ones
        pytest.param(shared, one_shared, id="one_shared_direction"),
    ]


class TestThinSystem:
    @pytest.mark.parametrize("a,b", system_pairs())
    def test_tail_is_orthonormal_and_orthogonal_to_a(self, a, b):
        tail = principal_system(a, b).tail
        assert tail.shape == a.basis.shape
        assert np.abs(tail.T @ tail - np.eye(a.sub_dim)).max() < 1e-12
        assert np.abs(a.basis.T @ tail).max() < 1e-12

    @pytest.mark.parametrize("a,b", system_pairs())
    def test_both_products_reconstruct(self, a, b):
        sys = principal_system(a, b)
        ab = a.basis.T @ b.basis
        cos_part = (sys.a_rot * np.cos(sys.angles)) @ sys.b_rot.T
        sin_part = (sys.tail * np.sin(sys.angles)) @ sys.b_rot.T
        assert np.abs(ab - cos_part).max() < 1e-8
        assert np.abs(b.basis - a.basis @ ab + sin_part).max() < 1e-8

    def test_identical_pair_resolves_no_tail_column(self):
        # so every tail column of that fixture comes from the orthonormal extension
        a, b = system_pairs()[2].values
        sines = np.linalg.svd(b.basis - a.basis @ (a.basis.T @ b.basis), compute_uv=False)
        assert sines.max() <= RESIDUAL_COLUMN_TOL


def reference_shared_factors(a, b):
    """(a_rot, tail, b_rot, angles) as the straightforward implementation computed them.

    The rewritten hot path of principal_system must reproduce these bit for
    bit; this copy keeps the plain formulation (np.clip, np.linalg.norm, the
    open-slot list, the extension call on every pair) as the reference.
    """
    k = a.shape[1]
    ab = a.T @ b
    u, sv, wt = np.linalg.svd(b - a @ ab, full_matrices=False)
    assert sv[0] <= 1.0 + COSINE_OVERSHOOT_TOL
    sines = np.clip(sv, 0.0, 1.0)[::-1]
    u = u[:, ::-1]
    v = wt.T[:, ::-1]
    aligned = ab @ v
    cosines = np.linalg.norm(aligned, axis=0)
    assert cosines.max() <= 1.0 + COSINE_OVERSHOOT_TOL
    cosines = np.clip(cosines, 0.0, 1.0)
    angles = np.where(sines**2 <= 0.5, np.arcsin(sines), np.arccos(cosines))
    u1 = np.zeros((k, k))
    fixed = np.zeros((k, 0))
    resolvable = np.flatnonzero(cosines > RESIDUAL_COLUMN_TOL)
    if resolvable.size:
        order = resolvable[np.argsort(cosines[resolvable], kind="stable")[::-1]]
        q, r = np.linalg.qr(aligned[:, order] / cosines[order])
        fixed = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        u1[:, order] = fixed
    open_slots = [j for j in range(k) if j not in set(resolvable)]
    u1[:, open_slots] = _orthonormal_extension(fixed, len(open_slots))
    tail = -(u - a @ (a.T @ u))
    unresolved = int(np.count_nonzero(sines <= RESIDUAL_COLUMN_TOL))
    if unresolved:
        tail[:, :unresolved] = _orthonormal_extension(np.hstack([a, tail[:, unresolved:]]), unresolved)
    return u1, tail, v, angles


def random_pairs(d, k, count, seed):
    rng = np.random.default_rng(seed)
    return [(random_subspace(d, k, rng), random_subspace(d, k, rng)) for _ in range(count)]


def gram_message(name, m):
    """The orthonormality message, with the deviation formed the plain way."""
    dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))
    return f"{name} is not orthonormal (max Gram deviation {dev:.3e})"


def assert_same_bits(a, b):
    # stricter than np.array_equal, which takes -0.0 == 0.0
    sys = principal_system(a, b)
    expected = reference_shared_factors(a.basis, b.basis)
    for got, want in zip((sys.a_rot, sys.tail, sys.b_rot, sys.angles), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("d,k", [(10, 3), (16, 4), (40, 10), (30, 1), (7, 3)])
    def test_random_pairs_match_the_reference(self, d, k):
        for a, b in random_pairs(d, k, 40, seed=100 * d + k):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("a,b", system_pairs())
    def test_degenerate_pairs_match_the_reference(self, a, b):
        assert_same_bits(a, b)

    @pytest.mark.parametrize("d,k", [(10, 3), (7, 2), (12, 5)])
    def test_axis_pairs_with_negative_zeros_match_the_reference(self, d, k):
        # -0.0 entries reach the SVD; the reference's np.clip keeps a -0.0 sine
        # where np.maximum(x, 0.0) would turn it into +0.0
        flipped = -np.eye(d)
        bases = [np.eye(d)[:, :k], flipped[:, :k], flipped[:, 1 : k + 1], flipped[:, ::-1][:, :k]]
        for x in bases:
            for y in bases:
                assert_same_bits(Subspace(x), Subspace(y))

    @pytest.mark.parametrize("d,k", [(10, 3), (16, 4), (40, 10)])
    def test_right_angle_and_rotated_pairs_match_the_reference(self, d, k):
        rng = np.random.default_rng(d + k)
        a = random_subspace(d, k, rng)
        off = rng.standard_normal((d, k))
        orthogonal = orthonormalize(off - a.basis @ (a.basis.T @ off))
        rotated = Subspace(a.basis @ np.linalg.qr(rng.standard_normal((k, k)))[0])
        for b in (orthogonal, rotated):
            assert_same_bits(a, b)


class TestChecksStillFire:
    """Each rewritten check raises the class and message the plain formulation did."""

    @pytest.mark.parametrize("name", ["a_rot", "tail", "b_rot"])
    def test_non_orthonormal_factor(self, name):
        a, b = random_pairs(10, 3, 1, seed=30)[0]
        sys = principal_system(a, b)
        factors = {"a_rot": sys.a_rot, "tail": sys.tail, "b_rot": sys.b_rot}
        factors[name] = 1.001 * factors[name]
        with pytest.raises(NumericalHealthError) as exc:
            PrincipalSystem(base=a, angles=sys.angles, **factors)
        assert str(exc.value) == gram_message(name, factors[name])

    @pytest.mark.parametrize("name", ["a_rot", "tail", "b_rot", "angles"])
    def test_non_real_factor_rejected(self, name, non_real):
        sys = principal_system(*random_pairs(10, 3, 1, seed=30)[0])
        with pytest.raises(SchemaMismatch, match=f"^{name} must be real"):
            dataclasses.replace(sys, **{name: non_real(getattr(sys, name))})

    @pytest.mark.parametrize("name, bad, expected", [
        ("a_rot", np.eye(4), "a_rot must be 3 x 3, got shape (4, 4)"),
        ("tail", np.eye(10, 2), "tail must be 10 x 3, got shape (10, 2)"),
        ("b_rot", np.eye(3)[0], "b_rot must be 3 x 3, got shape (3,)"),
    ])
    def test_factor_of_the_wrong_shape(self, name, bad, expected):
        sys = principal_system(*random_pairs(10, 3, 1, seed=30)[0])
        with pytest.raises(DimensionViolation) as exc:
            dataclasses.replace(sys, **{name: bad})
        assert str(exc.value) == expected

    def test_sine_overshoot(self):
        # only an unvalidated basis reaches it: 1.1 times a basis orthogonal to the other
        a = np.eye(10)[:, :3]
        with pytest.raises(NumericalHealthError) as exc:
            _angle_factors(a, 1.1 * np.eye(10)[:, 3:6])
        assert str(exc.value) == f"sine 1.100000000000 exceeds 1 by more than {COSINE_OVERSHOOT_TOL}"

    def test_nan_factor_is_not_orthonormal(self):
        # a NaN Gram deviation used to compare false and pass; the read-only
        # gate now stops a NaN factor before its Gram product is formed
        a, b = random_pairs(10, 3, 1, seed=31)[0]
        sys = principal_system(a, b)
        tail = sys.tail.copy()
        tail[4, 1] = np.nan
        with pytest.raises(NumericalHealthError, match="^tail has non-finite entries$"):
            PrincipalSystem(base=a, a_rot=sys.a_rot, tail=tail, b_rot=sys.b_rot, angles=sys.angles)

    @pytest.mark.parametrize("bad", [-1e-3, math.pi / 2 + 1e-9, np.nan])
    def test_angle_outside_the_quarter_turn(self, bad):
        # NaN angles used to pass, since every comparison with NaN is false;
        # the read-only gate now stops them before the range check
        error, message = ((NumericalHealthError, "angles has non-finite entries") if math.isnan(bad)
                          else (DomainError, "principal angles must lie in [0, pi/2]"))
        a, b = random_pairs(10, 3, 1, seed=29)[0]
        sys = principal_system(a, b)
        angles = sys.angles.copy()
        angles[1] = bad
        with pytest.raises(error) as exc:
            PrincipalSystem(base=a, a_rot=sys.a_rot, tail=sys.tail, b_rot=sys.b_rot, angles=angles)
        assert str(exc.value) == message

    def test_empty_system(self):
        # zero angles used to escape as numpy's zero-size reduction ValueError
        with pytest.raises(DimensionViolation, match="length-k vector, k >= 1"):
            PrincipalSystem(base=Subspace(np.eye(5)[:, :2]), a_rot=np.zeros((0, 0)), tail=np.zeros((5, 0)),
                            b_rot=np.zeros((0, 0)), angles=np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis(self, bad):
        basis = np.eye(6)[:, :2]
        basis[3, 1] = bad
        with pytest.raises(NumericalHealthError) as exc:
            Subspace(basis)
        assert str(exc.value) == "basis has non-finite entries"

    def test_non_orthonormal_basis(self):
        basis = np.eye(6)[:, :2] + 1e-6
        with pytest.raises(NumericalHealthError) as exc:
            Subspace(basis)
        assert str(exc.value) == gram_message("basis", basis)

    def test_tail_not_orthogonal_to_base(self):
        a, b = random_pairs(10, 3, 1, seed=32)[0]
        sys = principal_system(a, b)
        with pytest.raises(NumericalHealthError) as exc:
            PrincipalSystem(base=b, a_rot=sys.a_rot, tail=sys.tail, b_rot=sys.b_rot, angles=sys.angles)
        cross = float(np.max(np.abs(sys.tail.T @ b.basis)))
        assert str(exc.value) == f"tail is not orthogonal to base (max {cross:.3e})"

    @pytest.mark.parametrize("d,k", [(12, 3), (10, 2)])
    def test_base_of_the_wrong_shape(self, d, k):
        # a 12 x 3 base used to escape as numpy's matmul ValueError, and a
        # 10 x 2 base as the misleading "tail is not orthogonal to base"
        sys = principal_system(*random_pairs(10, 3, 1, seed=35)[0])
        base = random_subspace(d, k, np.random.default_rng(36))
        with pytest.raises(DimensionViolation) as exc:
            PrincipalSystem(base=base, a_rot=sys.a_rot, tail=sys.tail, b_rot=sys.b_rot, angles=sys.angles)
        assert str(exc.value) == f"base must be 10 x 3, got shape ({d}, {k})"

    def test_principal_system_carries_its_base(self):
        a, b = random_pairs(10, 3, 1, seed=37)[0]
        assert principal_system(a, b).base is a

    def test_non_orthonormal_kernel_frame(self):
        kernel = flow_kernel(*random_pairs(10, 3, 1, seed=33)[0])
        frame = kernel.frame * 1.0001
        with pytest.raises(NumericalHealthError) as exc:
            TransformKernel(frame=frame, weights=kernel.weights)
        assert str(exc.value) == gram_message("kernel frame", frame)

    def test_asymmetric_kernel_weights(self):
        kernel = flow_kernel(*random_pairs(10, 3, 1, seed=34)[0])
        weights = kernel.weights.copy()
        weights[0, 4] += 1e-9
        with pytest.raises(NumericalHealthError) as exc:
            TransformKernel(frame=kernel.frame, weights=weights)
        asym = float(np.max(np.abs(weights - weights.T)))
        assert str(exc.value) == f"kernel weights asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"

    def test_nan_kernel_weights_rejected(self):
        # NaN weights used to pass both the asymmetry and the spectrum comparison
        kernel = flow_kernel(*random_pairs(10, 3, 1, seed=35)[0])
        weights = kernel.weights.copy()
        weights[1, 1] = np.nan
        with pytest.raises(NumericalHealthError, match="^weights has non-finite entries$"):
            TransformKernel(frame=kernel.frame, weights=weights)

    def test_bad_pair_fails_on_the_first_pass(self, monkeypatch):
        # a B off the unit sphere by 1e-6 cannot be reproduced; no second attempt is made
        a, b = random_pairs(10, 3, 1, seed=36)[0]
        object.__setattr__(b, "basis", b.basis * (1.0 + 1e-6))
        calls = count_calls(monkeypatch, "svd", "qr")
        with pytest.raises(SharedFactorFailure, match="reconstruction residual"):
            principal_system(a, b)
        assert calls == {"svd": 1, "qr": 1}


def count_calls(monkeypatch, *names):
    """Count calls of the named np.linalg functions from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestFactorisationCount:
    """The hot path's factorisations, counted: a second one cannot come back unnoticed."""

    @pytest.mark.parametrize("d,k", [(10, 3), (40, 10)])
    def test_principal_system_makes_one_svd_and_one_qr(self, monkeypatch, d, k):
        a, b = random_pairs(d, k, 1, seed=37)[0]
        calls = count_calls(monkeypatch, "svd", "qr", "eigvalsh")
        principal_system(a, b)
        assert calls == {"svd": 1, "qr": 1, "eigvalsh": 0}

    def test_principal_angles_makes_one_svd(self, monkeypatch):
        a, b = random_pairs(10, 3, 1, seed=39)[0]
        calls = count_calls(monkeypatch, "svd", "qr", "eigvalsh")
        principal_angles(a, b)
        assert calls == {"svd": 1, "qr": 0, "eigvalsh": 0}

    @pytest.mark.parametrize("d,k", [(10, 3), (40, 10)])
    def test_flow_kernel_adds_one_eigvalsh(self, monkeypatch, d, k):
        a, b = random_pairs(d, k, 1, seed=38)[0]
        calls = count_calls(monkeypatch, "svd", "qr", "eigvalsh")
        flow_kernel(a, b)
        assert calls == {"svd": 1, "qr": 1, "eigvalsh": 1}


class TestPrincipalAngles:
    def test_planar_pair_recovers_the_rotation(self):
        # accurate at both ends: arccos alone gives 1e-12 back as 0, and 1e-6 with an error of 4e-11
        for phi in (1e-12, 1e-6, 0.1, 0.7, 1.3, math.pi / 2 - 1e-9, math.pi / 2):
            a, b = planar_pair(5, phi)
            np.testing.assert_allclose(principal_angles(a, b), [phi], rtol=0.0, atol=1e-15)

    def test_identical_subspaces_give_zero(self):
        rng = np.random.default_rng(6)
        s = random_subspace(10, 3, rng)
        assert principal_angles(s, s).max() < 1e-15
        assert geodesic_distance(s, s) < 1e-15

    def test_shared_directions_when_k_is_at_least_half_d(self):
        # d=10, k=7: the pair shares at least 2k - d = 4 directions, a shape principal_system rejects
        rng = np.random.default_rng(18)
        shared = random_subspace(10, 4, rng).basis
        a, b = (Subspace(np.linalg.qr(np.hstack([shared, rng.standard_normal((10, 3))]))[0]) for _ in range(2))
        angles = principal_angles(a, b)
        assert angles.shape == (7,)
        assert angles[:4].max() < 1e-15
        assert np.all(np.diff(angles) >= 0.0)
        assert angles[4:].min() > 1e-3

    def test_sorted_ascending(self):
        rng = np.random.default_rng(7)
        a = random_subspace(14, 4, rng)
        b = random_subspace(14, 4, rng)
        angles = principal_angles(a, b)
        assert np.all(np.diff(angles) >= 0.0)
        assert angles.min() >= 0.0 and angles.max() <= math.pi / 2 + 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DimensionMismatch):
            principal_angles(random_subspace(10, 3, rng), random_subspace(12, 3, rng))

    def test_distance_is_angle_norm(self):
        a, b = planar_pair(6, 0.9)
        assert abs(geodesic_distance(a, b) - 0.9) < 1e-9
        assert abs(geodesic_distance(a, b) - geodesic_distance(b, a)) < 1e-12


class TestPrincipalSystem:
    def test_factors_are_orthonormal(self):
        rng = np.random.default_rng(9)
        a = random_subspace(12, 4, rng)
        b = random_subspace(12, 4, rng)
        sys = principal_system(a, b)
        for m in (sys.a_rot, sys.tail, sys.b_rot):
            np.testing.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-9)

    def test_reconstructs_both_products(self):
        rng = np.random.default_rng(10)
        a = random_subspace(15, 5, rng)
        b = random_subspace(15, 5, rng)
        sys = principal_system(a, b)
        cos_part = sys.a_rot @ np.diag(np.cos(sys.angles)) @ sys.b_rot.T
        sin_part = -(sys.tail @ np.diag(np.sin(sys.angles))) @ sys.b_rot.T
        residual = b.basis - a.basis @ (a.basis.T @ b.basis)
        assert np.abs(a.basis.T @ b.basis - cos_part).max() < 1e-8
        assert np.abs(residual - sin_part).max() < 1e-8

    def test_angles_match_plain_principal_angles(self):
        # one computation of the angles: principal_angles is the first half of the system
        for a, b in random_pairs(13, 3, 20, seed=11) + random_pairs(12, 5, 20, seed=19):
            assert np.array_equal(principal_system(a, b).angles, principal_angles(a, b))

    def test_nearly_identical_pair_stays_consistent(self):
        # tiny angles exercise the branch where cosines cluster at one
        rng = np.random.default_rng(12)
        a = random_subspace(10, 3, rng)
        b = orthonormalize(a.basis + 1e-9 * rng.standard_normal((10, 3)))
        sys = principal_system(a, b)
        assert sys.angles.max() < 1e-6
        cos_part = sys.a_rot @ np.diag(np.cos(sys.angles)) @ sys.b_rot.T
        assert np.abs(a.basis.T @ b.basis - cos_part).max() < 1e-8


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(13)
        a = random_subspace(12, 3, rng)
        b = random_subspace(12, 3, rng)
        system = principal_system(a, b)
        assert principal_angles(evaluate(system, 0.0), a).max() < 1e-13
        assert principal_angles(evaluate(system, 1.0), b).max() < 1e-13

    def test_midpoint_bisects_planar_rotation(self):
        a, b = planar_pair(7, 1.0)
        mid = evaluate(principal_system(a, b), 0.5)
        np.testing.assert_allclose(principal_angles(a, mid), [0.5], atol=1e-9)
        np.testing.assert_allclose(principal_angles(mid, b), [0.5], atol=1e-9)

    def test_interior_points_are_orthonormal(self):
        rng = np.random.default_rng(14)
        a = random_subspace(16, 5, rng)
        b = random_subspace(16, 5, rng)
        system = principal_system(a, b)
        for t in (0.25, 0.5, 0.75):
            s = evaluate(system, t)
            np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(5), atol=1e-8)

    def test_parameter_outside_unit_interval_rejected(self):
        rng = np.random.default_rng(15)
        system = principal_system(random_subspace(8, 2, rng), random_subspace(8, 2, rng))
        for t in (-0.01, 1.01, 2.0):
            with pytest.raises(DomainError):
                evaluate(system, t)

    def test_arc_length_is_proportional(self):
        a, b = planar_pair(9, 1.2)
        system = principal_system(a, b)
        for t in (0.25, 0.5, 0.75):
            np.testing.assert_allclose(principal_angles(a, evaluate(system, t)), [1.2 * t], atol=1e-9)


class TestPcaSubspace:
    def test_matches_eigendecomposition_of_covariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((200, 9)) * np.array([5, 4, 3, 1, 1, 1, 1, 1, 1.0])
        s = pca_subspace(x, 3)
        centered = x - x.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        oracle = Subspace(basis=vecs[:, -3:])
        assert principal_angles(s, oracle).max() < 1e-13

    def test_translation_invariant(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 8))
        shifted = x + 37.5
        assert principal_angles(pca_subspace(x, 3), pca_subspace(shifted, 3)).max() < 1e-13

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((50, 7))
        a = pca_subspace(x, 2)
        b = pca_subspace(x.copy(), 2)
        assert np.array_equal(a.basis, b.basis)

    @pytest.mark.parametrize("k", [1, 2])
    def test_single_row_rejected(self, k):
        # one row centres to zero; the rank rule, not a row count, rejects it
        with pytest.raises(RankDeficient, match=f"numerical rank 0 < k={k}"):
            pca_subspace(np.random.default_rng(6).standard_normal((1, 6)), k)

    @pytest.mark.parametrize("shape", [(6,), (0, 6), (6, 0), ()], ids=["1-d", "no_rows", "no_columns", "scalar"])
    def test_data_that_is_not_a_nonempty_matrix_is_a_data_error(self, shape):
        # these raised DimensionViolation, a ConfigError, though the rows are at fault
        with pytest.raises(DimensionMismatch, match="data matrix must be a 2-d array of at least 1 x 1"):
            pca_subspace(np.ones(shape), 1)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        x = np.random.default_rng(4).standard_normal((20, 6))
        x[7, 3] = bad
        with pytest.raises(NonFiniteData, match="data matrix has non-finite entries"):
            pca_subspace(x, 2)

    def test_complex_data_rejected(self, non_real):
        x = np.random.default_rng(4).standard_normal((20, 6))
        with pytest.raises(SchemaMismatch, match="data matrix must be real"):
            pca_subspace(non_real(x), 2)

    @pytest.mark.parametrize("k, message", [
        (2.5, "k must be an integer, got 2.5"), (-1, "k must be >= 1, got -1"), (0, "k must be >= 1, got 0"),
        ("3", "k must be an integer, got '3'"), (True, "k must be an integer, got True"),
    ], ids=["float", "negative", "zero", "str", "bool"])
    def test_k_must_be_a_positive_integer(self, k, message):
        # 2.5 and "3" used to raise TypeError, -1 IndexError, and True ran as k=1
        x = np.random.default_rng(5).standard_normal((20, 10))
        with pytest.raises(ConfigError) as exc:
            pca_subspace(x, k)
        assert str(exc.value) == message

    def test_numpy_integer_k_gives_the_same_basis(self):
        x = np.random.default_rng(5).standard_normal((20, 10))
        assert np.array_equal(pca_subspace(x, np.int64(3)).basis, pca_subspace(x, 3).basis)

    def test_rank_below_k_rejected(self):
        x = np.outer(np.arange(10.0), np.ones(8))  # rank one after centering
        with pytest.raises(RankDeficient):
            pca_subspace(x, 2)

    @pytest.mark.parametrize(
        "level", [0.0, 2.5, -2.5, 1e-307, 1e-300, 1e-3, 0.1, 1 / 3, math.pi, 7.7, 123.456, 1e150, -1e150])
    def test_a_flat_batch_has_rank_zero(self, level):
        # where the mean rounds, centring leaves noise far below max(n, d) eps times the rows' norm
        for rows in (1, 2, 3, 7, 10, 20, 33, 64, 137, 500):
            for k in (1, 2, 3):
                with pytest.raises(RankDeficient, match=f"numerical rank 0 < k={k}"):
                    pca_subspace(np.full((rows, 10), level), k)

    @pytest.mark.parametrize(("level", "entry"), [(0.1, 0.1 + 1e-12), (1e-300, 2e-300)])
    def test_a_flat_batch_with_one_entry_moved_has_rank_one(self, level, entry):
        x = np.full((20, 10), level)
        x[7, 3] = entry
        assert pca_subspace(x, 1).basis[3, 0] > 0.99
        with pytest.raises(RankDeficient, match="numerical rank 1 < k=2"):
            pca_subspace(x, 2)

    def test_a_singular_value_at_the_cutoff_is_dropped(self):
        # columns of mean 0 and exact norms: singular values 2 and 2e-12, at the relative cutoff
        x = np.zeros((4, 10))
        x[:, 0] = [1.0, 1.0, -1.0, -1.0]
        x[:, 1] = [1e-12, -1e-12, 1e-12, -1e-12]
        assert np.linalg.svd(x, compute_uv=False)[:2].tolist() == [2.0, 2e-12]
        with pytest.raises(RankDeficient, match="numerical rank 1 < k=2"):
            pca_subspace(x, 2)

    def test_recovers_planted_directions(self):
        rng = np.random.default_rng(19)
        d = 10
        strong = rng.standard_normal((300, 2)) * np.array([20.0, 12.0])
        x = np.zeros((300, d))
        x[:, 0] = strong[:, 0]
        x[:, 4] = strong[:, 1]
        x += 0.01 * rng.standard_normal((300, d))
        planted = np.zeros((d, 2))
        planted[0, 0] = 1.0
        planted[4, 1] = 1.0
        assert principal_angles(pca_subspace(x, 2), Subspace(basis=planted)).max() < 0.01


def near_the_float_range():
    """{name: rows} whose PCA would pass the float range, each row longer than sqrt(d) * MAX_ABS_ENTRY."""
    x = np.random.default_rng(0).standard_normal((50, 10))
    # the mean of the first column, -1.79e308 / 50, is finite, but 1.79e308 minus it is not
    centring = 1e300 * x
    centring[:, 0] = [1.79e308, -1.79e308] * 24 + [-1.79e308, 0.0]
    return {"1e307": 1e307 * x, "centring": centring}


NEAR_THE_FLOAT_RANGE = near_the_float_range()


class TestPcaNearTheFloatRange:
    @pytest.mark.parametrize("name", sorted(NEAR_THE_FLOAT_RANGE))
    def test_rows_past_the_length_bound_are_rejected_without_a_warning(self, name):
        # at 1e307 the row mean overflowed, numpy warned, and LinAlgError escaped;
        # such rows now stop at the row gate every computation shares
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteData, match="a row is longer than"):
                pca_subspace(NEAR_THE_FLOAT_RANGE[name], 3)
        assert caught == []


class TestRankRule:
    def test_both_cutoffs_must_be_exceeded(self):
        sv = np.array([1.0, 1e-11, 1e-12, 0.0])
        # the relative cutoff decides at unit scale: 1e-12 itself does not count
        assert _rank(sv, (10, 4), 1.0) == 2
        # max(shape) eps scale = 20 * 2.2e-16 * 1e4 = 4.4e-11 decides at a larger scale
        assert _rank(sv, (20, 4), 1e4) == 1

    def test_a_zero_matrix_has_rank_zero(self):
        assert _rank(np.zeros(3), (5, 3), 0.0) == 0
