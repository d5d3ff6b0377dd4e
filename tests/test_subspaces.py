"""Geometry layer: orthonormalization, principal angles, geodesics, PCA."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftalign import (
    DimensionMismatch,
    DimensionViolation,
    DomainError,
    RankDeficient,
    Subspace,
    evaluate,
    geodesic,
    geodesic_distance,
    orthonormalize,
    pca_subspace,
    principal_angles,
    principal_system,
    random_subspace,
)
from driftalign.subspaces import RESIDUAL_COLUMN_TOL


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
        with pytest.raises(ValueError):
            Subspace(basis=np.ones((4, 2)))

    def test_rejects_k_not_below_d(self):
        with pytest.raises(DimensionViolation):
            Subspace(basis=np.eye(3))

    def test_basis_is_read_only(self):
        s = Subspace(basis=np.eye(6)[:, :2])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 7.0

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(3)
        s = random_subspace(9, 3, rng)
        p = s.projector()
        np.testing.assert_allclose(p @ p, p, atol=1e-12)


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

    def test_k_at_or_above_half_d_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionViolation, match="k < d/2"):
            orthonormalize(rng.standard_normal((10, 5)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.sampled_from([7, 11, 16]), k=st.sampled_from([1, 2, 3]))
    def test_span_invariant_under_column_mixing(self, seed, d, k):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, k))
        mix = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        angles = principal_angles(orthonormalize(m), orthonormalize(m @ mix))
        assert angles.max() < 1e-7


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


class TestPrincipalAngles:
    def test_planar_pair_recovers_the_rotation(self):
        for phi in (0.1, 0.7, 1.3, math.pi / 2):
            a, b = planar_pair(5, phi)
            np.testing.assert_allclose(principal_angles(a, b), [phi], atol=1e-9)

    def test_identical_subspaces_give_zero(self):
        rng = np.random.default_rng(6)
        s = random_subspace(10, 3, rng)
        assert principal_angles(s, s).max() < 1e-7

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
        rng = np.random.default_rng(11)
        a = random_subspace(13, 3, rng)
        b = random_subspace(13, 3, rng)
        sys = principal_system(a, b)
        np.testing.assert_allclose(sys.angles, principal_angles(a, b), atol=1e-7)

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
        flow = geodesic(a, b)
        assert principal_angles(evaluate(flow, 0.0), a).max() < 1e-7
        assert principal_angles(evaluate(flow, 1.0), b).max() < 1e-7

    def test_midpoint_bisects_planar_rotation(self):
        a, b = planar_pair(7, 1.0)
        mid = evaluate(geodesic(a, b), 0.5)
        np.testing.assert_allclose(principal_angles(a, mid), [0.5], atol=1e-9)
        np.testing.assert_allclose(principal_angles(mid, b), [0.5], atol=1e-9)

    def test_interior_points_are_orthonormal(self):
        rng = np.random.default_rng(14)
        a = random_subspace(16, 5, rng)
        b = random_subspace(16, 5, rng)
        flow = geodesic(a, b)
        for t in (0.25, 0.5, 0.75):
            s = evaluate(flow, t)
            np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(5), atol=1e-8)

    def test_parameter_outside_unit_interval_rejected(self):
        rng = np.random.default_rng(15)
        flow = geodesic(random_subspace(8, 2, rng), random_subspace(8, 2, rng))
        for t in (-0.01, 1.01, 2.0):
            with pytest.raises(DomainError):
                evaluate(flow, t)

    def test_arc_length_is_proportional(self):
        a, b = planar_pair(9, 1.2)
        flow = geodesic(a, b)
        for t in (0.25, 0.5, 0.75):
            np.testing.assert_allclose(principal_angles(a, evaluate(flow, t)), [1.2 * t], atol=1e-9)


class TestPcaSubspace:
    def test_matches_eigendecomposition_of_covariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((200, 9)) * np.array([5, 4, 3, 1, 1, 1, 1, 1, 1.0])
        s = pca_subspace(x, 3)
        centered = x - x.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        oracle = Subspace(basis=vecs[:, -3:])
        # arccos saturates near zero angle around 2e-8; 1e-6 still proves identity
        assert principal_angles(s, oracle).max() < 1e-6

    def test_translation_invariant(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 8))
        shifted = x + 37.5
        assert principal_angles(pca_subspace(x, 3), pca_subspace(shifted, 3)).max() < 1e-7

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((50, 7))
        a = pca_subspace(x, 2)
        b = pca_subspace(x.copy(), 2)
        assert np.array_equal(a.basis, b.basis)

    def test_single_row_rejected(self):
        with pytest.raises(RankDeficient):
            pca_subspace(np.ones((1, 6)), 2)

    def test_rank_below_k_rejected(self):
        x = np.outer(np.arange(10.0), np.ones(8))  # rank one after centering
        with pytest.raises(RankDeficient):
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
