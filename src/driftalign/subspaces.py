"""Dense subspace primitives on the Grassmann manifold G(k, d).

A subspace is represented by an orthonormal d x k basis matrix; any two bases
with the same column span denote the same point. Principal angles are in
radians, stored ascending (descending cosines). Everything is float64 and
deterministic; tolerances are module constants so the contracts stay testable.

The central construction is :func:`principal_system`, a paired decomposition
of A^T B and of the residual B - A A^T B sharing one right factor. It yields
the k directions orthogonal to A that the pair opens into, which is all that
geodesics between subspaces and the flow kernel built on them need; no basis
of A's full d x (d - k) complement is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionViolation,
    DomainError,
    NonFiniteData,
    NumericalHealthError,
    RankDeficient,
    SharedFactorFailure,
)

Array = np.ndarray

# Max allowed entrywise deviation of B^T B from the identity.
ORTHONORMALITY_TOL = 1e-10
# Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1e-12
# Residual columns at or below this norm are filled by orthonormal extension.
RESIDUAL_COLUMN_TOL = 1e-9
# Reconstruction residual above this raises SharedFactorFailure.
RECONSTRUCTION_TOL = 1e-8
# Cosines above 1 + this are a health failure, not something to clamp away.
COSINE_OVERSHOOT_TOL = 1e-8


def _read_only(a: Array) -> Array:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal basis of a k-dimensional subspace of R^d, 1 <= k < d."""

    basis: Array

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=np.float64)
        if b.ndim != 2:
            raise DimensionViolation(f"basis must be a 2-d array, got shape {b.shape}")
        d, k = b.shape
        if k < 1 or k >= d:
            raise DimensionViolation(f"need 1 <= k < d, got d={d}, k={k}")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis has non-finite entries")
        dev = float(np.max(np.abs(b.T @ b - np.eye(k))))
        if dev >= ORTHONORMALITY_TOL:
            raise ValueError(f"basis is not orthonormal (max Gram deviation {dev:.3e})")
        object.__setattr__(self, "basis", _read_only(b))

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def sub_dim(self) -> int:
        return int(self.basis.shape[1])

    def projector(self) -> Array:
        """The d x d orthogonal projection onto this subspace."""
        return self.basis @ self.basis.T


@dataclass(frozen=True, eq=False)
class PrincipalSystem:
    """Aligned factors of a subspace pair.

    For a pair (A, B) the factors satisfy

        A^T B         =  a_rot @ diag(cos(angles)) @ b_rot.T
        B - A A^T B   = -(tail * sin(angles)) @ b_rot.T

    so the columns of A @ a_rot and B @ b_rot are the principal vectors and
    the d x k orthonormal ``tail``, orthogonal to A, holds the directions the
    pair opens into.
    """

    a_rot: Array   # k x k
    tail: Array    # d x k
    b_rot: Array   # k x k
    angles: Array  # k, ascending, in [0, pi/2]

    def __post_init__(self) -> None:
        th = np.asarray(self.angles, dtype=np.float64)
        if th.ndim != 1:
            raise DimensionViolation("angles must be a length-k vector")
        if np.any(th < 0.0) or np.any(th > np.pi / 2):
            raise DomainError("principal angles must lie in [0, pi/2]")
        object.__setattr__(self, "angles", _read_only(th))
        k = th.shape[0]
        for name in ("a_rot", "tail", "b_rot"):
            m = _read_only(getattr(self, name))
            rows = m.shape[0] if name == "tail" and m.ndim == 2 else k
            if m.shape != (rows, k):
                raise DimensionViolation(f"{name} must be {rows} x {k}, got shape {m.shape}")
            dev = float(np.max(np.abs(m.T @ m - np.eye(k))))
            if dev >= ORTHONORMALITY_TOL:
                raise ValueError(f"{name} is not orthonormal (max Gram deviation {dev:.3e})")
            object.__setattr__(self, name, m)


@dataclass(frozen=True, eq=False)
class GeodesicFlow:
    """Constant-speed geodesic through a subspace pair, parameterized on [0, 1]."""

    base: Subspace
    system: PrincipalSystem

    def __post_init__(self) -> None:
        cross = float(np.max(np.abs(self.system.tail.T @ self.base.basis)))
        if cross >= ORTHONORMALITY_TOL:
            raise ValueError(f"tail is not orthogonal to base (max {cross:.3e})")


def _as_matrix(m: object, what: str) -> Array:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionViolation(f"{what} must be a nonempty 2-d array, got shape {getattr(a, 'shape', None)}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteData(f"{what} has non-finite entries")
    return a


def _check_half_dim(d: int, k: int) -> None:
    # The k directions a flow opens into must fit orthogonal to the base,
    # which needs k <= d - k; the documented contract keeps the bound strict.
    if 2 * k >= d:
        raise DimensionViolation(f"subspace dimension must satisfy k < d/2, got d={d}, k={k}")


def orthonormalize(m: object) -> Subspace:
    """Orthonormal basis for the column span of a full-rank d x k matrix."""
    a = _as_matrix(m, "matrix")
    d, k = a.shape
    _check_half_dim(d, k)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < RANK_REL_TOL * sv[0]:
        raise RankDeficient(f"matrix has numerical rank < {k} (smallest/largest singular value {sv[-1]:.3e}/{sv[0]:.3e})")
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return Subspace(q * signs)


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim or a.sub_dim != b.sub_dim:
        raise DimensionMismatch(
            f"subspaces live in different spaces: ({a.ambient_dim}, {a.sub_dim}) vs ({b.ambient_dim}, {b.sub_dim})"
        )


def principal_angles(a: Subspace, b: Subspace) -> Array:
    """Principal angles between two equal-shape subspaces, ascending, in [0, pi/2]."""
    _check_pair(a, b)
    sv = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    if sv[0] > 1.0 + COSINE_OVERSHOOT_TOL:
        raise NumericalHealthError(f"cosine {sv[0]:.12f} exceeds 1 by more than {COSINE_OVERSHOOT_TOL}")
    return np.arccos(np.clip(sv, 0.0, 1.0))


def geodesic_distance(a: Subspace, b: Subspace) -> float:
    """Length of the connecting geodesic: l2 norm of the principal angles."""
    return float(np.linalg.norm(principal_angles(a, b)))


def _orthonormal_extension(cols: Array, m: int) -> Array:
    """m orthonormal columns orthogonal to the orthonormal n x c ``cols``, c + m <= n.

    Each new column is the coordinate axis with the least weight in the span
    so far, projected off it twice; that keeps a squared norm >= 1/n, and no
    n x n matrix is formed.
    """
    span = cols
    for _ in range(m):
        axis = int(np.argmin(np.einsum("ij,ij->i", span, span)))
        v = -(span @ span[axis])
        v[axis] += 1.0
        v -= span @ (span.T @ v)
        span = np.hstack([span, (v / np.linalg.norm(v))[:, None]])
    return span[:, cols.shape[1]:]


def _shared_factors(a: Array, b: Array) -> PrincipalSystem:
    k = a.shape[1]
    ab = a.T @ b
    # The residual's SVD is backward stable whatever the angle spectrum, so it
    # fixes the shared right factor and the opening directions exactly. The
    # cosine-side SVD cannot: for near-identical subspaces its singular
    # values cluster at 1 and the right factor comes out arbitrarily mixed.
    u, sv, wt = np.linalg.svd(b - a @ ab, full_matrices=False)
    if sv[0] > 1.0 + COSINE_OVERSHOOT_TOL:
        raise NumericalHealthError(f"sine {sv[0]:.12f} exceeds 1 by more than {COSINE_OVERSHOOT_TOL}")
    # Reorder to ascending angles (the SVD sorts sines descending).
    sines = np.clip(sv, 0.0, 1.0)[::-1]
    u = u[:, ::-1]
    v = wt.T[:, ::-1]
    # In-source directions: columns of A^T B V are orthogonal with norms
    # cos(angle); normalize where resolvable, extend orthonormally elsewhere.
    aligned = ab @ v
    cosines = np.linalg.norm(aligned, axis=0)
    if cosines.max() > 1.0 + COSINE_OVERSHOOT_TOL:
        raise NumericalHealthError(f"cosine {cosines.max():.12f} exceeds 1 by more than {COSINE_OVERSHOOT_TOL}")
    cosines = np.clip(cosines, 0.0, 1.0)
    # arccos loses half the digits at small angles and arcsin does near pi/2;
    # each branch is used where it is well-conditioned.
    angles = np.where(sines**2 <= 0.5, np.arcsin(sines), np.arccos(cosines))
    u1 = np.zeros((k, k))
    fixed = np.zeros((k, 0))
    resolvable = np.flatnonzero(cosines > RESIDUAL_COLUMN_TOL)
    if resolvable.size:
        # Larger-cosine columns carry less relative noise; orthogonalize those
        # first so they are not contaminated, then restore positions.
        order = resolvable[np.argsort(cosines[resolvable], kind="stable")[::-1]]
        q, r = np.linalg.qr(aligned[:, order] / cosines[order])
        fixed = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        u1[:, order] = fixed
    open_slots = [j for j in range(k) if j not in set(resolvable)]
    u1[:, open_slots] = _orthonormal_extension(fixed, len(open_slots))
    # The flow leaves the base along minus the residual's left factor; one
    # more projection off A removes what rounding left in A's span. Sines
    # ascend, so the unresolved columns come first and are filled by an
    # orthonormal extension of [A, resolved tail].
    tail = -(u - a @ (a.T @ u))
    unresolved = int(np.count_nonzero(sines <= RESIDUAL_COLUMN_TOL))
    if unresolved:
        tail[:, :unresolved] = _orthonormal_extension(np.hstack([a, tail[:, unresolved:]]), unresolved)
    return PrincipalSystem(a_rot=u1, tail=tail, b_rot=v, angles=angles)


def _reconstruction_residual(system: PrincipalSystem, a: Array, b: Array) -> float:
    ab = a.T @ b
    cos_part = (system.a_rot * np.cos(system.angles)) @ system.b_rot.T
    sin_part = (system.tail * np.sin(system.angles)) @ system.b_rot.T
    res_top = float(np.max(np.abs(ab - cos_part)))
    res_bottom = float(np.max(np.abs(b - a @ ab + sin_part)))
    return max(res_top, res_bottom)


def _qr_polish(m: Array) -> Array:
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def principal_system(a: Subspace, b: Subspace) -> PrincipalSystem:
    """Paired decomposition of (A^T B, B - A A^T B) with one shared right factor.

    Args:
        a: base subspace, d x k with k < d/2.
        b: other subspace, same shape as ``a``.

    Returns:
        The aligned rotations, the opening directions and the principal
        angles. Angles ascend; columns of ``tail`` whose sine is not
        numerically resolvable are an arbitrary orthonormal extension.
    """
    _check_pair(a, b)
    _check_half_dim(a.ambient_dim, a.sub_dim)
    system = _shared_factors(a.basis, b.basis)
    if _reconstruction_residual(system, a.basis, b.basis) <= RECONSTRUCTION_TOL:
        return system
    # Retry once from re-orthonormalized copies before giving up.
    system = _shared_factors(_qr_polish(a.basis), _qr_polish(b.basis))
    res = _reconstruction_residual(system, a.basis, b.basis)
    if res <= RECONSTRUCTION_TOL:
        return system
    raise SharedFactorFailure(f"reconstruction residual {res:.3e} exceeds {RECONSTRUCTION_TOL:.0e}")


def geodesic(a: Subspace, b: Subspace) -> GeodesicFlow:
    """Geodesic flow with Psi(0) spanning ``a`` and Psi(1) spanning ``b``."""
    return GeodesicFlow(base=a, system=principal_system(a, b))


def evaluate(flow: GeodesicFlow, t: float) -> Subspace:
    """Point on the flow at parameter t in [0, 1].

    The principal angles between evaluate(flow, 0) and evaluate(flow, t) are
    exactly t times the pair's angles, so t is arc-length fraction.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"flow parameter must lie in [0, 1], got {t}")
    head, tail = _flow_frame(flow)
    return Subspace(_flow_bases(head, tail, flow.system.angles, np.array([t]))[:, 0, :])


def _flow_frame(flow: GeodesicFlow) -> tuple[Array, Array]:
    """Principal vectors at the base (head) and the directions they open into (tail)."""
    return flow.base.basis @ flow.system.a_rot, flow.system.tail


def _flow_bases(head: Array, tail: Array, angles: Array, ts: Array) -> Array:
    """Unvalidated flow bases head cos(t angles) - tail sin(t angles) for every t in ts.

    Returns a d x m x k array whose [:, j, :] slice is the basis at ts[j].
    """
    phase = ts[:, None] * angles
    bases = head[:, None, :] * np.cos(phase)
    bases -= tail[:, None, :] * np.sin(phase)
    return bases


def pca_subspace(x: object, k: int) -> Subspace:
    """Top-k principal subspace of row-data x (N x d), centered by the row mean.

    Column signs follow the largest-magnitude entry of each basis vector, so
    the result is deterministic across runs and platforms.
    """
    a = _as_matrix(x, "data matrix")
    n, d = a.shape
    _check_half_dim(d, int(k))
    if n < 2:
        raise RankDeficient(f"PCA needs at least 2 rows, got {n}")
    centered = a - a.mean(axis=0)
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0.0 else 0
    if rank < k:
        raise RankDeficient(f"centered data has numerical rank {rank} < k={k}")
    basis = vt[:k].T
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.where(basis[anchor, np.arange(k)] < 0.0, -1.0, 1.0)
    return Subspace(basis * signs)


def random_subspace(d: int, k: int, rng: np.random.Generator) -> Subspace:
    """Random k-dim subspace of R^d drawn from the rotation-invariant law."""
    return orthonormalize(rng.standard_normal((d, k)))
