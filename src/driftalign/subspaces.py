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

Checks, and which imply which. Every value type validates what it stores:
Subspace (finite, then Gram deviation below ORTHONORMALITY_TOL),
PrincipalSystem (angles in [0, pi/2]; a_rot, tail and b_rot orthonormal) and
GeodesicFlow (tail orthogonal to the base). principal_angles adds the two
overshoot checks, principal_system the reconstruction check too, in one pass: a
pair it cannot reproduce raises SharedFactorFailure. Each deviation is compared
as ``not dev < tol``, so a NaN entry, which makes its deviation NaN, fails the
check it reaches; that is why the factors need no finiteness test of their own,
while Subspace tests finiteness first to keep inf * 0 out of its Gram product.
No check stands in for another at a looser tolerance: the reconstruction bound
(1e-8) does not imply orthonormality at 1e-10, and orthonormal a_rot and base
do not make the head orthonormal at 1e-10, so the flow kernel checks its frame
again. In flow_kernel, an orthonormal frame and symmetric weights make the
weights' eigenvalues exactly the kernel's nonzero spectrum, so the 2k x 2k
spectrum check covers the d x d kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
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


def _is_integer(value: object) -> bool:
    """True for a Python or numpy integer; bools are not counted as integers."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value: object, minimum: int) -> int:
    """Setting ``name`` as a Python int; ConfigError unless it is a Python or numpy integer >= minimum."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(name: str, value: object) -> float:
    """Setting ``name`` as a float; ConfigError unless it is a Python or numpy integer or float.

    Bools and strings are not numbers. An integer beyond the float range is
    rejected here rather than escaping as an OverflowError.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer beyond the float range") from None


def _gram_deviation(m: Array) -> float:
    """max |m^T m - I|, the value np.max(np.abs(m.T @ m - np.eye(k))) gives.

    The identity is subtracted from the diagonal in place; off the diagonal
    x - 0.0 == x, so every entry, and so the maximum, is unchanged. A NaN
    entry makes the result NaN, which callers reject with ``not dev < tol``.
    """
    g = m.T @ m
    g.reshape(-1)[:: g.shape[0] + 1] -= 1.0
    return float(abs(g).max())


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
        if not np.isfinite(b).all():
            raise NumericalHealthError("basis has non-finite entries")
        dev = _gram_deviation(b)
        if not dev < ORTHONORMALITY_TOL:
            raise NumericalHealthError(f"basis is not orthonormal (max Gram deviation {dev:.3e})")
        object.__setattr__(self, "basis", _read_only(b))

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def sub_dim(self) -> int:
        return int(self.basis.shape[1])


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
        th = _read_only(self.angles)
        if th.ndim != 1 or th.shape[0] < 1:
            raise DimensionViolation("angles must be a length-k vector, k >= 1")
        if not (0.0 <= th.min() and th.max() <= np.pi / 2):
            raise DomainError("principal angles must lie in [0, pi/2]")
        object.__setattr__(self, "angles", th)
        k = th.shape[0]
        for name in ("a_rot", "tail", "b_rot"):
            m = _read_only(getattr(self, name))
            rows = m.shape[0] if name == "tail" and m.ndim == 2 else k
            if m.shape != (rows, k):
                raise DimensionViolation(f"{name} must be {rows} x {k}, got shape {m.shape}")
            dev = _gram_deviation(m)
            if not dev < ORTHONORMALITY_TOL:
                raise NumericalHealthError(f"{name} is not orthonormal (max Gram deviation {dev:.3e})")
            object.__setattr__(self, name, m)


@dataclass(frozen=True, eq=False)
class GeodesicFlow:
    """Constant-speed geodesic through a subspace pair, parameterized on [0, 1]."""

    base: Subspace
    system: PrincipalSystem

    def __post_init__(self) -> None:
        cross = float(abs(self.system.tail.T @ self.base.basis).max())
        if not cross < ORTHONORMALITY_TOL:
            raise NumericalHealthError(f"tail is not orthogonal to base (max {cross:.3e})")


def _as_matrix(m: object, what: str) -> Array:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"{what} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteData(f"{what} has non-finite entries")
    return a


def _check_half_dim(d: int, k: int) -> None:
    # The k directions a flow opens into must fit orthogonal to the base,
    # which needs k <= d - k; the documented contract keeps the bound strict.
    if 2 * k >= d:
        raise DimensionViolation(f"subspace dimension must satisfy k < d/2, got d={d}, k={k}")


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.basis.shape != b.basis.shape:
        raise DimensionMismatch(
            f"subspaces live in different spaces: ({a.ambient_dim}, {a.sub_dim}) vs ({b.ambient_dim}, {b.sub_dim})"
        )


def principal_angles(a: Subspace, b: Subspace) -> Array:
    """Principal angles between two equal-shape subspaces, ascending, in [0, pi/2].

    Accurate at 0 and at pi/2, from one SVD, for any k < d; ``principal_system(a, b).angles`` to the bit.
    """
    _check_pair(a, b)
    return _angle_factors(a.basis, b.basis)[0]


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


def _signed_qr(m: Array) -> Array:
    """Q of the thin QR of m, column signs flipped so that diag(R) >= 0."""
    q, r = np.linalg.qr(m)
    return q * np.where(r.diagonal() < 0.0, -1.0, 1.0)


def _angle_factors(a: Array, b: Array) -> tuple[Array, ...]:
    """(angles, sines, cosines, u, v, ab, residual, aligned) of d x k bases' spans, 1 <= k < d, angles ascending."""
    ab = a.T @ b
    residual = b - a @ ab
    # The residual's SVD is backward stable whatever the angle spectrum, so it
    # fixes the shared right factor and the opening directions exactly. The
    # cosine-side SVD cannot: for near-identical subspaces its singular
    # values cluster at 1 and the right factor comes out arbitrarily mixed.
    u, sv, wt = np.linalg.svd(residual, full_matrices=False)
    if sv[0] > 1.0 + COSINE_OVERSHOOT_TOL:
        raise NumericalHealthError(f"sine {sv[0]:.12f} exceeds 1 by more than {COSINE_OVERSHOOT_TOL}")
    # Reorder to ascending angles (the SVD sorts sines descending). Sines and
    # cosines (column norms, below) are never negative, so np.minimum(x, 1.0)
    # is np.clip(x, 0.0, 1.0) to the bit, -0.0 included. sines stays a
    # reversed view: numpy may take a different arcsin kernel for a
    # contiguous array, and the angles would no longer match to the bit.
    sines = np.minimum(sv, 1.0)[::-1]
    u = u[:, ::-1]
    v = wt.T[:, ::-1]
    # Columns of A^T B V are orthogonal with norms cos(angle), formed as
    # np.linalg.norm(aligned, axis=0) forms them.
    aligned = ab @ v
    cosines = np.sqrt(np.add.reduce(aligned * aligned, axis=0))
    top = cosines.max()
    if top > 1.0 + COSINE_OVERSHOOT_TOL:
        raise NumericalHealthError(f"cosine {top:.12f} exceeds 1 by more than {COSINE_OVERSHOOT_TOL}")
    cosines = np.minimum(cosines, 1.0)
    # arccos loses half the digits at small angles and arcsin does near pi/2;
    # each branch is used where it is well-conditioned.
    angles = np.where(sines**2 <= 0.5, np.arcsin(sines), np.arccos(cosines))
    return angles, sines, cosines, u, v, ab, residual, aligned


def _shared_factors(a: Array, b: Array) -> PrincipalSystem:
    k = a.shape[1]
    angles, sines, cosines, u, v, ab, residual, aligned = _angle_factors(a, b)
    # In-source directions: A^T B V normalized where resolvable, extended elsewhere.
    a_rot = np.zeros((k, k))
    # Larger-cosine columns carry less relative noise; they are orthogonalized
    # first so they are not contaminated, then put back in place.
    if cosines.min() > RESIDUAL_COLUMN_TOL:
        # Every column resolvable, the case of any pair with no right angle.
        order = np.argsort(cosines, kind="stable")[::-1]
        a_rot[:, order] = _signed_qr(aligned[:, order] / cosines[order])
    else:
        resolvable = np.flatnonzero(cosines > RESIDUAL_COLUMN_TOL)
        fixed = np.zeros((k, 0))
        if resolvable.size:
            order = resolvable[np.argsort(cosines[resolvable], kind="stable")[::-1]]
            fixed = _signed_qr(aligned[:, order] / cosines[order])
            a_rot[:, order] = fixed
        open_slots = np.flatnonzero(~(cosines > RESIDUAL_COLUMN_TOL))
        a_rot[:, open_slots] = _orthonormal_extension(fixed, open_slots.size)
    # The flow leaves the base along minus the residual's left factor; one
    # more projection off A removes what rounding left in A's span. Sines
    # ascend, so the unresolved columns come first (there are some exactly
    # when the first sine is unresolved) and are filled by an orthonormal
    # extension of [A, resolved tail].
    tail = -(u - a @ (a.T @ u))
    if sines[0] <= RESIDUAL_COLUMN_TOL:
        unresolved = int(np.count_nonzero(sines <= RESIDUAL_COLUMN_TOL))
        tail[:, :unresolved] = _orthonormal_extension(np.hstack([a, tail[:, unresolved:]]), unresolved)
    system = PrincipalSystem(a_rot=a_rot, tail=tail, b_rot=v, angles=angles)
    # Both products must be reproduced. A^T B and the residual are the arrays
    # formed above, so each side is compared with what the factors were cut from.
    cos_part = (system.a_rot * np.cos(system.angles)) @ system.b_rot.T
    sin_part = (system.tail * np.sin(system.angles)) @ system.b_rot.T
    res = max(float(abs(ab - cos_part).max()), float(abs(residual + sin_part).max()))
    if not res <= RECONSTRUCTION_TOL:
        raise SharedFactorFailure(f"reconstruction residual {res:.3e} exceeds {RECONSTRUCTION_TOL:.0e}")
    return system


def principal_system(a: Subspace, b: Subspace) -> PrincipalSystem:
    """Paired decomposition of (A^T B, B - A A^T B) with one shared right factor.

    Args:
        a: base subspace, d x k with k < d/2.
        b: other subspace, same shape as ``a``.

    Returns:
        The aligned rotations, the opening directions and the principal
        angles. Angles ascend; columns of ``tail`` whose sine is not
        numerically resolvable are an arbitrary orthonormal extension.

    Raises:
        SharedFactorFailure: the factors do not reproduce A^T B and the
            residual within RECONSTRUCTION_TOL. There is no second attempt:
            bases that Subspace accepted are orthonormal to within
            ORTHONORMALITY_TOL, so re-orthonormalizing them would move both
            products by far less than RECONSTRUCTION_TOL.
    """
    _check_pair(a, b)
    _check_half_dim(*a.basis.shape)
    return _shared_factors(a.basis, b.basis)


def geodesic(a: Subspace, b: Subspace) -> GeodesicFlow:
    """Geodesic flow with Psi(0) spanning ``a`` and Psi(1) spanning ``b``."""
    return GeodesicFlow(base=a, system=principal_system(a, b))


def evaluate(flow: GeodesicFlow, t: float) -> Subspace:
    """Point on the flow at parameter t in [0, 1].

    The principal angles between evaluate(flow, 0) and evaluate(flow, t) are
    exactly t times the pair's angles, so t is arc-length fraction.
    """
    t = _real("flow parameter", t)
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
    # Plain Python, as this runs on every batch. A float, bool, string or
    # k < 1 would otherwise escape as a TypeError or IndexError, or run as 1.
    if not _is_integer(k) or k < 1:
        raise ConfigError(f"k must be an integer >= 1, got {k!r}")
    _check_half_dim(d, k)
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
