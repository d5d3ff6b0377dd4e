"""Dense subspace primitives on the Grassmann manifold G(k, d).

A subspace is represented by an orthonormal d x k basis matrix; any two bases
with the same column span denote the same point. Principal angles are in
radians, stored ascending (descending cosines). Everything is float64 and
deterministic; tolerances are module constants so the contracts stay testable.
The stream's running mean, :func:`update_mean`, is one point on a geodesic.

The central construction is :func:`principal_system`, a paired decomposition
of A^T B and of the residual B - A A^T B sharing one right factor. It yields
the k directions orthogonal to A that the pair opens into, which is all that
geodesics between subspaces and the flow kernel built on them need; no basis
of A's full d x (d - k) complement is ever formed. The returned
PrincipalSystem carries A as its base, so it is the geodesic from A to B.
Its first half, _angle_factors, gives the principal angles alone; the online
path reads angles from its systems, and only driftalign.verify measures them
for a bare pair (``principal_angles``, ``geodesic_distance``).

Checks, and which imply which. Each array invariant has one check: _array is
the only np.asarray on caller input (a ragged sequence is DimensionMismatch
naming the array), _real_rows the dtype gate before the only float64 cast
(bool, integer and float pass; complex, string or object is SchemaMismatch),
_row_shape the shape of row data, classifiers._class_labels that of labels,
_orthonormal a basis or factor's Gram deviation, and _rank, the one home of
the rank decision, a numerical rank. Finiteness and size have one check
per array role, each one scan, and no product needs its floating-point
errors muted: _bounded_rows admits the rows every computation reads
(pca_subspace, apply_transform, predict, and verify's orthonormalize and
exp_tangent) by length, and rejects a NaN or infinite entry or a row
longer than sqrt(d) * MAX_ABS_ENTRY as NonFiniteData. _read_only, which
takes every geometry or model array a value type stores, rejects a NaN,
infinite, or finite entry beyond MAX_ABS_ENTRY as NumericalHealthError
before a Gram product or m - m.T is formed, by _entry_fault, which
LabeledSet and MiniBatch run on their rows too, after _row_shape, in
classifiers._stored_rows (as NonFiniteData). With every operand so bounded,
every product the package forms of rows and stored arrays is finite for
fewer than about 6e7 features. Every value type validates what it
stores: Subspace (orthonormal), the only basis check, which the quadrature
oracle also applies to each node's basis, and PrincipalSystem (angles in
[0, pi/2], by _angles, which TransformKernel shares; orthonormal a_rot, tail
and b_rot; a d x k base, then the tail orthogonal to it). _angle_factors adds
the two overshoot checks, principal_system the reconstruction check too, in
one pass: a pair it cannot reproduce raises SharedFactorFailure. Each
deviation is compared as ``not dev < tol``, so a NaN deviation fails the
check it reaches. No check stands in for another at a looser tolerance: the
reconstruction bound (1e-8) does not imply orthonormality at 1e-10, and
orthonormal a_rot and base do not make the head orthonormal at 1e-10, so the
flow kernel checks its frame again. Its weights, built from angles in
[0, pi/2], have a spectrum in [0, 1] by construction: no eigensolver runs on
the online path.
"""

from __future__ import annotations

import math
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
    SchemaMismatch,
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
# Largest entry magnitude accepted in stored rows and stored arrays. Products
# overflow once entries pass about 1e154 (in the k-NN ranking |p|^2 - 2 q.p,
# inf - inf then makes NaN). With every entry within this bound, and so every
# row within sqrt(d) times it, every product of rows and stored arrays stays
# below about 3d * 1e300, which is finite for fewer than about 6e7 features.
MAX_ABS_ENTRY = 1e150


def _array(x: object, what: str) -> Array:
    """np.asarray(x); DimensionMismatch naming ``what`` where numpy rejects a ragged sequence with ValueError."""
    try:
        return np.asarray(x)
    except ValueError:
        raise DimensionMismatch(f"{what} is ragged: its nested sequences differ in length") from None


def _real_rows(x: object, what: str) -> Array:
    """x as a float64 array, a view when it already is one; the only float cast in the package.

    SchemaMismatch naming ``what`` unless x's dtype kind is bool, integer or
    float. The kind is checked before the cast, which would keep only the
    real part of complex input, parse strings, and fail on object arrays
    with numpy's own errors.
    """
    a = _array(x, what)
    if a.dtype.kind not in "biuf":
        raise SchemaMismatch(f"{what} must be real, got dtype {a.dtype}")
    return np.asarray(a, dtype=np.float64)


def _row_shape(x: object, what: str, min_rows: int) -> Array:
    """Row data x through the _real_rows gate; DimensionMismatch unless 2-d with >= min_rows rows and >= 1 column."""
    a = _real_rows(x, what)
    if a.ndim != 2 or a.shape[0] < min_rows or a.shape[1] < 1:
        raise DimensionMismatch(f"{what} must be a 2-d array of at least {min_rows} x 1, got shape {a.shape}")
    return a


def _bounded_rows(x: object, what: str, min_rows: int) -> Array:
    """Row data x through _row_shape; NonFiniteData naming ``what`` unless no row is longer than sqrt(d) * MAX_ABS_ENTRY.

    The one gate for the rows a computation reads. The bound is the length of
    a row with every entry at MAX_ABS_ENTRY: the pipeline multiplies batches
    by the flow kernel, whose spectrum lies in [0, 1], so it never lengthens
    a row but can move up to sqrt(d) times the bound into a single entry.
    Squared lengths are compared with a relative margin of 1e-6, which covers
    their rounding (a sum of d squares, at most d * 2^-53 relative; without
    it rows of +-MAX_ABS_ENTRY read too long from d = 29) and that of the
    kernel product. NaN, an infinite entry and a squared length past the
    float range fail that one scan too (einsum, unlike np.vecdot, raises no
    overflow warning); only a failed scan runs np.isfinite, to name a
    non-finite entry first.
    """
    a = _row_shape(x, what, min_rows)
    if a.size and not np.einsum("ij,ij->i", a, a).max() <= a.shape[1] * MAX_ABS_ENTRY**2 * (1.0 + 1e-6):
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise NonFiniteData(f"{what} has non-finite entries")
        raise NonFiniteData(f"{what}: a row is longer than sqrt(d) * {MAX_ABS_ENTRY:.0e}")
    return a


def _entry_fault(a: Array) -> str | None:
    """None when every entry of a is within MAX_ABS_ENTRY, else the cause.

    NaN fails the one comparison too, so only a failed scan runs np.isfinite.
    """
    if np.count_nonzero(abs(a) <= MAX_ABS_ENTRY) == a.size:
        return None
    if np.count_nonzero(np.isfinite(a)) < a.size:
        return "non-finite entries"
    return f"entries beyond +-{MAX_ABS_ENTRY:.0e}"


def _read_only(x: object, what: str) -> Array:
    """A read-only float64 copy of x, through the _real_rows gate, in x's memory layout.

    NumericalHealthError naming ``what`` and the _entry_fault before any product is formed from the copy.
    """
    out = np.array(_real_rows(x, what))
    if fault := _entry_fault(out):
        raise NumericalHealthError(f"{what} has {fault}")
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


def _orthonormal(m: Array, what: str) -> None:
    """NumericalHealthError naming ``what`` unless m's Gram deviation is below ORTHONORMALITY_TOL."""
    dev = _gram_deviation(m)
    if not dev < ORTHONORMALITY_TOL:
        raise NumericalHealthError(f"{what} is not orthonormal (max Gram deviation {dev:.3e})")


def _angles(x: object) -> Array:
    """Read-only copy of angles x; DimensionViolation unless of length k >= 1, DomainError outside [0, pi/2]."""
    th = _read_only(x, "angles")
    if th.ndim != 1 or th.shape[0] < 1:
        raise DimensionViolation("angles must be a length-k vector, k >= 1")
    if not (0.0 <= th.min() and th.max() <= np.pi / 2):
        raise DomainError("principal angles must lie in [0, pi/2]")
    return th


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal basis of a k-dimensional subspace of R^d, 1 <= k < d."""

    basis: Array

    def __post_init__(self) -> None:
        b = _read_only(self.basis, "basis")
        if b.ndim != 2:
            raise DimensionViolation(f"basis must be a 2-d array, got shape {b.shape}")
        d, k = b.shape
        if k < 1 or k >= d:
            raise DimensionViolation(f"need 1 <= k < d, got d={d}, k={k}")
        _orthonormal(b, "basis")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def sub_dim(self) -> int:
        return int(self.basis.shape[1])


@dataclass(frozen=True, eq=False)
class PrincipalSystem:
    """Geodesic from a base subspace A to a subspace B, in the pair's aligned factors.

    With A = ``base``, the factors satisfy

        A^T B         =  a_rot @ diag(cos(angles)) @ b_rot.T
        B - A A^T B   = -(tail * sin(angles)) @ b_rot.T

    so the columns of A @ a_rot and B @ b_rot are the principal vectors and
    the d x k orthonormal ``tail``, orthogonal to A, holds the directions the
    pair opens into. The geodesic, parameterized on [0, 1], is
    A a_rot cos(t angles) - tail sin(t angles); see :func:`evaluate`.
    """

    base: Subspace
    a_rot: Array   # k x k
    tail: Array    # d x k
    b_rot: Array   # k x k
    angles: Array  # k, ascending, in [0, pi/2]

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", _angles(self.angles))
        k = self.angles.shape[0]
        for name in ("a_rot", "tail", "b_rot"):
            m = _read_only(getattr(self, name), name)
            rows = m.shape[0] if name == "tail" and m.ndim == 2 else k
            if m.shape != (rows, k):
                raise DimensionViolation(f"{name} must be {rows} x {k}, got shape {m.shape}")
            _orthonormal(m, name)
            object.__setattr__(self, name, m)
        base = self.base.basis
        if base.shape != self.tail.shape:
            raise DimensionViolation(f"base must be {self.tail.shape[0]} x {k}, got shape {base.shape}")
        cross = float(abs(self.tail.T @ base).max())
        if not cross < ORTHONORMALITY_TOL:
            raise NumericalHealthError(f"tail is not orthogonal to base (max {cross:.3e})")


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
        v /= math.sqrt(v.dot(v))
        span = np.concatenate((span, v[:, None]), axis=1)
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


def _shared_factors(base: Subspace, other: Subspace) -> PrincipalSystem:
    a = base.basis
    k = a.shape[1]
    angles, sines, cosines, u, v, ab, residual, aligned = _angle_factors(a, other.basis)
    # In-source directions: A^T B V normalized where resolvable, extended
    # elsewhere. The n resolved columns have the n largest cosines, and
    # larger-cosine columns carry less relative noise; they are orthogonalized
    # first, largest first, so they are not contaminated, then put back in place.
    resolved = cosines > RESIDUAL_COLUMN_TOL
    n = int(np.count_nonzero(resolved))
    order = np.argsort(cosines, kind="stable")[::-1][:n]
    fixed = _signed_qr(aligned[:, order] / cosines[order])
    a_rot = np.zeros((k, k))
    a_rot[:, order] = fixed
    if n < k:
        a_rot[:, ~resolved] = _orthonormal_extension(fixed, k - n)
    # The flow leaves the base along minus the residual's left factor; one
    # more projection off A removes what rounding left in A's span. Sines
    # ascend, so the unresolved columns come first (there are some exactly
    # when the first sine is unresolved) and are filled by an orthonormal
    # extension of [A, resolved tail].
    tail = -(u - a @ (a.T @ u))
    if sines[0] <= RESIDUAL_COLUMN_TOL:
        unresolved = int(np.count_nonzero(sines <= RESIDUAL_COLUMN_TOL))
        tail[:, :unresolved] = _orthonormal_extension(np.hstack([a, tail[:, unresolved:]]), unresolved)
    system = PrincipalSystem(base=base, a_rot=a_rot, tail=tail, b_rot=v, angles=angles)
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
        The geodesic from ``a`` to ``b``: base ``a``, the aligned rotations,
        the opening directions and the principal angles. Angles ascend;
        columns of ``tail`` whose sine is not numerically resolvable are an
        arbitrary orthonormal extension.

    Raises:
        SharedFactorFailure: the factors do not reproduce A^T B and the
            residual within RECONSTRUCTION_TOL. There is no second attempt:
            bases that Subspace accepted are orthonormal to within
            ORTHONORMALITY_TOL, so re-orthonormalizing them would move both
            products by far less than RECONSTRUCTION_TOL.
    """
    _check_pair(a, b)
    _check_half_dim(*a.basis.shape)
    return _shared_factors(a, b)


def evaluate(system: PrincipalSystem, t: float) -> Subspace:
    """Point at parameter t in [0, 1] on the geodesic ``system`` spans.

    ``evaluate(principal_system(a, b), t)`` spans ``a`` at t=0 and ``b`` at
    t=1. The principal angles between the points at 0 and at t are exactly t
    times the pair's angles, so t is arc-length fraction.
    """
    t = _real("flow parameter", t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"flow parameter must lie in [0, 1], got {t}")
    head, tail = _flow_frame(system)
    return Subspace(_flow_bases(head, tail, system.angles, np.array([t]))[:, 0, :])


def update_mean(mean: Subspace, count: int, new: Subspace) -> Subspace:
    """Fold one more subspace into a running mean that averages ``count`` (>= 1) subspaces.

    A stream's mean starts as its first subspace, count 1. The updated mean
    sits at parameter 1/(count+1) on the geodesic from ``mean`` to ``new``,
    i.e. it moves distance d/(count+1) when ``new`` is at geodesic distance
    d, so each subspace costs one decomposition and no history is kept. The
    rule is order-dependent from the third subspace on; see
    :func:`driftalign.verify.karcher_mean` for the order-free reference. A
    ``new`` of another shape than the mean raises DimensionMismatch, from
    :func:`principal_system`.
    """
    count = _count("count", count, 1)
    return evaluate(principal_system(mean, new), 1.0 / (count + 1))


def _flow_frame(system: PrincipalSystem) -> tuple[Array, Array]:
    """Principal vectors at the base (head) and the directions they open into (tail)."""
    return system.base.basis @ system.a_rot, system.tail


def _flow_bases(head: Array, tail: Array, angles: Array, ts: Array) -> Array:
    """Unvalidated flow bases head cos(t angles) - tail sin(t angles) for every t in ts.

    Returns a d x m x k array whose [:, j, :] slice is the basis at ts[j].
    """
    phase = ts[:, None] * angles
    bases = head[:, None, :] * np.cos(phase)
    bases -= tail[:, None, :] * np.sin(phase)
    return bases


def _rank(sv: Array, shape: tuple[int, int], scale: float) -> int:
    """Numerical rank: how many sv exceed RANK_REL_TOL sv[0] and max(shape) eps scale, scale >= the norm (GvL 5.4.1)."""
    return int(np.count_nonzero(sv > max(RANK_REL_TOL * sv[0], max(shape) * np.finfo(np.float64).eps * scale)))


def pca_subspace(x: object, k: int) -> Subspace:
    """Top-k principal subspace of row-data x (N x d), centered by the row mean.

    Rows pass _bounded_rows, so the row sum, the singular values and the rank's
    scale stay within the float range. RankDeficient when the centered data's
    _rank, at scale s0 + sqrt(N d) max|mean| (a bound on the rows' spectral
    norm), is below k: a flat batch has rank 0. Column signs follow each basis
    vector's largest-magnitude entry, so runs and platforms agree.
    """
    a = _bounded_rows(x, "data matrix", 1)
    n, d = a.shape
    k = _count("k", k, 1)
    _check_half_dim(d, k)
    mean = a.mean(axis=0)
    _, sv, vt = np.linalg.svd(a - mean, full_matrices=False)
    rank = _rank(sv, a.shape, sv[0] + (n * d) ** 0.5 * abs(mean).max())
    if rank < k:
        raise RankDeficient(f"centered data has numerical rank {rank} < k={k}")
    basis = vt[:k].T
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.where(basis[anchor, np.arange(k)] < 0.0, -1.0, 1.0)
    return Subspace(basis * signs)
