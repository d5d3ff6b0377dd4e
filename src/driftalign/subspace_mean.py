"""Running mean of a subspace stream, updated one subspace at a time.

The online rule moves the current mean 1/(n+1) of the way along the geodesic
toward the n+1-th subspace, so each batch costs one decomposition and no
history is kept. The iterative Frechet-mean solver at the bottom is a
verification oracle for that rule, not part of the online path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainError, InsufficientData, NoConvergence
from .subspaces import (
    ORTHONORMALITY_TOL,
    Array,
    Subspace,
    _is_integer,
    evaluate,
    geodesic,
    principal_system,
)


@dataclass(frozen=True, eq=False)
class MeanSubspaceState:
    """Current mean subspace together with how many subspaces it averages."""

    mean: Subspace
    count: int

    def __post_init__(self) -> None:
        if not _is_integer(self.count):
            raise ConfigError(f"count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        object.__setattr__(self, "count", int(self.count))


def init_mean(first: Subspace) -> MeanSubspaceState:
    """Mean of a single subspace: the subspace itself."""
    return MeanSubspaceState(mean=first, count=1)


def update_mean(state: MeanSubspaceState, new: Subspace) -> MeanSubspaceState:
    """Fold one more subspace into the running mean.

    The updated mean sits at parameter 1/(count+1) on the geodesic from the
    current mean to ``new``, i.e. it moves distance d/(count+1) when ``new``
    is at geodesic distance d. The rule is order-dependent from the third
    subspace on; see :func:`karcher_mean` for the order-free reference.
    """
    if state.mean.basis.shape != new.basis.shape:
        raise DimensionMismatch(
            f"new subspace is ({new.ambient_dim}, {new.sub_dim}), "
            f"mean is ({state.mean.ambient_dim}, {state.mean.sub_dim})"
        )
    new_count = state.count + 1
    flow = geodesic(state.mean, new)
    return MeanSubspaceState(mean=evaluate(flow, 1.0 / new_count), count=new_count)


def log_tangent(base: Subspace, target: Subspace) -> Array:
    """Tangent d x k matrix at ``base`` whose geodesic reaches ``target`` at t=1."""
    system = principal_system(base, target)
    return -(system.tail * system.angles) @ system.a_rot.T


def exp_tangent(base: Subspace, tangent: Array) -> Subspace:
    """Endpoint of the geodesic leaving ``base`` with tangent ``tangent``.

    The tangent must satisfy base^T tangent = 0; its singular values are the
    principal angles travelled.

    Raises:
        DomainError: an entry of base^T tangent exceeds ORTHONORMALITY_TOL in
            magnitude, so ``tangent`` is not a tangent at ``base``.
    """
    t = np.asarray(tangent, dtype=np.float64)
    if t.shape != (base.ambient_dim, base.sub_dim):
        raise DimensionMismatch(f"tangent must be {base.ambient_dim} x {base.sub_dim}, got {t.shape}")
    # base^T tangent is what pulls the endpoint off orthonormality: its Gram
    # matrix departs from the identity by about that much (times a factor of
    # order k), so the contract is checked at the basis tolerance.
    cross = float(abs(base.basis.T @ t).max())
    if not cross <= ORTHONORMALITY_TOL:
        raise DomainError(f"tangent is not orthogonal to the base (max |base^T tangent| {cross:.3e})")
    u, theta, vt = np.linalg.svd(t, full_matrices=False)
    m = base.basis @ ((vt.T * np.cos(theta)) @ vt) + (u * np.sin(theta)) @ vt
    return Subspace(m)


def karcher_mean(
    subspaces: Sequence[Subspace],
    tol: float = 1e-8,
    max_iter: int = 200,
) -> Subspace:
    """Order-free mean by tangent-space fixed point iteration.

    Repeatedly lifts all subspaces to the tangent space at the current
    estimate, steps to the exponential of the average tangent, and stops when
    the average tangent's Frobenius norm drops below ``tol``. Inputs are
    assumed to sit inside a geodesic ball of radius pi/4 so the mean is
    unique.

    Raises:
        NoConvergence: iteration cap reached before meeting ``tol``.
    """
    if len(subspaces) == 0:
        raise InsufficientData("need at least one subspace")
    shape = (subspaces[0].ambient_dim, subspaces[0].sub_dim)
    for s in subspaces[1:]:
        if (s.ambient_dim, s.sub_dim) != shape:
            raise DimensionMismatch("subspaces must share ambient and subspace dimensions")
    est = subspaces[0]
    for _ in range(max_iter):
        mean_tangent = sum(log_tangent(est, s) for s in subspaces) / len(subspaces)
        if float(np.linalg.norm(mean_tangent)) < tol:
            return est
        est = exp_tangent(est, mean_tangent)
    raise NoConvergence(f"tangent mean norm still >= {tol:.0e} after {max_iter} iterations")
