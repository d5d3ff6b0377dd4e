"""Closed-form transform kernel from integrated projections along a geodesic.

For the flow Psi(t) from a source subspace to a target subspace, the kernel is

    G = integral over t in [0, 1] of Psi(t) Psi(t)^T dt,

a symmetric matrix of rank <= 2k with spectrum in [0, 1]. Features multiplied
by G are re-weighted toward directions that stay aligned along the whole path,
which is what makes a source-trained classifier usable on drifted data. The
integral has a closed form in the principal system of the pair: G = S W S^T,
with S = [head, tail] the d x 2k flow frame and W a 2k x 2k weight matrix of
the principal angles alone; the kernel is stored as its frame and angles. Each
angle theta gives W one 2 x 2 block with eigenvalues (1 +- sin(theta)/theta)/2,
in [0, 1] for every theta in [0, pi/2], so no kernel with a spectrum outside
[0, 1] can be built. This module forms no d x d array; the dense G and its
quadrature oracle are built only in ``driftalign.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DimensionViolation
from .subspaces import Array, Subspace, _angles, _bounded_rows, _orthonormal, _read_only, principal_system

# Angles below this use the analytic limits of the integral weights.
SMALL_ANGLE = 1e-8


@dataclass(frozen=True, eq=False)
class TransformKernel:
    """Kernel G = frame @ weights @ frame.T with eigenvalues in [0, 1].

    ``frame`` is d x 2k with orthonormal columns and ``angles`` holds the k
    principal angles, each in [0, pi/2]. The read-only 2k x 2k ``weights``
    are built from the angles, so G has their spectrum, in [0, 1], plus zeros.
    """

    frame: Array
    angles: Array
    weights: Array = field(init=False)

    def __post_init__(self) -> None:
        s, th = _read_only(self.frame, "frame"), _angles(self.angles)
        if s.ndim != 2 or s.shape[1] != 2 * th.shape[0]:
            raise DimensionViolation(f"need a d x 2k frame for k angles, got {s.shape} and {th.shape[0]} angles")
        _orthonormal(s, "kernel frame")
        for name, value in (("frame", s), ("angles", th), ("weights", _integral_weights(th))):
            object.__setattr__(self, name, value)

    @property
    def ambient_dim(self) -> int:
        return int(self.frame.shape[0])


def _integral_weights(angles: Array) -> Array:
    """Read-only weights W = [[diag(cos^2 w), diag(cross w)], [diag(cross w), diag(sin^2 w)]] of the flow integral."""
    # Entrywise antiderivatives over t in [0, 1]:
    #   integral of cos^2(t a)    = 1/2 + sin(2a) / (4a)     -> 1 as a -> 0
    #   integral of cos(ta)sin(ta) = (1 - cos(2a)) / (4a)    -> 0 as a -> 0
    #   integral of sin^2(t a)    = 1/2 - sin(2a) / (4a)     -> 0 as a -> 0
    # The odd cross term enters the kernel with a minus sign: the flow leaves
    # the base along minus the tail.
    small = angles < SMALL_ANGLE
    safe = np.where(small, 1.0, angles)
    quarter = 4.0 * safe
    ratio = np.where(small, 0.5, np.sin(2.0 * safe) / quarter)
    diag = np.concatenate((0.5 + ratio, 0.5 - ratio))
    cross = np.where(small, 0.0, -(1.0 - np.cos(2.0 * safe)) / quarter)
    k = angles.shape[0]
    # W written as its three nonzero diagonals into the flat view of one array.
    n = 2 * k
    weights = np.zeros((n, n))
    flat = weights.reshape(-1)
    flat[:: n + 1] = diag  # (i, i)
    flat[k : n * k : n + 1] = cross  # (i, k + i), i < k
    flat[n * k :: n + 1] = cross  # (k + i, i), i < k
    weights.setflags(write=False)
    return weights


def flow_kernel(source: Subspace, target: Subspace) -> TransformKernel:
    """Closed-form kernel for the flow from ``source`` to ``target``."""
    system = principal_system(source, target)
    return TransformKernel(frame=np.concatenate((system.head, system.tail), axis=1), angles=system.angles)


def apply_transform(x: object, kernel: TransformKernel) -> Array:
    """Right-multiply row-data x (N x d) by the kernel via its d x 2k frame; x passes predict's row checks."""
    a = _bounded_rows(x, "data", 0)
    if a.shape[1] != kernel.ambient_dim:
        raise DimensionMismatch(f"data has {a.shape[1]} columns, kernel expects {kernel.ambient_dim}")
    return ((a @ kernel.frame) @ kernel.weights) @ kernel.frame.T
