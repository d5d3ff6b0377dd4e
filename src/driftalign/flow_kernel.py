"""Closed-form transform kernel from integrated projections along a geodesic.

For the flow Psi(t) from a source subspace to a target subspace, the kernel is

    G = integral over t in [0, 1] of Psi(t) Psi(t)^T dt,

a symmetric matrix of rank <= 2k with spectrum in [0, 1]. Features multiplied
by G are re-weighted toward directions that stay aligned along the whole path,
which is what makes a source-trained classifier usable on drifted data. The
integral has a closed form in the principal system of the pair: G = S W S^T,
with S = [head, tail] the d x 2k flow frame and W a 2k x 2k weight matrix, and
the kernel is stored in that factored form. This module forms no d x d array;
the dense G and its quadrature oracle are built only in ``driftalign.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionViolation, NumericalHealthError
from .subspaces import Array, Subspace, _bounded_rows, _flow_frame, _orthonormal, _read_only, principal_system

# Angles below this use the analytic limits of the integral weights.
SMALL_ANGLE = 1e-8
# Allowed asymmetry of the kernel weights, and of the Gauss-Legendre
# quadrature kernel in driftalign.verify, which is exactly symmetric by
# construction and checked against this bound all the same.
SYMMETRY_TOL = 1e-12
# Allowed spectrum overshoot outside [0, 1].
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TransformKernel:
    """Kernel G = frame @ weights @ frame.T with eigenvalues in [0, 1].

    ``frame`` is d x 2k with orthonormal columns and ``weights`` is a
    symmetric 2k x 2k matrix, so G has the spectrum of ``weights`` plus zeros
    and checking ``weights`` checks G exactly.
    """

    frame: Array
    weights: Array

    def __post_init__(self) -> None:
        s, w = _read_only(self.frame, "frame"), _read_only(self.weights, "weights")
        if s.ndim != 2 or s.shape[1] < 1 or w.shape != (s.shape[1], s.shape[1]):
            raise DimensionViolation(f"need a d x m frame, m >= 1, and m x m weights, got {s.shape} and {w.shape}")
        _orthonormal(s, "kernel frame")
        _check_unit_spectrum(w, "kernel weights")
        object.__setattr__(self, "frame", s)
        object.__setattr__(self, "weights", w)

    @property
    def ambient_dim(self) -> int:
        return int(self.frame.shape[0])


def _check_unit_spectrum(m: Array, what: str) -> None:
    """NumericalHealthError naming ``what`` unless m is symmetric and its eigenvalues lie in [0, 1]."""
    asym = float(abs(m - m.T).max())
    if not asym <= SYMMETRY_TOL:
        raise NumericalHealthError(f"{what} asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -SPECTRUM_TOL or eigs[-1] > 1.0 + SPECTRUM_TOL:
        raise NumericalHealthError(f"{what} spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] leaves [0, 1]")


def _integral_weights(angles: Array) -> tuple[Array, Array]:
    """Diagonal (cos^2 weights, then sin^2 weights) and cross weights of the flow integral."""
    # Entrywise antiderivatives over t in [0, 1]:
    #   integral of cos^2(t a)    = 1/2 + sin(2a) / (4a)     -> 1 as a -> 0
    #   integral of cos(ta)sin(ta) = (1 - cos(2a)) / (4a)    -> 0 as a -> 0
    #   integral of sin^2(t a)    = 1/2 - sin(2a) / (4a)     -> 0 as a -> 0
    # The odd cross term enters the kernel with a minus sign: the flow leaves
    # the base along minus the tail.
    small = angles < SMALL_ANGLE
    safe = np.where(small, 1.0, angles)
    quarter = 4.0 * safe
    ratio = np.sin(2.0 * safe) / quarter
    diag = np.concatenate((0.5 + ratio, 0.5 - ratio))
    cross = -(1.0 - np.cos(2.0 * safe)) / quarter
    k = angles.shape[0]
    diag[:k][small] = 1.0
    diag[k:][small] = 0.0
    cross[small] = 0.0
    return diag, cross


def flow_kernel(source: Subspace, target: Subspace) -> TransformKernel:
    """Closed-form kernel for the flow from ``source`` to ``target``."""
    system = principal_system(source, target)
    diag, cross = _integral_weights(system.angles)
    # W = [[diag(w_cos), diag(w_cross)], [diag(w_cross), diag(w_sin)]], written
    # as its three nonzero diagonals into the flat view of one 2k x 2k array.
    k = cross.shape[0]
    n = 2 * k
    weights = np.zeros((n, n))
    flat = weights.reshape(-1)
    flat[:: n + 1] = diag  # (i, i)
    flat[k : n * k : n + 1] = cross  # (i, k + i), i < k
    flat[n * k :: n + 1] = cross  # (k + i, i), i < k
    return TransformKernel(frame=np.concatenate(_flow_frame(system), axis=1), weights=weights)


def apply_transform(x: object, kernel: TransformKernel) -> Array:
    """Right-multiply row-data x (N x d) by the kernel via its d x 2k frame; x passes predict's row checks."""
    a = _bounded_rows(x, "data")
    if a.shape[1] != kernel.ambient_dim:
        raise DimensionMismatch(f"data has {a.shape[1]} columns, kernel expects {kernel.ambient_dim}")
    return ((a @ kernel.frame) @ kernel.weights) @ kernel.frame.T
