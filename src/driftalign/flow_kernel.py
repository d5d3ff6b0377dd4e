"""Closed-form transform kernel from integrated projections along a geodesic.

For the flow Psi(t) from a source subspace to a target subspace, the kernel is

    G = integral over t in [0, 1] of Psi(t) Psi(t)^T dt,

a d x d symmetric matrix with spectrum in [0, 1]. Features multiplied by G are
re-weighted toward directions that stay aligned along the whole path, which is
what makes a source-trained classifier usable on drifted data. The integral
has a closed form in the principal system of the pair; the composite Simpson
rule below exists only to verify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionViolation
from .subspaces import (
    ORTHONORMALITY_TOL,
    Array,
    GeodesicFlow,
    Subspace,
    _flow_bases,
    _flow_frame,
    principal_system,
)

# Angles below this use the analytic limits of the integral weights.
SMALL_ANGLE = 1e-8
# Allowed asymmetry after explicit symmetrization.
SYMMETRY_TOL = 1e-12
# Allowed spectrum overshoot outside [0, 1].
SPECTRUM_TOL = 1e-9
# Flow evaluations per broadcast chunk in quadrature_kernel. Even, so chunks
# start on even nodes; small, so a chunk's d x m x k arrays stay below the
# memory the rest of the verify path already holds at its peak.
QUADRATURE_CHUNK = 16


@dataclass(frozen=True, eq=False)
class TransformKernel:
    """Symmetric d x d kernel with eigenvalues in [0, 1]."""

    g: Array
    source_sub_dim: int

    def __post_init__(self) -> None:
        m = np.asarray(self.g, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionViolation(f"kernel must be square, got shape {m.shape}")
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"kernel asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -SPECTRUM_TOL or eigs[-1] > 1.0 + SPECTRUM_TOL:
            raise ValueError(f"kernel spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] leaves [0, 1]")
        out = np.array(m)
        out.setflags(write=False)
        object.__setattr__(self, "g", out)
        object.__setattr__(self, "source_sub_dim", int(self.source_sub_dim))

    @property
    def ambient_dim(self) -> int:
        return int(self.g.shape[0])


def _integral_weights(angles: Array, cross_sign: float) -> tuple[Array, Array, Array]:
    # Entrywise antiderivatives over t in [0, 1]:
    #   integral of cos^2(t a)    = 1/2 + sin(2a) / (4a)     -> 1 as a -> 0
    #   integral of cos(ta)sin(ta) = (1 - cos(2a)) / (4a)    -> 0 as a -> 0
    #   integral of sin^2(t a)    = 1/2 - sin(2a) / (4a)     -> 0 as a -> 0
    small = angles < SMALL_ANGLE
    safe = np.where(small, 1.0, angles)
    w_cos = np.where(small, 1.0, 0.5 + np.sin(2.0 * safe) / (4.0 * safe))
    w_cross = np.where(small, 0.0, cross_sign * (1.0 - np.cos(2.0 * safe)) / (4.0 * safe))
    w_sin = np.where(small, 0.0, 0.5 - np.sin(2.0 * safe) / (4.0 * safe))
    return w_cos, w_cross, w_sin


def flow_kernel(
    source: Subspace,
    source_complement: Subspace,
    target: Subspace,
    *,
    cross_sign: float = -1.0,
) -> TransformKernel:
    """Closed-form kernel for the flow from ``source`` to ``target``.

    ``cross_sign`` scales the odd cross block of the integral; -1.0 is the
    correct value and the parameter exists only so the verification suite can
    inject a controlled fault.
    """
    system = principal_system(source, target, source_complement)
    k = source.sub_dim
    w_cos, w_cross, w_sin = _integral_weights(system.angles, cross_sign)
    head = source.basis @ system.a_rot
    tail = source_complement.basis @ system.complement_rot[:, :k]
    stacked = np.hstack([head, tail])
    weights = np.zeros((2 * k, 2 * k))
    idx = np.arange(k)
    weights[idx, idx] = w_cos
    weights[idx, k + idx] = w_cross
    weights[k + idx, idx] = w_cross
    weights[k + idx, k + idx] = w_sin
    g = stacked @ weights @ stacked.T
    g = 0.5 * (g + g.T)
    return TransformKernel(g=g, source_sub_dim=k)


def quadrature_kernel(
    source: Subspace,
    source_complement: Subspace,
    target: Subspace,
    nodes: int,
) -> TransformKernel:
    """Composite Simpson approximation of the projection integral.

    ``nodes`` is the (even) number of subintervals; error falls as nodes^-4.
    The flow is evaluated at every node, QUADRATURE_CHUNK nodes at a time:
    each chunk's bases come from one broadcast call, are checked orthonormal
    and finite as a Subspace would be, and are accumulated with one weighted
    matmul. It shares the flow formula with ``evaluate`` and nothing with the
    closed form's 2k x 2k assembly, so an assembly fault cannot hide.
    """
    nodes = int(nodes)
    if nodes < 2 or nodes % 2 != 0:
        raise ValueError(f"nodes must be an even count >= 2, got {nodes}")
    flow = GeodesicFlow(
        base=source,
        base_complement=source_complement,
        system=principal_system(source, target, source_complement),
    )
    head, tail = _flow_frame(flow)
    d, k = head.shape
    acc = np.zeros((d, d))
    h = 1.0 / nodes
    # Simpson weights run 1, 4, 2, 4, ..., 2, 4, 1. The chunk size is even, so
    # every chunk starts on an even node and follows the 2, 4, 2, ... pattern.
    interior = np.tile((2.0, 4.0), QUADRATURE_CHUNK // 2)
    for start in range(0, nodes + 1, QUADRATURE_CHUNK):
        j = np.arange(start, min(start + QUADRATURE_CHUNK, nodes + 1))
        w = interior[: j.size]
        if start == 0 or j[-1] == nodes:
            w = np.where((j == 0) | (j == nodes), 1.0, w)
        bases = _flow_bases(head, tail, flow.system.angles, j * h)
        _check_bases(bases)
        acc += (bases * w[:, None]).reshape(d, -1) @ bases.reshape(d, -1).T
    g = acc * (h / 3.0)
    g = 0.5 * (g + g.T)
    return TransformKernel(g=g, source_sub_dim=k)


def _check_bases(bases: Array) -> None:
    # The checks Subspace applies, for every basis of a d x m x k stack. A
    # non-finite entry makes its column's squared norm, and so dev, non-finite.
    k = bases.shape[2]
    grams = np.matmul(bases.transpose(1, 2, 0), bases.transpose(1, 0, 2))
    dev = float(np.abs(grams - np.eye(k)).max())
    if not math.isfinite(dev):
        raise ValueError("basis has non-finite entries")
    if dev >= ORTHONORMALITY_TOL:
        raise ValueError(f"basis is not orthonormal (max Gram deviation {dev:.3e})")


def apply_transform(x: object, kernel: TransformKernel) -> Array:
    """Right-multiply row-data x (N x d) by the kernel."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != kernel.ambient_dim:
        raise DimensionMismatch(
            f"data has {a.shape[1] if a.ndim == 2 else '?'} columns, kernel expects {kernel.ambient_dim}"
        )
    return a @ kernel.g
