"""Seeded self-verification: geodesic laws, mean laws, kernel vs quadrature.

This module owns the oracles that check the online path and are not part of
it: the angle measures ``principal_angles`` and ``geodesic_distance``, the
iterative order-free mean (``karcher_mean`` with its tangent maps
``log_tangent`` and ``exp_tangent``), the Gauss-Legendre quadrature kernel
(``quadrature_kernel``), and the random-subspace helpers ``orthonormalize``
and ``random_subspace``. ``log_tangent`` is the closed-form Grassmann
logarithm, one solve and one k-column SVD, defined while every principal
angle is below pi/2; it and ``karcher_mean`` never call ``principal_system``,
so the mean the running mean is checked against is computed independently of
the online path. They, and the dense d x d kernels and projectors the
suites compare, are built here and nowhere in the library modules; the
package does not import this module, so ``import driftalign`` loads none of
it.

Each suite draws deterministic random instances, measures the worst deviation
per property, and reports one PropertyCheck per property. Failures name the
instance seed so any single case can be replayed in isolation. Angles are
measured with ``principal_angles``, the first half of ``principal_system``
(``subspaces._angle_factors``): arcsin of the sines where sin^2 <= 1/2 and
arccos of the cosines elsewhere, so it is accurate to rounding at 0 and at
pi/2, and the mean laws are held near rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NoConvergence,
    NumericalHealthError,
    RankDeficient,
)
from .flow_kernel import SPECTRUM_TOL, SYMMETRY_TOL, TransformKernel, _check_unit_spectrum, flow_kernel
from .subspaces import (
    ORTHONORMALITY_TOL,
    Array,
    MeanSubspaceState,
    Subspace,
    _angle_factors,
    _check_half_dim,
    _check_pair,
    _count,
    _flow_bases,
    _flow_frame,
    _gram_deviation,
    _rank,
    _rows,
    _signed_qr,
    principal_system,
    update_mean,
)

# Grids skip combinations that violate the k < d/2 requirement.
GEODESIC_GRID = tuple((d, k) for d, k in itertools.product((10, 20, 40), (2, 3, 5)) if 2 * k < d)
KERNEL_GRID = tuple((d, k) for d, k in itertools.product((10, 30), (1, 3, 5)) if 2 * k < d)

FLOW_ORTHONORMALITY_TOL = 1e-8
ENDPOINT_ANGLE_TOL = 1e-7
RECONSTRUCTION_CHECK_TOL = 1e-9
FIXED_POINT_TOL = 1e-8
# The step-size law and the two-point midpoint are exact, and principal_angles
# resolves angles near 0 to rounding, so both are held near rounding: seeds
# 0-39 measured at most 1.9e-16 and 5.0e-15.
STEP_SIZE_TOL = 1e-12
TWO_POINT_TOL = 1e-12
KERNEL_QUADRATURE_TOL = 1e-8
# Gauss-Legendre points of the quadrature oracle's one rule. An n-point rule
# is exact for polynomials of degree 2n - 1, and the integrand's trig
# polynomials of frequency <= pi are matched to rounding at 16 points.
KERNEL_QUADRATURE_NODES = 16
ZERO_ANGLE_TOL = 1e-9
# karcher_mean stops once the average tangent's Frobenius norm is below
# KARCHER_TOL, and raises NoConvergence after KARCHER_MAX_ITER iterations.
# Both are read at call time.
KARCHER_TOL = 1e-8
KARCHER_MAX_ITER = 200


def principal_angles(a: Subspace, b: Subspace) -> Array:
    """Principal angles between two equal-shape subspaces, ascending, in [0, pi/2].

    Accurate at 0 and at pi/2, from one SVD, for any k < d; ``principal_system(a, b).angles`` to the bit.
    """
    _check_pair(a, b)
    return _angle_factors(a.basis, b.basis)[0]


def geodesic_distance(a: Subspace, b: Subspace) -> float:
    """Length of the connecting geodesic: l2 norm of the principal angles."""
    return float(np.linalg.norm(principal_angles(a, b)))


def orthonormalize(m: object) -> Subspace:
    """Orthonormal basis for the column span of a full-rank d x k matrix."""
    a = _rows(m, "matrix", 1)
    d, k = a.shape
    _check_half_dim(d, k)
    sv = np.linalg.svd(a, compute_uv=False)
    if _rank(sv, a.shape, sv[0]) < k:
        raise RankDeficient(f"matrix has numerical rank < {k} (smallest/largest singular value {sv[-1]:.3e}/{sv[0]:.3e})")
    return Subspace(_signed_qr(a))


def random_subspace(d: int, k: int, rng: np.random.Generator) -> Subspace:
    """Random k-dim subspace of R^d drawn from the rotation-invariant law."""
    return orthonormalize(rng.standard_normal((d, k)))


def log_tangent(base: Subspace, target: Subspace) -> Array:
    """Tangent d x k matrix at ``base`` whose geodesic reaches ``target`` at t=1.

    The closed-form Grassmann logarithm (Edelman, Arias & Smith 1998; Absil,
    Mahony & Sepulchre 2004): with C = B^T T, the thin SVD
    (T - B C) C^-1 = U diag(s) V^T gives the tangent U diag(arctan(s)) V^T.
    Its singular values are the principal angles. C^-1 is applied by one
    solve, never formed. The map is defined while every principal angle is
    below pi/2, where C is invertible; at a right angle the geodesic is not
    unique. Near one, C^-1 amplifies rounding by about tan(angle): within
    about 1e-7 of pi/2, B^T times the tangent exceeds ORTHONORMALITY_TOL and
    ``exp_tangent`` rejects it. The mean's inputs, in a pi/4 ball, stay far
    from that. A tiny angle keeps its direction to rounding, where
    ``principal_system`` fills an unresolved opening direction arbitrarily.
    It shares no code with ``principal_system``, so the oracle does not
    inherit a fault of the online path.

    Raises:
        DimensionMismatch: the subspaces have different shapes.
        DomainError: C is exactly singular, so a principal angle is pi/2.
    """
    _check_pair(base, target)
    _check_half_dim(*base.basis.shape)
    b = base.basis
    c = b.T @ target.basis
    try:
        # (T - B C) C^-1 is the transpose of C^-T (T - B C)^T.
        m = np.linalg.solve(c.T, (target.basis - b @ c).T).T
    except np.linalg.LinAlgError:
        raise DomainError("a principal angle is pi/2: the log map is not unique at a right angle") from None
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.arctan(s)) @ vt


def exp_tangent(base: Subspace, tangent: Array) -> Subspace:
    """Endpoint of the geodesic leaving ``base`` with tangent ``tangent``.

    The tangent must satisfy base^T tangent = 0; its singular values are the
    principal angles travelled.

    Raises:
        DomainError: an entry of base^T tangent exceeds ORTHONORMALITY_TOL in
            magnitude, so ``tangent`` is not a tangent at ``base``.
    """
    t = _rows(tangent, "tangent", 1)
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


def karcher_mean(subspaces: Sequence[Subspace]) -> Subspace:
    """Order-free mean by tangent-space fixed point iteration.

    Repeatedly lifts all subspaces to the tangent space at the current
    estimate with the closed-form ``log_tangent``, adds the tangents into one
    d x k buffer, steps to the exponential of their average, and stops when
    the average tangent's Frobenius norm drops below KARCHER_TOL. Inputs are
    assumed to sit inside a geodesic ball of radius pi/4 so the mean is
    unique; that keeps every principal angle to the estimate below pi/2,
    inside the log map's domain. No step calls ``principal_system``.

    Raises:
        NoConvergence: KARCHER_MAX_ITER iterations ran before meeting KARCHER_TOL.
    """
    if len(subspaces) == 0:
        raise InsufficientData("need at least one subspace")
    shape = (subspaces[0].ambient_dim, subspaces[0].sub_dim)
    for s in subspaces[1:]:
        if (s.ambient_dim, s.sub_dim) != shape:
            raise DimensionMismatch("subspaces must share ambient and subspace dimensions")
    est = subspaces[0]
    mean_tangent = np.empty(shape)
    for _ in range(KARCHER_MAX_ITER):
        mean_tangent.fill(0.0)
        for s in subspaces:
            mean_tangent += log_tangent(est, s)
        mean_tangent /= len(subspaces)
        if float(np.linalg.norm(mean_tangent)) < KARCHER_TOL:
            return est
        est = exp_tangent(est, mean_tangent)
    raise NoConvergence(f"tangent mean norm still >= {KARCHER_TOL:.0e} after {KARCHER_MAX_ITER} iterations")


def quadrature_kernel(source: Subspace, target: Subspace) -> Array:
    """Gauss-Legendre approximation of the projection integral, as a dense d x d array.

    The one rule has KERNEL_QUADRATURE_NODES (16) points on [0, 1]. The
    integrand's entries are trig polynomials of frequency at most twice the
    largest principal angle, so at most pi, and 16 points reach rounding.
    The flow is evaluated at every node in one broadcast call, each node's
    basis is checked by constructing a Subspace from it, and the weighted
    sum of Psi Psi^T is one matmul. It
    shares the flow formula with ``evaluate`` and nothing with the closed
    form's 2k x 2k assembly, so an assembly fault cannot hide. The result is
    checked for symmetry and a spectrum in [0, 1]; it is symmetric without any
    symmetrization, since each basis is scaled by the square root of its
    weight and the sum is formed as X @ X.T, which numpy computes with a
    symmetric rank-k update (syrk) that writes both triangles from the same
    products.
    """
    # Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi
    # matrix of the Legendre recurrence, and the weight of each, mapped to
    # [0, 1], is v0^2 for its unit eigenvector v. These weights sum to 1;
    # dividing by their computed sum takes eigh's rounding out of that sum.
    i = np.arange(1.0, KERNEL_QUADRATURE_NODES)
    beta = i / np.sqrt(4.0 * i * i - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    root_weights = np.abs(v[0]) / np.linalg.norm(v[0])
    system = principal_system(source, target)
    head, tail = _flow_frame(system)
    bases = _flow_bases(head, tail, system.angles, 0.5 * (x + 1.0))
    for j in range(KERNEL_QUADRATURE_NODES):
        Subspace(bases[:, j, :])
    scaled = (bases * root_weights[:, None]).reshape(head.shape[0], -1)
    g = scaled @ scaled.T
    _check_unit_spectrum(g, "quadrature kernel")
    return g


def _dense_kernel(kernel: TransformKernel) -> Array:
    """The kernel's dense d x d matrix G = frame @ weights @ frame.T."""
    return (kernel.frame @ kernel.weights) @ kernel.frame.T


@dataclass
class PropertyCheck:
    """Outcome of one verified property across all its instances."""

    name: str
    passed: bool
    detail: str


class _Worst:
    """Tracks the largest observed deviation and where it happened."""

    def __init__(self) -> None:
        self.value = 0.0
        self.index = -1

    def track(self, value: float, index: int) -> None:
        # A NaN deviation is recorded, so that _check fails on it, and then
        # kept: no later value replaces a NaN worst.
        if not value <= self.value and not math.isnan(self.value):
            self.value = float(value)
            self.index = index


def _check(name: str, worst: _Worst, tol: float, seed: int) -> PropertyCheck:
    passed = worst.value <= tol
    detail = f"worst {worst.value:.3e} vs tolerance {tol:.0e}"
    if not passed:
        detail += f" at instance seed ({seed}, {worst.index})"
    return PropertyCheck(name=name, passed=passed, detail=detail)


def _check_settings(seed: int, instances: int) -> None:
    """ConfigError unless seed is an integer >= 0 and instances an integer >= 1."""
    _count("seed", seed, 0)
    # Zero instances would report every property as passed without checking it.
    _count("instances", instances, 1)


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def random_within_ball(center: Subspace, radius: float, rng: np.random.Generator) -> Subspace:
    """Subspace at a geodesic distance drawn uniformly from [0.1 * radius, radius) from ``center``."""
    raw = rng.standard_normal((center.ambient_dim, center.sub_dim))
    tangent = raw - center.basis @ (center.basis.T @ raw)
    norm = float(np.linalg.norm(tangent))
    distance = radius * rng.uniform(0.1, 1.0)
    return exp_tangent(center, tangent * (distance / norm))


def geodesic_suite(seed: int = 0, instances: int = 200) -> list[PropertyCheck]:
    """Orthonormality along the flow, endpoint recovery, reconstruction."""
    _check_settings(seed, instances)
    worst_orth = _Worst()
    worst_end = _Worst()
    worst_recon = _Worst()
    ts = np.array((0.0, 0.25, 0.5, 0.75, 1.0))
    for idx in range(instances):
        d, k = GEODESIC_GRID[idx % len(GEODESIC_GRID)]
        rng = _instance_rng(seed, idx)
        a = random_subspace(d, k, rng)
        b = random_subspace(d, k, rng)
        system = principal_system(a, b)
        # Unvalidated, as in quadrature_kernel: a Subspace would raise at a Gram
        # deviation of 1e-10, before this suite's own tolerance could report it.
        bases = _flow_bases(*_flow_frame(system), system.angles, ts)
        for basis in bases.transpose(1, 0, 2):
            worst_orth.track(_gram_deviation(basis), idx)
        for basis, end in ((bases[:, 0, :], a), (bases[:, -1, :], b)):
            try:  # a basis off orthonormal can overshoot a cosine: a failed property, not an error
                worst_end.track(float(_angle_factors(basis, end.basis)[0].max()), idx)
            except NumericalHealthError:
                worst_end.track(math.nan, idx)
        cos_part = (system.a_rot * np.cos(system.angles)) @ system.b_rot.T
        sin_part = (system.tail * np.sin(system.angles)) @ system.b_rot.T
        ab = a.basis.T @ b.basis
        recon = max(
            float(np.max(np.abs(ab - cos_part))),
            float(np.max(np.abs(b.basis - a.basis @ ab + sin_part))),
        )
        worst_recon.track(recon, idx)
    return [
        _check("geodesic_orthonormal_along_flow", worst_orth, FLOW_ORTHONORMALITY_TOL, seed),
        _check("geodesic_endpoint_recovery", worst_end, ENDPOINT_ANGLE_TOL, seed),
        _check("shared_factor_reconstruction", worst_recon, RECONSTRUCTION_CHECK_TOL, seed),
    ]


def mean_suite(seed: int = 0, instances: int = 20) -> list[PropertyCheck]:
    """Fixed point, step-size law, two-point midpoint, deviation vs Karcher."""
    _check_settings(seed, instances)
    worst_fixed = _Worst()
    worst_step = _Worst()
    worst_two = _Worst()
    deviation = _Worst()
    excess = _Worst()
    for idx in range(instances):
        rng = _instance_rng(seed, 1000 + idx)
        d, k = (10, 3) if idx % 2 == 0 else (16, 4)
        center = random_subspace(d, k, rng)

        state = MeanSubspaceState(center, 1)
        for _ in range(50):
            state = update_mean(state, center)
        worst_fixed.track(float(principal_angles(state.mean, center).max()), idx)

        state = MeanSubspaceState(center, 1)
        for _ in range(idx % 4):
            state = update_mean(state, random_within_ball(center, 0.3, rng))
        new = random_within_ball(center, 0.4, rng)
        delta = geodesic_distance(state.mean, new)
        moved = geodesic_distance(state.mean, update_mean(state, new).mean)
        worst_step.track(abs(moved - delta / (state.count + 1)), idx)

        a = random_within_ball(center, 0.4, rng)
        b = random_within_ball(center, 0.4, rng)
        midpoint = update_mean(MeanSubspaceState(a, 1), b).mean
        worst_two.track(geodesic_distance(midpoint, karcher_mean([a, b])), idx)

        cloud = [random_within_ball(center, 0.3, rng) for _ in range(8)]
        state = MeanSubspaceState(cloud[0], 1)
        for s in cloud[1:]:
            state = update_mean(state, s)
        reference = karcher_mean(cloud)
        dev = geodesic_distance(state.mean, reference)
        diameter = max(geodesic_distance(p, q) for p, q in itertools.combinations(cloud, 2))
        deviation.track(dev, idx)
        excess.track(dev - diameter, idx)
    checks = [
        _check("mean_fixed_point", worst_fixed, FIXED_POINT_TOL, seed),
        _check("mean_step_size_law", worst_step, STEP_SIZE_TOL, seed),
        _check("mean_two_point_midpoint", worst_two, TWO_POINT_TOL, seed),
    ]
    # The online mean is order-dependent; it is only required to stay near the
    # order-free mean, bounded by the cloud diameter. The measured value is
    # reported so regressions are visible.
    bounded = PropertyCheck(
        name="mean_deviation_vs_karcher",
        passed=bool(np.isfinite(deviation.value) and excess.value <= 0.0),
        detail=f"max deviation {deviation.value:.3e} (must stay below cloud diameter)",
    )
    checks.append(bounded)
    return checks


def flip_cross_sign(kernel: TransformKernel) -> TransformKernel:
    """``kernel`` with its odd cross term's sign flipped: the fault the suite must catch.

    Negating the two off-diagonal blocks of the weights is exact, and it keeps
    each 2 x 2 block's spectrum, so the result is still a valid kernel.
    """
    k = kernel.weights.shape[0] // 2
    weights = kernel.weights.copy()
    weights[:k, k:] *= -1.0
    weights[k:, :k] *= -1.0
    return TransformKernel(frame=kernel.frame, weights=weights)


def kernel_suite(seed: int = 0, instances: int = 50, flip_cross: bool = False) -> list[PropertyCheck]:
    """Closed form vs Gauss-Legendre quadrature, symmetry, spectrum, zero-angle case.

    ``flip_cross=True`` checks :func:`flip_cross_sign` of every closed-form
    kernel instead, so the quadrature comparison must fail.
    """
    _check_settings(seed, instances)

    def closed_form(source: Subspace, target: Subspace) -> TransformKernel:
        kernel = flow_kernel(source, target)
        return flip_cross_sign(kernel) if flip_cross else kernel

    worst_quad = _Worst()
    worst_sym = _Worst()
    worst_spec = _Worst()
    worst_zero = _Worst()
    for idx in range(instances):
        d, k = KERNEL_GRID[idx % len(KERNEL_GRID)]
        rng = _instance_rng(seed, 2000 + idx)
        source = random_subspace(d, k, rng)
        target = random_subspace(d, k, rng)
        closed = _dense_kernel(closed_form(source, target))
        numeric = quadrature_kernel(source, target)
        worst_quad.track(float(np.max(np.abs(closed - numeric))), idx)
        worst_sym.track(float(np.max(np.abs(closed - closed.T))), idx)
        eigs = np.linalg.eigvalsh(closed)
        worst_spec.track(max(float(-eigs[0]), float(eigs[-1] - 1.0), 0.0), idx)

        rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
        same_span = Subspace(source.basis @ rotation)
        degenerate = closed_form(source, same_span)
        worst_zero.track(
            float(np.max(np.abs(_dense_kernel(degenerate) - source.basis @ source.basis.T))), idx
        )
    return [
        _check("kernel_matches_quadrature", worst_quad, KERNEL_QUADRATURE_TOL, seed),
        _check("kernel_symmetry", worst_sym, SYMMETRY_TOL, seed),
        _check("kernel_spectrum_bounds", worst_spec, SPECTRUM_TOL, seed),
        _check("kernel_zero_angle_projector", worst_zero, ZERO_ANGLE_TOL, seed),
    ]


def run_all(
    seed: int = 0,
    instances: int | None = None,
    inject_fault: str | None = None,
) -> list[PropertyCheck]:
    """All suites with default or overridden instance counts.

    ``inject_fault="gfk-cross-sign"`` flips the kernel's cross-term sign so
    the quadrature comparison must fail; any other value is rejected, as is a
    negative seed, and an ``instances`` below 1, which would pass every
    property vacuously.
    """
    if inject_fault not in (None, "gfk-cross-sign"):
        raise ConfigError(f"unknown fault {inject_fault!r}")
    count = {} if instances is None else {"instances": instances}
    checks = geodesic_suite(seed, **count)
    checks += mean_suite(seed, **count)
    checks += kernel_suite(seed, **count, flip_cross=inject_fault == "gfk-cross-sign")
    return checks
