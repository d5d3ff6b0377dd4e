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

Each suite is a measure of one instance, returning its properties'
deviations, and a table of (property, tolerance). One loop, ``_instances``,
checks the seed and the instance count and runs the measure on every
instance, with a generator seeded by the instance key (seed, offset + index);
the offsets are 0, 1000 and 2000 for the geodesic, mean and kernel suites.
Each property reports the worst deviation over its instances: the largest,
or the first NaN, which no later value replaces; a tie keeps the first
instance. A failure names its worst instance's key, so
``np.random.default_rng(key)`` replays that case in isolation. Angles are
measured with ``principal_angles``, the first half of ``principal_system``
(``subspaces._angle_factors``): arcsin of the sines where sin^2 <= 1/2 and
arccos of the cosines elsewhere, so it is accurate to rounding at 0 and at
pi/2, and the mean laws are held near rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
from .flow_kernel import TransformKernel, flow_kernel
from .subspaces import (
    ORTHONORMALITY_TOL,
    Array,
    Subspace,
    _angle_factors,
    _bounded_rows,
    _check_half_dim,
    _check_pair,
    _count,
    _flow_bases,
    _gram_deviation,
    _rank,
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
SYMMETRY_TOL = 1e-12
SPECTRUM_TOL = 1e-9
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
    a = _bounded_rows(m, "matrix", 1)
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
    t = _bounded_rows(tangent, "tangent", 1)
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
    bases = _flow_bases(system.head, system.tail, system.angles, 0.5 * (x + 1.0))
    for j in range(KERNEL_QUADRATURE_NODES):
        Subspace(bases[:, j, :])
    scaled = (bases * root_weights[:, None]).reshape(bases.shape[0], -1)
    g = scaled @ scaled.T
    _check_unit_spectrum(g, "quadrature kernel")
    return g


def _check_unit_spectrum(m: Array, what: str) -> None:
    """NumericalHealthError naming ``what`` unless m is symmetric and its eigenvalues lie in [0, 1]."""
    asym = float(abs(m - m.T).max())
    if not asym <= SYMMETRY_TOL:
        raise NumericalHealthError(f"{what} asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -SPECTRUM_TOL or eigs[-1] > 1.0 + SPECTRUM_TOL:
        raise NumericalHealthError(f"{what} spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] leaves [0, 1]")


def _dense_kernel(kernel: TransformKernel) -> Array:
    """The kernel's dense d x d matrix G = frame @ weights @ frame.T."""
    return (kernel.frame @ kernel.weights) @ kernel.frame.T


@dataclass
class PropertyCheck:
    """Outcome of one verified property across all its instances."""

    name: str
    passed: bool
    detail: str


def _instances(seed: int, instances: int, offset: int, measure: Callable[[int, np.random.Generator], tuple]) -> list:
    """``measure(idx, rng)`` of every instance, its generator seeded with the key (seed, offset + idx).

    ConfigError unless seed is an integer >= 0 and instances an integer >= 1.
    """
    _count("seed", seed, 0)
    # Zero instances would report every property as passed without checking it.
    _count("instances", instances, 1)
    return [measure(idx, np.random.default_rng((seed, offset + idx))) for idx in range(instances)]


def _worst(deviations: Iterable[float]) -> tuple[float, int]:
    """The worst deviation and its index: 0.0 and -1 until a larger value or a NaN replaces it.

    A NaN is recorded, so that the check fails on it, and then kept: no later
    value replaces a NaN worst. A tie keeps the first index.
    """
    value, index = 0.0, -1
    for idx, deviation in enumerate(deviations):
        if not deviation <= value and not math.isnan(value):
            value, index = float(deviation), idx
    return value, index


def _checks(seed: int, offset: int, table: Sequence[tuple[str, float]], rows: Sequence[tuple]) -> list[PropertyCheck]:
    """One PropertyCheck per (name, tolerance) of ``table``, from that column of the instances' deviations.

    A failure names the key its worst instance was drawn from, which replays it.
    """
    checks = []
    for (name, tol), column in zip(table, zip(*rows)):
        value, index = _worst(column)
        detail = f"worst {value:.3e} vs tolerance {tol:.0e}"
        if not value <= tol:
            detail += f" at instance seed ({seed}, {offset + index})"
        checks.append(PropertyCheck(name=name, passed=value <= tol, detail=detail))
    return checks


def random_within_ball(center: Subspace, radius: float, rng: np.random.Generator) -> Subspace:
    """Subspace at a geodesic distance drawn uniformly from [0.1 * radius, radius) from ``center``."""
    raw = rng.standard_normal((center.ambient_dim, center.sub_dim))
    tangent = raw - center.basis @ (center.basis.T @ raw)
    norm = float(np.linalg.norm(tangent))
    distance = radius * rng.uniform(0.1, 1.0)
    return exp_tangent(center, tangent * (distance / norm))


def geodesic_suite(seed: int = 0, instances: int = 200) -> list[PropertyCheck]:
    """Orthonormality along the flow, endpoint recovery, reconstruction."""

    def measure(idx: int, rng: np.random.Generator) -> tuple[float, float, float]:
        d, k = GEODESIC_GRID[idx % len(GEODESIC_GRID)]
        a = random_subspace(d, k, rng)
        b = random_subspace(d, k, rng)
        system = principal_system(a, b)
        # Unvalidated, as in quadrature_kernel: a Subspace would raise at a Gram
        # deviation of 1e-10, before this suite's own tolerance could report it.
        bases = _flow_bases(system.head, system.tail, system.angles, np.array((0.0, 0.25, 0.5, 0.75, 1.0)))
        ends = []
        for basis, end in ((bases[:, 0, :], a), (bases[:, -1, :], b)):
            try:  # a basis off orthonormal can overshoot a cosine: a failed property, not an error
                ends.append(float(_angle_factors(basis, end.basis)[0].max()))
            except NumericalHealthError:
                ends.append(math.nan)
        cos_part = (system.a_rot * np.cos(system.angles)) @ system.b_rot.T
        sin_part = (system.tail * np.sin(system.angles)) @ system.b_rot.T
        ab = a.basis.T @ b.basis
        recon = max(
            float(np.max(np.abs(ab - cos_part))),
            float(np.max(np.abs(b.basis - a.basis @ ab + sin_part))),
        )
        return _worst(map(_gram_deviation, bases.transpose(1, 0, 2)))[0], _worst(ends)[0], recon

    return _checks(seed, 0, (
        ("geodesic_orthonormal_along_flow", FLOW_ORTHONORMALITY_TOL),
        ("geodesic_endpoint_recovery", ENDPOINT_ANGLE_TOL),
        ("shared_factor_reconstruction", RECONSTRUCTION_CHECK_TOL),
    ), _instances(seed, instances, 0, measure))


def mean_suite(seed: int = 0, instances: int = 20) -> list[PropertyCheck]:
    """Fixed point, step-size law, two-point midpoint, deviation vs Karcher."""

    def measure(idx: int, rng: np.random.Generator) -> tuple[float, float, float, float, float]:
        d, k = (10, 3) if idx % 2 == 0 else (16, 4)
        center = random_subspace(d, k, rng)

        mean = center
        for count in range(1, 51):
            mean = update_mean(mean, count, center)
        fixed = float(principal_angles(mean, center).max())

        mean = center
        count = 1 + idx % 4
        for folded in range(1, count):
            mean = update_mean(mean, folded, random_within_ball(center, 0.3, rng))
        new = random_within_ball(center, 0.4, rng)
        delta = geodesic_distance(mean, new)
        moved = geodesic_distance(mean, update_mean(mean, count, new))
        step = abs(moved - delta / (count + 1))

        a = random_within_ball(center, 0.4, rng)
        b = random_within_ball(center, 0.4, rng)
        midpoint = update_mean(a, 1, b)
        two = geodesic_distance(midpoint, karcher_mean([a, b]))

        cloud = [random_within_ball(center, 0.3, rng) for _ in range(8)]
        mean = cloud[0]
        for count, s in enumerate(cloud[1:], start=1):
            mean = update_mean(mean, count, s)
        dev = geodesic_distance(mean, karcher_mean(cloud))
        diameter = max(geodesic_distance(p, q) for p, q in itertools.combinations(cloud, 2))
        return fixed, step, two, dev, dev - diameter

    rows = _instances(seed, instances, 1000, measure)
    checks = _checks(seed, 1000, (
        ("mean_fixed_point", FIXED_POINT_TOL),
        ("mean_step_size_law", STEP_SIZE_TOL),
        ("mean_two_point_midpoint", TWO_POINT_TOL),
    ), rows)
    # The online mean is order-dependent; it is only required to stay near the
    # order-free mean, bounded by the cloud diameter. The measured value is
    # reported so regressions are visible, and a failure names the instance
    # of the first NaN or the largest excess.
    deviation = _worst(row[3] for row in rows)[0]
    excess, index = _worst(row[4] for row in rows)
    passed = bool(np.isfinite(deviation) and excess <= 0.0)
    detail = f"max deviation {deviation:.3e} (must stay below cloud diameter)"
    if not passed:
        detail += f" at instance seed ({seed}, {1000 + index})"
    return checks + [PropertyCheck(name="mean_deviation_vs_karcher", passed=passed, detail=detail)]


def flip_cross_sign(kernel: TransformKernel) -> Array:
    """The dense G of ``kernel`` with its odd cross term's sign flipped: the fault the suite must catch.

    Negating the two off-diagonal blocks of the weights is exact, and it keeps
    each 2 x 2 block's spectrum, so the result is still a valid kernel matrix.
    """
    k = kernel.angles.shape[0]
    weights = kernel.weights.copy()
    weights[:k, k:] *= -1.0
    weights[k:, :k] *= -1.0
    return (kernel.frame @ weights) @ kernel.frame.T


def kernel_suite(seed: int = 0, instances: int = 50, flip_cross: bool = False) -> list[PropertyCheck]:
    """Closed form vs Gauss-Legendre quadrature, symmetry, spectrum, zero-angle case.

    ``flip_cross=True`` checks :func:`flip_cross_sign` of every closed-form
    kernel instead, so the quadrature comparison must fail.
    """

    dense = flip_cross_sign if flip_cross else _dense_kernel

    def measure(idx: int, rng: np.random.Generator) -> tuple[float, float, float, float]:
        d, k = KERNEL_GRID[idx % len(KERNEL_GRID)]
        source = random_subspace(d, k, rng)
        target = random_subspace(d, k, rng)
        closed = dense(flow_kernel(source, target))
        numeric = quadrature_kernel(source, target)
        eigs = np.linalg.eigvalsh(closed)
        rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
        degenerate = dense(flow_kernel(source, Subspace(source.basis @ rotation)))
        return (
            float(np.max(np.abs(closed - numeric))),
            float(np.max(np.abs(closed - closed.T))),
            max(float(-eigs[0]), float(eigs[-1] - 1.0), 0.0),
            float(np.max(np.abs(degenerate - source.basis @ source.basis.T))),
        )

    return _checks(seed, 2000, (
        ("kernel_matches_quadrature", KERNEL_QUADRATURE_TOL),
        ("kernel_symmetry", SYMMETRY_TOL),
        ("kernel_spectrum_bounds", SPECTRUM_TOL),
        ("kernel_zero_angle_projector", ZERO_ANGLE_TOL),
    ), _instances(seed, instances, 2000, measure))


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
