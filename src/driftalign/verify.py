"""Seeded self-verification: geodesic laws, mean laws, kernel vs quadrature.

Each suite draws deterministic random instances, measures the worst deviation
per property, and reports one PropertyCheck per property. Failures name the
instance seed so any single case can be replayed in isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow_kernel import SPECTRUM_TOL, SYMMETRY_TOL, TransformKernel, flow_kernel, quadrature_kernel
from .subspace_mean import exp_tangent, init_mean, karcher_mean, update_mean
from .subspaces import (
    Subspace,
    _flow_bases,
    _flow_frame,
    _is_integer,
    geodesic,
    geodesic_distance,
    random_subspace,
)

# Grids skip combinations that violate the k < d/2 requirement.
GEODESIC_GRID = tuple((d, k) for d, k in itertools.product((10, 20, 40), (2, 3, 5)) if 2 * k < d)
KERNEL_GRID = tuple((d, k) for d, k in itertools.product((10, 30), (1, 3, 5)) if 2 * k < d)

FLOW_ORTHONORMALITY_TOL = 1e-8
ENDPOINT_ANGLE_TOL = 1e-7
RECONSTRUCTION_CHECK_TOL = 1e-9
STEP_SIZE_TOL = 1e-8
FIXED_POINT_TOL = 1e-8
TWO_POINT_TOL = 1e-6
KERNEL_QUADRATURE_TOL = 1e-8
# Simpson subintervals of the quadrature oracle, whose error falls as nodes^-4.
KERNEL_QUADRATURE_NODES = 10_000
ZERO_ANGLE_TOL = 1e-9


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
        if value > self.value:
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
    for name, value in (("seed", seed), ("instances", instances)):
        if not _is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    # Zero instances would report every property as passed without checking it.
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _sine_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of bases a and b, via their sines.

    Numerically exact for tiny angles, where the arccos route loses half the
    digits; used wherever tolerances are tighter than that loss.
    """
    residual = b - a @ (a.T @ b)
    return np.arcsin(np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0))


def random_within_ball(center: Subspace, radius: float, rng: np.random.Generator) -> Subspace:
    """Subspace at a uniform geodesic distance in (0, radius] from ``center``."""
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
        flow = geodesic(a, b)
        # Unvalidated, as in quadrature_kernel: a Subspace would raise at a Gram
        # deviation of 1e-10, before this suite's own tolerance could report it.
        bases = _flow_bases(*_flow_frame(flow), flow.system.angles, ts)
        for basis in bases.transpose(1, 0, 2):
            worst_orth.track(float(np.max(np.abs(basis.T @ basis - np.eye(k)))), idx)
        worst_end.track(float(_sine_angles(bases[:, 0, :], a.basis).max()), idx)
        worst_end.track(float(_sine_angles(bases[:, -1, :], b.basis).max()), idx)
        system = flow.system
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

        state = init_mean(center)
        for _ in range(50):
            state = update_mean(state, center)
        worst_fixed.track(float(_sine_angles(state.mean.basis, center.basis).max()), idx)

        state = init_mean(center)
        for _ in range(idx % 4):
            state = update_mean(state, random_within_ball(center, 0.3, rng))
        new = random_within_ball(center, 0.4, rng)
        delta = geodesic_distance(state.mean, new)
        moved = geodesic_distance(state.mean, update_mean(state, new).mean)
        worst_step.track(abs(moved - delta / (state.count + 1)), idx)

        a = random_within_ball(center, 0.4, rng)
        b = random_within_ball(center, 0.4, rng)
        midpoint = update_mean(init_mean(a), b).mean
        worst_two.track(geodesic_distance(midpoint, karcher_mean([a, b])), idx)

        cloud = [random_within_ball(center, 0.3, rng) for _ in range(8)]
        state = init_mean(cloud[0])
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
    """Closed form vs composite Simpson, symmetry, spectrum, zero-angle case.

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
        closed = closed_form(source, target).g
        numeric = quadrature_kernel(source, target, nodes=KERNEL_QUADRATURE_NODES)
        worst_quad.track(float(np.max(np.abs(closed - numeric))), idx)
        worst_sym.track(float(np.max(np.abs(closed - closed.T))), idx)
        eigs = np.linalg.eigvalsh(closed)
        worst_spec.track(max(float(-eigs[0]), float(eigs[-1] - 1.0), 0.0), idx)

        rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
        same_span = Subspace(source.basis @ rotation)
        degenerate = closed_form(source, same_span)
        worst_zero.track(float(np.max(np.abs(degenerate.g - source.projector()))), idx)
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
