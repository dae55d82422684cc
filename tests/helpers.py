"""Shared test helpers: random states/kernels and analytic oracles."""

from __future__ import annotations

import math

import numpy as np

from biphoton import (
    BiphotonPure,
    Density2D,
    Grid,
    Kernel,
    PhysicsError,
    SinglePhotonPure,
    ValidationError,
)
from biphoton.measure import _coherence_density_raw
from biphoton.sampling import CoincidenceCounts


def random_kernel(rng: np.random.Generator, grid: Grid) -> Kernel:
    m = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return Kernel(grid, grid, m)


def random_unitary_kernel(rng: np.random.Generator, grid: Grid) -> Kernel:
    a = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    q, _ = np.linalg.qr(a)
    # H'H * dx_out * dx_in = I, i.e. discretely lossless
    return Kernel(grid, grid, q / grid.dx)


def random_pure(rng: np.random.Generator, grid: Grid) -> SinglePhotonPure:
    a = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    return SinglePhotonPure.normalized(grid, a)


def rel_linf(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| relative to max |b|."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# Dense reference routes: the matrices the library's routes avoid forming.


def reduced_coherence(s: BiphotonPure, arm: int) -> np.ndarray:
    """Coherence matrix of one photon with the other traced out:

        arm 1: gamma(x, x') = sum_x'' amp(x, x'') conj(amp(x', x'')) dx2
        arm 2: gamma(x, x') = sum_x'' amp(x'', x) conj(amp(x'', x')) dx1
    """
    a = s.amp
    if arm == 1:
        return (a @ a.conj().T) * s.grid2.dx
    if arm == 2:
        return (a.T @ a.conj()) * s.grid1.dx
    raise ValueError(arm)


def partially_coherent(gamma: np.ndarray, k: Kernel) -> np.ndarray:
    """Normalized density of a photon with coherence matrix gamma imaged by
    k: the double sum of ``measure._coherence_density_raw``."""
    vals = _coherence_density_raw(gamma, k)
    return vals / (vals.sum() * k.grid_out.dx)


def compose(k2: Kernel, k1: Kernel) -> Kernel:
    """Cascade k1 then k2: H = H2 @ H1 * dx at the intermediate plane."""
    if k1.grid_out != k2.grid_in:
        raise ValidationError("compose: k1.grid_out must equal k2.grid_in")
    return Kernel(k1.grid_in, k2.grid_out, k2.matrix @ k1.matrix * k1.grid_out.dx)


def unitarity_defect(k: Kernel) -> float:
    """Max-entry deviation of H'H * dx_out * dx_in from the identity; zero
    for discretely lossless (energy preserving) square kernels."""
    if k.grid_in.n != k.grid_out.n:
        raise ValidationError("unitarity_defect needs a square kernel")
    h = k.matrix
    m = (h.conj().T @ h) * (k.grid_out.dx * k.grid_in.dx)
    return float(np.max(np.abs(m - np.eye(k.grid_in.n))))


def pearson_chi_square(c: CoincidenceCounts, p: Density2D) -> tuple[float, int]:
    """Pearson chi^2 of the counts against expectations n * p * dx1 * dx2,
    over the cells with non-zero expectation; returns (statistic, degrees
    of freedom = included cells - 1)."""
    expected = (p.values * (p.grid1.dx * p.grid2.dx)).ravel() * c.total
    observed = c.counts.ravel()
    mask = expected > 0
    if observed[~mask].sum() > 0:
        raise PhysicsError("observed counts in zero-probability cells")
    stat = float((((observed[mask] - expected[mask]) ** 2) / expected[mask]).sum())
    return stat, int(mask.sum() - 1)


# ---------------------------------------------------------------------------
# Analytic complex-Gaussian beam oracle (independent of the matrix pipeline).
#
# A field exp(-(a x^2 + b x)) stays in that family through thin Gaussian /
# quadratic-phase elements (coefficients add) and through Fresnel propagation
# over distance d, which maps (a, b) -> (-beta a, -beta b) / (a - beta) with
# beta = i pi / (lambda d).


def gauss_chain_point_psf(x0: float, z0: float, elements, wavelength: float):
    """Intensity FWHM and peak position at the end of a chain applied to a
    point source at transverse x0, a distance z0 before the first element.

    elements: sequence of ("gauss", waist) amplitude apertures
    exp(-x^2/(2 w^2)), ("lens", f) thin lenses, and ("fs", d) free space.
    """
    beta = 1j * math.pi / (wavelength * z0)
    a, b = -beta, 2 * beta * x0
    for kind, val in elements:
        if kind == "gauss":
            a = a + 1 / (2 * val**2)
        elif kind == "lens":
            a = a + 1j * math.pi / (wavelength * val)
        elif kind == "fs":
            beta = 1j * math.pi / (wavelength * val)
            a, b = -beta * a / (a - beta), -beta * b / (a - beta)
        else:
            raise ValueError(kind)
    ra, rb = a.real, b.real
    assert ra > 0, "chain does not end in a confined beam"
    sigma = 1 / (2 * math.sqrt(ra))
    fwhm = 2 * math.sqrt(2 * math.log(2)) * sigma
    return fwhm, -rb / (2 * ra)


def double_gaussian_schmidt(b: float, c: float) -> tuple[float, float]:
    """Schmidt number K and entropy S of the continuum double Gaussian
    exp(-(x - x')^2 / (4 b^2)) exp(-(x + x')^2 / (4 c^2)). Its Schmidt
    weights are (1 - mu^2) mu^(2k) with mu = (c - b) / (c + b) (Law and
    Eberly, PRL 92, 127903 (2004))."""
    mu2 = ((c - b) / (c + b)) ** 2
    k = (c / b + b / c) / 2
    s = -math.log(1 - mu2) - mu2 * math.log(mu2) / (1 - mu2)
    return k, s


# ---------------------------------------------------------------------------
# Demo densities for the frozen tolerance reference (tests/data).

REFERENCE_STRIDE = 8  # joints are stored at every 8th row and column


def demo_densities(name: str) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Summary metrics of one demo run, and its densities keyed
    ``variant::kind``: singles and marginals in full, joints strided."""
    from biphoton import demo_catalog, run_scenario, scenarios

    captured = []
    original = scenarios._compute_variant

    def capture(*args):
        captured.append(original(*args))
        return captured[-1]

    scenarios._compute_variant = capture
    try:
        summary = run_scenario(demo_catalog()[name])
    finally:
        scenarios._compute_variant = original
    arrays = {}
    for r in captured:
        for kind, item in r.items.items():
            if kind == "joint":
                arrays[f"{r.label}::{kind}"] = item.values[::REFERENCE_STRIDE, ::REFERENCE_STRIDE]
            elif kind.startswith(("singles_", "marginal_")):
                arrays[f"{r.label}::{kind}"] = item.values
    return summary.metrics, arrays
