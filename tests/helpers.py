"""Shared test helpers: random states/kernels and analytic oracles."""

from __future__ import annotations

import math

import numpy as np

from biphoton import Grid, Kernel, SinglePhotonPure


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
