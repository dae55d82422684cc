"""Factored kernels: ``chain`` keeps thin-only chains and matched-sampling
Fourier chains as diag(post) F diag(pre) and applies them by scaling and
FFT. Every operation is checked against the dense ``.matrix`` route, which a
factored kernel builds with the dense composition."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import rel_linf

import biphoton
from biphoton import (
    FourierSystem,
    FreeSpace,
    Identity,
    Kernel,
    Mask,
    SinglePhotonPure,
    SpdcParams,
    ThinLens,
    biphoton_joint,
    biphoton_singles,
    chain,
    correlated_from_intensity,
    correlated_marginal,
    entangled_delta,
    make_grid,
    single_coherent,
    spdc_amplitude,
)
from biphoton.optics import MATCHED_PHASE_TOL

SEED = 20261019
LAM = 5e-7
TOL = 1e-12


def _matched_f(grid, delta: float = 0.0) -> float:
    """Focal length with wavelength * f = n dx^2 (1 + delta)."""
    return grid.n * grid.dx**2 * (1 + delta) / LAM


def _delta_bound(n: int) -> float:
    return 2 * MATCHED_PHASE_TOL / (math.pi * n)


def _mask(rng, grid) -> Mask:
    t = rng.uniform(0.2, 1.0, grid.n) * np.exp(1j * rng.uniform(-3, 3, grid.n))
    return Mask(t)


def _fourier_chain(rng, grid, delta: float = 0.0) -> list:
    return [_mask(rng, grid), ThinLens(0.3, LAM),
            FourierSystem(_matched_f(grid, delta), LAM), _mask(rng, grid)]


def _dense(k: Kernel) -> Kernel:
    return Kernel(k.grid_in, k.grid_out, k.matrix)


def _random(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [127, 128, 1024])
def test_factored_operations_match_dense(n):
    rng = np.random.default_rng(SEED + n)
    g = make_grid(n, 2e-6, 3.37e-6)
    k = chain(_fourier_chain(rng, g), g)
    assert k.factored
    h = k.matrix
    assert k.factored  # reading the matrix does not change the route
    cols = 16 if n > 256 else n
    m = _random(rng, (n, cols))
    assert rel_linf(k.dot(m), h @ m) <= TOL
    assert rel_linf(k.dot_t(m.T), m.T @ h.T) <= TOL
    assert rel_linf(k.abs2(), np.abs(h) ** 2) <= TOL
    v = _random(rng, n)
    assert rel_linf(k.apply(v), h @ v * g.dx) <= TOL


def test_thin_only_chain_is_a_scaling():
    rng = np.random.default_rng(SEED)
    g = make_grid(40, 1e-5, -2e-6)
    k = chain([_mask(rng, g), Identity(), ThinLens(0.2, LAM), _mask(rng, g)], g)
    assert k.factored
    h = k.matrix
    assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
    m = _random(rng, (g.n, g.n))
    assert rel_linf(k.dot(m), h @ m) <= TOL
    assert rel_linf(k.dot_t(m), m @ h.T) <= TOL
    assert np.array_equal(k.abs2(), np.abs(h) ** 2)
    empty = chain([], g)
    assert empty.factored and np.array_equal(empty.matrix, np.eye(g.n) / g.dx)


@pytest.mark.parametrize("n", [127, 128])
def test_matched_bound_routes(n):
    rng = np.random.default_rng(SEED)
    g = make_grid(n, 2e-6, 1e-6)
    bound = _delta_bound(n)
    inside = chain(_fourier_chain(rng, g, 0.5 * bound), g)
    assert inside.factored
    m = _random(rng, (n, n))
    # the stated phase budget keeps the FFT route inside the 1e-10 bound
    assert rel_linf(inside.dot(m), inside.matrix @ m) <= 1e-10
    assert not chain(_fourier_chain(rng, g, 2 * bound), g).factored
    assert not chain(_fourier_chain(rng, g, -2 * bound), g).factored


@pytest.mark.parametrize("kind", ["dense", "identity-factored", "dft-factored"])
def test_abs2_is_computed_once(kind):
    rng = np.random.default_rng(SEED + 2)
    g = make_grid(32, 2e-6, 0.0)
    elements = {"dense": [FreeSpace(1e-3, LAM), _mask(rng, g)],
                "identity-factored": [_mask(rng, g), ThinLens(0.2, LAM)],
                "dft-factored": _fourier_chain(rng, g)}[kind]
    k = chain(elements, g)
    assert k.factored == (kind != "dense")
    w = k.abs2()
    assert k.abs2() is w and not w.flags.writeable
    assert rel_linf(w, np.abs(k.matrix) ** 2) <= TOL


def test_other_chains_stay_dense():
    g = make_grid(64, 2e-6, 0.0)
    f = _matched_f(g)
    assert chain([FourierSystem(f, LAM)], g).factored
    assert not chain([FourierSystem(-f, LAM)], g).factored
    assert not chain([FourierSystem(f, LAM), FourierSystem(f, LAM)], g).factored
    assert not chain([FreeSpace(1e-3, LAM), FourierSystem(f, LAM)], g).factored
    assert not chain([FreeSpace(1e-3, LAM)], g).factored


def test_measurements_on_factored_arms_match_dense():
    rng = np.random.default_rng(SEED + 1)
    g = make_grid(96, 2e-6, 1.3e-6)
    k1, k2 = chain(_fourier_chain(rng, g), g), chain([FourierSystem(_matched_f(g), LAM)], g)
    d1, d2 = _dense(k1), _dense(k2)
    x = g.points
    phi = SinglePhotonPure.normalized(g, np.exp(-x**2 / (2 * (12 * g.dx) ** 2) + 2j * x / g.dx))
    pump = np.exp(-x**2 / (2 * (10 * g.dx) ** 2))
    for s in (entangled_delta(phi), spdc_amplitude(SpdcParams(pump, 3 * g.dx), g)):
        assert rel_linf(biphoton_joint(s, k1, k2).values, biphoton_joint(s, d1, d2).values) <= TOL
        for arm, k, d in ((1, k1, d1), (2, k2, d2)):
            assert rel_linf(biphoton_singles(s, k, arm).values,
                            biphoton_singles(s, d, arm).values) <= TOL
    c = correlated_from_intensity(np.abs(phi.amp) ** 2, g)
    assert rel_linf(biphoton_joint(c, k1, k2).values, biphoton_joint(c, d1, d2).values) <= TOL
    assert rel_linf(biphoton_singles(c, k1, 1).values, biphoton_singles(c, d1, 1).values) <= TOL
    assert rel_linf(correlated_marginal(c, k2, k1).values,
                    correlated_marginal(c, d2, d1).values) <= TOL
    assert rel_linf(single_coherent(phi, k1).values, single_coherent(phi, d1).values) <= TOL


def test_fft_module_loads_on_first_use():
    code = "import sys, biphoton; print('numpy.fft' in sys.modules)"
    src = str(Path(biphoton.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
