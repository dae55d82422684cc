"""The factorized SPDC build and the structure-aware Schmidt spectrum against
the dense routes they replace, and the double-Gaussian closed form."""

import numpy as np
import pytest
from helpers import double_gaussian_schmidt, random_kernel, random_pure, rel_linf

from biphoton import (
    BiphotonPure,
    SinglePhotonPure,
    SpdcParams,
    ValidationError,
    biphoton_joint,
    biphoton_singles,
    entangled_delta,
    factorizable,
    make_grid,
    marginal_from_joint,
    schmidt_spectrum,
    spdc_amplitude,
)

SEED = 20261018
SVD = np.linalg.svd


def dense_spdc_amplitude(params: SpdcParams, grid) -> BiphotonPure:
    """Reference build: the k-sum of the pump times zeta as an n x n matmul."""
    b, x = params.pm_width, grid.points
    w = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * b**2))  # w[k, i]
    amp = (w * (params.pump * grid.dx)[:, None]).T @ w
    return BiphotonPure.normalized(grid, grid, amp)


def svd_schmidt(s: BiphotonPure):
    """Reference spectrum: plain SVD; returns (sigma, entropy, K)."""
    sigma = SVD(s.amp * np.sqrt(s.grid1.dx * s.grid2.dx), compute_uv=False)
    p = sigma**2 / np.sum(sigma**2)
    nz = p[p > 1e-300]
    return sigma, float(-(nz * np.log(nz)).sum()), float(1.0 / np.sum(p**2))


GRIDS = [(32, 1e-5, 0.0), (33, 1e-5, 0.0), (40, 7e-6, 3.7e-5), (27, 2e-5, -1.3e-4)]
WIDTH_FACTORS = [1e-3, 0.4, 1.0, 4.0, 1e4]  # b / dx; the last is far wider than the grid


def _pump(grid, complex_phase: bool) -> np.ndarray:
    u = (grid.points - grid.center) / (grid.n * grid.dx)
    p = np.exp(-(u / 0.2) ** 2) + 0.3 * np.exp(-((u - 0.15) / 0.05) ** 2)
    return p * np.exp(2j * np.pi * (1.5 * u + 2.0 * u**2)) if complex_phase else p


@pytest.mark.parametrize("complex_phase", [False, True])
@pytest.mark.parametrize("factor", WIDTH_FACTORS)
@pytest.mark.parametrize("n,dx,center", GRIDS)
def test_spdc_build_matches_dense_route(n, dx, center, factor, complex_phase):
    g = make_grid(n, dx, center)
    params = SpdcParams(_pump(g, complex_phase), factor * dx)
    s = spdc_amplitude(params, g)
    ref = dense_spdc_amplitude(params, g)
    assert rel_linf(s.amp, ref.amp) < 1e-10
    assert np.array_equal(s.amp, s.amp.T)
    if not complex_phase:
        assert np.array_equal(s.amp, s.amp.conj().T)

    rng = np.random.default_rng(SEED + n)
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    joint, ref_joint = biphoton_joint(s, k1, k2), biphoton_joint(ref, k1, k2)
    assert rel_linf(joint.values, ref_joint.values) < 1e-10
    for arm in (1, 2):
        assert rel_linf(marginal_from_joint(joint, arm).values,
                        marginal_from_joint(ref_joint, arm).values) < 1e-10
    for arm, k in ((1, k1), (2, k2)):
        assert rel_linf(biphoton_singles(s, k, arm).values,
                        biphoton_singles(ref, k, arm).values) < 1e-10


def _count_svd(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return SVD(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _random_hermitian(rng, g) -> BiphotonPure:
    m = rng.normal(size=(g.n, g.n)) + 1j * rng.normal(size=(g.n, g.n))
    return BiphotonPure.normalized(g, g, m + m.conj().T)  # exactly Hermitian


def _states():
    rng = np.random.default_rng(SEED)
    g = make_grid(48, 1e-5, 2e-5)
    phi = random_pure(rng, g)
    real_phi = SinglePhotonPure.normalized(g, np.abs(phi.amp))
    return g, {
        "spdc-real": (spdc_amplitude(SpdcParams(_pump(g, False), 2e-5), g), False),
        "spdc-complex": (spdc_amplitude(SpdcParams(_pump(g, True), 2e-5), g), True),
        "hermitian-complex": (_random_hermitian(rng, g), False),
        "delta-real": (entangled_delta(real_phi), False),
        "delta-complex": (entangled_delta(phi), False),
        "factorizable": (factorizable(random_pure(rng, g), random_pure(rng, g)), True),
    }


@pytest.mark.parametrize("name", list(_states()[1]))
def test_schmidt_matches_svd_and_picks_route(name, monkeypatch):
    _, states = _states()
    s, takes_svd = states[name]
    sigma, entropy, k = svd_schmidt(s)
    calls = _count_svd(monkeypatch)
    sp = schmidt_spectrum(s)
    assert bool(calls) == takes_svd
    assert np.max(np.abs(sp.singular_values - sigma)) <= 1e-12 * sigma[0]
    assert np.all(np.diff(sp.singular_values) <= 0)
    assert sp.participation == pytest.approx(k, rel=1e-12)
    assert sp.entropy == pytest.approx(entropy, rel=1e-12, abs=1e-14)


def test_schmidt_takes_svd_for_roundoff_hermitian(monkeypatch):
    rng = np.random.default_rng(SEED + 1)
    g = make_grid(16, 0.1, 0.0)
    h = _random_hermitian(rng, g).amp
    h[3, 5] *= 1 + 1e-15  # Hermitian only up to round-off
    s = BiphotonPure.normalized(g, g, h)
    sigma, _, k = svd_schmidt(s)
    calls = _count_svd(monkeypatch)
    sp = schmidt_spectrum(s)
    assert calls
    assert np.max(np.abs(sp.singular_values - sigma)) <= 1e-12 * sigma[0]
    assert sp.participation == pytest.approx(k, rel=1e-12)


# Law and Eberly, PRL 92, 127903 (2004): a Gaussian pump exp(-x^2 / (2 w^2))
# gives the double Gaussian amp ~ exp(-(x - x')^2 / (4 b^2)) exp(-(x + x')^2
# / (4 c^2)), c^2 = 2 w^2 + b^2, whose Schmidt weights are geometric. The
# closed form holds for the continuum: c must stay well inside the grid
# (here c <= 0.28 mm on a 5.12 mm grid) or the truncated tails change the
# spectrum. The lattice resolves b only down to about dx: at b = dx the
# narrow factor is sampled at one point per width and K is off by ~5e-6,
# and below dx the amplitude collapses onto the diagonal, so K saturates at
# the entangled-delta value (sum p^2)^2 / sum p^4 = w sqrt(2 pi) / dx.
DG_N, DG_DX, DG_W = 1024, 5e-6, 160e-6


@pytest.mark.parametrize("b,k_rel", [(5e-6, 1e-4), (10e-6, 1e-12), (20e-6, 1e-12),
                                     (40e-6, 1e-12), (160e-6, 1e-12)])
def test_spdc_schmidt_matches_double_gaussian(b, k_rel):
    g = make_grid(DG_N, DG_DX, 0.0)
    pump = np.exp(-(g.points**2) / (2 * DG_W**2))
    sp = schmidt_spectrum(spdc_amplitude(SpdcParams(pump, b), g))
    k, entropy = double_gaussian_schmidt(b, np.sqrt(2 * DG_W**2 + b**2))
    assert sp.participation == pytest.approx(k, rel=k_rel)
    if b >= 2 * DG_DX:
        assert sp.entropy == pytest.approx(entropy, rel=1e-12)


def test_spdc_schmidt_saturates_below_dx():
    g = make_grid(DG_N, DG_DX, 0.0)
    pump = np.exp(-(g.points**2) / (2 * DG_W**2))
    sp = schmidt_spectrum(spdc_amplitude(SpdcParams(pump, 1e-3 * DG_DX), g))
    assert sp.participation == pytest.approx(DG_W * np.sqrt(2 * np.pi) / DG_DX, rel=1e-12)


@pytest.mark.parametrize("pump,width", [
    ([1.0, np.nan, 1.0, 1.0], 1e-5),
    ([1.0, np.inf, 1.0, 1.0], 1e-5),
    ([1.0, 1.0, 1.0, 1.0], np.inf),
    ([1.0, 1.0, 1.0, 1.0], np.nan),
])
def test_spdc_params_reject_non_finite(pump, width):
    with pytest.raises(ValidationError):
        SpdcParams(np.array(pump), width)


@pytest.mark.parametrize("name", ["delta-real", "delta-complex"])
def test_schmidt_of_colocated_amplitude_takes_no_decomposition(name, monkeypatch):
    _, states = _states()
    s = states[name][0]
    sigma, entropy, k = svd_schmidt(s)

    def refuse(*args, **kwargs):
        raise AssertionError("decomposition called for a diagonal amplitude")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    sp = schmidt_spectrum(s)
    assert np.max(np.abs(sp.singular_values - sigma)) <= 1e-12 * sigma[0]
    assert sp.participation == pytest.approx(k, rel=1e-12)
    assert sp.entropy == pytest.approx(entropy, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n,dx,center", GRIDS)
def test_real_pump_gives_float64_amplitude(n, dx, center, monkeypatch):
    g = make_grid(n, dx, center)
    s = spdc_amplitude(SpdcParams(_pump(g, False), 2 * dx), g)
    assert s.diagonal is None and s.amp.dtype == np.float64
    as_complex = BiphotonPure(g, g, s.amp.astype(complex))
    assert as_complex.amp.dtype == np.complex128
    want = schmidt_spectrum(as_complex)
    calls = _count_svd(monkeypatch)
    got = schmidt_spectrum(s)
    assert not calls
    assert np.max(np.abs(got.singular_values - want.singular_values)) \
        <= 1e-12 * want.singular_values[0]
    assert got.participation == pytest.approx(want.participation, rel=1e-12)
    assert got.entropy == pytest.approx(want.entropy, rel=1e-12, abs=1e-14)


def test_complex_phase_pump_stays_complex_and_takes_svd(monkeypatch):
    g = make_grid(40, 7e-6, 3.7e-5)
    s = spdc_amplitude(SpdcParams(_pump(g, True), 2 * g.dx), g)
    assert s.amp.dtype == np.complex128
    sigma, _, k = svd_schmidt(s)
    calls = _count_svd(monkeypatch)
    sp = schmidt_spectrum(s)
    assert calls
    assert np.max(np.abs(sp.singular_values - sigma)) <= 1e-12 * sigma[0]
    assert sp.participation == pytest.approx(k, rel=1e-12)
