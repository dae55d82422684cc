import numpy as np
import pytest
from helpers import random_kernel, random_pure, rel_linf

from biphoton import (
    BiphotonMixture,
    BiphotonPure,
    CorrelatedPairSource,
    Density1D,
    Density2D,
    Mask,
    SinglePhotonMixed,
    SinglePhotonPure,
    SpdcParams,
    ValidationError,
    biphoton_joint,
    biphoton_singles,
    correlated_from_intensity,
    entangled_delta,
    factorizable,
    localized_pair_mixture,
    make_grid,
    reduced_coherence,
    schmidt_spectrum,
    spdc_amplitude,
)

SEED = 20260403


def test_factorizable_outer_product():
    g = make_grid(2, 1.0, 0.0)
    phi1 = SinglePhotonPure(g, np.array([1.0, 0.0]))
    phi2 = SinglePhotonPure(g, np.array([0.0, 1.0]))
    s = factorizable(phi1, phi2)
    assert np.array_equal(s.amp, [[0.0, 1.0], [0.0, 0.0]])


def test_factorizable_is_rank_one():
    rng = np.random.default_rng(SEED)
    g = make_grid(12, 0.4, 0.0)
    s = factorizable(random_pure(rng, g), random_pure(rng, g))
    sp = schmidt_spectrum(s)
    assert np.sum(sp.singular_values > 1e-12) == 1
    assert sp.entropy == pytest.approx(0.0, abs=1e-10)
    assert sp.participation == pytest.approx(1.0, abs=1e-8)


def test_factorizable_joint_density_factorizes():
    rng = np.random.default_rng(SEED)
    g = make_grid(10, 0.3, 0.0)
    phi1, phi2 = random_pure(rng, g), random_pure(rng, g)
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    joint = biphoton_joint(factorizable(phi1, phi2), k1, k2)
    p1 = biphoton_singles(factorizable(phi1, phi2), k1, 1)
    p2 = biphoton_singles(factorizable(phi1, phi2), k2, 2)
    outer = np.outer(p1.values, p2.values)
    assert rel_linf(joint.values, outer) < 1e-12


def test_entangled_delta_diagonal():
    g = make_grid(2, 1.0, 0.0)
    phi = SinglePhotonPure(g, np.array([1.0, 1.0]) / np.sqrt(2))
    s = entangled_delta(phi)
    assert np.allclose(s.amp, np.diag([1, 1]) / np.sqrt(2), rtol=1e-15, atol=0)
    assert np.sum(np.abs(s.amp) ** 2) * g.dx**2 == pytest.approx(1.0, abs=1e-12)


def test_entangled_delta_reduced_coherence_diagonal():
    rng = np.random.default_rng(SEED)
    g = make_grid(9, 0.7, 0.0)
    phi = random_pure(rng, g)
    for arm in (1, 2):
        gamma = reduced_coherence(entangled_delta(phi), arm).coherence
        assert np.allclose(gamma, np.diag(np.abs(phi.amp) ** 2), rtol=1e-12, atol=1e-12)


def test_entangled_delta_uniform_schmidt():
    n = 4
    g = make_grid(n, 1.0, 0.0)
    phi = SinglePhotonPure(g, np.full(n, 1 / np.sqrt(n)))
    sp = schmidt_spectrum(entangled_delta(phi))
    assert np.allclose(sp.singular_values**2, 0.25, atol=1e-12)
    assert sp.entropy == pytest.approx(np.log(4), rel=1e-12)
    assert sp.participation == pytest.approx(4.0, rel=1e-12)


def test_spdc_delta_pump_gives_centered_zeta():
    g = make_grid(33, 0.1, 0.0)
    pump = np.zeros(33)
    pump[16] = 1.0  # the grid center
    b = 0.25
    s = spdc_amplitude(SpdcParams(pump, b), g)
    x = g.points
    expected = np.exp(-(np.add.outer(x**2, x**2)) / (2 * b**2))
    expected /= np.sqrt(np.sum(expected**2) * g.dx**2)
    assert rel_linf(s.amp.real, expected) < 1e-12
    assert np.max(np.abs(s.amp.imag)) < 1e-15


def test_spdc_narrow_limit_matches_entangled_delta():
    rng = np.random.default_rng(SEED)
    g = make_grid(24, 0.2, 0.0)
    pump = rng.random(24) + 0.2
    s = spdc_amplitude(SpdcParams(pump, 1e-3 * g.dx), g)
    ref = entangled_delta(SinglePhotonPure.normalized(g, pump))
    assert rel_linf(s.amp, ref.amp) < 1e-12


def test_spdc_wide_limit_is_factorizable():
    g = make_grid(64, 1e-5, 0.0)
    pump = np.exp(-(g.points**2) / (2 * (6e-5) ** 2))
    s = spdc_amplitude(SpdcParams(pump, 10 * 6e-5), g)
    assert schmidt_spectrum(s).participation < 1.01


def test_spdc_participation_decreases_with_width():
    g = make_grid(64, 1e-5, 0.0)
    pump = np.exp(-(g.points**2) / (2 * (6e-5) ** 2))
    widths = [5e-6, 2e-5, 8e-5, 3.2e-4]
    ks = [schmidt_spectrum(spdc_amplitude(SpdcParams(pump, b), g)).participation
          for b in widths]
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_spdc_rejects_zero_pump():
    g = make_grid(8, 0.5, 0.0)
    with pytest.raises(ValidationError):
        spdc_amplitude(SpdcParams(np.zeros(8), 0.1), g)
    with pytest.raises(ValidationError):
        SpdcParams(np.ones(8), 0.0)


def test_reduced_coherence_factorizable():
    rng = np.random.default_rng(SEED)
    g = make_grid(11, 0.6, 0.0)
    phi1, phi2 = random_pure(rng, g), random_pure(rng, g)
    gamma = reduced_coherence(factorizable(phi1, phi2), 1).coherence
    assert rel_linf(gamma, np.outer(phi1.amp, phi1.amp.conj())) < 1e-12
    gamma2 = reduced_coherence(factorizable(phi1, phi2), 2).coherence
    assert rel_linf(gamma2, np.outer(phi2.amp, phi2.amp.conj())) < 1e-12


def test_reduced_coherence_unit_trace_and_psd():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.3, 0.0)
    for _ in range(5):
        amp = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        s = BiphotonPure.normalized(g, g, amp)
        for arm in (1, 2):
            gamma = reduced_coherence(s, arm).coherence
            assert np.trace(gamma).real * g.dx == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12 * np.max(np.abs(gamma))
            # dimensionless mode weights of the traced-out photon
            assert np.linalg.eigvalsh(gamma).min() * g.dx >= -1e-10


def test_schmidt_entropy_invariant_under_phase_masks():
    rng = np.random.default_rng(SEED)
    g = make_grid(14, 0.5, 0.0)
    amp = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
    s = BiphotonPure.normalized(g, g, amp)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, 14))
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, 14))
    s2 = BiphotonPure(g, g, u[:, None] * s.amp * v[None, :])
    assert schmidt_spectrum(s2).entropy == pytest.approx(schmidt_spectrum(s).entropy, abs=1e-10)


def test_correlated_from_intensity_normalizes():
    g = make_grid(2, 1.0, 0.0)
    c = correlated_from_intensity(np.array([1.0, 1.0]), g)
    assert np.array_equal(c.gamma, [0.5, 0.5])


def test_correlated_rejects_bad_input():
    g = make_grid(3, 1.0, 0.0)
    with pytest.raises(ValidationError):
        correlated_from_intensity(np.array([1.0, -0.1, 0.0]), g)
    with pytest.raises(ValidationError):
        correlated_from_intensity(np.zeros(3), g)


def test_correlated_matches_entangled_singles():
    # gamma = |phi|^2 gives the same one-photon behavior as the entangled source
    rng = np.random.default_rng(SEED)
    g = make_grid(12, 0.4, 0.0)
    phi = random_pure(rng, g)
    c = correlated_from_intensity(np.abs(phi.amp) ** 2, g)
    k = random_kernel(rng, g)
    p_corr = biphoton_singles(c, k, 1)
    p_ent = biphoton_singles(entangled_delta(phi), k, 1)
    assert rel_linf(p_corr.values, p_ent.values) < 1e-12


def test_localized_pair_mixture_point_source():
    g = make_grid(2, 1.0, 0.0)
    mix = localized_pair_mixture(correlated_from_intensity(np.array([1.0, 0.0]), g))
    assert len(mix.components) == 1
    w, s = mix.components[0]
    assert w == pytest.approx(1.0)
    assert np.array_equal(s.amp, [[1.0, 0.0], [0.0, 0.0]])


def test_localized_pair_mixture_two_points():
    g = make_grid(2, 1.0, 0.0)
    mix = localized_pair_mixture(correlated_from_intensity(np.array([0.5, 0.5]), g))
    assert [w for w, _ in mix.components] == pytest.approx([0.5, 0.5])
    for w, s in mix.components:
        assert np.sum(np.abs(s.amp) ** 2) * g.dx**2 == pytest.approx(1.0, abs=1e-12)


def test_constructed_sources_are_normalized():
    rng = np.random.default_rng(SEED)
    g = make_grid(20, 0.15, 0.0)
    phi = random_pure(rng, g)
    assert np.sum(np.abs(phi.amp) ** 2) * g.dx == pytest.approx(1.0, abs=1e-10)
    bi = entangled_delta(phi)
    assert np.sum(np.abs(bi.amp) ** 2) * g.dx**2 == pytest.approx(1.0, abs=1e-10)
    c = correlated_from_intensity(rng.random(20), g)
    assert c.gamma.sum() * g.dx == pytest.approx(1.0, abs=1e-10)
    sp = schmidt_spectrum(bi)
    assert np.sum(sp.singular_values**2) == pytest.approx(1.0, abs=1e-10)


def test_validation_rejects_unnormalized_and_non_hermitian():
    g = make_grid(3, 1.0, 0.0)
    with pytest.raises(ValidationError):
        SinglePhotonPure(g, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        BiphotonPure(g, g, np.ones((3, 3)))
    gamma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    gamma[0, 1] = 0.1  # not mirrored: non-Hermitian
    with pytest.raises(ValidationError):
        SinglePhotonMixed(g, gamma)
    # Hermitian, unit trace, but indefinite
    bad = np.diag([0.6, 0.6, -0.2]).astype(complex)
    with pytest.raises(ValidationError):
        SinglePhotonMixed(g, bad)


def _with_nan(values, fill):
    v = np.array(values)
    if fill == "all":
        v[...] = np.nan
    elif fill == "one":
        v.flat[1] = np.nan
    return v


_NAN_CONSTRUCTORS = {
    "SinglePhotonPure": lambda g, f: SinglePhotonPure(g, _with_nan(np.full(4, 0.5**0.5 + 0j), f)),
    "SinglePhotonMixed": lambda g, f: SinglePhotonMixed(g, _with_nan(np.eye(4) / 2 + 0j, f)),
    "BiphotonPure": lambda g, f: BiphotonPure(g, g, _with_nan(np.eye(4) + 0j, f)),
    "BiphotonMixture": lambda g, f: BiphotonMixture(tuple(
        zip(_with_nan([1.0, 0.0], f), [BiphotonPure(g, g, np.eye(4) + 0j)] * 2))),
    "CorrelatedPairSource": lambda g, f: CorrelatedPairSource(g, _with_nan(np.ones(4) / 2, f)),
    "Mask": lambda g, f: Mask(_with_nan(np.ones(4), f)),
    "Density1D": lambda g, f: Density1D(g, _with_nan(np.ones(4) / 2, f)),
    "Density2D": lambda g, f: Density2D(g, g, _with_nan(np.ones((4, 4)) / 4, f)),
}


@pytest.mark.parametrize("fill", ["all", "one"])
@pytest.mark.parametrize("constructor", sorted(_NAN_CONSTRUCTORS))
def test_invariant_checks_reject_nan(constructor, fill):
    g = make_grid(4, 0.5, 0.0)
    # the same construction without NaN is valid
    _NAN_CONSTRUCTORS[constructor](g, "none")
    with pytest.raises(ValidationError):
        _NAN_CONSTRUCTORS[constructor](g, fill)
