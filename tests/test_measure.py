import numpy as np
import pytest
from helpers import random_kernel, random_pure, random_unitary_kernel, rel_linf

from biphoton import (
    Density1D,
    FourierSystem,
    Identity,
    Kernel,
    Mask,
    PhysicsError,
    SinglePhotonMixed,
    SinglePhotonPure,
    ThinLens,
    ValidationError,
    biphoton_joint,
    biphoton_singles,
    chain,
    circulant_matrix,
    correlated_from_intensity,
    correlated_marginal,
    entangled_delta,
    entangled_marginal_closed,
    factorizable,
    image_metrics,
    kernel_of,
    localized_pair_mixture,
    make_grid,
    marginal_from_joint,
    single_coherent,
    single_partially_coherent,
)
from biphoton.sources import BiphotonMixture, BiphotonPure, reduced_coherence

SEED = 20260404


# ---------------------------------------------------------------------------
# Single-photon densities


def test_single_coherent_identity():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.4, 0.0)
    phi = random_pure(rng, g)
    p = single_coherent(phi, kernel_of(Identity(), g))
    assert rel_linf(p.values, np.abs(phi.amp) ** 2) < 1e-12


def test_single_coherent_mask():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.4, 0.0)
    phi = random_pure(rng, g)
    t = rng.random(16)
    p = single_coherent(phi, kernel_of(Mask(t), g))
    expected = np.abs(t * phi.amp) ** 2
    expected /= expected.sum() * g.dx
    assert rel_linf(p.values, expected) < 1e-12


def test_single_coherent_two_slit_fringes():
    # two single-sample slits: the Fourier-plane density is exactly
    # proportional to 1 + cos(2 pi s x2 / (lambda f))
    lam, n, dx = 5.12e-7, 256, 1e-5
    f = n * dx**2 / lam
    g = make_grid(n, dx, 0.0)
    amp = np.zeros(n)
    i1, i2 = 117, 138
    amp[i1] = amp[i2] = 1.0
    phi = SinglePhotonPure.normalized(g, amp)
    p = single_coherent(phi, kernel_of(FourierSystem(f, lam), g))
    s = g.point(i2) - g.point(i1)
    analytic = 1 + np.cos(2 * np.pi * s * g.points / (lam * f))
    analytic /= analytic.sum() * dx
    assert rel_linf(p.values, analytic) < 1e-10
    assert image_metrics(p, (64, 192)).visibility > 0.999


def test_single_coherent_grid_mismatch():
    g1, g2 = make_grid(4, 1.0), make_grid(5, 1.0)
    phi = SinglePhotonPure.normalized(g1, np.ones(4))
    with pytest.raises(ValidationError):
        single_coherent(phi, kernel_of(Identity(), g2))


def test_partially_coherent_recovers_coherent_limit():
    rng = np.random.default_rng(SEED)
    g = make_grid(20, 0.23, 0.0)
    phi = random_pure(rng, g)
    k = random_kernel(rng, g)
    mixed = SinglePhotonMixed(g, np.outer(phi.amp, phi.amp.conj()))
    p_mixed = single_partially_coherent(mixed, k)
    p_pure = single_coherent(phi, k)
    assert rel_linf(p_mixed.values, p_pure.values) < 1e-12


def test_partially_coherent_incoherent_limit():
    rng = np.random.default_rng(SEED)
    g = make_grid(20, 0.23, 0.0)
    weights = rng.random(20)
    weights /= weights.sum() * g.dx
    k = random_kernel(rng, g)
    p = single_partially_coherent(SinglePhotonMixed(g, np.diag(weights).astype(complex)), k)
    expected = (np.abs(k.matrix) ** 2) @ weights * g.dx
    expected /= expected.sum() * g.dx
    assert rel_linf(p.values, expected) < 1e-12


def test_partially_coherent_uniform():
    n = 8
    g = make_grid(n, 0.5, 0.0)
    gamma = np.eye(n) / (n * g.dx)
    p = single_partially_coherent(SinglePhotonMixed(g, gamma), kernel_of(Identity(), g))
    assert np.allclose(p.values, 1 / (n * g.dx), rtol=1e-12)


# ---------------------------------------------------------------------------
# Pure biphoton densities


def test_biphoton_joint_trivial():
    g = make_grid(2, 1.0, 0.0)
    s = entangled_delta(SinglePhotonPure(g, np.array([1.0, 0.0])))
    ident = kernel_of(Identity(), g)
    p = biphoton_joint(s, ident, ident)
    assert np.allclose(p.values, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_biphoton_joint_swap_kernel():
    # hand evaluation of the double sum with a swap in arm 1
    g = make_grid(2, 1.0, 0.0)
    s = entangled_delta(SinglePhotonPure(g, np.array([1.0, 1.0]) / np.sqrt(2)))
    swap = Kernel(g, g, np.array([[0.0, 1.0], [1.0, 0.0]]))
    p = biphoton_joint(s, swap, kernel_of(Identity(), g))
    assert np.allclose(p.values, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


def test_biphoton_singles_factorizable_equals_coherent():
    rng = np.random.default_rng(SEED)
    g = make_grid(14, 0.3, 0.0)
    phi1, phi2 = random_pure(rng, g), random_pure(rng, g)
    k = random_kernel(rng, g)
    p = biphoton_singles(factorizable(phi1, phi2), k, 1)
    assert rel_linf(p.values, single_coherent(phi1, k).values) < 1e-12


def test_biphoton_singles_entangled_incoherent_form():
    # entangled source: singles behave as an incoherent system,
    # p_j ~ sum |phi|^2 |h|^2 dx
    rng = np.random.default_rng(SEED)
    g = make_grid(14, 0.3, 0.0)
    phi = random_pure(rng, g)
    k = random_kernel(rng, g)
    p = biphoton_singles(entangled_delta(phi), k, 1)
    expected = (np.abs(k.matrix) ** 2) @ (np.abs(phi.amp) ** 2) * g.dx
    expected /= expected.sum() * g.dx
    assert rel_linf(p.values, expected) < 1e-12


def test_biphoton_singles_identity_on_entangled():
    rng = np.random.default_rng(SEED)
    g = make_grid(14, 0.3, 0.0)
    phi = random_pure(rng, g)
    p = biphoton_singles(entangled_delta(phi), kernel_of(Identity(), g), 2)
    assert rel_linf(p.values, np.abs(phi.amp) ** 2) < 1e-12


def _two_grid_pair(rng):
    """Random pure pair on arms of different n and dx, and a kernel per arm
    onto a third grid, so a transposed amplitude or swapped dx fails."""
    g1, g2 = make_grid(12, 0.3, 0.0), make_grid(9, 0.7, 0.4)
    out1, out2 = make_grid(7, 0.5, 0.1), make_grid(11, 0.2, -0.3)
    amp = rng.normal(size=(12, 9)) + 1j * rng.normal(size=(12, 9))
    s = BiphotonPure.normalized(g1, g2, amp)
    k1 = Kernel(g1, out1, rng.normal(size=(7, 12)) + 1j * rng.normal(size=(7, 12)))
    k2 = Kernel(g2, out2, rng.normal(size=(11, 9)) + 1j * rng.normal(size=(11, 9)))
    return s, {1: k1, 2: k2}


@pytest.mark.parametrize("arm", [1, 2])
def test_biphoton_singles_matches_reduced_coherence(arm):
    rng = np.random.default_rng(SEED)
    s, kernels = _two_grid_pair(rng)
    k = kernels[arm]
    expected = single_partially_coherent(reduced_coherence(s, arm), k)
    assert rel_linf(biphoton_singles(s, k, arm).values, expected.values) <= 1e-10
    with pytest.raises(ValidationError):
        biphoton_singles(s, kernels[3 - arm], arm)


@pytest.mark.parametrize("arm", [1, 2])
def test_mixture_singles_matches_reduced_coherence(arm):
    # partially coherent imaging is linear in the coherence matrix, so the
    # mixture's singles are those of its weighted reduced coherence
    rng = np.random.default_rng(SEED)
    s, kernels = _two_grid_pair(rng)
    others = [_two_grid_pair(rng)[0] for _ in range(2)]
    mix = BiphotonMixture(((0.5, s), (0.3, others[0]), (0.2, others[1])))
    gamma = sum(w * reduced_coherence(c, arm).coherence for w, c in mix.components)
    k = kernels[arm]
    expected = single_partially_coherent(SinglePhotonMixed(k.grid_in, gamma), k)
    assert rel_linf(biphoton_singles(mix, k, arm).values, expected.values) <= 1e-10


def test_marginal_from_joint_trivial():
    g = make_grid(2, 1.0, 0.0)
    s = entangled_delta(SinglePhotonPure(g, np.array([1.0, 0.0])))
    ident = kernel_of(Identity(), g)
    joint = biphoton_joint(s, ident, ident)
    assert np.allclose(marginal_from_joint(joint, 1).values, [1.0, 0.0], atol=1e-15)


def test_marginal_equals_singles_for_factorizable():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.21, 0.0)
    s = factorizable(random_pure(rng, g), random_pure(rng, g))
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    joint = biphoton_joint(s, k1, k2)
    for arm, k in ((1, k1), (2, k2)):
        pm = marginal_from_joint(joint, arm)
        ps = biphoton_singles(s, k, arm)
        assert np.max(np.abs(pm.values - ps.values)) <= 1e-10 * ps.values.max()


def test_marginal_uniform():
    g = make_grid(4, 0.5, 0.0)
    from biphoton import Density2D

    p = Density2D(g, g, np.full((4, 4), 1 / (4 * 0.5) ** 2))
    m = marginal_from_joint(p, 2)
    assert np.allclose(m.values, 0.5, rtol=1e-12)


# ---------------------------------------------------------------------------
# Entangled closed form


def test_entangled_marginal_lossless_arm_collapses_to_singles():
    rng = np.random.default_rng(SEED)
    g = make_grid(18, 0.26, 0.0)
    phi = random_pure(rng, g)
    k_obs = random_kernel(rng, g)
    k_other = random_unitary_kernel(rng, g)
    pm = entangled_marginal_closed(phi, k_obs, k_other)
    ps = biphoton_singles(entangled_delta(phi), k_obs, 1)
    assert rel_linf(pm.values, ps.values) < 1e-10


def test_entangled_marginal_remote_mask_imprints():
    rng = np.random.default_rng(SEED)
    g = make_grid(18, 0.26, 0.0)
    phi = random_pure(rng, g)
    t = rng.random(18)
    pm = entangled_marginal_closed(phi, kernel_of(Identity(), g), kernel_of(Mask(t), g))
    expected = np.abs(phi.amp) ** 2 * t**2
    expected /= expected.sum() * g.dx
    assert rel_linf(pm.values, expected) < 1e-12


def test_entangled_marginal_closed_vs_brute_force():
    rng = np.random.default_rng(SEED)
    g = make_grid(32, 0.19, 0.0)
    for _ in range(5):
        phi = random_pure(rng, g)
        k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
        closed = entangled_marginal_closed(phi, k_obs=k1, k_other=k2)
        brute = marginal_from_joint(biphoton_joint(entangled_delta(phi), k1, k2), 1)
        assert rel_linf(closed.values, brute.values) <= 1e-9


# ---------------------------------------------------------------------------
# Correlated source closed forms and the mixture oracle


def test_correlated_joint_point_source():
    g = make_grid(2, 1.0, 0.0)
    c = correlated_from_intensity(np.array([1.0, 0.0]), g)
    ident = kernel_of(Identity(), g)
    p = biphoton_joint(c, ident, ident)
    assert np.allclose(p.values, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_correlated_ops_match_mixture_oracle():
    rng = np.random.default_rng(SEED)
    g = make_grid(24, 0.17, 0.0)
    for _ in range(3):
        c = correlated_from_intensity(rng.random(24), g)
        mix = localized_pair_mixture(c)
        k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
        assert rel_linf(biphoton_joint(c, k1, k2).values,
                        biphoton_joint(mix, k1, k2).values) <= 1e-9
        assert rel_linf(biphoton_singles(c, k1, 1).values,
                        biphoton_singles(mix, k1, 1).values) <= 1e-9
        assert rel_linf(correlated_marginal(c, k1, k2).values,
                        marginal_from_joint(biphoton_joint(mix, k1, k2), 1).values) <= 1e-9


def test_correlated_two_slit_shows_no_fringes():
    # no amplitude cross terms: a two-slit emission profile through Fourier
    # systems yields a flat marginal, not cos^2 fringes
    lam, n, dx = 5.12e-7, 128, 1e-5
    f = n * dx**2 / lam
    g = make_grid(n, dx, 0.0)
    gamma = np.zeros(n)
    gamma[54] = gamma[74] = 1.0
    c = correlated_from_intensity(gamma, g)
    kf = kernel_of(FourierSystem(f, lam), g)
    joint = biphoton_joint(c, kf, kf)
    m = marginal_from_joint(joint, 2)
    assert image_metrics(m, (32, 96)).visibility < 1e-6


def test_correlated_singles_examples():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.4, 0.0)
    gamma = rng.random(16)
    c = correlated_from_intensity(gamma, g)
    p = biphoton_singles(c, kernel_of(Identity(), g), 1)
    assert rel_linf(p.values, c.gamma) < 1e-12
    t = rng.random(16)
    p2 = biphoton_singles(c, kernel_of(Mask(t), g), 2)
    expected = c.gamma * t**2
    expected /= expected.sum() * g.dx
    assert rel_linf(p2.values, expected) < 1e-12


def test_correlated_marginal_collapses_for_lossless_and_circulant():
    rng = np.random.default_rng(SEED)
    g = make_grid(20, 0.3, 0.0)
    c = correlated_from_intensity(rng.random(20), g)
    k_obs = random_kernel(rng, g)
    # lossless gating arm: pure-phase thin lens
    k_lens = kernel_of(ThinLens(0.5, 5e-7), g)
    assert np.max(np.abs(correlated_marginal(c, k_obs, k_lens).values
                         - biphoton_singles(c, k_obs, 1).values)) <= \
        1e-10 * biphoton_singles(c, k_obs, 1).values.max()
    # shift-invariant (circulant) gating arm, lossy
    k_circ = Kernel(g, g, circulant_matrix(rng.normal(size=20) + 1j * rng.normal(size=20)))
    assert np.max(np.abs(correlated_marginal(c, k_obs, k_circ).values
                         - biphoton_singles(c, k_obs, 1).values)) <= \
        1e-10 * biphoton_singles(c, k_obs, 1).values.max()


def test_correlated_marginal_remote_mask():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.4, 0.0)
    c = correlated_from_intensity(rng.random(16), g)
    t = rng.random(16)
    p = correlated_marginal(c, kernel_of(Identity(), g), kernel_of(Mask(t), g))
    expected = c.gamma * t**2
    expected /= expected.sum() * g.dx
    assert rel_linf(p.values, expected) < 1e-12


def test_correlated_marginal_fully_absorbing_arm():
    g = make_grid(4, 1.0, 0.0)
    c = correlated_from_intensity(np.array([1.0, 1.0, 0.0, 0.0]), g)
    # gate passes only points where gamma vanishes: zero coincidence rate
    t = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(PhysicsError):
        correlated_marginal(c, kernel_of(Identity(), g), kernel_of(Mask(t), g))


# ---------------------------------------------------------------------------
# Mixtures


def test_mixture_single_component_matches_pure():
    rng = np.random.default_rng(SEED)
    g = make_grid(12, 0.5, 0.0)
    s = entangled_delta(random_pure(rng, g))
    mix = BiphotonMixture(((1.0, s),))
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    assert rel_linf(biphoton_joint(mix, k1, k2).values,
                    biphoton_joint(s, k1, k2).values) < 1e-12
    assert rel_linf(biphoton_singles(mix, k2, 2).values,
                    biphoton_singles(s, k2, 2).values) < 1e-12
    assert rel_linf(marginal_from_joint(biphoton_joint(mix, k1, k2), 2).values,
                    marginal_from_joint(biphoton_joint(s, k1, k2), 2).values) < 1e-12


def test_mixture_blend_visibility_monotone():
    # w * entangled + (1-w) * localized: gated fringe visibility grows with w
    lam, n, dx = 1.0, 64, 1.0
    f = n * dx**2 / lam
    g = make_grid(n, dx, 0.0)
    amp = np.exp(-(g.points**2) / (2 * 12.0**2))
    amp[np.abs(np.abs(g.points) - 8.0) > 0.6] = 0.0  # two single-sample slits
    phi = SinglePhotonPure.normalized(g, amp)
    ent = entangled_delta(phi)
    loc = localized_pair_mixture(correlated_from_intensity(np.abs(phi.amp) ** 2, g))
    pin = np.zeros(n)
    pin[n // 2] = 1.0
    k_other = chain([FourierSystem(f, lam), Mask(pin)], g)
    k_obs = kernel_of(FourierSystem(f, lam), g)
    vis = []
    for w in [0.0, 0.25, 0.5, 0.75, 1.0]:
        comps = tuple([(w, ent)] + [((1 - w) * wi, si) for wi, si in loc.components])
        comps = tuple((wi / sum(c[0] for c in comps), si) for wi, si in comps)
        m = marginal_from_joint(biphoton_joint(BiphotonMixture(comps), k_other, k_obs), 2)
        vis.append(image_metrics(m, (16, 48)).visibility)
    assert all(b > a for a, b in zip(vis, vis[1:]))
    assert vis[0] < 0.05 and vis[-1] > 0.9


def test_mixture_empty_rejected():
    with pytest.raises(ValidationError):
        BiphotonMixture(())


# ---------------------------------------------------------------------------
# Image metrics


def test_image_metrics_cosine_visibility_one():
    g = make_grid(200, 0.1, 0.0)
    v = 1 + np.cos(2 * np.pi * g.points / 2.5)
    p = Density1D(g, v / (v.sum() * g.dx))
    assert image_metrics(p).visibility == pytest.approx(1.0, abs=1e-9)


def test_image_metrics_constant_visibility_zero():
    g = make_grid(50, 0.1, 0.0)
    p = Density1D(g, np.full(50, 1 / (50 * 0.1)))
    assert image_metrics(p).visibility == 0.0


def test_image_metrics_gaussian_fwhm():
    g = make_grid(512, 0.05, 0.0)
    sigma = 1.0  # 20 samples
    v = np.exp(-(g.points**2) / (2 * sigma**2))
    p = Density1D(g, v / (v.sum() * g.dx))
    m = image_metrics(p)
    assert m.fwhm == pytest.approx(2.3548 * sigma, rel=0.02)
    assert m.peak_position == pytest.approx(0.0, abs=g.dx)


def test_image_metrics_errors():
    g = make_grid(10, 1.0, 0.0)
    values = np.zeros(10)
    values[0] = 1.0
    p = Density1D(g, values)
    with pytest.raises(PhysicsError):
        image_metrics(p, (5, 10))  # flat zero there
    with pytest.raises(ValidationError):
        image_metrics(p, (5, 5))
    with pytest.raises(ValidationError):
        image_metrics(p, (-1, 5))


def test_densities_are_normalized():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.35, 0.0)
    phi = random_pure(rng, g)
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    joint = biphoton_joint(entangled_delta(phi), k1, k2)
    assert joint.integral() == pytest.approx(1.0, abs=1e-10)
    assert marginal_from_joint(joint, 1).integral() == pytest.approx(1.0, abs=1e-10)
    assert biphoton_singles(entangled_delta(phi), k1, 1).integral() == \
        pytest.approx(1.0, abs=1e-10)
