"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure (run with -s to see them).

Randomized criteria use one fixed seed per test. The complex-Gaussian beam
oracle in helpers.py provides the analytic diffraction-limit references.
"""

import time

import numpy as np
import pytest
from helpers import (
    gauss_chain_point_psf,
    pearson_chi_square,
    random_kernel,
    random_pure,
    random_unitary_kernel,
    reduced_coherence,
    rel_linf,
    unitarity_defect,
)
from scipy import stats

import biphoton as bp
from biphoton.demos import (
    DX,
    F_FOURIER,
    GATE_APERTURE,
    N,
    REFOCUS,
    SLIT_SEPARATION,
    SLIT_WIDTH,
    SOURCE_WAIST,
    SPDC_WIDTHS,
    WL,
)
from biphoton import profiles

SEED = 20260406

# Densities and coherence matrices produced by the criteria, re-checked in
# criterion 9.
RECORDED: list = []


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Run the full demo catalog once, with outputs, recording wall time."""
    out_root = tmp_path_factory.mktemp("demo-outputs")
    runs = {}
    for name, scenario in bp.demo_catalog().items():
        t0 = time.perf_counter()
        summary = bp.run_scenario(scenario, out_dir=out_root / name)
        runs[name] = (summary, time.perf_counter() - t0)
    return runs


def _ghost_diffraction_parts():
    """The ghost-diffraction configuration rebuilt from the public API."""
    g = bp.make_grid(N, DX, 0.0)
    slit = bp.Mask(profiles.double_slit(g, SLIT_SEPARATION, SLIT_WIDTH))
    gate = bp.Mask(profiles.gaussian_aperture(g, GATE_APERTURE))
    k1 = bp.chain([slit, bp.FourierSystem(F_FOURIER, WL), gate], g)
    k2 = bp.kernel_of(bp.FourierSystem(F_FOURIER, WL), g)
    phi = bp.SinglePhotonPure.normalized(g, profiles.gaussian(g, SOURCE_WAIST))
    return g, phi, k1, k2


def test_criterion_1_factorizable_null():
    rng = np.random.default_rng(SEED)
    g = bp.make_grid(64, 0.21, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        s = bp.factorizable(random_pure(rng, g), random_pure(rng, g))
        k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
        joint = bp.biphoton_joint(s, k1, k2)
        RECORDED.append(joint)
        for arm, k in ((1, k1), (2, k2)):
            pm = bp.marginal_from_joint(joint, arm)
            ps = bp.biphoton_singles(s, k, arm)
            RECORDED.extend([pm, ps])
            worst = max(worst, float(np.max(np.abs(pm.values - ps.values)) / ps.values.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS - factorizable null, max rel |marginal-singles| = "
          f"{worst:.2e} <= 1e-10 over 20 kernel pairs, {elapsed:.1f}s")


def test_criterion_2_entangled_closed_form_equivalence():
    rng = np.random.default_rng(SEED + 1)
    g = bp.make_grid(64, 0.21, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        phi = random_pure(rng, g)
        k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
        closed = bp.entangled_marginal_closed(phi, k_obs=k1, k_other=k2)
        brute = bp.marginal_from_joint(bp.biphoton_joint(bp.entangled_delta(phi), k1, k2), 1)
        RECORDED.extend([closed, brute])
        worst = max(worst, rel_linf(closed.values, brute.values))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2: PASS - entangled closed form vs joint-marginal, rel Linf = "
          f"{worst:.2e} <= 1e-9 over 20 cases, {elapsed:.1f}s")


def test_criterion_3_correlated_closed_form_equivalence():
    rng = np.random.default_rng(SEED + 2)
    g = bp.make_grid(64, 0.21, 0.0)
    worst = 0.0
    for _ in range(20):
        c = bp.correlated_from_intensity(rng.random(64) + 0.01, g)
        mix = bp.localized_pair_mixture(c)
        k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
        pairs = [
            (bp.biphoton_joint(c, k1, k2), bp.biphoton_joint(mix, k1, k2)),
            (bp.biphoton_singles(c, k1, 1), bp.biphoton_singles(mix, k1, 1)),
            (bp.biphoton_singles(c, k2, 2), bp.biphoton_singles(mix, k2, 2)),
            (bp.correlated_marginal(c, k1, k2),
             bp.marginal_from_joint(bp.biphoton_joint(mix, k1, k2), 1)),
            (bp.correlated_marginal(c, k2, k1),
             bp.marginal_from_joint(bp.biphoton_joint(mix, k1, k2), 2)),
        ]
        for closed, oracle in pairs:
            RECORDED.extend([closed, oracle])
            worst = max(worst, rel_linf(closed.values, oracle.values))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 3: PASS - correlated closed forms vs localized mixture, "
          f"rel Linf = {worst:.2e} <= 1e-9 over 20 cases")


def test_criterion_4_lossless_arm_collapse():
    rng = np.random.default_rng(SEED + 3)
    g = bp.make_grid(64, DX, 0.0)
    lossless = [
        random_unitary_kernel(rng, g),
        bp.kernel_of(bp.FourierSystem(64 * DX**2 / WL, WL), g),
        bp.kernel_of(bp.ThinLens(0.03, WL), g),
    ]
    worst = 0.0
    for k_other in lossless:
        defect = unitarity_defect(k_other)
        assert defect <= 1e-8
        phi = random_pure(rng, g)
        k_obs = random_kernel(rng, g)
        pm = bp.marginal_from_joint(
            bp.biphoton_joint(bp.entangled_delta(phi), k_obs, k_other), 1)
        ps = bp.biphoton_singles(bp.entangled_delta(phi), k_obs, 1)
        RECORDED.extend([pm, ps])
        worst = max(worst, float(np.max(np.abs(pm.values - ps.values)) / ps.values.max()))
    assert worst <= 1e-6
    print(f"ACCEPTANCE 4: PASS - lossless gating arm collapse, max rel diff = "
          f"{worst:.2e} <= 1e-6")


def test_criterion_5_isoplanatic_collapse():
    rng = np.random.default_rng(SEED + 4)
    g = bp.make_grid(64, 0.9, 0.0)
    worst = 0.0
    for _ in range(5):
        c = bp.correlated_from_intensity(rng.random(64) + 0.01, g)
        col = rng.normal(size=64) + 1j * rng.normal(size=64)
        k_other = bp.Kernel(g, g, bp.circulant_matrix(col))
        k_obs = random_kernel(rng, g)
        pm = bp.correlated_marginal(c, k_obs, k_other)
        ps = bp.biphoton_singles(c, k_obs, 1)
        RECORDED.extend([pm, ps])
        worst = max(worst, float(np.max(np.abs(pm.values - ps.values))))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 5: PASS - isoplanatic (circulant) gating arm collapse, "
          f"max |marginal-singles| = {worst:.2e} <= 1e-10")


def test_criterion_6_ghost_diffraction_contrast(demo_runs):
    summary, elapsed = demo_runs["ghost-diffraction"]
    vis_ent = summary.metrics["visibility_entangled"]
    vis_corr = summary.metrics["visibility_correlated"]
    assert vis_ent >= 0.9
    assert vis_corr <= 0.05
    assert elapsed < 20.0
    print(f"ACCEPTANCE 6: PASS - ghost diffraction: entangled visibility "
          f"{vis_ent:.4f} >= 0.9, correlated {vis_corr:.2e} <= 0.05, {elapsed:.1f}s")


def test_criterion_7_refocus_sharpness(demo_runs):
    summary, elapsed = demo_runs["refocus"]
    r = REFOCUS

    def oracle(x0, z0, f):
        elements = [("gauss", r["source_waist"]), ("fs", r["s1"]), ("lens", f),
                    ("gauss", r["pupil"]), ("fs", r["s2"])]
        return gauss_chain_point_psf(x0, z0, elements, WL)

    fwhm_limit_a, peak_a = oracle(r["x_a"], r["z_a"], r["f_plane_a"])
    fwhm_limit_b, peak_b = oracle(r["x_b"], r["z_b"], r["f_plane_b"])

    fa = summary.metrics["fwhm_planeA_entangled-planeA"]
    fb = summary.metrics["fwhm_planeB_entangled-planeB"]
    fc = summary.metrics["fwhm_full_correlated-planeA"]
    assert fa <= 1.5 * fwhm_limit_a
    assert fb <= 1.5 * fwhm_limit_b
    assert fc >= 3.0 * fwhm_limit_a
    # the sharp peaks land where the point-image oracle says they should
    assert abs(summary.metrics["peak_position_planeA_entangled-planeA"] - peak_a) <= 2 * DX
    assert abs(summary.metrics["peak_position_planeB_entangled-planeB"] - peak_b) <= 2 * DX
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7: PASS - refocus: plane A fwhm {fa * 1e6:.1f}um <= 1.5x limit "
          f"{fwhm_limit_a * 1e6:.1f}um, plane B {fb * 1e6:.1f}um <= 1.5x "
          f"{fwhm_limit_b * 1e6:.1f}um, correlated {fc * 1e6:.0f}um >= 3x limit, "
          f"{elapsed:.1f}s")


def test_criterion_8_spdc_limit():
    g, phi_pump, k1, k2 = _ghost_diffraction_parts()
    pump = profiles.gaussian(g, SOURCE_WAIST)
    delta_marginal = bp.marginal_from_joint(
        bp.biphoton_joint(bp.entangled_delta(phi_pump), k1, k2), 2)
    RECORDED.append(delta_marginal)
    distances, ks = [], []
    for b in SPDC_WIDTHS:  # descending geometric sweep
        s = bp.spdc_amplitude(bp.SpdcParams(pump, b), g)
        marginal = bp.marginal_from_joint(bp.biphoton_joint(s, k1, k2), 2)
        RECORDED.append(marginal)
        distances.append(rel_linf(marginal.values, delta_marginal.values))
        ks.append(bp.schmidt_spectrum(s).participation)
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    assert distances[-1] < 1e-3
    # K decreases toward 1 as the width grows past the pump width
    assert all(a > b for a, b in zip(ks[::-1], ks[::-1][1:]))
    assert ks[0] < 1.05
    print(f"ACCEPTANCE 8: PASS - SPDC sweep: distances to delta-source marginal "
          f"{', '.join(f'{d:.1e}' for d in distances)} (monotone, final < 1e-3); "
          f"K from {ks[0]:.3f} (widest) to {ks[-1]:.1f} (narrowest)")


def test_criterion_9_normalization_suite():
    rng = np.random.default_rng(SEED + 8)
    # fresh representative batch, in case this test runs alone
    g = bp.make_grid(48, 0.37, 0.0)
    phi = random_pure(rng, g)
    ent = bp.entangled_delta(phi)
    c = bp.correlated_from_intensity(rng.random(48), g)
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    batch = [
        bp.biphoton_joint(ent, k1, k2),
        bp.biphoton_singles(ent, k1, 1),
        bp.marginal_from_joint(bp.biphoton_joint(ent, k1, k2), 2),
        bp.biphoton_joint(c, k1, k2),
        bp.correlated_marginal(c, k1, k2),
        bp.single_coherent(phi, k1),
    ]
    densities = RECORDED + batch
    for d in densities:
        if isinstance(d, bp.Density1D):
            assert abs(d.integral() - 1.0) <= 1e-10
        elif isinstance(d, bp.Density2D):
            assert abs(d.integral() - 1.0) <= 1e-10
    coherences = [reduced_coherence(ent, 1), reduced_coherence(ent, 2),
                  reduced_coherence(bp.factorizable(phi, random_pure(rng, g)), 1)]
    for gamma in coherences:
        assert np.max(np.abs(gamma - gamma.conj().T)) <= 1e-10 * np.max(np.abs(gamma))
        assert np.linalg.eigvalsh(gamma).min() * g.dx >= -1e-10
    print(f"ACCEPTANCE 9: PASS - {len(densities)} densities integrate to 1 within "
          f"1e-10; coherence matrices Hermitian with mode weights >= -1e-10")


def test_criterion_10_sampling_consistency():
    g, phi, k1, k2 = _ghost_diffraction_parts()
    joint = bp.biphoton_joint(bp.entangled_delta(phi), k1, k2)
    counts = bp.sample_joint(joint, 1_000_000, seed=SEED + 9)
    _, _, emp_m2 = bp.empirical_densities(counts)
    analytic_m2 = bp.marginal_from_joint(joint, 2)
    tv = 0.5 * float(np.sum(np.abs(emp_m2.values - analytic_m2.values)) * g.dx)
    stat, dof = pearson_chi_square(counts, joint)
    threshold = stats.chi2.ppf(0.999, dof)
    assert tv <= 0.01
    assert stat <= threshold
    print(f"ACCEPTANCE 10: PASS - 1e6 draws: marginal TV distance {tv:.4f} <= 0.01, "
          f"chi2 {stat:.0f} <= 99.9th pct {threshold:.0f} (dof {dof})")


def test_criterion_11_performance_budget(demo_runs):
    total = sum(elapsed for _, elapsed in demo_runs.values())
    assert total < 180.0
    g = bp.make_grid(512, 5e-6, 0.0)
    phi = bp.SinglePhotonPure.normalized(g, profiles.gaussian(g, 2e-4))
    k1 = bp.kernel_of(bp.FreeSpace(0.05, WL), g)
    k2 = bp.kernel_of(bp.FreeSpace(0.08, WL), g)
    src = bp.entangled_delta(phi)
    t0 = time.perf_counter()
    joint = bp.biphoton_joint(src, k1, k2)
    elapsed = time.perf_counter() - t0
    RECORDED.append(joint)
    assert elapsed < 60.0
    print(f"ACCEPTANCE 11: PASS - demo catalog total {total:.1f}s < 180s; "
          f"n=512 joint {elapsed:.2f}s < 60s")
