"""Co-located pair states declare amp = diag(d) when they are built and hold
only d. Each measurement of such a state is checked against the same
amplitude given as a dense matrix, which takes the general products, and a
scenario run never forms the n x n amplitude of a co-located state. A
correlated source, a batch of co-located pairs, is checked against those
pairs written out one by one."""

import json

import numpy as np
import pytest
from helpers import random_kernel, rel_linf

from biphoton import (
    BiphotonMixture,
    BiphotonPure,
    FourierSystem,
    Mask,
    SinglePhotonPure,
    SpdcParams,
    ThinLens,
    ValidationError,
    biphoton_joint,
    biphoton_singles,
    chain,
    correlated_from_intensity,
    entangled_delta,
    localized_pair_mixture,
    make_grid,
    marginal_from_joint,
    parse_scenario,
    run_scenario,
    schmidt_spectrum,
    sources,
    spdc_amplitude,
)

SEED = 20261020
LAM = 5e-7
TOL = 1e-12


def _diagonal(rng, g, real: bool) -> np.ndarray:
    d = rng.normal(size=g.n) + (0 if real else 1j * rng.normal(size=g.n))
    return d / np.sqrt(np.sum(np.abs(d) ** 2) * g.dx * g.dx)


def _mask(rng, g) -> Mask:
    return Mask(rng.uniform(0.2, 1.0, g.n) * np.exp(1j * rng.uniform(-3, 3, g.n)))


def _kernel(kind: str, rng, g):
    if kind == "dense":
        return random_kernel(rng, g)
    if kind == "identity-factored":
        return chain([_mask(rng, g), ThinLens(0.3, LAM), _mask(rng, g)], g)
    matched = FourierSystem(g.n * g.dx**2 / LAM, LAM)
    return chain([_mask(rng, g), matched, _mask(rng, g)], g)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("kind", ["dense", "identity-factored", "dft-factored"])
@pytest.mark.parametrize("n", [127, 128])
def test_colocated_matches_dense_diagonal(n, kind, real):
    rng = np.random.default_rng(SEED + n)
    g = make_grid(n, 2e-6, 1.3e-6)
    d = _diagonal(rng, g, real)
    colocated = BiphotonPure.colocated(g, d)
    dense = BiphotonPure(g, g, np.diag(d))
    assert colocated.diagonal is not None and dense.diagonal is None
    k1, k2 = _kernel(kind, rng, g), _kernel(kind, rng, g)
    if kind != "dense":
        assert k1.factored and k2.factored
    # A factored H applies diag(d) with the same arithmetic either way; a
    # dense H scales columns where the BLAS product sums one nonzero term.
    exact = real or kind != "dense"

    def check(got, ref, bitwise):
        if bitwise:
            assert np.array_equal(got, ref)
        else:
            assert rel_linf(got, ref) <= TOL

    joint, ref = biphoton_joint(colocated, k1, k2), biphoton_joint(dense, k1, k2)
    check(joint.values, ref.values, exact)
    for arm, k in ((1, k1), (2, k2)):
        # |H|^2 |d|^2 and the row sums of |H d|^2 round differently.
        check(biphoton_singles(colocated, k, arm).values,
              biphoton_singles(dense, k, arm).values, False)
        check(marginal_from_joint(joint, arm).values, marginal_from_joint(ref, arm).values,
              exact)
    sp, sp_ref = schmidt_spectrum(colocated), schmidt_spectrum(dense)
    check(sp.singular_values, sp_ref.singular_values, real)
    assert sp.participation == pytest.approx(sp_ref.participation, rel=TOL)
    assert sp.entropy == pytest.approx(sp_ref.entropy, rel=TOL)


@pytest.mark.parametrize("kind", ["dense", "identity-factored", "dft-factored"])
@pytest.mark.parametrize("n", [7, 8, 32])
def test_correlated_component_equals_its_localized_expansion(n, kind):
    """A correlated source is one mixture component: the batch of co-located
    pairs that ``localized_pair_mixture`` writes out one by one."""
    rng = np.random.default_rng(SEED + n)
    g = make_grid(n, 2e-6, 1.3e-6)
    gamma = rng.uniform(0.1, 1.0, n)
    gamma[n // 3] = 0.0  # a point that emits nothing has no expanded component
    c = correlated_from_intensity(gamma, g)
    general = BiphotonPure.normalized(g, g, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    pure = [(0.3, BiphotonPure.colocated(g, _diagonal(rng, g, False))), (0.2, general)]
    batch = BiphotonMixture((*pure, (0.5, c)))
    expanded = BiphotonMixture((*pure, *((0.5 * w, s)
                                        for w, s in localized_pair_mixture(c).components)))
    assert len(expanded.components) == 2 + n - 1
    k1, k2 = _kernel(kind, rng, g), _kernel(kind, rng, g)
    assert k1.factored == (kind != "dense")
    assert rel_linf(biphoton_joint(batch, k1, k2).values,
                    biphoton_joint(expanded, k1, k2).values) <= TOL
    for arm, k in ((1, k1), (2, k2)):
        assert rel_linf(biphoton_singles(batch, k, arm).values,
                        biphoton_singles(expanded, k, arm).values) <= TOL


def _document(variants: list, measurements: list) -> dict:
    n, dx = 8, 1e-5
    return {
        "schema_version": 1,
        "grid": {"n": n, "dx": dx, "center": 0.0},
        "wavelength": LAM,
        "variants": variants,
        "arm1": [{"element": "free_space", "distance": 1e-3}],
        "arm2": [{"element": "fourier", "focal_length": n * dx * dx / LAM}],
        "measurements": measurements,
    }


_ENTANGLED = {"type": "entangled_delta", "amplitude": {"profile": "gaussian", "waist": 2e-5}}
_LOCALIZED = {"type": "localized",
              "intensity": {"profile": "array", "values": [0, 1, 2, 3, 3, 2, 1, 0]}}
_DENSITIES = [{"kind": "joint"}, {"kind": "singles_1"}, {"kind": "singles_2"},
              {"kind": "marginal_1"}, {"kind": "marginal_2"}]


def test_runs_never_form_a_colocated_amplitude(monkeypatch):
    dense_amp = sources.BiphotonPure.amp

    def guarded(s):
        if s.diagonal is not None:
            raise AssertionError("n x n amplitude formed for a co-located state")
        return dense_amp.fget(s)

    monkeypatch.setattr(sources.BiphotonPure, "amp", property(guarded))
    mixture = {"type": "mixture", "components": [{"weight": 0.5, "source": _ENTANGLED},
                                                 {"weight": 0.5, "source": _LOCALIZED}]}
    narrow = {"type": "spdc", "pump": {"profile": "gaussian", "waist": 2e-5},
              "pm_width": 1e-8}
    run_scenario(parse_scenario(json.dumps(_document(
        [{"label": "mixed", "source": mixture}], _DENSITIES))))
    summary = run_scenario(parse_scenario(json.dumps(_document(
        [{"label": "delta", "source": _ENTANGLED}, {"label": "narrow", "source": narrow}],
        _DENSITIES + [{"kind": "schmidt"}]))))
    assert summary.metrics["schmidt_K_delta"] > 1
    assert summary.metrics["schmidt_K_narrow"] == pytest.approx(
        summary.metrics["schmidt_K_delta"], rel=1e-12)


@pytest.mark.parametrize("d", [
    np.ones(7) / 8,  # wrong length
    np.ones(8) / 4,  # sum |d|^2 dx^2 = 1/2
    np.r_[np.nan, np.ones(7)],
    np.r_[np.inf, np.ones(7)],
], ids=["length", "norm", "nan", "inf"])
def test_colocated_rejects_invalid_diagonal(d):
    g = make_grid(8, 0.5, 0.0)
    BiphotonPure.colocated(g, np.full(8, 1 / (np.sqrt(8) * g.dx)))  # a valid one
    with pytest.raises(ValidationError):
        BiphotonPure.colocated(g, d)


def test_underflowing_spdc_is_colocated():
    g = make_grid(64, 1e-5, 0.0)
    pump = np.exp(-(g.points**2) / (2 * (8 * g.dx) ** 2)) * np.exp(1j * g.points / (20 * g.dx))
    s = spdc_amplitude(SpdcParams(pump, 1e-3 * g.dx), g)
    assert s.diagonal is not None
    # every pump sample reaches only its own lattice point: the entangled delta
    delta = entangled_delta(SinglePhotonPure.normalized(g, pump))
    assert rel_linf(s.diagonal, delta.diagonal) <= TOL
    assert spdc_amplitude(SpdcParams(pump, 0.1 * g.dx), g).diagonal is None
