"""Co-located (diagonal) pair amplitudes are applied to kernels by column
scaling, and each scenario variant computes its joint once. The references
here keep the dense H @ A products."""

import json

import numpy as np
import pytest
from helpers import random_kernel, rel_linf

from biphoton import (
    Kernel,
    SinglePhotonPure,
    SpdcParams,
    biphoton_joint,
    biphoton_singles,
    entangled_delta,
    localized_pair_mixture,
    make_grid,
    marginal_from_joint,
    measure,
    parse_scenario,
    run_scenario,
    scenarios,
    spdc_amplitude,
)
from biphoton.cli import main as cli_main
from biphoton.sources import (
    BiphotonMixture,
    BiphotonPure,
    correlated_from_intensity,
)

SEED = 20261018
TOL = 1e-12


def dense_joint(s: BiphotonPure, k1: Kernel, k2: Kernel) -> np.ndarray:
    a = k1.matrix @ s.amp @ k2.matrix.T * (s.grid1.dx * s.grid2.dx)
    v = np.abs(a) ** 2
    return v / (v.sum() * k1.grid_out.dx * k2.grid_out.dx)


def dense_singles(s: BiphotonPure, k: Kernel, arm: int) -> np.ndarray:
    t = k.matrix @ (s.amp if arm == 1 else s.amp.T)
    v = (np.abs(t) ** 2).sum(axis=1)
    return v / (v.sum() * k.grid_out.dx)


def _phi(grid, complex_phase: bool) -> SinglePhotonPure:
    x = grid.points
    a = np.exp(-x**2 / (2 * (grid.n * grid.dx / 6) ** 2)).astype(complex)
    if complex_phase:
        a *= np.exp(1j * (3 * x / (grid.n * grid.dx) + (x / (grid.n * grid.dx)) ** 2))
    return SinglePhotonPure.normalized(grid, a)


def _diagonal_cases():
    g = make_grid(24, 1e-5, 0.0)
    single = np.zeros(g.n)
    single[9] = 1.0
    localized = localized_pair_mixture(correlated_from_intensity(single, g))
    assert len(localized.components) == 1
    pump = np.exp(-g.points**2 / (2 * (6 * g.dx) ** 2))
    return {
        "entangled-real": (entangled_delta(_phi(g, False)), True),
        "entangled-complex": (entangled_delta(_phi(g, True)), False),
        "localized-single": (localized.components[0][1], True),
        "spdc-narrow": (spdc_amplitude(SpdcParams(pump, 1e-3 * g.dx), g), True),
    }


@pytest.mark.parametrize("case", sorted(_diagonal_cases()))
def test_diagonal_route_matches_dense_products(case):
    s, real_diagonal = _diagonal_cases()[case]
    amp = s.amp
    assert np.count_nonzero(amp - np.diag(np.diagonal(amp))) == 0
    assert s.diagonal is not None and np.array_equal(np.diagonal(amp), s.diagonal)
    rng = np.random.default_rng(SEED)
    k1, k2 = random_kernel(rng, s.grid1), random_kernel(rng, s.grid2)
    mix = BiphotonMixture(((1.0, s),))

    ref = dense_joint(s, k1, k2)
    for joint in (biphoton_joint(s, k1, k2), biphoton_joint(mix, k1, k2)):
        assert rel_linf(joint.values, ref) <= TOL
        if real_diagonal:
            # H @ diag(d) and H * d share every product and every sum.
            assert np.array_equal(joint.values, ref)
    for arm, k in ((1, k1), (2, k2)):
        ref_s = dense_singles(s, k, arm)
        assert rel_linf(biphoton_singles(s, k, arm).values, ref_s) <= TOL
        assert rel_linf(biphoton_singles(mix, k, arm).values, ref_s) <= TOL
    joint = biphoton_joint(s, k1, k2)
    for arm, axis, dx in ((1, 1, k2.grid_out.dx), (2, 0, k1.grid_out.dx)):
        ref_m = ref.sum(axis=axis) * dx
        ref_m = ref_m / (ref_m.sum() * (k1 if arm == 1 else k2).grid_out.dx)
        assert rel_linf(marginal_from_joint(joint, arm).values, ref_m) <= TOL
        assert rel_linf(marginal_from_joint(biphoton_joint(mix, k1, k2), arm).values,
                        ref_m) <= TOL


def _dense_cases():
    g1, g2 = make_grid(12, 1e-5, 0.0), make_grid(17, 1e-5, 0.0)
    rect = np.zeros((g1.n, g2.n), dtype=complex)
    rect[np.arange(g1.n), np.arange(g1.n)] = np.linspace(1.0, 2.0, g1.n)
    rect = rect / np.sqrt((np.abs(rect) ** 2).sum() * g1.dx * g2.dx)
    g = make_grid(16, 1e-5, 0.0)
    near = np.asarray(entangled_delta(_phi(g, True)).amp).copy()
    near[3, 11] = 1e-300
    return {
        "unequal-grids": BiphotonPure(g1, g2, rect),
        "tiny-off-diagonal": BiphotonPure(g, g, near),
    }


@pytest.mark.parametrize("case", sorted(_dense_cases()))
def test_dense_route_for_non_diagonal_amplitudes(case):
    s = _dense_cases()[case]
    assert s.diagonal is None
    rng = np.random.default_rng(SEED + 1)
    k1, k2 = random_kernel(rng, s.grid1), random_kernel(rng, s.grid2)
    ref = dense_joint(s, k1, k2)
    assert np.array_equal(biphoton_joint(s, k1, k2).values, ref)
    for arm, k in ((1, k1), (2, k2)):
        assert rel_linf(biphoton_singles(s, k, arm).values, dense_singles(s, k, arm)) <= TOL


def test_localized_components_hold_their_diagonal():
    g = make_grid(16, 1e-5, 0.0)
    mix = localized_pair_mixture(correlated_from_intensity(np.linspace(0.0, 1.0, g.n), g))
    assert len(mix.components) == g.n - 1
    for i, (_, s) in enumerate(mix.components):
        assert s.diagonal.shape == (g.n,)
        assert np.array_equal(s.amp, np.diag(np.eye(g.n)[i + 1]) / g.dx)
    held = BiphotonMixture(tuple((w, BiphotonPure(g, g, s.amp)) for w, s in mix.components))
    assert all(s.diagonal is None for _, s in held.components)
    rng = np.random.default_rng(SEED)
    k1, k2 = random_kernel(rng, g), random_kernel(rng, g)
    assert np.array_equal(biphoton_joint(mix, k1, k2).values, biphoton_joint(held, k1, k2).values)
    assert rel_linf(biphoton_singles(mix, k2, 2).values,
                    biphoton_singles(held, k2, 2).values) <= TOL


# ---------------------------------------------------------------------------
# The runner computes each variant's joint once


def _document(source: dict, measurements: list[dict], arm2=None) -> dict:
    return {
        "schema_version": 1,
        "grid": {"n": 8, "dx": 1e-5, "center": 0.0},
        "wavelength": 5e-7,
        "variants": [{"label": "gated", "source": source}],
        "arm1": [{"element": "free_space", "distance": 1e-3}],
        "arm2": arm2 or [{"element": "free_space", "distance": 2e-3}],
        "measurements": measurements,
    }


_LOCALIZED = {"type": "localized",
              "intensity": {"profile": "array", "values": [0, 1, 2, 3, 3, 2, 1, 0]}}
_ENTANGLED = {"type": "entangled_delta",
              "amplitude": {"profile": "gaussian", "waist": 2e-5}}


def test_mixture_joint_computed_once_per_component(monkeypatch):
    calls = []
    original = measure._joint_raw

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(measure, "_joint_raw", counting)
    source = {"type": "mixture", "components": [{"weight": 0.5, "source": _ENTANGLED},
                                                {"weight": 0.5, "source": _LOCALIZED}]}
    s = parse_scenario(json.dumps(_document(
        source, [{"kind": "joint"}, {"kind": "marginal_1"}, {"kind": "marginal_2"}])))
    k = len(scenarios._build_source(s.effective_variants()[0].source, s.grid).components)
    assert k == 1 + 6
    run_scenario(s)
    assert len(calls) == k


def test_factorizable_runner_densities_match_pure_measures():
    source = {"type": "factorizable",
              "amplitude1": {"profile": "gaussian", "waist": 2e-5},
              "amplitude2": {"profile": "gaussian", "waist": 1.5e-5, "center": 1e-5}}
    s = parse_scenario(json.dumps(_document(
        source, [{"kind": "joint"}, {"kind": "singles_1"}, {"kind": "singles_2"},
                 {"kind": "marginal_1"}])))
    (v,) = s.effective_variants()
    k1, k2 = scenarios._build_arms(s, (v,))[0]
    res = scenarios._compute_variant(s, v, k1, k2, None)
    src = scenarios._build_source(v.source, s.grid)
    joint = biphoton_joint(src, k1, k2)
    assert np.array_equal(res.items["joint"].values, joint.values)
    assert np.array_equal(res.items["singles_1"].values, biphoton_singles(src, k1, 1).values)
    assert np.array_equal(res.items["singles_2"].values, biphoton_singles(src, k2, 2).values)
    assert np.array_equal(res.items["marginal_1"].values, marginal_from_joint(joint, 1).values)


@pytest.mark.parametrize("source", [
    _ENTANGLED,
    {"type": "mixture", "components": [{"weight": 1.0, "source": _LOCALIZED}]},
    {"type": "correlated", "intensity": _LOCALIZED["intensity"]},
], ids=lambda d: d["type"])
def test_cli_zero_coincidence_names_variant(tmp_path, capsys, source):
    blocked = [{"element": "mask", "transmittance": {"profile": "array", "values": [0] * 8}}]
    doc = _document(source, [{"kind": "singles_1"}, {"kind": "marginal_1"}], arm2=blocked)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "'gated'" in err
    assert "zero" in err
    assert "mixture" not in err
