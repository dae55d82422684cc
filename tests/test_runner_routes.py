"""Runner routes that skip dense intermediate matrices: ``single_mixed``
sources are measured without a coherence matrix, and each scatterer plane
is added to the running arm response. The references rebuild the dense
routes: a coherence matrix imaged by ``helpers.partially_coherent``, and
each plane's scatterers summed into a zero kernel and then added. A
correlated source is measured as a mixture, its marginals from its joint;
the reference is the closed form ``correlated_marginal``."""

import json

import numpy as np
import pytest
from helpers import partially_coherent, rel_linf, unitarity_defect

from biphoton import (
    Kernel,
    Scatterer,
    SinglePhotonPure,
    chain,
    correlated_from_intensity,
    correlated_marginal,
    measure,
    parse_scenario,
    run_scenario,
    scenarios,
    with_scatterers,
)

TOL = 1e-12
N, DX, LAM = 32, 1e-5, 5e-7

# A lossy arm: a phase-and-amplitude mask, free space and a clipping aperture.
_LOSSY_ARM = [
    {"element": "mask", "transmittance": {"profile": "array", "values": [
        [0.4 + 0.5 * np.cos(0.7 * i), 0.3 * np.sin(1.3 * i)] for i in range(N)]}},
    {"element": "free_space", "distance": 2e-3},
    {"element": "mask", "transmittance": {"profile": "gaussian_aperture", "width": 8e-5}},
]
_PROFILE = {"profile": "array", "values": [[np.exp(-((i - 13) / 6) ** 2), 0.1 * (i % 5)]
                                           for i in range(N)]}


def _single_mixed_document(model: str) -> dict:
    key = "amplitude" if model == "coherent" else "intensity"
    return {
        "schema_version": 1,
        "grid": {"n": N, "dx": DX, "center": 0.0},
        "wavelength": LAM,
        "source": {"type": "single_mixed", "model": model, key: _PROFILE},
        "arm1": _LOSSY_ARM,
        "measurements": [{"kind": "singles_1"}],
    }


def _read_csv_1d(path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])


@pytest.mark.parametrize("model", ["coherent", "incoherent"])
def test_single_mixed_matches_dense_coherence_route(model, tmp_path, monkeypatch):
    s = parse_scenario(json.dumps(_single_mixed_document(model)))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # no coherence matrix is checked
    run_scenario(s, tmp_path)
    got = _read_csv_1d(tmp_path / "singles_1.csv")
    monkeypatch.undo()

    k = chain([scenarios._build_element(e, s.grid, LAM) for e in s.arm1], s.grid)
    profile = scenarios._resolve_profile(s.source.amplitude or s.source.intensity, s.grid)
    if model == "coherent":
        phi = SinglePhotonPure.normalized(s.grid, profile).amp
        gamma = np.outer(phi, phi.conj())
    else:
        intensity = np.abs(profile)
        gamma = np.diag(intensity / (intensity.sum() * DX)).astype(complex)
    ref = partially_coherent(gamma, k)
    assert unitarity_defect(k) > 0.1  # lossy
    assert rel_linf(got, ref) <= TOL


def _old_build_arm(specs, scat, grid) -> Kernel:
    """Each plane's scatterers summed into a zero kernel, then added."""
    h = chain(specs, grid).matrix.copy() if scat.background == "direct" else np.zeros(
        (grid.n, grid.n), dtype=complex)
    zero = Kernel(grid, grid, np.zeros((grid.n, grid.n), dtype=complex))
    by_plane = {}
    for it in scat.items:
        by_plane.setdefault(it.plane, []).append(it)
    for plane, items in sorted(by_plane.items()):
        contrib = with_scatterers(chain(specs[:plane], grid), chain(specs[plane:], grid),
                                  [Scatterer(it.position, it.strength) for it in items], zero)
        h = h + contrib.matrix
    return Kernel(grid, grid, h)


@pytest.mark.parametrize("background", ["dark", "direct"])
@pytest.mark.parametrize("per_plane", [1, 3])
def test_scatterer_planes_added_to_running_response(background, per_plane):
    items = [{"plane": plane, "position": (plane - 2 + j / 3) * 4e-5,
              "strength": [0.05 / (j + 1), 0.02 * plane]}
             for plane in (1, 2, 3) for j in range(per_plane)]
    doc = _single_mixed_document("coherent")
    doc["scatterers"] = {"arm": 1, "background": background, "items": items}
    s = parse_scenario(json.dumps(doc))
    specs = [scenarios._build_element(e, s.grid, LAM) for e in s.arm1]
    got = scenarios._build_arm(s.arm1, s.scatterers, s.grid, LAM).matrix
    ref = _old_build_arm(specs, s.scatterers, s.grid).matrix
    if per_plane == 1:
        assert np.array_equal(got, ref)
    else:
        assert rel_linf(got, ref) <= TOL


# Lossy dense arms with a mask between two free-space sections, so |H|^2 is
# not an input profile times an output profile: the gating arm's throughput
# varies across the source, and each gated marginal differs from the singles.
_GATING_ARM1 = _LOSSY_ARM + [{"element": "free_space", "distance": 1e-3}]
_GATING_ARM2 = [_LOSSY_ARM[2], {"element": "free_space", "distance": 1e-3}, _LOSSY_ARM[0],
                {"element": "free_space", "distance": 2e-3}]


def _correlated_document(measurements: list) -> dict:
    return {
        "schema_version": 1,
        "grid": {"n": N, "dx": DX, "center": 0.0},
        "wavelength": LAM,
        "source": {"type": "correlated", "intensity": _PROFILE},
        "arm1": _GATING_ARM1,
        "arm2": _GATING_ARM2,
        "measurements": measurements,
    }


def test_correlated_marginals_match_closed_form(tmp_path):
    kinds = ["singles_1", "singles_2", "marginal_1", "marginal_2"]
    s = parse_scenario(json.dumps(_correlated_document([{"kind": k} for k in kinds])))
    run_scenario(s, tmp_path)
    k1, k2 = (chain([scenarios._build_element(e, s.grid, LAM) for e in arm], s.grid)
              for arm in (s.arm1, s.arm2))
    assert not k1.factored and not k2.factored
    c = correlated_from_intensity(
        np.abs(scenarios._resolve_profile(s.source.intensity, s.grid)), s.grid)
    for arm, (k_obs, k_other) in ((1, (k1, k2)), (2, (k2, k1))):
        got = _read_csv_1d(tmp_path / f"marginal_{arm}.csv")
        assert rel_linf(got, correlated_marginal(c, k_obs, k_other).values) <= TOL
        assert rel_linf(got, _read_csv_1d(tmp_path / f"singles_{arm}.csv")) > 1e-3


@pytest.mark.parametrize("model", ["correlated", "single_mixed"])
def test_correlated_runs_need_no_correlated_formulas(model, tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the runner takes every marginal from the joint")

    monkeypatch.setattr(measure, "correlated_marginal", unused)
    if model == "correlated":
        doc = _correlated_document(
            [{"kind": k} for k in ("joint", "singles_1", "singles_2", "marginal_1", "marginal_2")]
            + [{"kind": "sample", "n": 1000, "seed": 3}])
    else:
        doc = _single_mixed_document("incoherent")
    summary = run_scenario(parse_scenario(json.dumps(doc)), tmp_path)
    kinds = [m["kind"] for m in doc["measurements"] if m["kind"] != "sample"]
    assert {f"{k}.csv" for k in kinds} <= set(summary.files)
