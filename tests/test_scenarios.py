import json

import numpy as np
import pytest

from biphoton import (
    PhysicsError,
    ValidationError,
    cli,
    demo_catalog,
    parse_scenario,
    run_scenario,
    scenario_document,
    scenarios,
    schema,
    serialize_scenario,
)
from biphoton.cli import main as cli_main
from biphoton.scenarios import VariantResults, write_outputs
from biphoton.measure import Density1D, Density2D
from biphoton.grid import Grid
from biphoton.optics import Mask
from biphoton.sampling import CoincidenceCounts
from biphoton.schema import ProfileCfg
from biphoton.sources import SchmidtSpectrum


def minimal_document() -> dict:
    return {
        "schema_version": 1,
        "grid": {"n": 8, "dx": 1e-5, "center": 0.0},
        "wavelength": 5e-7,
        "source": {"type": "entangled_delta",
                   "amplitude": {"profile": "gaussian", "waist": 2e-5}},
        "arm1": [{"element": "identity"}],
        "arm2": [{"element": "identity"}],
        "measurements": [{"kind": "marginal_2"}],
    }


def test_parse_minimal_document():
    s = parse_scenario(json.dumps(minimal_document()))
    assert s.grid.n == 8
    assert s.source.kind == "entangled_delta"


def test_parse_rejects_negative_dx_naming_field():
    doc = minimal_document()
    doc["grid"]["dx"] = -1e-5
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert "grid.dx" in str(e.value)


def test_parse_rejects_marginal_without_arm2():
    doc = minimal_document()
    del doc["arm2"]
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert "arm2" in str(e.value)


def test_parse_rejects_unknown_keys():
    doc = minimal_document()
    doc["grindstone"] = 1
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert "grindstone" in str(e.value)
    doc = minimal_document()
    doc["grid"]["pitch"] = 2
    with pytest.raises(ValidationError):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_schmidt_for_correlated_source():
    doc = minimal_document()
    doc["source"] = {"type": "correlated",
                     "intensity": {"profile": "gaussian", "waist": 2e-5}}
    doc["measurements"] = [{"kind": "schmidt"}]
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert "schmidt" in str(e.value)


def test_parse_rejects_metrics_of_missing_measurement():
    doc = minimal_document()
    doc["measurements"] = [{"kind": "metrics", "of": "singles_1"}]
    with pytest.raises(ValidationError):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(ValidationError):
        parse_scenario("{not json")


def test_round_trip_identity_minimal():
    s = parse_scenario(json.dumps(minimal_document()))
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_identity_demos():
    for name, s in demo_catalog().items():
        assert parse_scenario(serialize_scenario(s)) == s, name


def test_demo_catalog_contents():
    cat = demo_catalog()
    assert len(cat) >= 6
    for required in ["ghost-imaging", "ghost-diffraction", "factorizable-null",
                     "isoplanatic-correlated", "spdc-sweep", "refocus"]:
        assert required in cat
    for name, s in cat.items():
        assert s.name == name
        assert s.description


def test_run_writes_deterministic_outputs(tmp_path):
    doc = minimal_document()
    doc["measurements"] = [{"kind": "joint"}, {"kind": "marginal_2"},
                           {"kind": "sample", "n": 200, "seed": 42}]
    s = parse_scenario(json.dumps(doc))
    run_scenario(s, out_dir=tmp_path / "a")
    run_scenario(s, out_dir=tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_override_is_stable(tmp_path):
    doc = minimal_document()
    doc["measurements"] = [{"kind": "sample", "n": 500, "seed": 42}]
    s = parse_scenario(json.dumps(doc))
    run_scenario(s, out_dir=tmp_path / "a", seed=5)
    run_scenario(s, out_dir=tmp_path / "b", seed=5)
    run_scenario(s, out_dir=tmp_path / "c", seed=6)
    a = (tmp_path / "a" / "sample_counts.csv").read_bytes()
    assert a == (tmp_path / "b" / "sample_counts.csv").read_bytes()
    assert a != (tmp_path / "c" / "sample_counts.csv").read_bytes()


def test_write_outputs_formats(tmp_path):
    g2 = Grid(2, 1.0, 0.0)
    joint = Density2D(g2, g2, np.array([[0.5, 0.25], [0.25, 0.0]]))
    density = Density1D(g2, np.array([1.0, 0.0]))
    results = [VariantResults("", {"joint": joint, "marginal_1": density})]
    manifest = write_outputs(results, tmp_path, ("csv", "pgm"))
    assert set(manifest) == {"joint.csv", "joint.pgm", "marginal_1.csv"}
    pgm = (tmp_path / "joint.pgm").read_text()
    assert pgm.startswith("P2\n2 2\n65535\n")
    assert [int(v) for v in pgm.split("\n", 3)[3].split()] == [65535, 32768, 32768, 0]
    csv = (tmp_path / "marginal_1.csv").read_text().splitlines()
    assert csv[0] == "x,p"
    assert csv[1] == "-0.5,1.0"
    assert csv[2] == "0.5,0.0"


def test_scenario_document_includes_version():
    s = parse_scenario(json.dumps(minimal_document()))
    doc = scenario_document(s)
    assert doc["schema_version"] == 1


def test_physics_error_for_fully_absorbing_gate(tmp_path):
    doc = minimal_document()
    doc["source"] = {"type": "correlated",
                     "intensity": {"profile": "array", "values": [0, 0, 0, 0, 1, 1, 1, 1]}}
    doc["arm1"] = [{"element": "mask",
                    "transmittance": {"profile": "array", "values": [1, 1, 1, 1, 0, 0, 0, 0]}}]
    doc["measurements"] = [{"kind": "marginal_2"}]
    s = parse_scenario(json.dumps(doc))
    with pytest.raises(PhysicsError):
        run_scenario(s)


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_document()))
    assert cli_main(["validate", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**minimal_document(), "grid": {"n": 1, "dx": 1.0}}))
    assert cli_main(["validate", str(bad)]) == 2
    assert cli_main(["run", "no-such-demo-or-file", "--out", str(tmp_path)]) == 2


_SHORT = {"profile": "array", "values": [1, 2, 3]}
_GAUSS = {"profile": "gaussian", "waist": 2e-5}
_ZERO = {"profile": "array", "values": [0.0] * 8}
_GAIN = {"profile": "array", "values": [1, 1, 1, 1.5, 1, 1, 1, 1]}


@pytest.mark.parametrize("edit,field", [
    ({"source": {"type": "entangled_delta", "amplitude": _SHORT}}, "source.amplitude.values"),
    ({"source": {"type": "factorizable", "amplitude1": _SHORT, "amplitude2": _GAUSS}},
     "source.amplitude1.values"),
    ({"arm1": [{"element": "custom", "matrix": [[1, 0], [0, 1]]}]}, "arm1[0].matrix"),
    ({"arm2": [{"element": "identity"}, {"element": "mask", "transmittance": _SHORT}]},
     "arm2[1].transmittance.values"),
    ({"variants": [{"label": "a"}, {"label": "b", "source": {
        "type": "mixture", "components": [
            {"weight": 0.5, "source": {"type": "entangled_delta", "amplitude": _GAUSS}},
            {"weight": 0.5, "source": {"type": "localized", "intensity": _SHORT}}]}}]},
     "variants[1].source.components[1].source.intensity.values"),
    ({"variants": [{"label": "a", "arm1": [{"element": "custom", "matrix": [[1.0] * 9] * 8}]}]},
     "variants[0].arm1[0].matrix"),
    pytest.param({"arm1": [{"element": "mask", "transmittance": _GAIN}]},
                 "arm1[0].transmittance.values[3]", id="mask-gain"),
    pytest.param({"source": {"type": "correlated", "intensity": _ZERO}},
                 "source.intensity.values", id="zero-correlated"),
    pytest.param({"source": {"type": "mixture", "components": [
        {"weight": 1.0, "source": {"type": "localized", "intensity": _ZERO}}]}},
        "source.components[0].source.intensity.values", id="zero-localized"),
    pytest.param({"source": {"type": "entangled_delta", "amplitude": _ZERO}},
                 "source.amplitude.values", id="zero-entangled_delta"),
    pytest.param({"source": {"type": "factorizable", "amplitude1": _GAUSS, "amplitude2": _ZERO}},
                 "source.amplitude2.values", id="zero-factorizable"),
    pytest.param({"source": {"type": "single_pure", "amplitude": _ZERO},
                  "measurements": [{"kind": "singles_1"}]},
                 "source.amplitude.values", id="zero-single_pure"),
    pytest.param({"source": {"type": "spdc", "pump": _ZERO, "pm_width": 1e-5}},
                 "source.pump.values", id="zero-spdc-pump"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_cli_validate_names_grid_sized_field(tmp_path, capsys, edit, field):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**minimal_document(), **edit}))
    assert cli_main(["validate", str(path)]) == 2
    assert f"validation error: {field}: " in capsys.readouterr().err
    assert cli_main(["run", str(path)]) == 2
    assert f"{field}: " in capsys.readouterr().err


def test_cli_run_demo(tmp_path, capsys):
    rc = cli_main(["run", "ghost-imaging", "--out", str(tmp_path / "out"),
                   "--format", "csv,json"])
    assert rc == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["metrics"]["visibility"] == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "marginal_2.csv").exists()
    timings = summary["timings"]
    stages = {"arms", "source", "joint", "singles", "schmidt", "sample", "metrics"}
    assert set(timings) == stages | {"compute", "write"}
    assert all(t >= 0 for t in timings.values())
    assert sum(timings[k] for k in stages) <= timings["compute"]
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "timings" not in written and "duration_s" not in written


def test_cli_run_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal_document()))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 0


def test_cli_run_file_parses_no_demo(tmp_path, capsys, monkeypatch):
    parsed = []
    original = scenarios.scenario_from_document

    def counting(doc):
        parsed.append(doc.get("name"))
        return original(doc)

    monkeypatch.setattr("biphoton.schema.scenario_from_document", counting)
    monkeypatch.setattr(cli, "scenario_from_document", counting)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**minimal_document(), "name": "from-file"}))
    assert cli_main(["run", str(path)]) == 0
    assert parsed == ["from-file"]
    parsed.clear()
    assert cli_main(["run", "factorizable-null", "--out", str(tmp_path / "o")]) == 0
    assert parsed == ["factorizable-null"]
    parsed.clear()
    assert cli_main(["list-demos"]) == 0
    assert parsed == []
    listed = capsys.readouterr().out.splitlines()[-len(demo_catalog()):]
    assert listed == [f"{name}: {s.description}" for name, s in demo_catalog().items()]


def test_cli_physics_error_exit_code(tmp_path, capsys):
    doc = minimal_document()
    doc["source"] = {"type": "correlated",
                     "intensity": {"profile": "array", "values": [0, 0, 0, 0, 1, 1, 1, 1]}}
    doc["arm1"] = [{"element": "mask",
                    "transmittance": {"profile": "array", "values": [1, 1, 1, 1, 0, 0, 0, 0]}}]
    doc["measurements"] = [{"kind": "marginal_2"}]
    path = tmp_path / "absorbing.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 3


# Off-centre grid with dyadic points -0.5, 0, 0.5, ..., 3.0, so the tie and
# edge cases below are exact.
_PROFILE_GRID = Grid(8, 0.5, 1.25)
_X = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
# Each named profile's parameters and its closed form on _PROFILE_GRID.
_PROFILE_CASES = {
    "gaussian": ({"waist": 0.75, "center": 1.0}, np.exp(-(_X - 1.0) ** 2 / (2 * 0.75**2))),
    "gaussian_aperture": ({"width": 0.75, "center": 1.0},
                          np.exp(-(_X - 1.0) ** 2 / (2 * 0.75**2))),
    "uniform": ({}, np.ones(8)),
    # 0.25 is equally far from 0.0 (index 1) and 0.5 (index 2): the lower wins
    "delta": ({"position": 0.25}, np.eye(8)[1]),
    # slits of width 1 at +/-0.5, edges included: x in {-0.5, 0, 0.5, 1}
    "double_slit": ({"separation": 1.0, "width": 1.0}, np.array([1.0] * 4 + [0.0] * 4)),
    # 1 for x >= 1.0, the position itself included
    "step_edge": ({"position": 1.0}, np.array([0.0] * 3 + [1.0] * 5)),
    "array": ({"values": [0.5j, 1.0, 2.0, 0.0, -1.5, 3.0, 1j, 0.25]},
              np.array([0.5j, 1.0, 2.0, 0.0, -1.5, 3.0, 1j, 0.25])),
}


@pytest.mark.parametrize("kind", sorted(schema._PROFILE.fields.tables))
def test_every_profile_kind_matches_its_closed_form(kind):
    assert kind in _PROFILE_CASES, f"no closed-form case for profile {kind!r}"
    assert np.array_equal(_PROFILE_GRID.points, _X)
    params, expected = _PROFILE_CASES[kind]
    got = scenarios._resolve_profile(ProfileCfg(kind, params), _PROFILE_GRID)
    assert got.shape == (8,)
    assert np.allclose(got, expected, rtol=1e-15, atol=0)

@pytest.mark.parametrize("t", [1 + 5e-10, 1 + 2e-9, complex(0.6, 0.8), complex(-0.6, 0.81)])
def test_mask_array_bound_matches_mask(t):
    """Validation accepts a mask value exactly when optics.Mask does."""
    try:
        Mask(np.full(8, t))
        builds = True
    except ValidationError:
        builds = False
    doc = minimal_document()
    doc["arm1"] = [{"element": "mask", "transmittance": {
        "profile": "array", "values": [[t.real, t.imag]] * 8}}]
    try:
        parse_scenario(json.dumps(doc))
        validates = True
    except ValidationError:
        validates = False
    assert validates == builds


def test_cli_mask_gain_exit_code(tmp_path, capsys):
    doc = minimal_document()
    doc["arm1"] = [{"element": "mask",
                    "transmittance": {"profile": "array",
                                      "values": [1, 1, 1, 1.5, 1, 1, 1, 1]}}]
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    assert "|t| <= 1" in capsys.readouterr().err


def test_cli_rejects_unknown_format(tmp_path):
    assert cli_main(["run", "ghost-imaging", "--out", str(tmp_path), "--format", "bmp"]) == 2


def test_demo_summary_claims():
    cat = demo_catalog()
    s = run_scenario(cat["factorizable-null"])
    assert s.metrics["marginal_singles_gap_arm1"] <= 1e-10
    assert s.metrics["marginal_singles_gap_arm2"] <= 1e-10
    s = run_scenario(cat["isoplanatic-correlated"])
    assert s.metrics["marginal_singles_gap_arm2"] <= 1e-10
    s = run_scenario(cat["ghost-imaging"])
    assert s.metrics["visibility"] == pytest.approx(1.0, abs=1e-9)
    # the ungated singles carry no object information in the same window
    assert s.metrics["visibility_reference"] < 0.5


# ---------------------------------------------------------------------------
# Fast paths against per-element references


def _fmt(v) -> str:
    return repr(float(v))


def _ref_csv_1d(d) -> str:
    lines = ["x,p"]
    lines += [f"{_fmt(x)},{_fmt(p)}" for x, p in zip(d.grid.points, d.values)]
    return "\n".join(lines) + "\n"


def _ref_csv_2d(d) -> str:
    lines = ["x1,x2,p"]
    x1, x2 = d.grid1.points, d.grid2.points
    for i in range(d.grid1.n):
        row = d.values[i]
        lines += [f"{_fmt(x1[i])},{_fmt(x2[j])},{_fmt(row[j])}" for j in range(d.grid2.n)]
    return "\n".join(lines) + "\n"


def _ref_pgm(values) -> str:
    peak = values.max()
    scaled = np.zeros_like(values, dtype=np.int64) if peak <= 0 else \
        np.rint(values / peak * 65535).astype(np.int64)
    h, w = values.shape
    lines = ["P2", f"{w} {h}", "65535"]
    lines += [" ".join(str(int(v)) for v in row) for row in scaled]
    return "\n".join(lines) + "\n"


def _ref_counts_csv(c) -> str:
    lines = ["x1,x2,count"]
    x1, x2 = c.grid1.points, c.grid2.points
    for i in range(c.grid1.n):
        row = c.counts[i]
        lines += [f"{_fmt(x1[i])},{_fmt(x2[j])},{int(row[j])}" for j in range(c.grid2.n)]
    return "\n".join(lines) + "\n"


def _ref_schmidt_csv(sp) -> str:
    lines = ["index,sigma"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(sp.singular_values)]
    return "\n".join(lines) + "\n"


# Edge values of the float text: signed zero, the smallest subnormal, a huge
# value, and shortest-repr digits that a fixed precision would change.
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e300, 0.1, 1 / 3, 2.5e-7, 123456789.0]


def test_writers_match_per_element_reference(tmp_path):
    g1, g2 = Grid(3, 0.1, 1 / 3), Grid(5, 2.5e-6, -7.0)
    values = np.resize(np.array(EDGE_VALUES), (3, 5))
    # The writers only format: bypass the density normalization check.
    d2 = Density2D.__new__(Density2D)
    object.__setattr__(d2, "grid1", g1)
    object.__setattr__(d2, "grid2", g2)
    object.__setattr__(d2, "values", values)
    d1 = Density1D.__new__(Density1D)
    object.__setattr__(d1, "grid", g2)
    object.__setattr__(d1, "values", values[1])
    counts = np.arange(15, dtype=np.int64).reshape(3, 5)
    counts[0, 1] = 2**31 + 5
    counts[2, 4] = 2**40
    c = CoincidenceCounts(g1, g2, counts, int(counts.sum()))
    sp = SchmidtSpectrum(np.array(EDGE_VALUES), 0.0, 1.0)
    cases = [
        (scenarios._write_csv_1d, d1, _ref_csv_1d(d1)),
        (scenarios._write_csv_2d, d2, _ref_csv_2d(d2)),
        (scenarios._write_pgm, values, _ref_pgm(values)),
        (scenarios._write_pgm, counts.astype(float), _ref_pgm(counts.astype(float))),
        (scenarios._write_pgm, np.zeros((2, 3)), _ref_pgm(np.zeros((2, 3)))),
        (scenarios._write_counts_csv, c, _ref_counts_csv(c)),
        (scenarios._write_schmidt_csv, sp, _ref_schmidt_csv(sp)),
    ]
    for i, (writer, obj, expected) in enumerate(cases):
        path = tmp_path / f"{i}.txt"
        writer(path, obj)
        assert path.read_bytes() == expected.encode(), writer.__name__


def _build_arms_per_variant(s, variants):
    """Reference: every variant builds both of its arms."""
    scat1 = s.scatterers if (s.scatterers and s.scatterers.arm == 1) else None
    scat2 = s.scatterers if (s.scatterers and s.scatterers.arm == 2) else None
    arms = []
    for v in variants:
        _, arm1, arm2 = s.resolve(v)
        arms.append((scenarios._build_arm(arm1, scat1, s.grid, s.wavelength),
                     scenarios._build_arm(arm2, scat2, s.grid, s.wavelength)
                     if arm2 is not None else None))
    return arms


def test_run_builds_each_distinct_arm_once(tmp_path, monkeypatch):
    s = demo_catalog()["spdc-sweep"]
    calls = []
    chain = scenarios.chain

    def counting_chain(*args, **kwargs):
        calls.append(args[0])
        return chain(*args, **kwargs)

    monkeypatch.setattr(scenarios, "chain", counting_chain)
    fast = run_scenario(s, out_dir=tmp_path / "memo")
    assert len(calls) == 2  # arm1 and arm2, shared by all variants
    assert len(s.variants) > 2
    monkeypatch.setattr(scenarios, "_build_arms", _build_arms_per_variant)
    calls.clear()
    ref = run_scenario(s, out_dir=tmp_path / "ref")
    assert len(calls) == 2 * len(s.variants)
    assert fast.document() == ref.document()
    assert fast.files == ref.files
    for name in ref.files:
        assert (tmp_path / "memo" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def _document_with_bad_entry(where, bad) -> dict:
    """A custom 8x8 matrix in arm 1 and an array amplitude, one entry bad:
    matrix[1][2] ("matrix"), row 1 ("matrix-row", "matrix-ragged") or
    values[3] ("values")."""
    doc = minimal_document()
    matrix = np.eye(8).tolist()
    values = [1.0] * 8
    if where == "matrix":
        matrix[1][2] = bad
    elif where == "matrix-row":
        matrix[1] = 1.0
    elif where == "matrix-ragged":
        matrix[1] = matrix[1][:-1]
    else:
        values[3] = bad
    doc["arm1"] = [{"element": "custom", "matrix": matrix}]
    doc["source"]["amplitude"] = {"profile": "array", "values": values}
    return doc


@pytest.mark.parametrize("where,bad,field", [
    ("matrix", "x", "arm1[0].matrix[1][2]"),
    ("matrix", True, "arm1[0].matrix[1][2]"),
    ("matrix", [1.0, 2.0, 3.0], "arm1[0].matrix[1][2]"),
    ("matrix-row", None, "arm1[0].matrix[1]"),
    ("matrix-ragged", None, "arm1[0].matrix[1]"),
    ("values", "x", "source.amplitude.values[3]"),
    ("values", [1.0, False], "source.amplitude.values[3]"),
])
def test_parse_names_bad_entry_field(where, bad, field):
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(_document_with_bad_entry(where, bad)))
    assert e.value.field == field
    if where in ("matrix", "values"):
        assert str(e.value) == f"{field}: expected a number or [re, im] pair, got {bad!r}"


@pytest.mark.parametrize("where,bad,field", [
    ("values", float("nan"), "source.amplitude.values[3]"),
    ("values", [1.0, float("inf")], "source.amplitude.values[3]"),
    ("matrix", float("-inf"), "arm1[0].matrix[1][2]"),
    ("matrix", [float("nan"), 0.0], "arm1[0].matrix[1][2]"),
])
def test_parse_rejects_non_finite_entry(where, bad, field):
    text = json.dumps(_document_with_bad_entry(where, bad))
    assert "NaN" in text or "Infinity" in text  # what json.loads accepts
    with pytest.raises(ValidationError) as e:
        parse_scenario(text)
    assert e.value.field == field
    assert str(e.value) == f"{field}: must be finite"


def test_parse_rejects_non_finite_spdc_pump_and_strength():
    doc = minimal_document()
    doc["source"] = {"type": "spdc", "pm_width": 1e-5,
                     "pump": {"profile": "array", "values": [1, 1, 1, 1, 1, float("nan"), 1, 1]}}
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert e.value.field == "source.pump.values[5]"
    doc = minimal_document()
    doc["scatterers"] = {"arm": 1, "items": [
        {"plane": 0, "position": 0.0, "strength": [0.0, float("inf")]}]}
    with pytest.raises(ValidationError) as e:
        parse_scenario(json.dumps(doc))
    assert e.value.field == "scatterers.items[0].strength"


def test_parse_accepts_finite_entries_whose_sum_overflows():
    doc = minimal_document()
    doc["source"]["amplitude"] = {"profile": "array", "values": [1e308] * 8}
    s = parse_scenario(json.dumps(doc))
    assert s.source.amplitude.params["values"] == (1e308 + 0j,) * 8
