import json

import numpy as np
import pytest

from biphoton import (
    PhysicsError,
    ValidationError,
    demo_catalog,
    parse_scenario,
    run_scenario,
    scenario_document,
    serialize_scenario,
)
from biphoton.cli import main as cli_main
from biphoton.scenarios import VariantResults, write_outputs
from biphoton.measure import Density1D, Density2D
from biphoton.grid import Grid


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


def test_run_jobs_equivalence(tmp_path):
    s = demo_catalog()["factorizable-null"]
    run_scenario(s, out_dir=tmp_path / "j1", jobs=1)
    run_scenario(s, out_dir=tmp_path / "j4", jobs=4)
    for p in sorted((tmp_path / "j1").iterdir()):
        assert p.read_bytes() == (tmp_path / "j4" / p.name).read_bytes()


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


def test_cli_run_demo(tmp_path, capsys):
    rc = cli_main(["run", "ghost-imaging", "--out", str(tmp_path / "out"),
                   "--format", "csv,json"])
    assert rc == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["metrics"]["visibility"] == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "marginal_2.csv").exists()


def test_cli_run_scenario_file_with_jobs(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal_document()))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o"), "--jobs", "2"]) == 0


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
