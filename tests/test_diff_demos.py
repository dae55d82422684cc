"""``diff_demos.compare_dirs`` on synthetic output directories: a peak
position may move only to a tie of the parent's density, every other metric
keeps the 1e-10 bound, and a file on one side only fails."""

import json

import pytest
from diff_demos import compare_dirs

X = [(i - 3.5) * 1e-5 for i in range(8)]
P = [0.0, 1.0, 2.0, 5.0, 5.0, 2.0, 1.0, 0.0]  # maxima tied at indices 3 and 4
PEAKS = {"peak_position_entangled": ["entangled_marginal_2.csv", 0, 8],
         "peak_position_gate_entangled": ["entangled_marginal_2.csv", 0, 4]}


def _write(directory, metrics):
    directory.mkdir()
    rows = "".join(f"{x!r},{p!r}\n" for x, p in zip(X, P))
    (directory / "entangled_marginal_2.csv").write_text("x,p\n" + rows)
    doc = {"schema_version": 1, "name": "t", "metrics": metrics,
           "files": ["entangled_marginal_2.csv", "summary.json"]}
    (directory / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return directory


def _metrics(**change):
    return {"peak_position_entangled": X[3], "peak_position_gate_entangled": X[3],
            "visibility_entangled": 1.0, **change}


def _failed(tmp_path, **change):
    want = _write(tmp_path / "parent", _metrics())
    got = _write(tmp_path / "change", _metrics(**change))
    return compare_dirs("t", want, got, PEAKS)


def test_identical_outputs_pass(tmp_path):
    assert not _failed(tmp_path)


def test_peak_moved_to_a_tie_passes(tmp_path, capsys):
    assert not _failed(tmp_path, peak_position_entangled=X[4])
    assert "t/summary.json: 0 of peak" in capsys.readouterr().out


@pytest.mark.parametrize("change", [
    {"peak_position_entangled": X[2]},  # not tied with the maximum
    {"peak_position_gate_entangled": X[4]},  # tied, but outside the region
    {"peak_position_entangled": X[4] + 1e-9},  # not a lattice point
    {"visibility_entangled": 1.0 + 2e-10},
])
def test_other_moves_fail(tmp_path, change):
    assert _failed(tmp_path, **change)


def test_file_on_one_side_only_fails(tmp_path, capsys):
    want = _write(tmp_path / "parent", _metrics())
    got = _write(tmp_path / "change", _metrics())
    (got / "entangled_marginal_2.csv").unlink()
    assert compare_dirs("t", want, got, PEAKS)
    assert "t/entangled_marginal_2.csv: only in parent" in capsys.readouterr().out
