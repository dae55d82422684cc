"""Import boundary of the package: parsing and validating load no numpy,
and every public name resolves to the object its home module defines."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton
from biphoton import demo_catalog, serialize_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

# Parse every text given on stdin, then validate the file named in argv[2].
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import biphoton
from biphoton import cli
for text in sys.stdin.read().split(chr(0)):
    biphoton.parse_scenario(text)
assert cli.main(["validate", sys.argv[2]]) == 0
print(" ".join(sorted(sys.modules)))
"""

_NUMERICAL = ("numpy", "biphoton.measure", "biphoton.optics", "biphoton.sources",
              "biphoton.sampling", "biphoton.scenarios", "biphoton.demos")

# The public names of the package (its export list before exports became
# lazy), by the module that defines them.
_EXPORTS = {
    "errors": ("PhysicsError", "ValidationError"),
    "grid": ("Grid", "make_grid"),
    "measure": ("Density1D", "Density2D", "ImageMetrics", "biphoton_joint", "biphoton_singles",
                "correlated_marginal", "entangled_marginal_closed", "image_metrics",
                "marginal_from_joint", "single_coherent"),
    "optics": ("Custom", "ElementSpec", "FourierSystem", "FreeSpace", "Identity", "Kernel",
               "Mask", "Scatterer", "ThinLens", "chain", "circulant_matrix", "g_kernel",
               "kernel_of", "with_scatterers"),
    "sampling": ("CoincidenceCounts", "empirical_densities", "sample_joint"),
    "scenarios": ("RunSummary", "demo_catalog", "run_scenario", "write_outputs"),
    "schema": ("Scenario", "parse_scenario", "scenario_document", "serialize_scenario"),
    "sources": ("BiphotonMixture", "BiphotonPure", "CorrelatedPairSource", "SchmidtSpectrum",
                "SinglePhotonPure", "SpdcParams", "correlated_from_intensity",
                "entangled_delta", "factorizable", "localized_pair_mixture",
                "schmidt_spectrum", "spdc_amplitude"),
}


def test_parse_and_validate_load_no_numpy(tmp_path):
    texts = [serialize_scenario(s) for s in demo_catalog().values()]
    path = tmp_path / "demo.json"
    path.write_text(texts[0])
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(path)],
                          input="\0".join(texts), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "biphoton.schema" in loaded
    assert loaded.isdisjoint(_NUMERICAL), sorted(loaded.intersection(_NUMERICAL))


# Import every submodule, then run every demo writing all formats under argv[2].
_LIBRARY_PROBE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import biphoton
for name in biphoton._SUBMODULES:
    getattr(biphoton, name)
for name, s in biphoton.demo_catalog().items():
    biphoton.run_scenario(s, Path(sys.argv[2]) / name)
print(" ".join(sorted(sys.modules)))
"""


def test_library_loads_no_scipy(tmp_path):
    # scipy is a test extra only: the library and its demos must not need it.
    proc = subprocess.run([sys.executable, "-c", _LIBRARY_PROBE, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "biphoton.scenarios" in loaded
    assert "scipy" not in loaded


@pytest.mark.parametrize("home,name", [(m, n) for m, names in _EXPORTS.items() for n in names])
def test_public_name_resolves_to_its_definition(home, name, monkeypatch):
    expected = getattr(importlib.import_module(f"biphoton.{home}"), name)
    if name in biphoton._LAZY:  # drop the cached attribute: resolve it afresh
        monkeypatch.delitem(vars(biphoton), name, raising=False)
    assert getattr(biphoton, name) is expected
    namespace: dict = {}
    exec(f"from biphoton import {name}", namespace)
    assert namespace[name] is expected
    assert name in dir(biphoton)
    assert name in biphoton.__all__


def test_submodules_resolve_as_attributes():
    for name in ("cli", "demos", "measure", "optics", "profiles", "sampling", "scenarios",
                 "schema", "sources"):
        assert getattr(biphoton, name) is importlib.import_module(f"biphoton.{name}")
    with pytest.raises(AttributeError, match="no_such_name"):
        biphoton.no_such_name
