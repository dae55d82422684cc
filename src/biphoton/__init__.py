"""Discretized one- and two-photon imaging simulator.

Computes joint, singles and bucket-gated marginal photon-detection
densities for entangled, factorizable and classically correlated pair
sources sent through composable 1-D linear optical systems, and shows
where coincidence-gated (ghost) imaging genuinely needs entanglement.

Importing the package loads only ``errors``, ``grid`` and ``schema``, so
parsing and validating a scenario loads no numpy. Every other public name,
and every submodule, is imported on first access (PEP 562) and then cached
as a module attribute.
"""

import importlib

from .errors import PhysicsError, ValidationError
from .grid import Grid, make_grid, nearest_index
from .schema import Scenario, parse_scenario, scenario_document, serialize_scenario

__version__ = "0.1.0"

# Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys((
        "Density1D", "Density2D", "ImageMetrics", "biphoton_joint", "biphoton_singles",
        "correlated_marginal", "entangled_marginal_closed", "image_metrics",
        "marginal_from_joint", "single_coherent", "single_partially_coherent",
    ), "measure"),
    **dict.fromkeys((
        "Custom", "ElementSpec", "FourierSystem", "FreeSpace", "Identity", "Kernel", "Mask",
        "Scatterer", "ThinLens", "chain", "circulant_matrix", "compose", "g_kernel",
        "kernel_of", "unitarity_defect", "with_scatterers",
    ), "optics"),
    **dict.fromkeys((
        "CoincidenceCounts", "empirical_densities", "pearson_chi_square", "sample_joint",
    ), "sampling"),
    **dict.fromkeys(("RunSummary", "demo_catalog", "run_scenario", "write_outputs"),
                    "scenarios"),
    **dict.fromkeys((
        "BiphotonMixture", "BiphotonPure", "CorrelatedPairSource", "SchmidtSpectrum",
        "SinglePhotonMixed", "SinglePhotonPure", "SpdcParams", "correlated_from_intensity",
        "entangled_delta", "factorizable", "localized_pair_mixture", "reduced_coherence",
        "schmidt_spectrum", "spdc_amplitude",
    ), "sources"),
}
_SUBMODULES = ("cli", "demos", "errors", "grid", "measure", "optics", "profiles", "sampling",
               "scenarios", "schema", "sources")

__all__ = ["Grid", "PhysicsError", "Scenario", "ValidationError", "make_grid", "nearest_index",
           "parse_scenario", "scenario_document", "serialize_scenario", *_LAZY]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
