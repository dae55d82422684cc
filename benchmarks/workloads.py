"""Benchmark workloads: scenario documents generated from a seed, and the
correctness checks applied to every iteration.

The library sees only the JSON text of the documents built here. The seed
picks the source waist and the slit separation (and, off the demo grid, a
sub-sample grid offset) within ranges that keep the field energy away from
the grid edges; the same seed always gives the same documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import biphoton
from biphoton import profiles

WAVELENGTH = 5.12e-7
SLIT_WIDTH = 5e-5
SOURCE_WAIST = 3e-4
SLIT_SEPARATION = 2e-4
SAMPLE_EVENTS = 1_000_000

# Relative agreement required of a generic route against its oracle.
REL_TOL = 1e-9
# Metrics below this magnitude are round-off (e.g. the gap between two
# densities that are equal in exact arithmetic), so agreement is absolute.
ABS_TOL = 1e-12
# A density whose visibility is below this is flat to round-off: its peak
# position and width are set by rounding, so only the flatness is compared.
FLAT_VISIBILITY = 1e-9

PATTERN_METRICS = ("visibility", "fwhm", "peak_position")


@dataclass(frozen=True)
class Workload:
    name: str
    texts: tuple[str, ...]  # scenario documents, parsed and run in order each iteration
    writes: bool  # run with an output directory per document
    check: Callable[[list], list[str]]  # run summaries -> problems found


# ---------------------------------------------------------------------------
# Document parts


def _gaussian(waist: float, center: float = 0.0) -> dict:
    return {"profile": "gaussian", "waist": waist, "center": center}


def _mask(profile: dict) -> dict:
    return {"element": "mask", "transmittance": profile}


def _metrics(of: str, region: tuple[int, int], label: str | None = None) -> dict:
    d = {"kind": "metrics", "of": of, "region": list(region)}
    if label is not None:
        d["label"] = label
    return d


def _entangled(waist: float) -> dict:
    return {"type": "entangled_delta", "amplitude": _gaussian(waist)}


def _correlated(waist: float) -> dict:
    # Intensity-matched to the entangled source: gamma = |phi|^2.
    return {"type": "correlated", "intensity": _gaussian(waist / math.sqrt(2))}


def _localized(waist: float) -> dict:
    return {"type": "localized", "intensity": _gaussian(waist / math.sqrt(2))}


@dataclass(frozen=True)
class Ghost:
    """Ghost-diffraction geometry at matched Fourier sampling
    (wavelength * focal_length = n * dx^2): a double slit and a one-sample
    far-field gate in arm 1, a bare Fourier system in arm 2."""

    n: int
    dx: float
    center: float
    waist: float
    separation: float

    @property
    def focal_length(self) -> float:
        return self.n * self.dx**2 / WAVELENGTH

    def grid(self) -> dict:
        return {"n": self.n, "dx": self.dx, "center": self.center}

    def slits(self) -> dict:
        return {"profile": "double_slit", "separation": self.separation, "width": SLIT_WIDTH}

    def arm1(self) -> list[dict]:
        return [
            _mask(self.slits()),
            {"element": "fourier", "focal_length": self.focal_length},
            _mask({"profile": "gaussian_aperture", "width": self.dx}),
        ]

    def arm2(self) -> list[dict]:
        return [{"element": "fourier", "focal_length": self.focal_length}]

    def fringe_region(self) -> tuple[int, int]:
        """Central fringes of the far-field slit pattern, 1.5 periods either
        side of the axis (inside the single-slit envelope)."""
        period = self.n * self.dx / self.separation  # in samples
        half = round(1.5 * period)
        return self.n // 2 - half, self.n // 2 + half

    def gate_region(self) -> tuple[int, int]:
        return self.n // 2 - 8, self.n // 2 + 8

    def document(self, name: str, variants: list[dict], measurements: list[dict]) -> dict:
        return {
            "schema_version": 1,
            "name": name,
            "grid": self.grid(),
            "wavelength": WAVELENGTH,
            "arm1": self.arm1(),
            "arm2": self.arm2(),
            "variants": variants,
            "measurements": measurements,
        }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _offset_ghost(rng: random.Random, n: int, dx: float) -> Ghost:
    # The grid offset of 0.1-0.4 samples keeps lattice points off the mirror
    # positions of the symmetric patterns, so peak positions have no ties.
    return Ghost(n, dx, center=rng.uniform(0.1, 0.4) * dx,
                 waist=SOURCE_WAIST * rng.uniform(0.87, 1.13),
                 separation=SLIT_SEPARATION * rng.uniform(0.8, 1.2))


def _texts(docs: list[dict]) -> tuple[str, ...]:
    return tuple(json.dumps(d, allow_nan=False) for d in docs)


# ---------------------------------------------------------------------------
# Comparisons


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _metric_key(name: str, label: str | None, variant: str) -> str:
    # Key format of RunSummary.metrics: <metric>[_<label>]_<variant>.
    return "_".join(p for p in (name, label, variant) if p)


def _compare_pattern(got: dict, want: dict, label: str | None, variant: str,
                     reference: str) -> list[str]:
    """Compare the image metrics of one density against a reference set.
    ``want`` maps metric name -> value; ``got`` is a summary metrics dict."""
    if want["visibility"] < FLAT_VISIBILITY:
        key = _metric_key("visibility", label, variant)
        value = got.get(key)
        if value is None or not value < FLAT_VISIBILITY:
            return [f"{key} = {value!r}, {reference} is flat"]
        return []
    problems = []
    for name in PATTERN_METRICS:
        key = _metric_key(name, label, variant)
        value = got.get(key)
        if value is None or not _close(value, want[name]):
            problems.append(f"{key} = {value!r}, {reference} gives {want[name]!r}")
    return problems


# ---------------------------------------------------------------------------
# demo-suite: the six demos at n = 256, written as csv, pgm and json


def _demo_documents(waist_scale: float, separation_scale: float) -> list[dict]:
    g = Ghost(256, 1e-5, 0.0, SOURCE_WAIST * waist_scale, SLIT_SEPARATION * separation_scale)
    fringes = g.fringe_region()
    grid = g.grid()
    outputs = {"formats": ["csv", "pgm", "json"]}

    def doc(name: str, **body) -> dict:
        return {"schema_version": 1, "name": name, "grid": grid, "wavelength": WAVELENGTH,
                **body, "outputs": outputs}

    ghost_imaging = doc(
        "ghost-imaging",
        source=_entangled(g.waist),
        arm1=[_mask(g.slits())],
        arm2=[{"element": "identity"}],
        measurements=[{"kind": "singles_2"}, {"kind": "marginal_2"},
                      _metrics("marginal_2", fringes),
                      _metrics("singles_2", fringes, label="reference")])

    ghost_diffraction = g.document(
        "ghost-diffraction",
        [{"label": "entangled", "source": _entangled(g.waist)},
         {"label": "correlated", "source": _correlated(g.waist)}],
        [{"kind": "joint"}, {"kind": "singles_2"}, {"kind": "marginal_2"},
         _metrics("marginal_2", fringes),
         {"kind": "sample", "n": SAMPLE_EVENTS, "seed": 1}])
    ghost_diffraction["outputs"] = outputs

    factorizable_null = doc(
        "factorizable-null",
        source={"type": "factorizable",
                "amplitude1": _gaussian(3e-4 * waist_scale, -5e-5),
                "amplitude2": _gaussian(2e-4 * waist_scale, 5e-5)},
        arm1=[_mask(g.slits()), {"element": "free_space", "distance": 0.05}],
        arm2=[{"element": "thin_lens", "focal_length": 0.1},
              {"element": "free_space", "distance": 0.07}],
        measurements=[{"kind": k} for k in
                      ("joint", "singles_1", "singles_2", "marginal_1", "marginal_2")])

    # Lossy shift-invariant (circulant) gating arm: the correlated marginal
    # equals the singles exactly.
    k = np.arange(g.n)
    d = np.minimum(k, g.n - k) * g.dx
    col = np.exp(-(d**2) / (2 * (5e-5) ** 2))
    col = 0.8 * col / (col.sum() * g.dx)
    blur = col[(k[:, None] - k[None, :]) % g.n]
    isoplanatic = doc(
        "isoplanatic-correlated",
        source=_correlated(g.waist),
        arm1=[{"element": "custom", "matrix": blur.tolist()}],
        arm2=[{"element": "free_space", "distance": 0.05}],
        measurements=[{"kind": "singles_2"}, {"kind": "marginal_2"}])

    widths = (6.4e-4, 1.6e-4, 4e-5, 1e-5, 2.5e-6, 6.25e-7)
    spdc_sweep = g.document(
        "spdc-sweep",
        [{"label": "delta", "source": _entangled(g.waist)}]
        + [{"label": f"b{b * 1e6:g}um",
            "source": {"type": "spdc", "pump": _gaussian(g.waist), "pm_width": b}}
           for b in widths],
        [{"kind": "schmidt"}, {"kind": "singles_2"}, {"kind": "marginal_2"},
         _metrics("marginal_2", fringes)])
    spdc_sweep["outputs"] = outputs

    # Two dark-field point scatterers at depths 4 cm and 28 cm in the bucket
    # arm; the reference-arm lens focuses on either plane.
    def refocus_arm2(focal_length: float) -> list[dict]:
        return [{"element": "free_space", "distance": 0.08},
                {"element": "thin_lens", "focal_length": focal_length},
                _mask({"profile": "gaussian_aperture", "width": 4e-4}),
                {"element": "free_space", "distance": 0.12}]

    refocus_waist = 2e-4 * math.sqrt(2) * waist_scale
    refocus = doc(
        "refocus",
        arm1=[{"element": "free_space", "distance": 0.04},
              {"element": "free_space", "distance": 0.24},
              {"element": "free_space", "distance": 0.72}],
        scatterers={"arm": 1, "background": "dark",
                    "items": [{"plane": 1, "position": -2e-4, "strength": 0.05},
                              {"plane": 2, "position": 2e-4, "strength": 0.05}]},
        variants=[
            {"label": "entangled-planeA", "source": _entangled(refocus_waist),
             "arm2": refocus_arm2(0.06)},
            {"label": "entangled-planeB", "source": _entangled(refocus_waist),
             "arm2": refocus_arm2(0.09)},
            {"label": "correlated-planeA", "source": _correlated(refocus_waist),
             "arm2": refocus_arm2(0.06)},
        ],
        measurements=[{"kind": "singles_2"}, {"kind": "marginal_2"},
                      _metrics("marginal_2", (138, 158), label="planeA"),
                      _metrics("marginal_2", (111, 128), label="planeB"),
                      _metrics("marginal_2", (0, 256), label="full")])

    return [ghost_imaging, ghost_diffraction, factorizable_null, isoplanatic,
            spdc_sweep, refocus]


def _check_demo_suite(summaries: list) -> list[str]:
    """Acceptance thresholds 6 (ghost-diffraction contrast) and 1/5 (the
    factorizable and isoplanatic-correlated marginal equals the singles)."""
    by_name = {s.name: s.metrics for s in summaries}
    checks = [
        ("ghost-diffraction", "visibility_entangled", lambda v: v >= 0.9, ">= 0.9"),
        ("ghost-diffraction", "visibility_correlated", lambda v: v <= 0.05, "<= 0.05"),
        ("factorizable-null", "marginal_singles_gap_arm1", lambda v: v <= 1e-10, "<= 1e-10"),
        ("factorizable-null", "marginal_singles_gap_arm2", lambda v: v <= 1e-10, "<= 1e-10"),
        ("isoplanatic-correlated", "marginal_singles_gap_arm2",
         lambda v: v <= 1e-10, "<= 1e-10"),
    ]
    problems = []
    for doc, key, ok, rule in checks:
        value = by_name.get(doc, {}).get(key)
        if value is None or not ok(value):
            problems.append(f"{doc}: {key} = {value!r}, required {rule}")
    return problems


def demo_suite(seed: int) -> Workload:
    rng = _rng("demo-suite", seed)
    docs = _demo_documents(rng.uniform(0.87, 1.13), rng.uniform(0.8, 1.2))
    return Workload("demo-suite", _texts(docs), writes=True, check=_check_demo_suite)


# ---------------------------------------------------------------------------
# large-grid: ghost diffraction and one SPDC source at n = 1024, compute only


def _oracle_metrics(g: Ghost) -> dict[tuple[str | None, str], dict]:
    """Image metrics of the closed-form marginals, keyed by (label, variant).

    Built from the public API, independently of the scenario runner: the
    entangled marginal by ``entangled_marginal_closed`` and the correlated
    one by ``correlated_marginal``."""
    grid = biphoton.make_grid(g.n, g.dx, g.center)
    f = g.focal_length
    k1 = biphoton.chain([
        biphoton.Mask(profiles.double_slit(grid, g.separation, SLIT_WIDTH)),
        biphoton.FourierSystem(f, WAVELENGTH),
        biphoton.Mask(profiles.gaussian_aperture(grid, g.dx)),
    ], grid)
    k2 = biphoton.chain([biphoton.FourierSystem(f, WAVELENGTH)], grid)
    phi = biphoton.SinglePhotonPure.normalized(grid, profiles.gaussian(grid, g.waist))
    corr = biphoton.correlated_from_intensity(
        profiles.gaussian(grid, g.waist / math.sqrt(2)), grid)
    marginals = {
        (None, "entangled"): (biphoton.entangled_marginal_closed(phi, k2, k1), g.fringe_region()),
        ("gate", "entangled"): (biphoton.entangled_marginal_closed(phi, k1, k2), g.gate_region()),
        (None, "correlated"): (biphoton.correlated_marginal(corr, k2, k1), g.fringe_region()),
        ("gate", "correlated"): (biphoton.correlated_marginal(corr, k1, k2), g.gate_region()),
    }
    out = {}
    for key, (density, region) in marginals.items():
        m = biphoton.image_metrics(density, region)
        out[key] = {"visibility": m.visibility, "fwhm": m.fwhm, "peak_position": m.peak_position}
    return out


def large_grid(seed: int) -> Workload:
    rng = _rng("large-grid", seed)
    g = _offset_ghost(rng, 1024, 5e-6)
    pm_width = math.exp(rng.uniform(math.log(2e-6), math.log(2e-5)))
    marginals = [{"kind": "marginal_1"}, {"kind": "marginal_2"},
                 _metrics("marginal_2", g.fringe_region()),
                 _metrics("marginal_1", g.gate_region(), label="gate")]
    ghost = g.document(
        "ghost-diffraction-1024",
        [{"label": "entangled", "source": _entangled(g.waist)},
         {"label": "correlated", "source": _correlated(g.waist)}],
        [{"kind": "joint"}, {"kind": "singles_2"}, *marginals,
         {"kind": "sample", "n": SAMPLE_EVENTS, "seed": 1}])
    spdc = g.document(
        "spdc-1024",
        [{"label": "spdc",
          "source": {"type": "spdc", "pump": _gaussian(g.waist), "pm_width": pm_width}}],
        [{"kind": "schmidt"}, {"kind": "singles_2"}, {"kind": "marginal_2"},
         _metrics("marginal_2", g.fringe_region())])
    oracle = _oracle_metrics(g)

    def check(summaries: list) -> list[str]:
        ghost_metrics, spdc_metrics = summaries[0].metrics, summaries[1].metrics
        problems = []
        for (label, variant), want in oracle.items():
            problems += _compare_pattern(ghost_metrics, want, label, variant, "closed form")
        k = spdc_metrics.get("schmidt_K_spdc")
        if k is None or not k >= 1.0:
            problems.append(f"schmidt_K_spdc = {k!r}, required >= 1")
        return problems

    return Workload("large-grid", _texts([ghost, spdc]), writes=False, check=check)


# ---------------------------------------------------------------------------
# mixture-localized: n dense pure components against the correlated closed form


def mixture_localized(seed: int) -> Workload:
    rng = _rng("mixture-localized", seed)
    g = _offset_ghost(rng, 128, 2e-5)
    doc = g.document(
        "mixture-localized",
        [{"label": "localized",
          "source": {"type": "mixture",
                     "components": [{"weight": 1.0, "source": _localized(g.waist)}]}},
         {"label": "entangled-localized",
          "source": {"type": "mixture",
                     "components": [{"weight": 0.5, "source": _entangled(g.waist)},
                                    {"weight": 0.5, "source": _localized(g.waist)}]}},
         {"label": "correlated", "source": _correlated(g.waist)}],
        [{"kind": "joint"}, {"kind": "singles_2"}, {"kind": "marginal_1"},
         {"kind": "marginal_2"},
         _metrics("marginal_2", g.fringe_region()),
         _metrics("marginal_1", g.gate_region(), label="gate")])

    def check(summaries: list) -> list[str]:
        """The localized mixture is the correlated source written out as
        co-located pure pairs: every metric must agree."""
        m = summaries[0].metrics
        problems = []
        for label in (None, "gate"):
            want = {name: m.get(_metric_key(name, label, "correlated"), math.nan)
                    for name in PATTERN_METRICS}
            problems += _compare_pattern(m, want, label, "localized", "correlated source")
        a, b = m.get("marginal_singles_gap_arm2_localized"), m.get(
            "marginal_singles_gap_arm2_correlated")
        if a is None or b is None or not _close(a, b):
            problems.append(f"marginal_singles_gap_arm2: localized {a!r}, correlated {b!r}")
        return problems

    return Workload("mixture-localized", _texts([doc]), writes=False, check=check)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "demo-suite": demo_suite,
    "large-grid": large_grid,
    "mixture-localized": mixture_localized,
}
