"""Config-driven scenario runner.

``run_scenario`` builds a parsed ``Scenario`` (see ``schema``) into kernels
and sources, executes its measurement pipeline deterministically and writes
CSV / PGM / JSON files; ``demo_catalog`` parses the built-in demos, which
cover ghost imaging and diffraction, the factorizable null case, the
isoplanatic correlated case, an SPDC phase-matching sweep and scatterer
refocusing.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import measure, profiles, sampling, sources
from .errors import PhysicsError, ValidationError
from .grid import Grid
from .optics import (
    Custom,
    FourierSystem,
    FreeSpace,
    Identity,
    Kernel,
    Mask,
    Scatterer,
    ThinLens,
    chain,
    with_scatterers,
)
from .schema import (
    DEFAULT_FORMATS,
    SCHEMA_VERSION,
    ElementCfg,
    ProfileCfg,
    Scenario,
    ScattererItemCfg,
    ScatterersCfg,
    SourceCfg,
    VariantCfg,
    scenario_from_document,
)

_NEEDS_JOINT = {"joint", "marginal_1", "marginal_2", "sample"}


# ---------------------------------------------------------------------------
# Building runtime objects from configuration


def _resolve_profile(cfg: ProfileCfg, grid: Grid) -> np.ndarray:
    if cfg.kind == "array":
        return np.array(cfg.params["values"], dtype=complex)
    fn = getattr(profiles, cfg.kind)
    return fn(grid, **cfg.params)


def _build_element(e: ElementCfg, grid: Grid, wavelength: float):
    if e.kind == "identity":
        return Identity()
    if e.kind == "free_space":
        return FreeSpace(e.distance, wavelength)
    if e.kind == "thin_lens":
        return ThinLens(e.focal_length, wavelength)
    if e.kind == "fourier":
        return FourierSystem(e.focal_length, wavelength)
    if e.kind == "mask":
        return Mask(_resolve_profile(e.transmittance, grid))
    if e.kind == "custom":
        return Custom(np.array(e.matrix, dtype=complex))
    raise ValidationError(f"unknown element kind {e.kind!r}")


def _build_arm(elements: tuple[ElementCfg, ...], scat: ScatterersCfg | None,
               grid: Grid, wavelength: float) -> Kernel:
    specs = [_build_element(e, grid, wavelength) for e in elements]
    if scat is None:
        return chain(specs, grid)
    # Each plane's scatterers are added to the running response.
    h = chain(specs, grid) if scat.background == "direct" else Kernel(
        grid, grid, np.zeros((grid.n, grid.n), dtype=complex))
    by_plane: dict[int, list[ScattererItemCfg]] = {}
    for it in scat.items:
        by_plane.setdefault(it.plane, []).append(it)
    for plane, items in sorted(by_plane.items()):
        h = with_scatterers(chain(specs[:plane], grid), chain(specs[plane:], grid),
                            [Scatterer(it.position, it.strength) for it in items], h)
    return h


def _build_source(cfg: SourceCfg, grid: Grid):
    if cfg.kind == "single_pure" or (cfg.kind == "single_mixed" and cfg.model == "coherent"):
        return sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude, grid))
    if cfg.kind in ("single_mixed", "correlated", "localized"):
        # An incoherent photon images as one arm of a correlated pair does:
        # |H|^2 applied to its normalized intensity. A mixture writes a
        # localized source out as its co-located pairs.
        gamma = np.abs(_resolve_profile(cfg.intensity, grid))
        return sources.correlated_from_intensity(gamma, grid)
    if cfg.kind == "factorizable":
        phi1 = sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude, grid))
        phi2 = sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude2, grid))
        return sources.factorizable(phi1, phi2)
    if cfg.kind == "entangled_delta":
        phi = sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude, grid))
        return sources.entangled_delta(phi)
    if cfg.kind == "spdc":
        pump = _resolve_profile(cfg.pump, grid)
        return sources.spdc_amplitude(sources.SpdcParams(pump, cfg.pm_width), grid)
    if cfg.kind == "mixture":
        comps = []
        for c in cfg.components:
            if c.source.kind == "localized":
                inner = sources.localized_pair_mixture(_build_source(c.source, grid))
                comps += [(c.weight * w, state) for w, state in inner.components]
            else:
                comps.append((c.weight, _build_source(c.source, grid)))
        total = sum(w for w, _ in comps)
        return sources.BiphotonMixture(tuple((w / total, state) for w, state in comps))
    raise ValidationError(f"unknown source kind {cfg.kind!r}")


# ---------------------------------------------------------------------------
# Running


@dataclass
class VariantResults:
    label: str
    items: dict[str, object] = field(default_factory=dict)  # kind -> result object


@dataclass
class RunSummary:
    name: str | None
    metrics: dict[str, float]
    files: list[str]
    duration_s: float
    timings: dict[str, float] = field(default_factory=dict)  # stage -> seconds

    def document(self) -> dict:
        """JSON-safe summary document (duration and timings excluded: output
        files must be byte-identical across re-runs)."""
        metrics = {k: (None if isinstance(v, float) and math.isnan(v) else v)
                   for k, v in self.metrics.items()}
        return {"schema_version": SCHEMA_VERSION, "name": self.name,
                "metrics": metrics, "files": self.files}


def _stable_seed(*parts) -> int:
    payload = "::".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") % (2**63)


def _metric_key(base: str, label: str | None, variant: str) -> str:
    parts = [base]
    if label:
        parts.append(label)
    if variant:
        parts.append(variant)
    return "_".join(parts)


def _with_context(kind: str, label: str, fn):
    """Run one measurement, tagging physics failures with their context."""
    try:
        return fn()
    except PhysicsError as e:
        ctx = f" (variant {label!r})" if label else ""
        raise PhysicsError(f"measurement {kind!r}{ctx}: {e}") from e


def _build_arms(s: Scenario, variants: tuple[VariantCfg, ...]
                ) -> list[tuple[Kernel, Kernel | None]]:
    """The (arm 1, arm 2) kernels of each variant, building each distinct
    (elements, scatterers) pair once. Configs hold dicts, so they are
    matched with == rather than hashed."""
    scat1 = s.scatterers if (s.scatterers and s.scatterers.arm == 1) else None
    scat2 = s.scatterers if (s.scatterers and s.scatterers.arm == 2) else None
    built: list[tuple[tuple, Kernel]] = []

    def arm(elements: tuple[ElementCfg, ...], scat: ScatterersCfg | None) -> Kernel:
        key = (elements, scat)
        for k, kernel in built:
            if k == key:
                return kernel
        kernel = _build_arm(elements, scat, s.grid, s.wavelength)
        built.append((key, kernel))
        return kernel

    arms = []
    for v in variants:
        _, arm1_cfg, arm2_cfg = s.resolve(v)
        arms.append((arm(arm1_cfg, scat1),
                     arm(arm2_cfg, scat2) if arm2_cfg is not None else None))
    return arms


def _compute_variant(s: Scenario, v: VariantCfg, k1: Kernel, k2: Kernel | None,
                     seed_override: int | None) -> VariantResults:
    try:
        src = _build_source(s.resolve(v)[0], s.grid)
    except ValidationError as e:
        # A resolved profile can fail checks that parsing cannot make (a
        # Gaussian that underflows to zero on the grid): name the field.
        where = "source" if v.source is None else f"variants[{s.variants.index(v)}].source"
        raise ValidationError(str(e), field=where) from e
    kinds = [m.kind for m in s.measurements]
    res = VariantResults(v.label)

    joint = None
    if isinstance(src, sources.SinglePhotonPure):
        if "singles_1" in kinds:
            res.items["singles_1"] = _with_context(
                "singles_1", v.label, lambda: measure.single_coherent(src, k1))
    else:
        if any(k in kinds for k in _NEEDS_JOINT):
            joint = _with_context(
                "joint", v.label, lambda: measure.biphoton_joint(src, k1, k2))
        for arm, k in ((1, k1), (2, k2)):
            if f"singles_{arm}" in kinds:
                res.items[f"singles_{arm}"] = _with_context(
                    f"singles_{arm}", v.label,
                    lambda arm=arm, k=k: measure.biphoton_singles(src, k, arm))
            if f"marginal_{arm}" in kinds:
                res.items[f"marginal_{arm}"] = _with_context(
                    f"marginal_{arm}", v.label,
                    lambda arm=arm: measure.marginal_from_joint(joint, arm))
        if "schmidt" in kinds:
            res.items["schmidt"] = sources.schmidt_spectrum(src)

    if "joint" in kinds and joint is not None:
        res.items["joint"] = joint
    for i, m in enumerate(s.measurements):
        if m.kind == "sample":
            seed = m.seed if seed_override is None else _stable_seed(seed_override, v.label, i)
            res.items["sample"] = _with_context(
                "sample", v.label, lambda: sampling.sample_joint(joint, m.n, seed))
    return res


def run_scenario(
    s: Scenario,
    out_dir: str | Path | None = None,
    formats: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> RunSummary:
    """Execute all measurements of a scenario, write requested outputs and
    return the summary. Deterministic for a fixed scenario document."""
    t0 = time.perf_counter()
    variants = s.effective_variants()
    arms = _build_arms(s, variants)
    results = [_compute_variant(s, v, *k, seed) for v, k in zip(variants, arms)]
    del arms

    metrics: dict[str, float] = {}
    for r in results:
        for m in s.measurements:
            if m.kind == "metrics":
                target = r.items[m.of]
                im = _with_context(
                    f"metrics[{m.label or m.of}]", r.label,
                    lambda target=target, m=m: measure.image_metrics(target, m.region))
                metrics[_metric_key("visibility", m.label, r.label)] = im.visibility
                metrics[_metric_key("fwhm", m.label, r.label)] = im.fwhm
                metrics[_metric_key("peak_position", m.label, r.label)] = im.peak_position
        if "schmidt" in r.items:
            sp = r.items["schmidt"]
            metrics[_metric_key("schmidt_entropy", None, r.label)] = sp.entropy
            metrics[_metric_key("schmidt_K", None, r.label)] = sp.participation
        for arm in (1, 2):
            sk, mk = f"singles_{arm}", f"marginal_{arm}"
            if sk in r.items and mk in r.items:
                ps = r.items[sk].values
                pm = r.items[mk].values
                gap = float(np.max(np.abs(pm - ps)) / ps.max())
                metrics[_metric_key(f"marginal_singles_gap_arm{arm}", None, r.label)] = gap

    directory = out_dir if out_dir is not None else (
        s.outputs.directory if s.outputs else None)
    fmts = formats if formats is not None else (
        s.outputs.formats if s.outputs else DEFAULT_FORMATS)
    t1 = time.perf_counter()
    summary = RunSummary(s.name, metrics, [], t1 - t0)
    if directory is not None:
        summary.files = write_outputs(results, directory, fmts, summary=summary)
        summary.duration_s = time.perf_counter() - t0
    summary.timings = {"compute": t1 - t0, "write": summary.duration_s - (t1 - t0)}
    return summary


# ---------------------------------------------------------------------------
# Output writing
#
# Numbers are written as repr() of Python floats (shortest round-trip form)
# and str() of Python ints. Arrays are converted with tolist(), which yields
# the same Python numbers as float(v) / int(v) per element, so the text equals
# per-element formatting. Each axis coordinate is formatted once, and 2-D
# tables are converted and streamed to the open file one grid row at a time,
# so memory stays at one row of text.


def _write_csv_1d(path: Path, d: measure.Density1D) -> None:
    rows = map("{},{}\n".format, map(repr, d.grid.points.tolist()), map(repr, d.values.tolist()))
    path.write_text("x,p\n" + "".join(rows))


def _write_table_2d(path: Path, header: str, x1: np.ndarray, x2: np.ndarray,
                    values: np.ndarray, fmt) -> None:
    """Write ``x1,x2,value`` lines in row-major order, value text from fmt."""
    cols = [x + "," for x in map(repr, x2.tolist())]
    with path.open("w", newline="\n") as f:
        f.write(header + "\n")
        for x, row in zip(map(repr, x1.tolist()), values):
            head = x + ","
            f.write(head + ("\n" + head).join(map(str.__add__, cols, map(fmt, row.tolist())))
                    + "\n")


def _write_csv_2d(path: Path, d: measure.Density2D) -> None:
    _write_table_2d(path, "x1,x2,p", d.grid1.points, d.grid2.points, d.values, repr)


def _write_pgm(path: Path, values: np.ndarray) -> None:
    """Plain PGM (P2), 16-bit, density max scaled to 65535."""
    peak = values.max()
    scaled = np.zeros_like(values, dtype=np.int64) if peak <= 0 else \
        np.rint(values / peak * 65535).astype(np.int64)
    h, w = values.shape
    with path.open("w", newline="\n") as f:
        f.write(f"P2\n{w} {h}\n65535\n")
        for row in scaled:
            f.write(" ".join(map(str, row.tolist())) + "\n")


def _write_counts_csv(path: Path, c: sampling.CoincidenceCounts) -> None:
    _write_table_2d(path, "x1,x2,count", c.grid1.points, c.grid2.points, c.counts, str)


def _write_schmidt_csv(path: Path, sp: sources.SchmidtSpectrum) -> None:
    rows = map("{},{}\n".format, range(len(sp.singular_values)),
               map(repr, sp.singular_values.tolist()))
    path.write_text("index,sigma\n" + "".join(rows))


def write_outputs(
    results: list[VariantResults],
    directory: str | Path,
    formats: tuple[str, ...] = DEFAULT_FORMATS,
    summary: RunSummary | None = None,
) -> list[str]:
    """Write measurement results to ``directory``. 1-D densities go to CSV,
    2-D densities to CSV and 16-bit PGM, coincidence counts to CSV plus
    empirical marginal CSVs, the Schmidt spectrum to CSV, and the summary to
    summary.json. Returns the list of file names written."""
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise PhysicsError(f"cannot create output directory {out}: {e}") from e
    manifest: list[str] = []

    def emit(name: str, writer, *args) -> None:
        try:
            writer(out / name, *args)
        except OSError as e:
            raise PhysicsError(f"cannot write {out / name}: {e}") from e
        manifest.append(name)

    for r in results:
        prefix = f"{r.label}_" if r.label else ""
        for kind, obj in r.items.items():
            if isinstance(obj, measure.Density1D):
                if "csv" in formats:
                    emit(f"{prefix}{kind}.csv", _write_csv_1d, obj)
            elif isinstance(obj, measure.Density2D):
                if "csv" in formats:
                    emit(f"{prefix}{kind}.csv", _write_csv_2d, obj)
                if "pgm" in formats:
                    emit(f"{prefix}{kind}.pgm", _write_pgm, obj.values)
            elif isinstance(obj, sampling.CoincidenceCounts):
                if "csv" in formats:
                    emit(f"{prefix}sample_counts.csv", _write_counts_csv, obj)
                    _, m1, m2 = sampling.empirical_densities(obj)
                    emit(f"{prefix}sample_marginal_1.csv", _write_csv_1d, m1)
                    emit(f"{prefix}sample_marginal_2.csv", _write_csv_1d, m2)
                if "pgm" in formats:
                    emit(f"{prefix}sample_joint.pgm", _write_pgm,
                         obj.counts.astype(float))
            elif isinstance(obj, sources.SchmidtSpectrum):
                if "csv" in formats:
                    emit(f"{prefix}schmidt.csv", _write_schmidt_csv, obj)

    if summary is not None and "json" in formats:
        summary.files = manifest + ["summary.json"]
        text = json.dumps(summary.document(), indent=2, sort_keys=True, allow_nan=False)
        try:
            (out / "summary.json").write_text(text + "\n")
        except OSError as e:
            raise PhysicsError(f"cannot write {out / 'summary.json'}: {e}") from e
        manifest.append("summary.json")
    return manifest


def demo_catalog() -> dict[str, Scenario]:
    """Named built-in demo scenarios (parsed and validated)."""
    from .demos import demo_documents

    return {name: scenario_from_document(doc) for name, doc in demo_documents().items()}
