"""Config-driven scenario runner.

A scenario is a single versioned JSON document: one grid and wavelength, a
source (or labeled source/arm variants for side-by-side comparisons), one
or two optical arms as ordered element lists, optional embedded point
scatterers, a list of measurements, and output settings. ``run_scenario``
executes the measurement pipeline deterministically and writes CSV / PGM /
JSON files; the built-in demo catalog covers ghost imaging and diffraction,
the factorizable null case, the isoplanatic correlated case, an SPDC
phase-matching sweep and scatterer refocusing.
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

SCHEMA_VERSION = 1
DEFAULT_FORMATS = ("csv", "pgm", "json")

_TWO_PHOTON_KINDS = {"factorizable", "entangled_delta", "spdc", "correlated", "mixture"}
_PURE_BIPHOTON_KINDS = {"factorizable", "entangled_delta", "spdc"}
_DENSITY_MEASUREMENTS = {"joint", "singles_1", "singles_2", "marginal_1", "marginal_2"}
_NEEDS_ARM2 = {"joint", "singles_2", "marginal_1", "marginal_2", "sample"}
_NEEDS_JOINT = {"joint", "marginal_1", "marginal_2", "sample"}


# ---------------------------------------------------------------------------
# Configuration dataclasses (values round-trip exactly through JSON)


@dataclass(frozen=True)
class ProfileCfg:
    kind: str
    params: dict


@dataclass(frozen=True)
class ElementCfg:
    kind: str
    distance: float | None = None
    focal_length: float | None = None
    transmittance: ProfileCfg | None = None
    matrix: tuple | None = None  # tuple of row tuples of complex


@dataclass(frozen=True)
class MixtureComponentCfg:
    weight: float
    source: "SourceCfg"


@dataclass(frozen=True)
class SourceCfg:
    kind: str
    amplitude: ProfileCfg | None = None
    amplitude2: ProfileCfg | None = None
    intensity: ProfileCfg | None = None
    pump: ProfileCfg | None = None
    pm_width: float | None = None
    model: str | None = None
    components: tuple[MixtureComponentCfg, ...] | None = None


@dataclass(frozen=True)
class MeasurementCfg:
    kind: str
    n: int | None = None
    seed: int | None = None
    of: str | None = None
    region: tuple[int, int] | None = None
    label: str | None = None


@dataclass(frozen=True)
class ScattererItemCfg:
    plane: int
    position: float
    strength: complex


@dataclass(frozen=True)
class ScatterersCfg:
    arm: int
    background: str  # "dark" (h_o = 0) or "direct" (unscattered chain)
    items: tuple[ScattererItemCfg, ...]


@dataclass(frozen=True)
class VariantCfg:
    label: str
    source: SourceCfg | None = None
    arm1: tuple[ElementCfg, ...] | None = None
    arm2: tuple[ElementCfg, ...] | None = None


@dataclass(frozen=True)
class OutputsCfg:
    directory: str | None = None
    formats: tuple[str, ...] = DEFAULT_FORMATS


@dataclass(frozen=True)
class Scenario:
    grid: Grid
    wavelength: float
    measurements: tuple[MeasurementCfg, ...]
    source: SourceCfg | None = None
    arm1: tuple[ElementCfg, ...] | None = None
    arm2: tuple[ElementCfg, ...] | None = None
    scatterers: ScatterersCfg | None = None
    variants: tuple[VariantCfg, ...] = ()
    outputs: OutputsCfg | None = None
    name: str | None = None
    description: str | None = None

    def effective_variants(self) -> tuple[VariantCfg, ...]:
        """The variant list, or a single anonymous variant built from the
        scenario-level source and arms."""
        if self.variants:
            return self.variants
        return (VariantCfg(label=""),)

    def resolve(self, v: VariantCfg) -> tuple[SourceCfg, tuple[ElementCfg, ...], tuple[ElementCfg, ...] | None]:
        source = v.source if v.source is not None else self.source
        arm1 = v.arm1 if v.arm1 is not None else self.arm1
        arm2 = v.arm2 if v.arm2 is not None else self.arm2
        assert source is not None and arm1 is not None  # guaranteed by validation
        return source, arm1, arm2


# ---------------------------------------------------------------------------
# Parsing / validation helpers


def _fail(path: str, msg: str, *index: int):
    """Raise a ValidationError for ``path`` followed by ``[i]`` per index.
    Indices are formatted here, so hot parse loops format nothing unless
    an entry fails."""
    raise ValidationError(msg, field=path + "".join(f"[{i}]" for i in index))


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _no_unknown_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key")


def _get_number(obj: dict, key: str, path: str, *, required=True, default=None,
                positive=False, nonnegative=False, nonzero=False):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return default
    v = obj[key]
    p = f"{path}.{key}" if path else key
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(p, f"expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        _fail(p, "must be finite")
    if positive and not v > 0:
        _fail(p, f"must be positive, got {v!r}")
    if nonnegative and v < 0:
        _fail(p, f"must be non-negative, got {v!r}")
    if nonzero and v == 0:
        _fail(p, "must be nonzero")
    return v


def _get_int(obj: dict, key: str, path: str, *, required=True, default=None, minimum=None):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return default
    v = obj[key]
    p = f"{path}.{key}" if path else key
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(p, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(p, f"must be >= {minimum}, got {v}")
    return v


def _get_str(obj: dict, key: str, path: str, *, required=True, default=None, choices=None):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return default
    v = obj[key]
    p = f"{path}.{key}" if path else key
    if not isinstance(v, str):
        _fail(p, f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        _fail(p, f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _as_complex(v, path: str, *index: int) -> complex:
    if isinstance(v, bool):
        _fail(path, f"expected a number or [re, im] pair, got {v!r}", *index)
    if isinstance(v, (int, float)):
        return complex(float(v), 0.0)
    if isinstance(v, list) and len(v) == 2 and all(
        isinstance(c, (int, float)) and not isinstance(c, bool) for c in v
    ):
        return complex(float(v[0]), float(v[1]))
    _fail(path, f"expected a number or [re, im] pair, got {v!r}", *index)


def _require_finite(values: tuple, total: complex, path: str) -> None:
    """Fail naming the first non-finite entry of ``values`` (a tuple of
    numbers or of rows), given their sum. NaN and inf survive summation, so
    a finite total clears the input and entries are searched only when it is
    not finite (a sum that overflowed finds no entry and passes)."""
    if not np.isfinite(total):
        bad = np.argwhere(~np.isfinite(np.array(values, dtype=complex)))
        if bad.size:
            _fail(path, "must be finite", *(int(i) for i in bad[0]))


_PROFILE_FIELDS = {
    "gaussian": {"waist": True, "center": False},
    "gaussian_aperture": {"width": True, "center": False},
    "uniform": {},
    "delta": {"position": False},
    "double_slit": {"separation": True, "width": True},
    "step_edge": {"position": False},
}


def _parse_profile(obj, path: str) -> ProfileCfg:
    d = _require_mapping(obj, path)
    kind = _get_str(d, "profile", path, choices=set(_PROFILE_FIELDS) | {"array"})
    if kind == "array":
        _no_unknown_keys(d, {"profile", "values"}, path)
        raw = d.get("values")
        if not isinstance(raw, list) or not raw:
            _fail(f"{path}.values", "expected a non-empty list")
        vpath = f"{path}.values"
        values = tuple(_as_complex(v, vpath, i) for i, v in enumerate(raw))
        _require_finite(values, sum(values), vpath)
        return ProfileCfg("array", {"values": values})
    fields = _PROFILE_FIELDS[kind]
    _no_unknown_keys(d, {"profile", *fields}, path)
    params = {}
    for name, required in fields.items():
        positive = name in ("waist", "width", "separation")
        v = _get_number(d, name, path, required=required, positive=positive,
                        default=0.0 if name in ("center", "position") else None)
        if v is not None:
            params[name] = v
    return ProfileCfg(kind, params)


def _resolve_profile(cfg: ProfileCfg, grid: Grid) -> np.ndarray:
    if cfg.kind == "array":
        values = np.array(cfg.params["values"], dtype=complex)
        if values.shape != (grid.n,):
            raise ValidationError(
                f"array profile length {values.shape[0]} does not match grid n={grid.n}"
            )
        return values
    fn = getattr(profiles, cfg.kind)
    return fn(grid, **cfg.params)


_ELEMENT_FIELDS = {
    "identity": set(),
    "free_space": {"distance"},
    "thin_lens": {"focal_length"},
    "mask": {"transmittance"},
    "fourier": {"focal_length"},
    "custom": {"matrix"},
}


def _parse_element(obj, path: str) -> ElementCfg:
    d = _require_mapping(obj, path)
    kind = _get_str(d, "element", path, choices=set(_ELEMENT_FIELDS))
    _no_unknown_keys(d, {"element", *_ELEMENT_FIELDS[kind]}, path)
    if kind == "free_space":
        return ElementCfg(kind, distance=_get_number(d, "distance", path, positive=True))
    if kind in ("thin_lens", "fourier"):
        return ElementCfg(kind, focal_length=_get_number(d, "focal_length", path, nonzero=True))
    if kind == "mask":
        if "transmittance" not in d:
            _fail(f"{path}.transmittance", "missing required field")
        return ElementCfg(kind, transmittance=_parse_profile(d["transmittance"], f"{path}.transmittance"))
    if kind == "custom":
        raw = d.get("matrix")
        if not isinstance(raw, list) or not raw:
            _fail(f"{path}.matrix", "expected a non-empty list of rows")
        mpath = f"{path}.matrix"
        rows = []
        width = None
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                _fail(mpath, "expected a list", i)
            if width is None:
                width = len(row)
            elif len(row) != width:
                _fail(mpath, "ragged matrix rows", i)
            rows.append(tuple(_as_complex(v, mpath, i, j) for j, v in enumerate(row)))
        _require_finite(rows, sum(map(sum, rows)), mpath)
        return ElementCfg(kind, matrix=tuple(rows))
    return ElementCfg(kind)


def _parse_arm(obj, path: str) -> tuple[ElementCfg, ...]:
    if not isinstance(obj, list):
        _fail(path, f"expected a list of elements, got {type(obj).__name__}")
    return tuple(_parse_element(e, f"{path}[{i}]") for i, e in enumerate(obj))


_SOURCE_FIELDS = {
    "single_pure": {"amplitude"},
    "single_mixed": {"model", "amplitude", "intensity"},
    "factorizable": {"amplitude1", "amplitude2"},
    "entangled_delta": {"amplitude"},
    "spdc": {"pump", "pm_width"},
    "correlated": {"intensity"},
    "mixture": {"components"},
    "localized": {"intensity"},
}


def _parse_source(obj, path: str, *, mixture_component=False) -> SourceCfg:
    d = _require_mapping(obj, path)
    allowed_kinds = set(_SOURCE_FIELDS) - {"localized"}
    if mixture_component:
        allowed_kinds = _PURE_BIPHOTON_KINDS | {"localized"}
    kind = _get_str(d, "type", path, choices=allowed_kinds)
    _no_unknown_keys(d, {"type", *_SOURCE_FIELDS[kind]}, path)

    def prof(key, required=True):
        if key not in d:
            if required:
                _fail(f"{path}.{key}", "missing required field")
            return None
        return _parse_profile(d[key], f"{path}.{key}")

    if kind in ("single_pure", "entangled_delta"):
        return SourceCfg(kind, amplitude=prof("amplitude"))
    if kind == "single_mixed":
        model = _get_str(d, "model", path, choices={"coherent", "incoherent"})
        if model == "coherent":
            return SourceCfg(kind, model=model, amplitude=prof("amplitude"))
        return SourceCfg(kind, model=model, intensity=prof("intensity"))
    if kind == "factorizable":
        if "amplitude1" not in d:
            _fail(f"{path}.amplitude1", "missing required field")
        return SourceCfg(
            kind,
            amplitude=_parse_profile(d["amplitude1"], f"{path}.amplitude1"),
            amplitude2=prof("amplitude2"),
        )
    if kind == "spdc":
        return SourceCfg(kind, pump=prof("pump"),
                         pm_width=_get_number(d, "pm_width", path, positive=True))
    if kind in ("correlated", "localized"):
        return SourceCfg(kind, intensity=prof("intensity"))
    # mixture
    raw = d.get("components")
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}.components", "expected a non-empty list")
    comps = []
    for i, c in enumerate(raw):
        cp = f"{path}.components[{i}]"
        cd = _require_mapping(c, cp)
        _no_unknown_keys(cd, {"weight", "source"}, cp)
        w = _get_number(cd, "weight", cp, nonnegative=True)
        if "source" not in cd:
            _fail(f"{cp}.source", "missing required field")
        comps.append(MixtureComponentCfg(w, _parse_source(cd["source"], f"{cp}.source",
                                                          mixture_component=True)))
    total = sum(c.weight for c in comps)
    if abs(total - 1.0) > 1e-6:
        _fail(f"{path}.components", f"weights must sum to 1, got {total!r}")
    return SourceCfg(kind, components=tuple(comps))


_MEASUREMENT_KINDS = _DENSITY_MEASUREMENTS | {"schmidt", "sample", "metrics"}


def _parse_measurement(obj, path: str) -> MeasurementCfg:
    d = _require_mapping(obj, path)
    kind = _get_str(d, "kind", path, choices=_MEASUREMENT_KINDS)
    if kind == "sample":
        _no_unknown_keys(d, {"kind", "n", "seed"}, path)
        return MeasurementCfg(kind, n=_get_int(d, "n", path, minimum=1),
                              seed=_get_int(d, "seed", path))
    if kind == "metrics":
        _no_unknown_keys(d, {"kind", "of", "region", "label"}, path)
        of = _get_str(d, "of", path,
                      choices={"singles_1", "singles_2", "marginal_1", "marginal_2"})
        region = None
        if "region" in d:
            raw = d["region"]
            if (not isinstance(raw, list) or len(raw) != 2
                    or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
                _fail(f"{path}.region", "expected [start, stop] integer pair")
            region = (raw[0], raw[1])
        label = _get_str(d, "label", path, required=False)
        if label is not None and not _is_safe_name(label):
            _fail(f"{path}.label", f"invalid label {label!r}")
        return MeasurementCfg(kind, of=of, region=region, label=label)
    _no_unknown_keys(d, {"kind"}, path)
    return MeasurementCfg(kind)


def _is_safe_name(s: str) -> bool:
    return bool(s) and all(c.isalnum() or c in "._-" for c in s) and not s.startswith(".")


def _parse_scatterers(obj, path: str) -> ScatterersCfg:
    d = _require_mapping(obj, path)
    _no_unknown_keys(d, {"arm", "background", "items"}, path)
    arm = _get_int(d, "arm", path)
    if arm not in (1, 2):
        _fail(f"{path}.arm", f"must be 1 or 2, got {arm}")
    background = _get_str(d, "background", path, required=False, default="direct",
                          choices={"dark", "direct"})
    raw = d.get("items")
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}.items", "expected a non-empty list")
    items = []
    for i, it in enumerate(raw):
        ip = f"{path}.items[{i}]"
        idict = _require_mapping(it, ip)
        _no_unknown_keys(idict, {"plane", "position", "strength"}, ip)
        plane = _get_int(idict, "plane", ip, minimum=0)
        position = _get_number(idict, "position", ip)
        if "strength" not in idict:
            _fail(f"{ip}.strength", "missing required field")
        strength = _as_complex(idict["strength"], f"{ip}.strength")
        if not np.isfinite(strength):
            _fail(f"{ip}.strength", "must be finite")
        items.append(ScattererItemCfg(plane, position, strength))
    return ScatterersCfg(arm, background, tuple(items))


def _parse_outputs(obj, path: str) -> OutputsCfg:
    d = _require_mapping(obj, path)
    _no_unknown_keys(d, {"directory", "formats"}, path)
    directory = _get_str(d, "directory", path, required=False)
    formats = DEFAULT_FORMATS
    if "formats" in d:
        raw = d["formats"]
        if not isinstance(raw, list) or not raw:
            _fail(f"{path}.formats", "expected a non-empty list")
        for i, f in enumerate(raw):
            if f not in DEFAULT_FORMATS:
                _fail(f"{path}.formats[{i}]", f"must be one of {list(DEFAULT_FORMATS)}, got {f!r}")
        if len(set(raw)) != len(raw):
            _fail(f"{path}.formats", "duplicate formats")
        formats = tuple(raw)
    return OutputsCfg(directory, formats)


def scenario_from_document(doc) -> Scenario:
    """Validate a parsed JSON document and build a Scenario."""
    d = _require_mapping(doc, "")
    allowed = {"schema_version", "name", "description", "grid", "wavelength", "source",
               "arm1", "arm2", "scatterers", "variants", "measurements", "outputs"}
    _no_unknown_keys(d, allowed, "")
    version = _get_int(d, "schema_version", "")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")

    name = _get_str(d, "name", "", required=False)
    if name is not None and not _is_safe_name(name):
        _fail("name", f"invalid name {name!r}")
    description = _get_str(d, "description", "", required=False)

    if "grid" not in d:
        _fail("grid", "missing required field")
    gd = _require_mapping(d["grid"], "grid")
    _no_unknown_keys(gd, {"n", "dx", "center"}, "grid")
    n = _get_int(gd, "n", "grid", minimum=2)
    dx = _get_number(gd, "dx", "grid", positive=True)
    center = _get_number(gd, "center", "grid", required=False, default=0.0)
    grid = Grid(n, dx, center)

    wavelength = _get_number(d, "wavelength", "", positive=True)

    source = _parse_source(d["source"], "source") if "source" in d else None
    arm1 = _parse_arm(d["arm1"], "arm1") if "arm1" in d else None
    arm2 = _parse_arm(d["arm2"], "arm2") if "arm2" in d else None
    scatterers = _parse_scatterers(d["scatterers"], "scatterers") if "scatterers" in d else None

    variants: list[VariantCfg] = []
    if "variants" in d:
        raw = d["variants"]
        if not isinstance(raw, list) or not raw:
            _fail("variants", "expected a non-empty list")
        labels = set()
        for i, v in enumerate(raw):
            vp = f"variants[{i}]"
            vd = _require_mapping(v, vp)
            _no_unknown_keys(vd, {"label", "source", "arm1", "arm2"}, vp)
            label = _get_str(vd, "label", vp)
            if not _is_safe_name(label):
                _fail(f"{vp}.label", f"invalid label {label!r}")
            if label in labels:
                _fail(f"{vp}.label", f"duplicate label {label!r}")
            labels.add(label)
            variants.append(VariantCfg(
                label,
                source=_parse_source(vd["source"], f"{vp}.source") if "source" in vd else None,
                arm1=_parse_arm(vd["arm1"], f"{vp}.arm1") if "arm1" in vd else None,
                arm2=_parse_arm(vd["arm2"], f"{vp}.arm2") if "arm2" in vd else None,
            ))

    if "measurements" not in d:
        _fail("measurements", "missing required field")
    mraw = d["measurements"]
    if not isinstance(mraw, list) or not mraw:
        _fail("measurements", "expected a non-empty list")
    measurements = tuple(_parse_measurement(m, f"measurements[{i}]") for i, m in enumerate(mraw))

    outputs = _parse_outputs(d["outputs"], "outputs") if "outputs" in d else None

    s = Scenario(grid=grid, wavelength=wavelength, measurements=measurements, source=source,
                 arm1=arm1, arm2=arm2, scatterers=scatterers, variants=tuple(variants),
                 outputs=outputs, name=name, description=description)
    _validate_cross_fields(s)
    return s


def _validate_cross_fields(s: Scenario) -> None:
    kinds = [m.kind for m in s.measurements]
    for kind in _DENSITY_MEASUREMENTS | {"schmidt", "sample"}:
        if kinds.count(kind) > 1:
            _fail("measurements", f"duplicate measurement {kind!r}")
    labels = [m.label or "" for m in s.measurements if m.kind == "metrics"]
    if len(set(labels)) != len(labels):
        _fail("measurements", "metrics measurements need distinct labels")
    present = set(kinds)
    for i, m in enumerate(s.measurements):
        if m.kind == "metrics":
            if m.of not in present:
                _fail(f"measurements[{i}].of",
                      f"references measurement {m.of!r} which is not requested")
            if m.region is not None:
                start, stop = m.region
                if not 0 <= start < stop <= s.grid.n:
                    _fail(f"measurements[{i}].region",
                          f"[{start}, {stop}) invalid for grid of {s.grid.n} points")

    for vi, v in enumerate(s.effective_variants()):
        where = f"variants[{vi}]" if s.variants else ""
        source = v.source if v.source is not None else s.source
        arm1 = v.arm1 if v.arm1 is not None else s.arm1
        arm2 = v.arm2 if v.arm2 is not None else s.arm2
        if source is None:
            _fail(f"{where}.source" if where else "source", "missing required field")
        if arm1 is None:
            _fail(f"{where}.arm1" if where else "arm1", "missing required field")
        two_photon = source.kind in _TWO_PHOTON_KINDS
        for i, m in enumerate(s.measurements):
            mp = f"measurements[{i}]"
            if m.kind in _NEEDS_ARM2 and arm2 is None:
                _fail(mp, f"measurement {m.kind!r} requires arm2"
                          + (f" (variant {v.label!r})" if v.label else ""))
            if not two_photon and m.kind in (_NEEDS_ARM2 | {"schmidt"}):
                _fail(mp, f"measurement {m.kind!r} requires a two-photon source, "
                          f"got {source.kind!r}")
            if m.kind == "schmidt" and source.kind not in _PURE_BIPHOTON_KINDS:
                _fail(mp, f"schmidt needs a pure two-photon source, got {source.kind!r}")
        if s.scatterers is not None:
            arm_elements = arm1 if s.scatterers.arm == 1 else arm2
            if arm_elements is None:
                _fail("scatterers.arm", f"arm{s.scatterers.arm} is not defined")
            for i, item in enumerate(s.scatterers.items):
                if item.plane > len(arm_elements):
                    _fail(f"scatterers.items[{i}].plane",
                          f"plane {item.plane} exceeds arm length {len(arm_elements)}")
                lo = s.grid.point(0) - s.grid.dx / 2
                hi = s.grid.point(s.grid.n - 1) + s.grid.dx / 2
                if not lo <= item.position <= hi:
                    _fail(f"scatterers.items[{i}].position",
                          f"{item.position!r} outside grid range [{lo}, {hi}]")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from e
    return scenario_from_document(doc)


# ---------------------------------------------------------------------------
# Serialization (inverse of parsing; round-trips exactly)


def _complex_out(z: complex):
    return z.real if z.imag == 0 else [z.real, z.imag]


def _profile_doc(p: ProfileCfg) -> dict:
    if p.kind == "array":
        return {"profile": "array", "values": [_complex_out(v) for v in p.params["values"]]}
    return {"profile": p.kind, **p.params}


def _element_doc(e: ElementCfg) -> dict:
    d: dict = {"element": e.kind}
    if e.distance is not None:
        d["distance"] = e.distance
    if e.focal_length is not None:
        d["focal_length"] = e.focal_length
    if e.transmittance is not None:
        d["transmittance"] = _profile_doc(e.transmittance)
    if e.matrix is not None:
        d["matrix"] = [[_complex_out(v) for v in row] for row in e.matrix]
    return d


def _source_doc(s: SourceCfg) -> dict:
    d: dict = {"type": s.kind}
    if s.kind == "factorizable":
        d["amplitude1"] = _profile_doc(s.amplitude)
        d["amplitude2"] = _profile_doc(s.amplitude2)
        return d
    if s.model is not None:
        d["model"] = s.model
    for key in ("amplitude", "intensity", "pump"):
        v = getattr(s, key)
        if v is not None:
            d[key] = _profile_doc(v)
    if s.pm_width is not None:
        d["pm_width"] = s.pm_width
    if s.components is not None:
        d["components"] = [{"weight": c.weight, "source": _source_doc(c.source)}
                           for c in s.components]
    return d


def _measurement_doc(m: MeasurementCfg) -> dict:
    d: dict = {"kind": m.kind}
    if m.n is not None:
        d["n"] = m.n
    if m.seed is not None:
        d["seed"] = m.seed
    if m.of is not None:
        d["of"] = m.of
    if m.region is not None:
        d["region"] = list(m.region)
    if m.label is not None:
        d["label"] = m.label
    return d


def scenario_document(s: Scenario) -> dict:
    d: dict = {"schema_version": SCHEMA_VERSION}
    if s.name is not None:
        d["name"] = s.name
    if s.description is not None:
        d["description"] = s.description
    d["grid"] = {"n": s.grid.n, "dx": s.grid.dx, "center": s.grid.center}
    d["wavelength"] = s.wavelength
    if s.source is not None:
        d["source"] = _source_doc(s.source)
    if s.arm1 is not None:
        d["arm1"] = [_element_doc(e) for e in s.arm1]
    if s.arm2 is not None:
        d["arm2"] = [_element_doc(e) for e in s.arm2]
    if s.scatterers is not None:
        d["scatterers"] = {
            "arm": s.scatterers.arm,
            "background": s.scatterers.background,
            "items": [
                {"plane": it.plane, "position": it.position, "strength": _complex_out(it.strength)}
                for it in s.scatterers.items
            ],
        }
    if s.variants:
        d["variants"] = []
        for v in s.variants:
            vd: dict = {"label": v.label}
            if v.source is not None:
                vd["source"] = _source_doc(v.source)
            if v.arm1 is not None:
                vd["arm1"] = [_element_doc(e) for e in v.arm1]
            if v.arm2 is not None:
                vd["arm2"] = [_element_doc(e) for e in v.arm2]
            d["variants"].append(vd)
    d["measurements"] = [_measurement_doc(m) for m in s.measurements]
    if s.outputs is not None:
        od: dict = {}
        if s.outputs.directory is not None:
            od["directory"] = s.outputs.directory
        od["formats"] = list(s.outputs.formats)
        d["outputs"] = od
    return d


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_document(s), indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Building runtime objects from configuration


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
        m = np.array(e.matrix, dtype=complex)
        if m.shape != (grid.n, grid.n):
            raise ValidationError(
                f"custom matrix shape {m.shape} does not match grid ({grid.n}, {grid.n})"
            )
        return Custom(m)
    raise ValidationError(f"unknown element kind {e.kind!r}")


def _build_arm(elements: tuple[ElementCfg, ...], scat: ScatterersCfg | None,
               grid: Grid, wavelength: float) -> Kernel:
    specs = [_build_element(e, grid, wavelength) for e in elements]
    base = chain(specs, grid)
    if scat is None:
        return base
    if scat.background == "direct":
        h = base.matrix.copy()
    else:
        h = np.zeros((grid.n, grid.n), dtype=complex)
    zero = Kernel(grid, grid, np.zeros((grid.n, grid.n), dtype=complex))
    by_plane: dict[int, list[ScattererItemCfg]] = {}
    for it in scat.items:
        by_plane.setdefault(it.plane, []).append(it)
    for plane, items in sorted(by_plane.items()):
        before = chain(specs[:plane], grid)
        after = chain(specs[plane:], grid)
        contrib = with_scatterers(
            before, after, [Scatterer(it.position, it.strength) for it in items], zero
        )
        h = h + contrib.matrix
    return Kernel(grid, grid, h)


def _build_source(cfg: SourceCfg, grid: Grid):
    if cfg.kind == "single_pure":
        return sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude, grid))
    if cfg.kind == "single_mixed":
        if cfg.model == "coherent":
            phi = sources.SinglePhotonPure.normalized(grid, _resolve_profile(cfg.amplitude, grid))
            return sources.SinglePhotonMixed(grid, np.outer(phi.amp, phi.amp.conj()))
        intensity = np.abs(_resolve_profile(cfg.intensity, grid))
        total = intensity.sum() * grid.dx
        if total == 0:
            raise ValidationError("single_mixed intensity must not be all zero")
        return sources.SinglePhotonMixed(grid, np.diag(intensity / total).astype(complex))
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
    if cfg.kind == "correlated":
        gamma = np.abs(_resolve_profile(cfg.intensity, grid))
        return sources.correlated_from_intensity(gamma, grid)
    if cfg.kind == "mixture":
        comps: list[tuple[float, sources.BiphotonPure]] = []
        for c in cfg.components:
            if c.source.kind == "localized":
                gamma = np.abs(_resolve_profile(c.source.intensity, grid))
                inner = sources.localized_pair_mixture(
                    sources.correlated_from_intensity(gamma, grid))
                comps.extend((c.weight * w, s) for w, s in inner.components)
            else:
                comps.append((c.weight, _build_source(c.source, grid)))
        total = sum(w for w, _ in comps)
        return sources.BiphotonMixture(tuple((w / total, s) for w, s in comps))
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
    source_cfg = s.resolve(v)[0]
    src = _build_source(source_cfg, s.grid)
    kinds = [m.kind for m in s.measurements]
    res = VariantResults(v.label)

    def kernel_for_arm(arm: int) -> Kernel:
        return k1 if arm == 1 else k2

    joint = None
    if isinstance(src, sources.SinglePhotonPure):
        if "singles_1" in kinds:
            res.items["singles_1"] = _with_context(
                "singles_1", v.label, lambda: measure.single_coherent(src, k1))
    elif isinstance(src, sources.SinglePhotonMixed):
        if "singles_1" in kinds:
            res.items["singles_1"] = _with_context(
                "singles_1", v.label, lambda: measure.single_partially_coherent(src, k1))
    elif isinstance(src, (sources.BiphotonPure, sources.BiphotonMixture)):
        mix = (src if isinstance(src, sources.BiphotonMixture)
               else sources.BiphotonMixture(((1.0, src),)))
        if any(k in kinds for k in _NEEDS_JOINT):
            joint = _with_context(
                "joint", v.label, lambda: measure.mixture_joint(mix, k1, k2))
        for arm in (1, 2):
            if f"singles_{arm}" in kinds:
                res.items[f"singles_{arm}"] = _with_context(
                    f"singles_{arm}", v.label,
                    lambda arm=arm: measure.mixture_singles(mix, kernel_for_arm(arm), arm))
            if f"marginal_{arm}" in kinds:
                res.items[f"marginal_{arm}"] = _with_context(
                    f"marginal_{arm}", v.label,
                    lambda arm=arm: measure.marginal_from_joint(joint, arm))
        if "schmidt" in kinds:
            res.items["schmidt"] = sources.schmidt_spectrum(src)
    elif isinstance(src, sources.CorrelatedPairSource):
        if "joint" in kinds or "sample" in kinds:
            joint = _with_context(
                "joint", v.label, lambda: measure.correlated_joint(src, k1, k2))
        for arm in (1, 2):
            if f"singles_{arm}" in kinds:
                res.items[f"singles_{arm}"] = _with_context(
                    f"singles_{arm}", v.label,
                    lambda arm=arm: measure.correlated_singles(src, kernel_for_arm(arm), arm))
            if f"marginal_{arm}" in kinds:
                res.items[f"marginal_{arm}"] = _with_context(
                    f"marginal_{arm}", v.label,
                    lambda arm=arm: measure.correlated_marginal(
                        src, kernel_for_arm(arm), kernel_for_arm(2 if arm == 1 else 1)))
    else:  # pragma: no cover
        raise ValidationError(f"unsupported source object {type(src).__name__}")

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
