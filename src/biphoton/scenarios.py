"""Config-driven scenario runner.

A scenario is a single versioned JSON document: one grid and wavelength, a
source (or labeled source/arm variants for side-by-side comparisons), one
or two optical arms as ordered element lists, optional embedded point
scatterers, a list of measurements, and output settings. ``run_scenario``
executes the measurement pipeline deterministically and writes CSV / PGM /
JSON files; the built-in demo catalog covers ghost imaging and diffraction,
the factorizable null case, the isoplanatic correlated case, an SPDC
phase-matching sweep and scatterer refocusing.

Each config type's JSON fields are declared once, in one schema table per
type (``_GRID``, ``_PROFILE``, ``_ELEMENT``, ``_SOURCE`` ... ``_DOCUMENT``)
mapping each JSON key to a reader with its checks, a default or "required",
and a writer. ``_Object.read`` and ``_Object.write`` parse, validate and
serialize from these tables; checks spanning fields are in
``_validate_cross_fields``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable
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

    def resolve(self, v: VariantCfg) -> tuple[SourceCfg | None, tuple[ElementCfg, ...] | None,
                                              tuple[ElementCfg, ...] | None]:
        """The variant's source and arms, each falling back to the scenario's
        (None where neither defines it)."""
        return (v.source if v.source is not None else self.source,
                v.arm1 if v.arm1 is not None else self.arm1,
                v.arm2 if v.arm2 is not None else self.arm2)


# ---------------------------------------------------------------------------
# Schema: each config type declares its fields once, as a table of JSON key
# -> _Field. _Object.read parses and validates a document against the tables
# and _Object.write serializes a config back from the same tables.


def _fail(path: str, msg: str, *index: int):
    """Raise a ValidationError for ``path`` followed by ``[i]`` per index.
    Indices are formatted here, so hot parse loops format nothing unless
    an entry fails."""
    raise ValidationError(msg, field=path + "".join(f"[{i}]" for i in index))


_REQUIRED = object()  # default of a field that must be present


@dataclass(frozen=True)
class _Codec:
    """Reads one JSON value, checking it and naming failures by the value's
    dotted path, and writes the config value back to JSON."""
    read: Callable[[object, str], object]
    write: Callable[[object], object] = lambda v: v


@dataclass(frozen=True)
class _Field:
    codec: "_Codec | _Object"
    default: object = _REQUIRED
    attr: str | None = None  # config attribute, when it is not the JSON key


@dataclass(frozen=True)
class _Kinds:
    """Field tables chosen by the string under JSON key ``tag``, stored as
    config attribute ``attr``. A table may itself be chosen by a second tag."""
    tag: str
    tables: dict
    attr: str = "kind"


@dataclass(frozen=True)
class _Object:
    """A JSON object type: its field table (or tables by kind), the config
    constructor taking attribute values, and its inverse."""
    fields: "dict[str, _Field] | _Kinds"
    make: Callable[[dict], object]
    unpack: Callable[[object], dict] = vars

    def read(self, obj, path: str, kinds=None):
        """Parse ``obj``: choose the table by tag (restricted to ``kinds``),
        reject unknown keys, then read every field in table order."""
        if not isinstance(obj, dict):
            _fail(path, f"expected an object, got {type(obj).__name__}")
        values: dict = {}
        tags = []
        table = self.fields
        while isinstance(table, _Kinds):
            values[table.attr] = kind = _read_field(obj, path, table.tag,
                                                    _Field(_string(kinds or table.tables)))
            tags.append(table.tag)
            table, kinds = table.tables[kind], None
        for key in obj:
            if key not in table and key not in tags:
                _fail(f"{path}.{key}" if path else key, "unknown key")
        for key, f in table.items():
            values[f.attr or key] = _read_field(obj, path, key, f)
        return self.make(values)

    def write(self, cfg) -> dict:
        """The JSON object of ``cfg``; optional fields left unset (None, or
        an empty tuple defaulting to one) are omitted."""
        values = self.unpack(cfg)
        d: dict = {}
        table = self.fields
        while isinstance(table, _Kinds):
            d[table.tag] = kind = values[table.attr]
            table = table.tables[kind]
        for key, f in table.items():
            v = values[f.attr or key]
            if v is not None and not (v == () and f.default == ()):
                d[key] = f.codec.write(v)
        return d


def _read_field(d: dict, path: str, key: str, f: _Field):
    p = f"{path}.{key}" if path else key
    if key in d:
        return f.codec.read(d[key], p)
    if f.default is _REQUIRED:
        _fail(p, "missing required field")
    return f.default


def _then(codec: _Codec, check) -> _Codec:
    """``codec`` followed by ``check(value, path)``, which returns the value."""
    return _Codec(lambda v, p: check(codec.read(v, p), p), codec.write)


def _checked(codec: _Codec, ok, message) -> _Codec:
    """``codec`` whose value must pass ``ok``; ``message(value)`` says why not."""
    return _then(codec, lambda v, p: v if ok(v) else _fail(p, message(v)))


def _number(*, positive=False, nonnegative=False, nonzero=False) -> _Codec:
    def read(v, p):
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
    return _Codec(read)


def _integer(minimum=None) -> _Codec:
    def read(v, p):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(p, f"expected an integer, got {v!r}")
        if minimum is not None and v < minimum:
            _fail(p, f"must be >= {minimum}, got {v}")
        return v
    return _Codec(read)


def _string(choices=None) -> _Codec:
    def read(v, p):
        if not isinstance(v, str):
            _fail(p, f"expected a string, got {v!r}")
        if choices is not None and v not in choices:
            _fail(p, f"must be one of {sorted(choices)}, got {v!r}")
        return v
    return _Codec(read)


def _safe_name(word: str) -> _Codec:
    """A string usable in a file name: alphanumerics and ``._-``, no leading dot."""
    return _checked(_string(), lambda s: bool(s) and not s.startswith(".") and all(
        c.isalnum() or c in "._-" for c in s), lambda s: f"invalid {word} {s!r}")


def _list(item: "_Codec | _Object") -> _Codec:
    """A non-empty list, read into a tuple."""
    def read(raw, p):
        if not isinstance(raw, list) or not raw:
            _fail(p, "expected a non-empty list")
        return tuple(item.read(v, f"{p}[{i}]") for i, v in enumerate(raw))
    return _Codec(read, lambda values: [item.write(v) for v in values])


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


def _complex_out(z: complex):
    return z.real if z.imag == 0 else [z.real, z.imag]


def _require_finite(values: tuple, total: complex, path: str) -> None:
    """Fail naming the first non-finite entry of ``values`` (a tuple of
    numbers or of rows), given their sum. NaN and inf survive summation, so
    a finite total clears the input and entries are searched only when it is
    not finite (a sum that overflowed finds no entry and passes)."""
    if not np.isfinite(total):
        bad = np.argwhere(~np.isfinite(np.array(values, dtype=complex)))
        if bad.size:
            _fail(path, "must be finite", *(int(i) for i in bad[0]))


def _read_values(raw, p) -> tuple:
    if not isinstance(raw, list) or not raw:
        _fail(p, "expected a non-empty list")
    values = tuple(_as_complex(v, p, i) for i, v in enumerate(raw))
    _require_finite(values, sum(values), p)
    return values


def _read_matrix(raw, p) -> tuple:
    if not isinstance(raw, list) or not raw:
        _fail(p, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            _fail(p, "expected a list", i)
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(p, "ragged matrix rows", i)
        rows.append(tuple(_as_complex(v, p, i, j) for j, v in enumerate(row)))
    _require_finite(rows, sum(map(sum, rows)), p)
    return tuple(rows)


def _read_region(raw, p) -> tuple[int, int]:
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        _fail(p, "expected [start, stop] integer pair")
    return (raw[0], raw[1])


def _read_arm(raw, p) -> tuple[ElementCfg, ...]:
    if not isinstance(raw, list):
        _fail(p, f"expected a list of elements, got {type(raw).__name__}")
    return tuple(_ELEMENT.read(e, f"{p}[{i}]") for i, e in enumerate(raw))


def _sources(kinds) -> _Codec:
    """Sources of the given kinds. ``_SOURCE`` is looked up on use: mixture
    components, declared before it, hold sources."""
    return _Codec(lambda obj, p: _SOURCE.read(obj, p, kinds), lambda s: _SOURCE.write(s))


def _distinct_labels(variants: tuple, p: str) -> tuple:
    seen = set()
    for i, v in enumerate(variants):
        if v.label in seen:
            _fail(f"{p}[{i}].label", f"duplicate label {v.label!r}")
        seen.add(v.label)
    return variants


def _weights_sum_to_one(components: tuple, p: str) -> tuple:
    total = sum(c.weight for c in components)
    if abs(total - 1.0) > 1e-6:
        _fail(p, f"weights must sum to 1, got {total!r}")
    return components


_POSITIVE = _Field(_number(positive=True))
_OFFSET = _Field(_number(), 0.0)
_FOCAL_LENGTH = _Field(_number(nonzero=True))
_ARM = _Codec(_read_arm, lambda arm: [_ELEMENT.write(e) for e in arm])
_FORMAT = _checked(_Codec(lambda v, p: v), lambda f: f in DEFAULT_FORMATS,
                   lambda f: f"must be one of {list(DEFAULT_FORMATS)}, got {f!r}")

_GRID = _Object({"n": _Field(_integer(minimum=2)), "dx": _POSITIVE, "center": _OFFSET},
                make=lambda v: Grid(**v))

_PROFILE = _Object(_Kinds("profile", {
    "gaussian": {"waist": _POSITIVE, "center": _OFFSET},
    "gaussian_aperture": {"width": _POSITIVE, "center": _OFFSET},
    "uniform": {},
    "delta": {"position": _OFFSET},
    "double_slit": {"separation": _POSITIVE, "width": _POSITIVE},
    "step_edge": {"position": _OFFSET},
    "array": {"values": _Field(_Codec(_read_values,
                                      lambda vs: [_complex_out(v) for v in vs]))},
}), make=lambda v: ProfileCfg(v.pop("kind"), v), unpack=lambda p: {"kind": p.kind, **p.params})
_PROFILE_FIELD = _Field(_PROFILE)

_ELEMENT = _Object(_Kinds("element", {
    "identity": {},
    "free_space": {"distance": _POSITIVE},
    "thin_lens": {"focal_length": _FOCAL_LENGTH},
    "mask": {"transmittance": _PROFILE_FIELD},
    "fourier": {"focal_length": _FOCAL_LENGTH},
    "custom": {"matrix": _Field(_Codec(
        _read_matrix, lambda m: [[_complex_out(v) for v in row] for row in m]))},
}), make=lambda v: ElementCfg(**v))

_COMPONENT = _Object({
    "weight": _Field(_number(nonnegative=True)),
    "source": _Field(_sources(_PURE_BIPHOTON_KINDS | {"localized"})),
}, make=lambda v: MixtureComponentCfg(**v))

_SOURCE = _Object(_Kinds("type", {
    "single_pure": {"amplitude": _PROFILE_FIELD},
    "single_mixed": _Kinds("model", {
        "coherent": {"amplitude": _PROFILE_FIELD},
        "incoherent": {"intensity": _PROFILE_FIELD},
    }, attr="model"),
    "factorizable": {"amplitude1": _Field(_PROFILE, attr="amplitude"),
                     "amplitude2": _PROFILE_FIELD},
    "entangled_delta": {"amplitude": _PROFILE_FIELD},
    "spdc": {"pump": _PROFILE_FIELD, "pm_width": _POSITIVE},
    "correlated": {"intensity": _PROFILE_FIELD},
    "mixture": {"components": _Field(_then(_list(_COMPONENT), _weights_sum_to_one))},
    "localized": {"intensity": _PROFILE_FIELD},  # mixture components only
}), make=lambda v: SourceCfg(**v))
_SCENARIO_SOURCE = _Field(_sources(set(_SOURCE.fields.tables) - {"localized"}), None)

_MEASUREMENT = _Object(_Kinds("kind", {
    **{kind: {} for kind in sorted(_DENSITY_MEASUREMENTS | {"schmidt"})},
    "sample": {"n": _Field(_integer(minimum=1)), "seed": _Field(_integer(minimum=0))},
    "metrics": {
        "of": _Field(_string({"singles_1", "singles_2", "marginal_1", "marginal_2"})),
        "region": _Field(_Codec(_read_region, list), None),
        "label": _Field(_safe_name("label"), None),
    },
}), make=lambda v: MeasurementCfg(**v))

_SCATTERER_ITEM = _Object({
    "plane": _Field(_integer(minimum=0)),
    "position": _Field(_number()),
    "strength": _Field(_checked(_Codec(_as_complex, _complex_out), np.isfinite,
                                lambda z: "must be finite")),
}, make=lambda v: ScattererItemCfg(**v))

_SCATTERERS = _Object({
    "arm": _Field(_checked(_integer(), lambda a: a in (1, 2),
                           lambda a: f"must be 1 or 2, got {a}")),
    "background": _Field(_string({"dark", "direct"}), "direct"),
    "items": _Field(_list(_SCATTERER_ITEM)),
}, make=lambda v: ScatterersCfg(**v))

_VARIANT = _Object({
    "label": _Field(_safe_name("label")),
    "source": _SCENARIO_SOURCE,
    "arm1": _Field(_ARM, None),
    "arm2": _Field(_ARM, None),
}, make=lambda v: VariantCfg(**v))

_OUTPUTS = _Object({
    "directory": _Field(_string(), None),
    "formats": _Field(_checked(_list(_FORMAT), lambda fs: len(set(fs)) == len(fs),
                               lambda fs: "duplicate formats"), DEFAULT_FORMATS),
}, make=lambda v: OutputsCfg(**v))

_DOCUMENT = _Object({
    "schema_version": _Field(_checked(
        _integer(), lambda v: v == SCHEMA_VERSION,
        lambda v: f"unsupported version {v}, expected {SCHEMA_VERSION}")),
    "name": _Field(_safe_name("name"), None),
    "description": _Field(_string(), None),
    "grid": _Field(_GRID),
    "wavelength": _POSITIVE,
    "source": _SCENARIO_SOURCE,
    "arm1": _Field(_ARM, None),
    "arm2": _Field(_ARM, None),
    "scatterers": _Field(_SCATTERERS, None),
    "variants": _Field(_then(_list(_VARIANT), _distinct_labels), ()),
    "measurements": _Field(_list(_MEASUREMENT)),
    "outputs": _Field(_OUTPUTS, None),
}, make=lambda v: Scenario(**{k: x for k, x in v.items() if k != "schema_version"}),
    unpack=lambda s: {**vars(s), "schema_version": SCHEMA_VERSION})


def scenario_from_document(doc) -> Scenario:
    """Validate a parsed JSON document and build a Scenario."""
    s = _DOCUMENT.read(doc, "")
    _validate_cross_fields(s)
    return s


def _table(obj: _Object, cfg) -> dict:
    """The field table ``cfg`` was read with."""
    table, values = obj.fields, obj.unpack(cfg)
    while isinstance(table, _Kinds):
        table = table.tables[values[table.attr]]
    return table


def _check_array_length(profile: ProfileCfg | None, path: str, n: int) -> None:
    if profile is not None and profile.kind == "array":
        length = len(profile.params["values"])
        if length != n:
            _fail(f"{path}.values", f"array profile length {length} does not match grid n={n}")


def _check_source_sizes(src: SourceCfg | None, path: str, n: int) -> None:
    if src is None:
        return
    for key, f in _table(_SOURCE, src).items():
        if f.codec is _PROFILE:
            _check_array_length(getattr(src, f.attr or key), f"{path}.{key}", n)
    for i, c in enumerate(src.components or ()):
        _check_source_sizes(c.source, f"{path}.components[{i}].source", n)


def _check_arm_sizes(arm: tuple[ElementCfg, ...] | None, path: str, n: int) -> None:
    for i, e in enumerate(arm or ()):
        if e.kind == "mask":
            _check_array_length(e.transmittance, f"{path}[{i}].transmittance", n)
        elif e.kind == "custom" and (len(e.matrix), len(e.matrix[0])) != (n, n):
            _fail(f"{path}[{i}].matrix", f"custom matrix shape ({len(e.matrix)}, "
                  f"{len(e.matrix[0])}) does not match grid ({n}, {n})")


def _validate_cross_fields(s: Scenario) -> None:
    n = s.grid.n
    _check_source_sizes(s.source, "source", n)
    _check_arm_sizes(s.arm1, "arm1", n)
    _check_arm_sizes(s.arm2, "arm2", n)
    for vi, v in enumerate(s.variants):
        _check_source_sizes(v.source, f"variants[{vi}].source", n)
        _check_arm_sizes(v.arm1, f"variants[{vi}].arm1", n)
        _check_arm_sizes(v.arm2, f"variants[{vi}].arm2", n)

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
        source, arm1, arm2 = s.resolve(v)
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


def scenario_document(s: Scenario) -> dict:
    """The JSON document of ``s``; parsing it gives back an equal Scenario."""
    return _DOCUMENT.write(s)


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_document(s), indent=2, sort_keys=True, allow_nan=False)


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
        weights, states = [], []
        for c in cfg.components:
            if c.source.kind == "localized":
                gamma = np.abs(_resolve_profile(c.source.intensity, grid))
                inner = sources.localized_pair_mixture(
                    sources.correlated_from_intensity(gamma, grid)).components
                weights += [c.weight * w for w in inner.weights]
                states += inner.states
            else:
                weights.append(c.weight)
                states.append(_build_source(c.source, grid))
        total = sum(weights)
        return sources.BiphotonMixture(
            sources.MixtureComponents([w / total for w in weights], states))
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
