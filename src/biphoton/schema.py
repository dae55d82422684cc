"""Scenario documents: the config types and the one schema that parses,
validates and serializes them.

A scenario is a single versioned JSON document: one grid and wavelength, a
source (or labeled source/arm variants for side-by-side comparisons), one
or two optical arms as ordered element lists, optional embedded point
scatterers, a list of measurements, and output settings.
``parse_scenario`` turns its text into a frozen ``Scenario`` and
``serialize_scenario`` turns the ``Scenario`` back into text; the runner
that builds and runs it is in ``scenarios``.

Each config type's JSON fields are declared once, in one schema table per
type (``_GRID``, ``_PROFILE``, ``_ELEMENT``, ``_SOURCE`` ... ``_DOCUMENT``)
mapping each JSON key to a reader with its checks, a default or "required",
and a writer. ``_Object.read`` and ``_Object.write`` parse, validate and
serialize from these tables; checks spanning fields, and the checks on
``array`` profile values that the runner would otherwise only meet when it
builds them, are in ``_validate_cross_fields``.

This module imports only the standard library, ``errors`` and ``grid``, so
parsing and validating a document loads no numpy.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ValidationError
from .grid import Grid

SCHEMA_VERSION = 1
DEFAULT_FORMATS = ("csv", "pgm", "json")

_TWO_PHOTON_KINDS = {"factorizable", "entangled_delta", "spdc", "correlated", "mixture"}
_PURE_BIPHOTON_KINDS = {"factorizable", "entangled_delta", "spdc"}
_DENSITY_MEASUREMENTS = {"joint", "singles_1", "singles_2", "marginal_1", "marginal_2"}
_NEEDS_ARM2 = {"joint", "singles_2", "marginal_1", "marginal_2", "sample"}


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
    if cmath.isfinite(total):
        return
    for i, v in enumerate(values):
        if isinstance(v, tuple):  # a matrix row
            for j, z in enumerate(v):
                if not cmath.isfinite(z):
                    _fail(path, "must be finite", i, j)
        elif not cmath.isfinite(v):
            _fail(path, "must be finite", i)


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
    "strength": _Field(_checked(_Codec(_as_complex, _complex_out), cmath.isfinite,
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


_MASK_BOUND = 1 + 1e-9  # largest |t| optics.Mask accepts


def _array_values(profile: ProfileCfg | None, path: str, n: int) -> tuple | None:
    """The values of an ``array`` profile, checked to be ``n`` long; None for
    any other profile."""
    if profile is None or profile.kind != "array":
        return None
    values = profile.params["values"]
    if len(values) != n:
        _fail(f"{path}.values",
              f"array profile length {len(values)} does not match grid n={n}")
    return values


def _check_source_arrays(src: SourceCfg | None, path: str, n: int) -> None:
    """Every ``array`` profile of a source (nested mixture components
    included) has n entries, not all zero: each source normalizes its
    profiles."""
    if src is None:
        return
    for key, f in _table(_SOURCE, src).items():
        if f.codec is _PROFILE:
            p = f"{path}.{key}"
            values = _array_values(getattr(src, f.attr or key), p, n)
            if values is not None and not any(values):
                _fail(f"{p}.values", "array profile must not be all zero")
    for i, c in enumerate(src.components or ()):
        _check_source_arrays(c.source, f"{path}.components[{i}].source", n)


def _check_arm_arrays(arm: tuple[ElementCfg, ...] | None, path: str, n: int) -> None:
    """Mask ``array`` transmittances have n entries with |t| <= 1, and
    ``custom`` matrices are n x n."""
    for i, e in enumerate(arm or ()):
        if e.kind == "mask":
            p = f"{path}[{i}].transmittance"
            for j, t in enumerate(_array_values(e.transmittance, p, n) or ()):
                if not abs(t) <= _MASK_BOUND:
                    _fail(f"{p}.values",
                          f"mask transmittance must satisfy |t| <= 1, got |t| = {abs(t)!r}", j)
        elif e.kind == "custom" and (len(e.matrix), len(e.matrix[0])) != (n, n):
            _fail(f"{path}[{i}].matrix", f"custom matrix shape ({len(e.matrix)}, "
                  f"{len(e.matrix[0])}) does not match grid ({n}, {n})")


def _validate_cross_fields(s: Scenario) -> None:
    n = s.grid.n
    _check_source_arrays(s.source, "source", n)
    _check_arm_arrays(s.arm1, "arm1", n)
    _check_arm_arrays(s.arm2, "arm2", n)
    for vi, v in enumerate(s.variants):
        _check_source_arrays(v.source, f"variants[{vi}].source", n)
        _check_arm_arrays(v.arm1, f"variants[{vi}].arm1", n)
        _check_arm_arrays(v.arm2, f"variants[{vi}].arm2", n)

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

