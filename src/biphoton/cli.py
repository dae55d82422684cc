"""Command line interface.

Exit codes: 0 success, 2 validation error, 3 runtime/physics error.

``validate`` loads only the schema, not numpy: the demos and the runner are
imported by the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PhysicsError, ValidationError
from .schema import DEFAULT_FORMATS, parse_scenario, scenario_from_document


def _load_scenario(ref: str):
    """A demo name parses only that demo's document; anything else is read
    as a scenario file."""
    from .demos import demo_documents

    demos = demo_documents()
    if ref in demos:
        return scenario_from_document(demos[ref])
    path = Path(ref)
    if not path.exists():
        raise ValidationError(f"{ref!r} is neither a demo name nor an existing file "
                              f"(demos: {', '.join(sorted(demos))})")
    try:
        text = path.read_text()
    except OSError as e:
        raise PhysicsError(f"cannot read {path}: {e}") from e
    return parse_scenario(text)


def _cmd_run(args) -> int:
    from .scenarios import run_scenario

    scenario = _load_scenario(args.scenario)
    formats = None
    if args.format is not None:
        formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
        for f in formats:
            if f not in DEFAULT_FORMATS:
                raise ValidationError(f"unknown output format {f!r}", field="--format")
    summary = run_scenario(scenario, out_dir=args.out, formats=formats, seed=args.seed)
    doc = summary.document()
    doc["duration_s"] = summary.duration_s
    doc["timings"] = summary.timings
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.file)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    try:
        text = path.read_text()
    except OSError as e:
        raise PhysicsError(f"cannot read {path}: {e}") from e
    parse_scenario(text)
    print(f"{path}: OK")
    return 0


def _cmd_list_demos(args) -> int:
    from .demos import demo_documents

    for name, doc in demo_documents().items():
        print(f"{name}: {doc['description']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="One- and two-photon imaging simulator: joint, singles and "
                    "bucket-gated marginal detection densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or built-in demo")
    run.add_argument("scenario", help="path to a scenario JSON file, or a demo name")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--format", default=None,
                     help="comma-separated subset of csv,pgm,json")
    run.add_argument("--seed", type=int, default=None,
                     help="override sampling seeds (stable per variant/measurement)")
    run.set_defaults(fn=_cmd_run)

    validate = sub.add_parser("validate", help="validate a scenario file")
    validate.add_argument("file")
    validate.set_defaults(fn=_cmd_validate)

    demos = sub.add_parser("list-demos", help="list built-in demo scenarios")
    demos.set_defaults(fn=_cmd_list_demos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except PhysicsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
