"""Compare the built-in demos' output files between two source trees.

    python tests/diff_demos.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``biphoton`` package, such as a
checkout's ``src``. Every demo of either tree runs from each tree in a
fresh process with one OpenBLAS thread, writing all formats. Each file is
then reported as "identical" (byte for byte) or by its largest difference:

- CSV and PGM: per column (PGM: all pixels), max |change - parent| over
  the parent's peak magnitude;
- summary.json: per metric, |change - parent| over the larger of the
  parent's magnitude and 1 (the grid span for a length), the rule of
  ``test_demo_reference.py``; every other entry must be equal.

The exit status is 1 when a file exists on one side only, a file cannot be
compared, or a difference exceeds 1e-10; otherwise 0. pytest does not
collect this file.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOL = 1e-10


def _biphoton(src: Path, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "biphoton.cli", *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"biphoton {' '.join(args)} failed from {src}:\n{done.stderr}")
    return done.stdout


def _demo_names(src: Path) -> list[str]:
    return [line.split(":", 1)[0] for line in _biphoton(src, "list-demos").splitlines()]


def _peak_rel(got: list[float], want: list[float]) -> float:
    peak = max(map(abs, want))
    worst = max(abs(a - b) for a, b in zip(got, want))
    return worst / peak if peak > 0 else (0.0 if worst == 0 else math.inf)


def _csv_columns(text: str) -> tuple[str, list[list[float]]]:
    header, *rows = text.splitlines()
    return header, [list(map(float, col)) for col in zip(*(r.split(",") for r in rows))]


def _diff_csv(got: str, want: str) -> float:
    (h1, cols1), (h2, cols2) = _csv_columns(got), _csv_columns(want)
    if h1 != h2 or [len(c) for c in cols1] != [len(c) for c in cols2]:
        raise ValueError("header or shape differs")
    return max(_peak_rel(a, b) for a, b in zip(cols1, cols2))


def _diff_pgm(got: str, want: str) -> float:
    g, w = got.split(), want.split()  # P2, width, height, maxval, pixels
    if g[:4] != w[:4] or len(g) != len(w):
        raise ValueError("header or shape differs")
    return _peak_rel(list(map(float, g[4:])), list(map(float, w[4:])))


def _grid_span(directory: Path) -> float:
    """n dx of the demo's grid, read from the x column of a 1-D CSV."""
    for path in sorted(directory.glob("*.csv")):
        header, cols = _csv_columns(path.read_text())
        if header == "x,p" and len(cols[0]) > 1:
            x = cols[0]
            return (x[-1] - x[0]) * len(x) / (len(x) - 1)
    return 0.0


def _diff_summary(got: str, want: str, span: float) -> float:
    a, b = json.loads(got), json.loads(want)
    m1, m2 = a.pop("metrics"), b.pop("metrics")
    if a != b or sorted(m1) != sorted(m2):
        raise ValueError("entries other than metric values differ")
    worst = 0.0
    for key, w in m2.items():
        g = m1[key]
        if g is None or w is None:
            if g is not w:
                return math.inf
            continue
        scale = span if key.startswith(("fwhm", "peak_position")) else 1.0
        worst = max(worst, abs(g - w) / max(abs(w), scale))
    return worst


def _compare(got: Path, want: Path, span: float) -> float | None:
    """None when the files are byte-identical, else the largest difference."""
    if got.read_bytes() == want.read_bytes():
        return None
    g, w = got.read_text(), want.read_text()
    if got.suffix == ".csv":
        return _diff_csv(g, w)
    if got.suffix == ".pgm":
        return _diff_pgm(g, w)
    if got.name == "summary.json":
        return _diff_summary(g, w, span)
    raise ValueError("no numeric comparison for this file type")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/diff_demos.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="diff-demos-") as tmp:
        names = sorted(set(_demo_names(parent)) | set(_demo_names(change)))
        for name in names:
            dirs = []
            for side, src in (("parent", parent), ("change", change)):
                out = Path(tmp) / side / name
                _biphoton(src, "run", name, "--out", str(out))
                dirs.append(out)
            want_dir, got_dir = dirs
            span = _grid_span(want_dir)
            files = sorted({p.name for d in dirs for p in d.iterdir()})
            for f in files:
                want, got = want_dir / f, got_dir / f
                if not (want.exists() and got.exists()):
                    print(f"{name}/{f}: only in {'change' if got.exists() else 'parent'}")
                    failed = True
                    continue
                try:
                    rel = _compare(got, want, span)
                except (ValueError, UnicodeDecodeError) as e:
                    print(f"{name}/{f}: differs, not comparable ({e})")
                    failed = True
                    continue
                if rel is None:
                    print(f"{name}/{f}: identical")
                else:
                    print(f"{name}/{f}: {rel:.3g} of peak")
                    failed = failed or not rel <= TOL
    print("FAIL" if failed else f"OK: every file within {TOL:g} of its peak")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
