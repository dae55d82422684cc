"""Benchmark of the biphoton scenario pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload demo-suite --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1      # every workload in turn

One iteration parses each of the workload's scenario documents and runs it
through the public API (``parse_scenario`` -> ``run_scenario``) in this
process, with one job and OpenBLAS at no more than two threads. The
documents are generated from ``--seed``; the program sees only their JSON
text. Every iteration is checked against independent oracles. After one
warm-up iteration, iterations repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (untraced). ``--trace 1``
alternates untraced and traced iterations and reports per-layer self times
and counts (see README.md). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is nonzero if any check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "benchmarks"
WORKLOAD_NAMES = ("demo-suite", "large-grid", "mixture-localized")
DEFAULT_SECONDS = 30  # run_seconds in BENCHMARK.json
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

# A fresh interpreter imports the package and parses the workload's documents.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import biphoton; "
               "[biphoton.parse_scenario(t) for t in sys.stdin.read().split(chr(0))]")

# run_s.tail is printed with its percentile but not reported as a metric: a
# run holds 5 to 16 iterations, so it is their maximum, too unsteady to bound.
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "scenarios.parse_s": "s", "scenarios.compute_s": "s", "scenarios.write_s": "s",
    "scenarios.write.csv_s": "s", "scenarios.write.pgm_s": "s", "scenarios.write.json_s": "s",
    "scenarios.write.bytes": "bytes", "scenarios.write.files": "count",
    "optics.chain_s": "s", "optics.chain.calls": "count", "optics.with_scatterers_s": "s",
    "optics.gflop": "GFLOP",
    "sources.build_s": "s", "sources.reduced_coherence_s": "s", "sources.schmidt_s": "s",
    "sources.mixture.components": "count",
    "measure.joint_s": "s", "measure.singles_s": "s", "measure.marginal_s": "s",
    "measure.metrics_s": "s",
    "sampling.sample_s": "s", "sampling.events": "count", "sampling.events_per_s": "1/s",
    "trace.overhead_frac": "ratio", "blas.parallel_efficiency": "ratio",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digest: str | None = None  # hash of the first iteration's output files
    files: int = 0
    bytes: int = 0


# ---------------------------------------------------------------------------
# Machine facts


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(env) if env.isdigit() else None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Measuring


def _setup_times(texts: tuple[str, ...], probes: int) -> list[float]:
    payload = "\0".join(texts).encode()
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], input=payload,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr.decode()}")
        times.append(elapsed)
    return times


def _output_digest(out_dirs: list[Path], summaries: list) -> tuple[str, int, int]:
    """One hash over every written file, in manifest order, with the file
    count and total size."""
    h = hashlib.sha256()
    files = size = 0
    for out, summary in zip(out_dirs, summaries):
        for name in summary.files:
            data = (out / name).read_bytes()
            h.update(name.encode() + b"\0" + data)
            files += 1
            size += len(data)
    return h.hexdigest(), files, size


def _iterate(workload, out_dirs: list, seed: int, tally: Tally, tracer=None) -> float | None:
    """Parse and run every document once and check the results. Returns the
    wall time of parse + run, or None if the iteration failed."""
    import biphoton

    tally.attempted += 1
    if tracer is not None:
        tracer.begin_iteration()
        tracer.install()
    try:
        t0 = time.perf_counter()
        summaries = [biphoton.run_scenario(biphoton.parse_scenario(text), out_dir=out, seed=seed)
                     for text, out in zip(workload.texts, out_dirs)]
        elapsed = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = workload.check(summaries)
    if workload.writes:
        digest, tally.files, tally.bytes = _output_digest(out_dirs, summaries)
        if tally.digest is None:
            tally.digest = digest
        elif digest != tally.digest:
            problems.append("output files differ from the first iteration's")
    if problems:
        for p in problems:
            print(f"check failed: {workload.name}: {p}", file=sys.stderr)
        tally.failed += 1
        return None
    return elapsed


def _tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile with at least 10
    samples beyond it. Below 20 samples that percentile would fall under the
    median, so the maximum is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100
    k = n - 11
    return s[k], math.floor(100 * (k + 1) / n)


def _single_thread_run_s(args) -> float:
    """run_s of the same workload in a fresh process with OpenBLAS at one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probes", "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["run_s"]["value"]


def _layer_metrics(tracer, tally: Tally, untraced: list[float], traced: list[float],
                   t1: float, threads: int) -> dict[str, float]:
    selfs = tracer.self_times()
    counts = tracer.counts

    def med(values) -> float:
        return statistics.median(list(values))

    def layer(name: str) -> float:
        return med(s[name] for s in selfs)

    def count(name: str) -> float:
        return med(c.get(name, 0.0) for c in counts)

    t_p = med(untraced)
    return {
        "scenarios.parse_s": layer("scenarios.parse"),
        "scenarios.compute_s": layer("scenarios.compute"),
        "scenarios.write_s": med(s["scenarios.write.csv"] + s["scenarios.write.pgm"]
                                 + s["scenarios.write.json"] for s in selfs),
        "scenarios.write.csv_s": layer("scenarios.write.csv"),
        "scenarios.write.pgm_s": layer("scenarios.write.pgm"),
        "scenarios.write.json_s": layer("scenarios.write.json"),
        "scenarios.write.bytes": tally.bytes,
        "scenarios.write.files": tally.files,
        "optics.chain_s": layer("optics.chain"),
        "optics.chain.calls": count("optics.chain.calls"),
        "optics.with_scatterers_s": layer("optics.with_scatterers"),
        "optics.gflop": count("optics.gflop"),
        "sources.build_s": layer("sources.build"),
        "sources.reduced_coherence_s": layer("sources.reduced_coherence"),
        "sources.schmidt_s": layer("sources.schmidt"),
        "sources.mixture.components": count("sources.mixture.components"),
        "measure.joint_s": layer("measure.joint"),
        "measure.singles_s": layer("measure.singles"),
        "measure.marginal_s": layer("measure.marginal"),
        "measure.metrics_s": layer("measure.metrics"),
        "sampling.sample_s": layer("sampling.sample"),
        "sampling.events": count("sampling.events"),
        "sampling.events_per_s": med(
            c.get("sampling.events", 0.0) / s["sampling.sample"] if s["sampling.sample"] else 0.0
            for s, c in zip(selfs, counts)),
        "trace.overhead_frac": med(traced) / t_p - 1.0,
        "blas.parallel_efficiency": t1 / (threads * t_p),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import biphoton

    if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
        print(f"benchmark: imported biphoton from {biphoton.__file__}, not from src/",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    facts = machine_facts()
    probes = 0 if args.trace else args.setup_probes
    setup: list[float] = []

    SCRATCH.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    out_dirs = [scratch / f"doc{i}" if workload.writes else None
                for i in range(len(workload.texts))]
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    try:
        _iterate(workload, out_dirs, args.seed, tally)  # warm-up, checked but not timed
        start = time.perf_counter()
        while True:
            trace_this = tracer is not None and len(untraced) > len(traced)
            t = _iterate(workload, out_dirs, args.seed, tally, tracer if trace_this else None)
            if t is not None:
                (traced if trace_this else untraced).append(t)
            if probes:
                # Setup probes are spread over the run, outside its time budget,
                # so that their median samples the same machine states as run_s.
                setup += _setup_times(workload.texts, 1)
                start += setup[-1]
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or traced or tally.failed)):
                break
        setup += _setup_times(workload.texts, max(0, probes - len(setup)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0 and bool(untraced) and (tracer is None or bool(traced))
    metrics: dict[str, float] = {}
    lines = [f"machine {json.dumps(facts, sort_keys=True)}",
             f"workload {args.workload} seed {args.seed}: {tally.attempted} iterations "
             f"(1 warm-up), {tally.failed} failed, failed_frac "
             f"{tally.failed / tally.attempted:.4g}"]
    if correct and tracer is None:
        tail, pct = _tail(untraced)
        metrics = {
            "run_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        lines.append(f"  run_s.tail {tail:.6g} s: p{pct} of {len(untraced)} timed iterations "
                     + " ".join(f"{t:.4f}" for t in untraced))
    elif correct:
        threads = facts["blas_threads"] or 1
        metrics = _layer_metrics(tracer, tally, untraced, traced,
                                 _single_thread_run_s(args), threads)
        lines.append(f"traced {len(traced)} and untraced {len(untraced)} iterations; "
                     f"blas.parallel_efficiency uses {threads} BLAS threads")
        (SCRATCH / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.span_records()))
    units = {**END_TO_END, **PER_LAYER}
    for name, value in metrics.items():
        lines.append(f"  {name:30s} {value:14.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; nonzero if any one fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 300)
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = 1
    print("all workloads correct" if status == 0 else "a workload FAILED")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probes", type=int, default=SETUP_PROBES,
                   help="least number of fresh processes timed for setup_s; one "
                        "follows each timed iteration (0: none)")
    args = p.parse_args(argv)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print("benchmark: src/biphoton is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    # OpenBLAS at its default of at most two threads; numpy is not loaded yet.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
