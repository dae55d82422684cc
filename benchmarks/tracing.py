"""Layer spans recorded from outside the library.

Each traced function is replaced, at the module attribute the scenario
runner looks it up by, with a wrapper that records a span (layer, start,
end, parent). Spans nest: a layer's self time is its span's duration minus
the time covered by its child spans, so ``measure.singles`` excludes the
``sources.reduced_coherence`` it calls. Counters are taken at the same
boundaries from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

SINGLES = ("single_coherent", "single_partially_coherent", "biphoton_singles",
           "correlated_singles", "mixture_singles")
JOINTS = ("biphoton_joint", "correlated_joint", "mixture_joint")
MARGINALS = ("marginal_from_joint", "correlated_marginal", "mixture_marginal")
CSV_WRITERS = ("_write_csv_1d", "_write_csv_2d", "_write_counts_csv", "_write_schmidt_csv")


def _count_chain(counts, args, result) -> None:
    elements, grid = args[0], args[1]
    counts["optics.chain.calls"] += 1
    # Dense-equivalent work: one complex n x n matmul (8 n^3 flops) per element.
    counts["optics.gflop"] += len(elements) * 8 * grid.n**3 / 1e9


def _count_components(counts, args, result) -> None:
    counts["sources.mixture.components"] += len(getattr(result, "components", ()))


def _count_events(counts, args, result) -> None:
    counts["sampling.events"] += result.total


# (module, attribute, layer, counter): the names the runner calls through.
TRACED: list[tuple[str, str, str, Callable | None]] = [
    ("biphoton", "parse_scenario", "scenarios.parse", None),
    ("biphoton", "run_scenario", "scenarios.compute", None),
    ("biphoton.scenarios", "write_outputs", "scenarios.write.json", None),
    *[("biphoton.scenarios", name, "scenarios.write.csv", None) for name in CSV_WRITERS],
    ("biphoton.scenarios", "_write_pgm", "scenarios.write.pgm", None),
    ("biphoton.scenarios", "chain", "optics.chain", _count_chain),
    ("biphoton.scenarios", "with_scatterers", "optics.with_scatterers", None),
    ("biphoton.scenarios", "_build_source", "sources.build", _count_components),
    ("biphoton.measure", "reduced_coherence", "sources.reduced_coherence", None),
    ("biphoton.sources", "schmidt_spectrum", "sources.schmidt", None),
    *[("biphoton.measure", name, "measure.joint", None) for name in JOINTS],
    *[("biphoton.measure", name, "measure.singles", None) for name in SINGLES],
    *[("biphoton.measure", name, "measure.marginal", None) for name in MARGINALS],
    ("biphoton.measure", "image_metrics", "measure.metrics", None),
    ("biphoton.sampling", "sample_joint", "sampling.sample", _count_events),
]

LAYERS = sorted({layer for _, _, layer, _ in TRACED})


@dataclass
class Span:
    iteration: int
    span_id: int
    parent_id: int | None
    layer: str
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)  # one counter dict per traced iteration
    missing: list[str] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _originals: list[tuple[object, str, Callable]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every traced name that exists; absent names are reported."""
        for module_name, attr, layer, counter in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                    print(f"trace: {module_name}.{attr} not found, layer {layer} "
                          f"reads 0", file=sys.stderr)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def begin_iteration(self) -> None:
        self.counts.append(defaultdict(float))

    def _wrap(self, fn: Callable, layer: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.counts) - 1, len(self.spans),
                        parent.span_id if parent else None, layer, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            if counter is not None:
                try:
                    counter(self.counts[-1], args, result)
                except (AttributeError, IndexError, TypeError) as e:
                    # A changed signature loses the counter, not the run.
                    print(f"trace: counter for {layer} failed: {e!r}", file=sys.stderr)
            return result

        return traced

    def self_times(self) -> list[dict[str, float]]:
        """Per traced iteration: layer -> summed self time in seconds."""
        out = [dict.fromkeys(LAYERS, 0.0) for _ in self.counts]
        for span in self.spans:
            out[span.iteration][span.layer] += span.self_time
        return out

    def span_records(self) -> list[dict]:
        return [{"iteration": s.iteration, "id": s.span_id, "parent": s.parent_id,
                 "layer": s.layer, "start": s.start, "end": s.end} for s in self.spans]
