"""The six demos against the frozen tolerance reference in tests/data.

Arithmetic may be reordered (an FFT for a matrix product, a scaling for a
diagonal product), but no density may move by more than 1e-10 of its peak
and no metric by more than 1e-10 of its size, or of the grid span for a
length. A peak position is an argmax, which rounding decides between points
that tie within the bound (a flat gated marginal, a symmetric pattern with
two equal maxima): it must be a point where the reference density is within
the bound of its maximum over the region. See make_demo_reference.py.
"""

from pathlib import Path

import numpy as np
import pytest
from helpers import demo_densities

from biphoton import demo_catalog
from biphoton.demos import DX, N, demo_documents

REFERENCE = Path(__file__).parent / "data" / "demo_reference.npz"
TOL = 1e-10


def _reference(name: str) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    metrics, arrays = {}, {}
    with np.load(REFERENCE) as data:
        for key in data.files:
            demo, rest = key.split("::", 1)
            if demo != name:
                continue
            if rest.startswith("metric::"):
                metrics[rest[len("metric::"):]] = float(data[key])
            else:
                arrays[rest] = data[key]
    return metrics, arrays


def _peak_regions(name: str) -> dict[str, tuple[str, tuple[int, int]]]:
    """peak_position metric key -> (``variant::kind`` of its density, region)."""
    s = demo_catalog()[name]
    out = {}
    for v in s.effective_variants():
        for m in s.measurements:
            if m.kind == "metrics":
                key = "_".join(p for p in ("peak_position", m.label, v.label) if p)
                out[key] = (f"{v.label}::{m.of}", m.region or (0, s.grid.n))
    return out


@pytest.mark.parametrize("name", list(demo_documents()))
def test_demo_matches_frozen_reference(name):
    want_metrics, want_arrays = _reference(name)
    assert want_arrays, f"no reference for demo {name!r}"
    metrics, arrays = demo_densities(name)
    assert sorted(metrics) == sorted(want_metrics)
    assert sorted(arrays) == sorted(want_arrays)
    for key, want in want_arrays.items():
        assert arrays[key].shape == want.shape, key
        assert np.max(np.abs(arrays[key] - want)) <= TOL * np.max(np.abs(want)), key
    peaks = _peak_regions(name)
    grid = demo_catalog()[name].grid
    for key, want in want_metrics.items():
        got = metrics[key]
        if key in peaks:
            density, (start, stop) = peaks[key]
            ref = want_arrays[density]
            i = grid.nearest_index(got)
            assert start <= i < stop and grid.point(i) == got, key
            assert ref[i] >= ref[start:stop].max() - TOL * ref.max(), key
        elif np.isnan(want):
            assert np.isnan(got), key
        else:
            scale = N * DX if key.startswith("fwhm") else 1.0
            assert abs(got - want) <= TOL * max(abs(want), scale), key
