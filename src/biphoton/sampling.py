"""Monte Carlo coincidence counting from a computed joint density.

Draws photon-pair detection events cell by cell, emulating the gated
coincidence measurement with point detectors. Sampling is inverse-CDF over
the flattened cell array, driven by numpy's PCG64 generator seeded with a
64-bit integer; results are deterministic for a fixed (density, n, seed)
within this implementation.

A uniform draw u lands in cell k exactly when cdf[k-1] <= u < cdf[k].
Rather than search the CDF once per draw, ``sample_joint`` sorts the draws
in chunks of ``_CHUNK`` and searches them once per cell, accumulating
below[k] = #(u < cdf[k]); the counts are below[k] - below[k-1]. They equal
per-draw inverse-CDF counts exactly (chunked PCG64 draws are the unchunked
stream), and memory is bounded by the chunk and the cell count for any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, ValidationError
from .grid import Grid
from .measure import Density1D, Density2D

_CHUNK = 1 << 20  # uniform draws sorted at a time


@dataclass(frozen=True)
class CoincidenceCounts:
    grid1: Grid
    grid2: Grid
    counts: np.ndarray  # non-negative integers, shape (grid1.n, grid2.n)
    total: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (self.grid1.n, self.grid2.n):
            raise ValidationError("counts shape does not match grids")
        if c.min() < 0:
            raise ValidationError("counts must be non-negative")
        if int(c.sum()) != self.total:
            raise ValidationError("counts must sum to total")
        object.__setattr__(self, "counts", c.astype(np.int64))


def sample_joint(p: Density2D, n: int, seed: int) -> CoincidenceCounts:
    """Draw n independent coincidence events from the cell probabilities
    p(x1, x2) dx1 dx2."""
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n!r}")
    probs = (p.values * (p.grid1.dx * p.grid2.dx)).ravel()
    total = probs.sum()
    if not total > 0:
        raise PhysicsError("degenerate all-zero density, nothing to sample")
    cdf = np.cumsum(probs)
    del probs
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    below = np.zeros(cdf.size, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        u.sort()
        below += np.searchsorted(u, cdf, side="left")
        del u
    del cdf
    below[1:] -= below[:-1]  # overlapping operands: numpy buffers the input
    return CoincidenceCounts(p.grid1, p.grid2, below.reshape(p.values.shape), n)


def empirical_densities(c: CoincidenceCounts) -> tuple[Density2D, Density1D, Density1D]:
    """Normalize counts to unit-integral densities: the empirical joint and
    the two bucket-summed empirical marginals."""
    if c.total < 1:
        raise ValidationError("need at least one recorded event")
    dx1, dx2 = c.grid1.dx, c.grid2.dx
    joint = Density2D(c.grid1, c.grid2, c.counts / (c.total * dx1 * dx2))
    m1 = Density1D(c.grid1, c.counts.sum(axis=1) / (c.total * dx1))
    m2 = Density1D(c.grid2, c.counts.sum(axis=0) / (c.total * dx2))
    return joint, m1, m2
