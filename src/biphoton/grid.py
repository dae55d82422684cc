"""Uniform 1-D transverse coordinate lattice with Riemann-sum quadrature.

All continuum integrals in the simulator are discretized as sums over this
lattice with uniform weight ``dx``, so closed-form identities hold to
round-off instead of to a quadrature-rule mismatch.

numpy is imported by the two methods that return arrays, so a scenario can
be parsed and validated without loading it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Grid:
    """n equally spaced points: point(i) = center + (i - (n-1)/2) * dx."""

    n: int
    dx: float
    center: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ValidationError(f"must be positive and finite, got {self.dx!r}", field="dx")
        if not math.isfinite(self.center):
            raise ValidationError(f"must be finite, got {self.center!r}", field="center")

    @property
    def points(self) -> np.ndarray:
        import numpy as np

        return self.center + (np.arange(self.n) - (self.n - 1) / 2) * self.dx

    @property
    def span(self) -> float:
        return self.n * self.dx

    def point(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise ValidationError(f"index {i} outside [0, {self.n})")
        return self.center + (i - (self.n - 1) / 2) * self.dx

    def nearest_index(self, x: float) -> int:
        """Index of the lattice point nearest x, ties broken toward the
        lower index. x must lie within half a sample of the lattice ends."""
        first = self.point(0)
        last = self.point(self.n - 1)
        if not first - self.dx / 2 <= x <= last + self.dx / 2:  # NaN fails too
            raise ValidationError(
                f"x={x!r} outside grid range [{first - self.dx / 2}, {last + self.dx / 2}]"
            )
        # ceil(t - 1/2) rounds half-down, matching the low-index tie break.
        i = math.ceil((x - first) / self.dx - 0.5)
        return min(max(i, 0), self.n - 1)

    def integrate(self, values: np.ndarray) -> complex:
        """Discrete integral sum(f(x_i)) * dx over the lattice."""
        import numpy as np

        return np.asarray(values).sum() * self.dx


def make_grid(n: int, dx: float, center: float = 0.0) -> Grid:
    return Grid(n, dx, center)
