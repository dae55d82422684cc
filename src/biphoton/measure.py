"""Detection densities for every source/system combination.

Single photons: coherent ( |integral phi h|^2 ). Photon pairs: the joint
coincidence density, per-arm singles with the other photon traced out, and
the bucket-gated marginal (one detector scanned, the other photon accepted
anywhere).

Pure-pair singles are row sums of |H A|^2, one matrix product: the same
double sum as partially coherent imaging of the reduced coherence matrix,
with the trace over the other photon taken last, so that matrix is never
formed.

Pair densities reach a kernel only through ``Kernel.dot`` (H A),
``Kernel.dot_diag`` (H diag(d)), ``Kernel.dot_t`` (A H^T) and
``Kernel.abs2`` (|H|^2), so a factored Fourier arm is applied by FFT and a
dense one by matrix products (see ``optics``). The partially coherent
engine ``_coherence_density_raw``, used by the entangled closed form,
reads ``Kernel.matrix``.

A co-located pair state (``BiphotonPure.colocated``: the ideal entangled
source, each ``localized`` component, an SPDC state whose off-diagonal
entries underflow to 0) holds only d, amp = diag(d). Its joint starts from
``Kernel.dot_diag`` and its singles are |H|^2 |d|^2, with no n x n
amplitude. A state built from a matrix is never inspected for structure.
A classically correlated source is an incoherent batch of such pairs, one
at each x_i with weight gamma_i dx: its joint is
|H1|^2 diag(gamma dx^3) (|H2|^2)^T and its singles |H|^2 gamma dx^2.

``biphoton_joint`` and ``biphoton_singles`` measure every pair state: a
``BiphotonPure``, a ``CorrelatedPairSource`` or a ``BiphotonMixture``.
Each component's raw density carries its exact quadrature factors, so a
mixture is the weighted sum of its components' raws (any other state is
its own one component), normalized once. Marginals are the joint
integrated over the gating detector; the closed forms
``entangled_marginal_closed`` and ``correlated_marginal`` are the oracles
the tests check them against. All outputs are normalized to unit
integral: detector constants are out of scope, only shapes carry physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, ValidationError
from .grid import Grid
from .optics import Kernel, g_kernel
from .sources import (
    BiphotonMixture,
    BiphotonPure,
    CorrelatedPairSource,
    SinglePhotonPure,
)

PairState = BiphotonPure | CorrelatedPairSource | BiphotonMixture

NORM_TOL = 1e-10
# Negative round-off allowance when clipping |.|^2-type values, relative to the peak.
NEG_TOL = 1e-9


@dataclass(frozen=True)
class Density1D:
    """Normalized detection density on one output grid, units 1/length."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValidationError(f"density shape {v.shape} does not match grid ({self.grid.n},)")
        if not v.min() >= 0:
            raise ValidationError("density values must be non-negative and finite")
        total = v.sum() * self.grid.dx
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"density must integrate to 1, got {total!r}")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.dx)


@dataclass(frozen=True)
class Density2D:
    """Normalized joint detection density on two output grids, units 1/length^2."""

    grid1: Grid
    grid2: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid1.n, self.grid2.n):
            raise ValidationError(
                f"density shape {v.shape} does not match grids ({self.grid1.n}, {self.grid2.n})"
            )
        if not v.min() >= 0:
            raise ValidationError("density values must be non-negative and finite")
        total = v.sum() * self.grid1.dx * self.grid2.dx
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"density must integrate to 1, got {total!r}")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(self.values.sum() * self.grid1.dx * self.grid2.dx)


def _clip_nonnegative(values: np.ndarray, what: str) -> np.ndarray:
    """Zero out negative round-off; reject genuinely negative input."""
    v = np.real(values)
    peak = v.max(initial=0.0)
    if v.min(initial=0.0) < -NEG_TOL * max(peak, 1e-300):
        raise PhysicsError(f"{what} has significantly negative values (not a density)")
    return np.clip(v, 0.0, None)


def _norm_1d(values: np.ndarray, grid: Grid, what: str) -> Density1D:
    total = values.sum() * grid.dx
    if not total > 0:
        raise PhysicsError(f"{what} is identically zero, cannot normalize")
    return Density1D(grid, values / total)


def _norm_2d(values: np.ndarray, grid1: Grid, grid2: Grid, what: str) -> Density2D:
    total = values.sum() * grid1.dx * grid2.dx
    if not total > 0:
        raise PhysicsError(f"{what} is identically zero, cannot normalize")
    return Density2D(grid1, grid2, values / total)


# ---------------------------------------------------------------------------
# Single-photon densities


def single_coherent(s: SinglePhotonPure, k: Kernel) -> Density1D:
    """Coherent system: p(x1) ~ |sum_x phi(x) h(x1, x) dx|^2."""
    if s.grid != k.grid_in:
        raise ValidationError("single_coherent: source grid must match kernel input grid")
    out = k.apply(s.amp)
    return _norm_1d(np.abs(out) ** 2, k.grid_out, "output density")


def _coherence_density_raw(gamma: np.ndarray, k: Kernel) -> np.ndarray:
    """Partially coherent engine, unnormalized:

        p(x1) = sum_{x,x'} gamma(x, x') h(x1, x) conj(h(x1, x')) dx^2
    """
    h = k.matrix
    t = h @ gamma
    vals = np.einsum("ai,ai->a", t, h.conj()) * k.grid_in.dx**2
    return _clip_nonnegative(vals, "partially coherent density")


# ---------------------------------------------------------------------------
# Pair densities: a pure pair, a correlated source (one batch of pairs) or a
# mixture of them


def _joint_raw(s: BiphotonPure | CorrelatedPairSource, k1: Kernel, k2: Kernel) -> np.ndarray:
    if s.grid1 != k1.grid_in or s.grid2 != k2.grid_in:
        raise ValidationError("joint: source grids must match kernel input grids")
    if isinstance(s, CorrelatedPairSource):
        # the pair at x_i is d = e_i / dx with weight gamma_i dx
        return (k1.abs2() * (s.gamma * s.grid.dx**3)) @ k2.abs2().T
    h1a = k1.dot(s.amp) if s.diagonal is None else k1.dot_diag(s.diagonal)
    a = k2.dot_t(h1a) * (s.grid1.dx * s.grid2.dx)
    return np.abs(a) ** 2


def _components(s: PairState) -> tuple:
    return s.components if isinstance(s, BiphotonMixture) else ((1.0, s),)


def biphoton_joint(s: PairState, k1: Kernel, k2: Kernel) -> Density2D:
    """Coincidence density p(x1, x2) ~ |sum phi(x, x') h1(x1, x) h2(x2, x')|^2
    for a pure pair; intensities add per emission point for a correlated
    source, and per component for a mixture."""
    vals = sum(w * _joint_raw(c, k1, k2) for w, c in _components(s))
    return _norm_2d(vals, k1.grid_out, k2.grid_out, "joint density")


def _singles_raw(s: BiphotonPure | CorrelatedPairSource, k: Kernel, arm: int) -> np.ndarray:
    """Unnormalized singles of one arm of a pair, the other photon traced
    out (arm 1 shown; arm 2 uses amp transposed):

        p(x1) = sum_x'' |sum_x h(x1, x) amp(x, x'') dx_in|^2 dx_other
    """
    if arm == 1:
        grid_in, dx_other = s.grid1, s.grid2.dx
    elif arm == 2:
        grid_in, dx_other = s.grid2, s.grid1.dx
    else:
        raise ValidationError(f"arm must be 1 or 2, got {arm!r}")
    if grid_in != k.grid_in:
        raise ValidationError("singles: source grid must match kernel input grid")
    if isinstance(s, CorrelatedPairSource):
        return k.abs2() @ (s.gamma * s.grid.dx**2)
    d = s.diagonal
    if d is None:
        t = k.dot(s.amp if arm == 1 else s.amp.T)
        vals = (t.real**2 + t.imag**2).sum(axis=1)
    else:
        vals = k.abs2() @ (d.real**2 + d.imag**2)
    return _clip_nonnegative(vals * (dx_other * grid_in.dx**2), "singles density")


def biphoton_singles(s: PairState, k: Kernel, arm: int) -> Density1D:
    """Singles rate of one arm: partially coherent imaging of the traced-out
    (reduced) coherence of that photon; an incoherent system,
    p(x_j) ~ sum_x gamma(x) |h_j(x_j, x)|^2 dx, for a correlated source."""
    vals = sum(w * _singles_raw(c, k, arm) for w, c in _components(s))
    return _norm_1d(vals, k.grid_out, "singles density")


def marginal_from_joint(p: Density2D, arm: int) -> Density1D:
    """Bucket-gated marginal: integrate the joint over the other detector."""
    if arm == 1:
        return _norm_1d(p.values.sum(axis=1) * p.grid2.dx, p.grid1, "marginal")
    if arm == 2:
        return _norm_1d(p.values.sum(axis=0) * p.grid1.dx, p.grid2, "marginal")
    raise ValidationError(f"arm must be 1 or 2, got {arm!r}")


def entangled_marginal_closed(
    phi: SinglePhotonPure, k_obs: Kernel, k_other: Kernel
) -> Density1D:
    """Closed-form bucket-gated marginal for the ideal entangled source:
    the observed arm behaves as a partially coherent system with effective
    coherence

        Gamma_eff(x, x') = phi(x) conj(phi(x')) * g_other(x, x'),

    where g_other is the gating arm's back-propagated correlation kernel.
    A lossless gating arm gives g = delta and the marginal collapses to the
    singles; a structured lossy arm imprints remote information.
    """
    if phi.grid != k_obs.grid_in or phi.grid != k_other.grid_in:
        raise ValidationError("entangled_marginal_closed: grids must match kernel inputs")
    gamma_eff = np.outer(phi.amp, phi.amp.conj()) * g_kernel(k_other)
    return _norm_1d(_coherence_density_raw(gamma_eff, k_obs), k_obs.grid_out, "marginal")


# ---------------------------------------------------------------------------
# Classically correlated source: the closed-form marginal oracle


def correlated_marginal(
    c: CorrelatedPairSource, k_obs: Kernel, k_other: Kernel
) -> Density1D:
    """Bucket-gated marginal of the correlated source: still an incoherent
    system, with the emission profile reweighted by the gating arm's
    per-point throughput,

        gamma_bar(x) = gamma(x) * sum_x' |h_other(x', x)|^2 dx'.

    For a lossless or shift-invariant gating arm the throughput is constant
    and the marginal equals the singles.
    """
    if c.grid != k_obs.grid_in or c.grid != k_other.grid_in:
        raise ValidationError("correlated_marginal: source grid must match kernel input grids")
    throughput = k_other.abs2().sum(axis=0) * k_other.grid_out.dx
    gamma_bar = c.gamma * throughput
    if not gamma_bar.sum() > 0:
        raise PhysicsError(
            "gating arm is fully absorbing for this source: zero coincidence rate"
        )
    vals = k_obs.abs2() @ (gamma_bar * c.grid.dx)
    return _norm_1d(vals, k_obs.grid_out, "marginal")


# ---------------------------------------------------------------------------
# Image metrics


@dataclass(frozen=True)
class ImageMetrics:
    visibility: float  # (max - min) / (max + min) over the region
    fwhm: float  # linear-interpolated half-max width around the peak; NaN if unresolved
    peak_position: float  # lattice coordinate of the region's maximum


def image_metrics(p: Density1D, region: tuple[int, int] | None = None) -> ImageMetrics:
    """Fringe visibility, half-max width and peak location of a 1-D density
    over an index range [start, stop)."""
    n = p.grid.n
    start, stop = region if region is not None else (0, n)
    if not (isinstance(start, (int, np.integer)) and isinstance(stop, (int, np.integer))):
        raise ValidationError("region indices must be integers")
    if not 0 <= start < stop <= n:
        raise ValidationError(f"region [{start}, {stop}) invalid for grid of {n} points")
    v = p.values[start:stop]
    vmax = float(v.max())
    vmin = float(v.min())
    if vmax == 0:
        raise PhysicsError("flat-zero region: metrics undefined")
    visibility = (vmax - vmin) / (vmax + vmin)

    ipk = int(np.argmax(v))
    half = vmax / 2.0
    x = p.grid.points[start:stop]

    def cross(direction: int) -> float:
        i = ipk
        while 0 <= i + direction < len(v) and v[i + direction] >= half:
            i += direction
        j = i + direction
        if not 0 <= j < len(v):
            return math.nan
        # linear interpolation between the last sample above and first below
        frac = (v[i] - half) / (v[i] - v[j])
        return x[i] + frac * (x[j] - x[i])

    left, right = cross(-1), cross(+1)
    fwhm = right - left if not (math.isnan(left) or math.isnan(right)) else math.nan
    return ImageMetrics(visibility, fwhm, float(x[ipk]))
