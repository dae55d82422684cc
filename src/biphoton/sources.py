"""Source states: single-photon pure/mixed, pure biphotons, SPDC pairs and
classically correlated pair mixtures.

Dirac deltas on the lattice become Kronecker deltas scaled by 1/sqrt(dx)
(amplitudes) or 1/dx (pair/kernel matrices), the standard finite
regularization that keeps every normalization integral exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid

NORM_TOL = 1e-10
PSD_TOL = 1e-10


def _as_complex_vector(values, n: int, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=complex)
    if a.shape != (n,):
        raise ValidationError(f"{what} shape {a.shape} does not match grid ({n},)")
    return a


@dataclass(frozen=True)
class SinglePhotonPure:
    """Pure single-photon state with amplitude phi(x), units 1/sqrt(length)."""

    grid: Grid
    amp: np.ndarray

    def __post_init__(self):
        a = _as_complex_vector(self.amp, self.grid.n, "amplitude")
        norm = np.sum(np.abs(a) ** 2) * self.grid.dx
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"amplitude not normalized: integral |phi|^2 dx = {norm!r}")
        object.__setattr__(self, "amp", a)

    @classmethod
    def normalized(cls, grid: Grid, amp) -> "SinglePhotonPure":
        a = _as_complex_vector(amp, grid.n, "amplitude")
        norm = np.sqrt(np.sum(np.abs(a) ** 2) * grid.dx)
        if norm == 0:
            raise ValidationError("cannot normalize an all-zero amplitude")
        return cls(grid, a / norm)


@dataclass(frozen=True)
class SinglePhotonMixed:
    """Mixed single-photon state with coherence matrix gamma(x, x'),
    units 1/length: Hermitian, positive semidefinite, unit trace."""

    grid: Grid
    coherence: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.coherence, dtype=complex)
        n = self.grid.n
        if g.shape != (n, n):
            raise ValidationError(f"coherence shape {g.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(g)):
            raise ValidationError("coherence matrix contains non-finite entries")
        scale = max(np.max(np.abs(g)), 1e-300)
        if np.max(np.abs(g - g.conj().T)) > 1e-9 * scale:
            raise ValidationError("coherence matrix is not Hermitian")
        trace = np.real(np.trace(g)) * self.grid.dx
        if not abs(trace - 1.0) <= NORM_TOL:
            raise ValidationError(f"coherence trace integral must be 1, got {trace!r}")
        # Spectrum of gamma*dx is the dimensionless mode-weight distribution.
        w = np.linalg.eigvalsh((g + g.conj().T) / 2) * self.grid.dx
        if w.min() < -PSD_TOL:
            raise ValidationError(f"coherence matrix not positive semidefinite (min weight {w.min()})")
        object.__setattr__(self, "coherence", g)


@dataclass(frozen=True)
class BiphotonPure:
    """Pure two-photon state with joint amplitude phi(x, x'), units 1/length.

    amp[i, j] is the amplitude for photon 1 at grid1.point(i) and photon 2
    at grid2.point(j).
    """

    grid1: Grid
    grid2: Grid
    amp: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amp, dtype=complex)
        if a.shape != (self.grid1.n, self.grid2.n):
            raise ValidationError(
                f"joint amplitude shape {a.shape} does not match grids "
                f"({self.grid1.n}, {self.grid2.n})"
            )
        norm = np.sum(np.abs(a) ** 2) * self.grid1.dx * self.grid2.dx
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"joint amplitude not normalized: integral = {norm!r}")
        object.__setattr__(self, "amp", a)

    @classmethod
    def normalized(cls, grid1: Grid, grid2: Grid, amp) -> "BiphotonPure":
        a = np.asarray(amp, dtype=complex)
        norm = np.sqrt(np.sum(np.abs(a) ** 2) * grid1.dx * grid2.dx)
        if norm == 0:
            raise ValidationError("cannot normalize an all-zero joint amplitude")
        return cls(grid1, grid2, a / norm)


@dataclass(frozen=True)
class BiphotonMixture:
    """Finite convex mixture of pure biphoton states on common grids."""

    components: tuple[tuple[float, BiphotonPure], ...]

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValidationError("mixture needs at least one component")
        if not all(w >= 0 for w, _ in comps):
            raise ValidationError("mixture weights must be non-negative and finite")
        total = sum(w for w, _ in comps)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {total!r}")
        g1, g2 = comps[0][1].grid1, comps[0][1].grid2
        for _, s in comps[1:]:
            if s.grid1 != g1 or s.grid2 != g2:
                raise ValidationError("mixture components must share grids")
        object.__setattr__(self, "components", comps)

    @property
    def grid1(self) -> Grid:
        return self.components[0][1].grid1

    @property
    def grid2(self) -> Grid:
        return self.components[0][1].grid2


@dataclass(frozen=True)
class CorrelatedPairSource:
    """Classically correlated pair source: co-located pair emission with
    probability density gamma(x) >= 0, units 1/length, and no amplitude
    superposition between emission points."""

    grid: Grid
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (self.grid.n,):
            raise ValidationError(f"gamma shape {g.shape} does not match grid ({self.grid.n},)")
        if not g.min() >= 0:
            raise ValidationError("gamma must be non-negative and finite")
        total = g.sum() * self.grid.dx
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"gamma must integrate to 1, got {total!r}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class SpdcParams:
    """Down-conversion parameters: pump field on the source grid and the
    Gaussian phase-matching width b (narrow b -> ideal entangled pairs,
    thick crystal / large b -> factorizable state)."""

    pump: np.ndarray
    pm_width: float

    def __post_init__(self):
        p = np.asarray(self.pump, dtype=complex)
        if p.ndim != 1:
            raise ValidationError("pump must be a 1-D array")
        if not np.any(p):
            raise ValidationError("pump must not be all zero")
        if not self.pm_width > 0:
            raise ValidationError(f"phase-matching width must be positive, got {self.pm_width!r}")
        object.__setattr__(self, "pump", p)


# ---------------------------------------------------------------------------
# Constructors


def factorizable(phi1: SinglePhotonPure, phi2: SinglePhotonPure) -> BiphotonPure:
    """Non-entangled pair source: amp(x, x') = phi1(x) * phi2(x')."""
    return BiphotonPure(phi1.grid, phi2.grid, np.outer(phi1.amp, phi2.amp))


def entangled_delta(phi: SinglePhotonPure) -> BiphotonPure:
    """Ideal position-entangled source: both photons emitted from the same
    point with amplitude phi(x). On the lattice,

        amp(x_i, x_j) = phi(x_i) * delta_ij / sqrt(dx).
    """
    g = phi.grid
    return BiphotonPure(g, g, np.diag(phi.amp) / np.sqrt(g.dx))


def spdc_amplitude(params: SpdcParams, grid: Grid) -> BiphotonPure:
    """Biphoton amplitude of down-conversion from a pump field E_p:

        amp(x, x') ~ sum_k E_p(x_k) zeta(x - x_k, x' - x_k) dx,
        zeta(u, v) = exp(-(u^2 + v^2) / (2 b^2)),

    renormalized to unit norm. b << dx recovers the ideal entangled state;
    b much larger than the pump width approaches a factorizable state.
    """
    pump = _as_complex_vector(params.pump, grid.n, "pump")
    if not np.any(pump):
        raise ValidationError("pump must not be all zero")
    b = params.pm_width
    x = grid.points
    w = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * b**2))  # w[k, i] = zeta part
    amp = (w * (pump * grid.dx)[:, None]).T @ w
    return BiphotonPure.normalized(grid, grid, amp)


def reduced_coherence(s: BiphotonPure, arm: int) -> SinglePhotonMixed:
    """Coherence matrix of one photon with the other traced out:

        arm 1: gamma(x, x') = sum_x'' amp(x, x'') conj(amp(x', x'')) dx2
        arm 2: gamma(x, x') = sum_x'' amp(x'', x) conj(amp(x'', x')) dx1
    """
    a = s.amp
    if arm == 1:
        return SinglePhotonMixed(s.grid1, (a @ a.conj().T) * s.grid2.dx)
    if arm == 2:
        return SinglePhotonMixed(s.grid2, (a.T @ a.conj()) * s.grid1.dx)
    raise ValidationError(f"arm must be 1 or 2, got {arm!r}")


@dataclass(frozen=True)
class SchmidtSpectrum:
    singular_values: np.ndarray  # sigma_i of amp*sqrt(dx1*dx2), sum sigma^2 = 1
    entropy: float  # -sum sigma^2 ln sigma^2
    participation: float  # K = 1 / sum sigma^4; 1 for product states


def schmidt_spectrum(s: BiphotonPure) -> SchmidtSpectrum:
    """Schmidt decomposition of the joint amplitude; quantifies how far the
    state is from factorizable (K = 1) toward maximally entangled."""
    sigma = np.linalg.svd(s.amp * np.sqrt(s.grid1.dx * s.grid2.dx), compute_uv=False)
    p = sigma**2
    p = p / p.sum()  # guard round-off before the log
    nz = p[p > 1e-300]
    entropy = float(-(nz * np.log(nz)).sum())
    return SchmidtSpectrum(sigma, entropy, float(1.0 / np.sum(p**2)))


def correlated_from_intensity(gamma, grid: Grid) -> CorrelatedPairSource:
    """Build a correlated pair source from a non-negative emission profile,
    normalized to unit integral."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (grid.n,):
        raise ValidationError(f"gamma shape {g.shape} does not match grid ({grid.n},)")
    if g.min() < 0:
        raise ValidationError("gamma must be non-negative")
    total = g.sum() * grid.dx
    if total == 0:
        raise ValidationError("gamma must not be all zero")
    return CorrelatedPairSource(grid, g / total)


def localized_pair_mixture(c: CorrelatedPairSource) -> BiphotonMixture:
    """The correlated source written out as a convex mixture of co-located
    pair emissions: weight gamma(x_i) dx for the pure pair state with
    amp = e_i e_i^T / dx at each lattice point with gamma > 0."""
    g = c.grid
    comps: list[tuple[float, BiphotonPure]] = []
    for i in np.flatnonzero(c.gamma > 0):
        amp = np.zeros((g.n, g.n), dtype=complex)
        amp[i, i] = 1.0 / g.dx
        comps.append((float(c.gamma[i] * g.dx), BiphotonPure(g, g, amp)))
    return BiphotonMixture(tuple(comps))
