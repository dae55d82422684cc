"""Source states: pure single photons, pure biphotons, SPDC pairs and
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


class BiphotonPure:
    """Pure two-photon state with joint amplitude phi(x, x'), units 1/length.

    amp[i, j] is the amplitude for photon 1 at grid1.point(i) and photon 2
    at grid2.point(j). A state built by ``colocated`` keeps only its
    diagonal d, amp = diag(d), as ``diagonal`` and forms ``amp`` each time
    it is read, without keeping it; a state built from a matrix has
    ``diagonal`` None and its matrix is never inspected for structure. A
    real matrix (an SPDC amplitude from a real pump) is kept as float64,
    a complex one as complex128.
    """

    __slots__ = ("grid1", "grid2", "diagonal", "_amp")

    def __init__(self, grid1: Grid, grid2: Grid, amp):
        a = _as_float_or_complex(amp)
        if a.shape != (grid1.n, grid2.n):
            raise ValidationError(
                f"joint amplitude shape {a.shape} does not match grids "
                f"({grid1.n}, {grid2.n})"
            )
        _check_pair_norm(np.sum(np.abs(a) ** 2) * grid1.dx * grid2.dx)
        self.grid1, self.grid2, self.diagonal, self._amp = grid1, grid2, None, a

    @classmethod
    def colocated(cls, grid: Grid, d) -> "BiphotonPure":
        """Both photons emitted at the same point: amp = diag(d) on one grid,
        with sum |d|^2 dx^2 = 1. Checked and stored in O(n)."""
        d = _as_complex_vector(d, grid.n, "co-located amplitude")
        _check_pair_norm(np.sum(np.abs(d) ** 2) * grid.dx * grid.dx)
        s = cls.__new__(cls)
        s.grid1 = s.grid2 = grid
        s.diagonal, s._amp = d, None
        return s

    @property
    def amp(self) -> np.ndarray:
        return np.diag(self.diagonal) if self._amp is None else self._amp

    @classmethod
    def normalized(cls, grid1: Grid, grid2: Grid, amp) -> "BiphotonPure":
        a = _as_float_or_complex(amp)
        norm = np.sqrt(np.sum(np.abs(a) ** 2) * grid1.dx * grid2.dx)
        if norm == 0:
            raise ValidationError("cannot normalize an all-zero joint amplitude")
        return cls(grid1, grid2, a / norm)


def _as_float_or_complex(values) -> np.ndarray:
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


def _check_pair_norm(norm) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValidationError(f"joint amplitude not normalized: integral = {norm!r}")


@dataclass(frozen=True)
class BiphotonMixture:
    """Finite convex mixture of pair states on common grids: pure biphotons
    and correlated sources (incoherent batches of co-located pairs)."""

    components: tuple[tuple[float, BiphotonPure | CorrelatedPairSource], ...]

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

    grid1 = grid2 = property(lambda self: self.grid)  # as a mixture component


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
        if not np.all(np.isfinite(p)):
            raise ValidationError("pump contains non-finite entries")
        if not np.any(p):
            raise ValidationError("pump must not be all zero")
        if not 0 < self.pm_width < np.inf:
            raise ValidationError(
                f"phase-matching width must be positive and finite, got {self.pm_width!r}")
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
    return BiphotonPure.colocated(phi.grid, phi.amp / np.sqrt(phi.grid.dx))


def spdc_amplitude(params: SpdcParams, grid: Grid) -> BiphotonPure:
    """Biphoton amplitude of down-conversion from a pump field E_p:

        amp(x, x') ~ sum_k E_p(x_k) zeta(x - x_k, x' - x_k) dx,
        zeta(u, v) = exp(-(u^2 + v^2) / (2 b^2)),

    renormalized to unit norm. b << dx recovers the ideal entangled state;
    b much larger than the pump width approaches a factorizable state.

    With s = (x + x') / 2, (x - x_k)^2 + (x' - x_k)^2 = 2 (x_k - s)^2 +
    (x - x')^2 / 2, so on the lattice the amplitude factorizes as

        amp[i, j] = e[i - j] * q[i + j],
        e[d] = exp(-(d dx)^2 / (4 b^2)),
        q[m] = sum_k E_p(x_k) dx exp(-((m - 2k) dx / 2)^2 / b^2),

    where q is one correlation of the pump with a Gaussian on the half-step
    lattice. Both vectors have length 2n - 1, so the build is O(n^2) and
    nothing n x n is exponentiated. The same product is stored at [i, j]
    and [j, i]: the result is exactly symmetric. A pump without imaginary
    part is computed in float64 and gives a float64 amplitude. When
    every off-centre e[d] underflows to 0 (b << dx) the state is co-located
    and comes back from ``BiphotonPure.colocated`` with d[i] = q[2i].
    """
    pump = _as_complex_vector(params.pump, grid.n, "pump")
    if not np.any(pump.imag):
        pump = pump.real
    n, dx, b = grid.n, grid.dx, params.pm_width
    t = np.arange(-(2 * n - 2), 2 * n - 1)  # half-step offsets m - 2k
    upsampled = np.zeros(2 * n - 1, dtype=pump.dtype)
    upsampled[::2] = pump * dx
    q = np.convolve(np.exp(-((t * dx / 2) / b) ** 2), upsampled, mode="valid")
    d = np.arange(-(n - 1), n)
    e = np.exp(-((d * dx) / (2 * b)) ** 2)
    if not np.any(e[:n - 1]):  # e is even, so e[n:] is zero too
        diag = q[::2]  # e[n - 1] = 1
        norm = np.sqrt(np.sum(np.abs(diag) ** 2) * dx * dx)
        return BiphotonPure.colocated(grid, diag / norm)
    i = np.arange(n)
    amp = e[np.subtract.outer(i, i) + (n - 1)] * q[np.add.outer(i, i)]
    return BiphotonPure.normalized(grid, grid, amp)


@dataclass(frozen=True)
class SchmidtSpectrum:
    singular_values: np.ndarray  # sigma_i of amp*sqrt(dx1*dx2), sum sigma^2 = 1
    entropy: float  # -sum sigma^2 ln sigma^2
    participation: float  # K = 1 / sum sigma^4; 1 for product states


def schmidt_spectrum(s: BiphotonPure) -> SchmidtSpectrum:
    """Schmidt decomposition of the joint amplitude; quantifies how far the
    state is from factorizable (K = 1) toward maximally entangled.

    The Schmidt coefficients are the singular values of a = amp*sqrt(dx1*dx2).
    A co-located state (``diagonal`` set: an entangled delta, real or complex
    phi, a localized component, an underflowed SPDC state) has them as
    |d| sqrt(dx1*dx2), sorted, with no decomposition and no n x n matrix.
    Otherwise, when a is square and Hermitian (a real symmetric amplitude,
    such as an SPDC state from a real pump, or a complex one equal to its
    conjugate transpose), they are the absolute eigenvalues from eigvalsh,
    in float64 for a real amplitude. Equality is tested exactly, not to a
    tolerance, so a state Hermitian only up to round-off, a complex-phase
    pump (complex symmetric) and any other amplitude take the general SVD.
    """
    scale = np.sqrt(s.grid1.dx * s.grid2.dx)
    if s.diagonal is not None:
        sigma = np.sort(np.abs(s.diagonal) * scale)[::-1]
    else:
        a = s.amp * scale
        adjoint = a.T if np.isrealobj(a) else a.conj().T
        if a.shape[0] == a.shape[1] and np.array_equal(a, adjoint):
            sigma = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
        else:
            sigma = np.linalg.svd(a, compute_uv=False)
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
    amp = e_i e_i^T / dx at each lattice point with gamma > 0, each held as
    its length-n diagonal."""
    g = c.grid
    comps = []
    for i in np.flatnonzero(c.gamma > 0):
        d = np.zeros(g.n, dtype=complex)
        d[i] = 1.0 / g.dx
        comps.append((float(c.gamma[i] * g.dx), BiphotonPure.colocated(g, d)))
    return BiphotonMixture(tuple(comps))
