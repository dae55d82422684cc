"""Discrete impulse-response kernels for 1-D linear optical systems.

A ``Kernel`` stands for the complex matrix H of an impulse response
h(x_out, x_in) between two lattices. Its entries carry units 1/length so
that the quadrature-weighted application

    out(x1) = sum_x H[x1, x] * f(x) * dx_in

has the same units as ``f``. Thin (diagonal) elements carry a 1/dx factor,
which makes their application reproduce pointwise multiplication exactly on
the lattice; the free-space Fresnel propagator is kept in full, including
its constant global phase (it cancels in every detection density but keeps
kernel composition exact).

``chain`` never forms the matrix of a thin element (identity, mask, thin
lens): it composes them as pointwise scaling by their transmission vector,
of the rows of the dense kernel before them, or of the columns of the first
dense kernel after them. A chain of L elements of which k are dense costs
k - 1 matrix products and O(L n^2) further work.

Factored kernels. ``chain`` keeps two kinds of chain in the form
H = diag(post) F diag(pre) and builds no matrix for them:

- thin elements only: F is the identity and post is the diagonal of H;
- thin elements around exactly one ``FourierSystem`` with f > 0 at matched
  sampling, wavelength * f = n dx^2: F is the n-point DFT,
  F[j, k] = exp(-2 pi i jk / n). With x_j = center + u_j dx and
  u_j = j - (n - 1) / 2, the kernel phase x_j x_k / (wavelength f) splits
  into jk / n plus terms in j alone and in k alone; those phase vectors and
  1 / sqrt(i wavelength f) go into post and pre.

``Kernel.dot`` (H M), ``Kernel.dot_diag`` (H diag(d)), ``Kernel.dot_t``
(M H^T) and ``Kernel.abs2`` (|H|^2) then cost O(n^2 log n) by FFT (O(n^2)
for F = I) instead of O(n^3). The FFT routes scale and transform one
array in place, so each allocates only its result. Every other chain is
dense. When F is the DFT, |F| is all ones and |H|^2 is the rank-one
|post|^2 outer |pre|^2: ``Kernel.abs2_factors`` gives the two vectors, so
|H|^2 w costs O(n). ``Kernel.matrix`` of a factored kernel is built on
first access by the dense composition, so code that reads it sees the same
numbers either way.

Matched-sampling bound. With delta = wavelength f / (n dx^2) - 1, replacing
u_j u_k dx^2 / (wavelength f) by u_j u_k / n puts a phase error of
|delta| pi n / 2 rad on the corner entries of H. A density is an |amplitude|^2,
so its relative error is about twice that. ``MATCHED_PHASE_TOL`` = 1e-11 rad
keeps it a factor of five inside the 1e-10 bound to which reordered
arithmetic must reproduce the dense results: |delta| <= 2e-11 / (pi n),
about 28 ulp of 1 at n = 1024. Outside the bound a Fourier chain stays dense.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError
from .grid import Grid


MATCHED_PHASE_TOL = 1e-11  # rad; see the module docstring


def _rows(v: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale the rows (first axis) of m by v, into ``out`` when given."""
    return np.multiply(v[:, None] if m.ndim == 2 else v, m, out=out)


def _checked_matrix(matrix, grid_in: Grid, grid_out: Grid) -> np.ndarray:
    m = np.asarray(matrix)
    if m.shape != (grid_out.n, grid_in.n):
        raise ValidationError(
            f"kernel matrix shape {m.shape} does not match grids "
            f"({grid_out.n}, {grid_in.n})"
        )
    if not np.all(np.isfinite(m)):
        raise ValidationError("kernel matrix contains non-finite entries")
    return np.ascontiguousarray(m, dtype=complex)


class Kernel:
    """Impulse response H, shape (grid_out.n, grid_in.n): dense, or factored
    as diag(post) F diag(pre) by ``chain`` (see the module docstring)."""

    __slots__ = ("grid_in", "grid_out", "_matrix", "_build", "_post", "_pre", "_abs2")

    def __init__(self, grid_in: Grid, grid_out: Grid, matrix):
        self.grid_in, self.grid_out = grid_in, grid_out
        self._matrix = _checked_matrix(matrix, grid_in, grid_out)
        self._build = self._post = self._pre = self._abs2 = None

    @classmethod
    def _factored(cls, grid: Grid, post: np.ndarray, pre: np.ndarray | None,
                  build) -> "Kernel":
        """diag(post) F diag(pre) on one grid: F is the DFT, or the identity
        when pre is None. ``build()`` gives the dense matrix when asked for."""
        if not all(np.all(np.isfinite(v)) for v in (post, pre) if v is not None):
            raise ValidationError("kernel factors contain non-finite entries")
        k = cls.__new__(cls)
        k.grid_in = k.grid_out = grid
        k._matrix, k._build, k._post, k._pre, k._abs2 = None, build, post, pre, None
        return k

    @property
    def factored(self) -> bool:
        return self._post is not None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _checked_matrix(self._build(), self.grid_in, self.grid_out)
            self._build = None
        return self._matrix

    def dot(self, m: np.ndarray) -> np.ndarray:
        """H @ m for a vector or matrix m on the input grid (first axis)."""
        if self._post is None:
            return self.matrix @ m
        if self._pre is None:  # F = I
            return _rows(self._post, m)
        out = _rows(self._pre, m)
        np.fft.fft(out, axis=0, out=out)
        return _rows(self._post, out, out=out)

    def dot_diag(self, d: np.ndarray) -> np.ndarray:
        """H @ diag(d) for a vector d on the input grid, with no n x n
        product: ``dot(np.diag(d))`` to one rounding, bit for bit when H is
        factored or d is real (each sum has one nonzero term)."""
        if self._post is None:
            return self.matrix * d[None, :]
        if self._pre is None:  # F = I
            return np.diag(self._post * d)
        out = np.diag(self._pre * d)
        np.fft.fft(out, axis=0, out=out)
        return _rows(self._post, out, out=out)

    def dot_t(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """m @ H.T for a matrix m on the input grid (last axis), written
        into ``out`` when given; ``out`` may be m itself."""
        if self._post is None:
            return np.matmul(m, self.matrix.T, out=out)
        if self._pre is None:  # F = I
            return np.multiply(m, self._post, out=out)
        out = np.multiply(m, self._pre, out=out)
        np.fft.fft(out, axis=-1, out=out)
        return np.multiply(out, self._post, out=out)

    @property
    def abs2_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(|post|^2, |pre|^2) when F is the DFT, so that |H|^2 is their
        outer product; None for a dense kernel or F = I."""
        if self._pre is None:
            return None
        return np.abs(self._post) ** 2, np.abs(self._pre) ** 2

    def abs2(self) -> np.ndarray:
        """|H|^2 entrywise, cached read-only: re^2 + im^2 of a dense matrix,
        the outer product of ``abs2_factors`` when F is the DFT, diag
        |post|^2 when F = I."""
        if self._abs2 is None:
            if self._post is None:
                m = self.matrix
                self._abs2 = m.real**2 + m.imag**2
            elif self._pre is None:
                self._abs2 = np.diag(np.abs(self._post) ** 2)
            else:
                self._abs2 = np.outer(*self.abs2_factors)
            self._abs2.flags.writeable = False
        return self._abs2

    def apply(self, amp: np.ndarray) -> np.ndarray:
        """Propagate a field amplitude: out = H @ amp * dx_in."""
        return self.dot(np.asarray(amp, dtype=complex)) * self.grid_in.dx


# ---------------------------------------------------------------------------
# Element specifications


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class FreeSpace:
    distance: float
    wavelength: float

    def __post_init__(self):
        if not self.distance > 0:
            raise ValidationError(f"free-space distance must be positive, got {self.distance!r}")
        if not self.wavelength > 0:
            raise ValidationError(f"wavelength must be positive, got {self.wavelength!r}")


@dataclass(frozen=True)
class ThinLens:
    focal_length: float
    wavelength: float

    def __post_init__(self):
        if self.focal_length == 0:
            raise ValidationError("thin lens focal length must be nonzero")
        if not self.wavelength > 0:
            raise ValidationError(f"wavelength must be positive, got {self.wavelength!r}")


@dataclass(frozen=True)
class Mask:
    """Thin transmittance t(x) with |t| <= 1."""

    transmittance: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transmittance, dtype=complex)
        peak = np.max(np.abs(t))
        if not peak <= 1 + 1e-9:
            raise ValidationError(f"mask transmittance must satisfy |t| <= 1 (max |t| = {peak})")
        object.__setattr__(self, "transmittance", t)


@dataclass(frozen=True)
class FourierSystem:
    focal_length: float
    wavelength: float

    def __post_init__(self):
        if self.focal_length == 0:
            raise ValidationError("Fourier system focal length must be nonzero")
        if not self.wavelength > 0:
            raise ValidationError(f"wavelength must be positive, got {self.wavelength!r}")


@dataclass(frozen=True)
class Custom:
    matrix: np.ndarray


@dataclass(frozen=True)
class Scatterer:
    """Weak point scatterer: re-radiates the incident field with complex
    strength (|strength| << 1 intended)."""

    position: float
    strength: complex


ElementSpec = Union[Identity, FreeSpace, ThinLens, Mask, FourierSystem, Custom]

_DIAGONAL = (Identity, Mask, ThinLens)


def _thin_transmission(element: ElementSpec, grid: Grid) -> np.ndarray:
    """Transmission vector t(x) of a thin element: its kernel is diag(t)/dx."""
    if isinstance(element, Identity):
        return np.ones(grid.n, dtype=complex)
    if isinstance(element, Mask):
        t = element.transmittance
        if t.shape != (grid.n,):
            raise ValidationError(
                f"mask transmittance length {t.shape} does not match grid ({grid.n},)"
            )
        return t
    lam, f = element.wavelength, element.focal_length
    return np.exp(-1j * np.pi * grid.points**2 / (lam * f))


def kernel_of(element: ElementSpec, grid_in: Grid, grid_out: Grid | None = None) -> Kernel:
    """Build the discrete impulse response of a single optical element."""
    if grid_out is None:
        grid_out = grid_in
    if isinstance(element, _DIAGONAL):
        if grid_in != grid_out:
            raise ValidationError(
                f"{type(element).__name__} is a thin element and needs grid_in == grid_out"
            )
        t = _thin_transmission(element, grid_in)
        return Kernel(grid_in, grid_out, np.diag(t) / grid_in.dx)
    x = grid_in.points
    if isinstance(element, FreeSpace):
        lam, d = element.wavelength, element.distance
        u = np.subtract.outer(grid_out.points, x)
        h = np.exp(1j * np.pi * u**2 / (lam * d))
        h *= np.exp(2j * np.pi * d / lam) / np.sqrt(1j * lam * d)
    elif isinstance(element, FourierSystem):
        lam, f = element.wavelength, element.focal_length
        h = np.exp(-2j * np.pi * np.outer(grid_out.points, x) / (lam * f))
        h /= np.sqrt(1j * lam * f)
    elif isinstance(element, Custom):
        h = np.asarray(element.matrix, dtype=complex)
    else:
        raise ValidationError(f"unknown element spec {element!r}")
    return Kernel(grid_in, grid_out, h)


def _chain_matrix(elements, grid: Grid) -> np.ndarray:
    """Dense matrix of a chain, each thin element applied as a scaling."""
    lead = np.ones(grid.n, dtype=complex)  # thin elements before the first dense one
    h = None
    for e in elements:
        if isinstance(e, _DIAGONAL):
            t = _thin_transmission(e, grid)
            if h is None:
                lead *= t
            else:
                h *= t[:, None]
        elif h is None:
            h = kernel_of(e, grid).matrix * lead[None, :]
        else:
            h = kernel_of(e, grid).matrix @ h * grid.dx
    if h is None:
        h = np.diag(lead) / grid.dx
    return h


def _dft_phases(e: FourierSystem, grid: Grid) -> tuple[np.ndarray, np.ndarray] | None:
    """(post, pre) of a Fourier system at matched sampling, else None.

    x_j x_k / (wavelength f) = c^2 / lf + c dx (u_j + u_k) / lf
    + u_j u_k dx^2 / lf, with lf = wavelength f, c the grid center and
    u_j = j - s, s = (n - 1) / 2. At lf = n dx^2 the last term is
    u_j u_k / n = jk / n + r_j / (8n) + r_k / (8n) with the integer
    r_j = (n - 1)(n - 1 - 4j), taken mod 8n so every phase stays small.
    """
    n, dx, c = grid.n, grid.dx, grid.center
    lf = e.wavelength * e.focal_length
    delta = lf / (n * dx * dx) - 1.0
    if not abs(delta) * math.pi * n / 2 <= MATCHED_PHASE_TOL:
        return None
    j = np.arange(n)
    r = ((n - 1) * (n - 1 - 4 * j)) % (8 * n)
    b = r / (8 * n) + c * dx * (j - (n - 1) / 2) / lf + c * c / (2 * lf)
    pre = np.exp(-2j * np.pi * b)
    return pre / np.sqrt(1j * lf), pre


def chain(elements, grid: Grid) -> Kernel:
    """Compose a sequence of elements on one grid; empty sequence = identity.

    Equal to cascading the element kernels, H = H_L ... H_1 with a factor
    dx per intermediate plane, with each thin element applied as a scaling
    instead of a matrix product. Thin-only chains and matched-sampling
    Fourier chains come back factored.
    """
    elements = list(elements)
    build = functools.partial(_chain_matrix, elements, grid)
    dense = [i for i, e in enumerate(elements) if not isinstance(e, _DIAGONAL)]
    lead = np.ones(grid.n, dtype=complex)  # thin elements before the first dense one
    for e in elements[:dense[0] if dense else None]:
        lead *= _thin_transmission(e, grid)
    if not dense:
        return Kernel._factored(grid, lead / grid.dx, None, build)
    first = elements[dense[0]]
    phases = (_dft_phases(first, grid)
              if len(dense) == 1 and isinstance(first, FourierSystem) else None)
    if phases is None:
        return Kernel(grid, grid, build())
    post, pre = phases
    for e in elements[dense[0] + 1:]:
        post = post * _thin_transmission(e, grid)
    return Kernel._factored(grid, post, pre * lead, build)


def g_kernel(k: Kernel) -> np.ndarray:
    """Back-propagated correlation kernel of the system,

        g(x, x') = sum_x'' h(x'', x) * conj(h(x'', x')) * dx_out,

    a Hermitian positive semidefinite matrix on the input grid. For a
    discretely lossless system it equals the discrete delta I/dx_in.
    """
    h = k.matrix
    return (h.T @ h.conj()) * k.grid_out.dx


def with_scatterers(
    h_before: Kernel,
    h_after: Kernel,
    scatterers: list[Scatterer],
    h_o: Kernel,
) -> Kernel:
    """System response with weak point scatterers on the intermediate plane:

        H = H_o + sum_j eps_j * h_after(., x_j) outer h_before(x_j, .) * dx_mid

    Scatterer positions snap to the nearest lattice point of the
    intermediate grid, keeping each term exactly rank one.
    """
    mid = h_before.grid_out
    if mid != h_after.grid_in:
        raise ValidationError("with_scatterers: h_before.grid_out must equal h_after.grid_in")
    if h_o.grid_in != h_before.grid_in or h_o.grid_out != h_after.grid_out:
        raise ValidationError("with_scatterers: h_o grids must match the before/after chain")
    h = h_o.matrix.copy()
    for s in scatterers:
        j = mid.nearest_index(s.position)
        h += complex(s.strength) * np.outer(h_after.matrix[:, j], h_before.matrix[j, :]) * mid.dx
    return Kernel(h_o.grid_in, h_o.grid_out, h)


def circulant_matrix(column: np.ndarray) -> np.ndarray:
    """Circulant matrix with the given first column: H[i, j] = c[(i - j) % n].

    Convenience for building shift-invariant (isoplanatic) Custom kernels.
    """
    c = np.asarray(column, dtype=complex)
    n = c.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return c[idx]
