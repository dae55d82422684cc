"""Discrete impulse-response kernels for 1-D linear optical systems.

A ``Kernel`` stores the complex matrix H of an impulse response
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError
from .grid import Grid


@dataclass(frozen=True)
class Kernel:
    grid_in: Grid
    grid_out: Grid
    matrix: np.ndarray  # shape (grid_out.n, grid_in.n), complex

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.grid_out.n, self.grid_in.n):
            raise ValidationError(
                f"kernel matrix shape {m.shape} does not match grids "
                f"({self.grid_out.n}, {self.grid_in.n})"
            )
        if not np.all(np.isfinite(m.view(float) if m.dtype.kind == "c" else m)):
            raise ValidationError("kernel matrix contains non-finite entries")
        object.__setattr__(self, "matrix", np.ascontiguousarray(m, dtype=complex))

    def apply(self, amp: np.ndarray) -> np.ndarray:
        """Propagate a field amplitude: out = H @ amp * dx_in."""
        return self.matrix @ np.asarray(amp, dtype=complex) * self.grid_in.dx


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


def compose(k2: Kernel, k1: Kernel) -> Kernel:
    """Cascade k1 then k2: H = H2 @ H1 * dx at the intermediate plane."""
    if k1.grid_out != k2.grid_in:
        raise ValidationError("compose: k1.grid_out must equal k2.grid_in")
    return Kernel(k1.grid_in, k2.grid_out, k2.matrix @ k1.matrix * k1.grid_out.dx)


def chain(elements, grid: Grid) -> Kernel:
    """Compose a sequence of elements on one grid; empty sequence = identity.

    Equal to folding ``compose`` over the element kernels, with each thin
    element applied as a scaling instead of a matrix product.
    """
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
    return Kernel(grid, grid, h)


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


def unitarity_defect(k: Kernel) -> float:
    """Max-entry deviation of H†H * dx_out * dx_in from the identity.

    Zero for discretely lossless (energy preserving) square kernels.
    """
    if k.grid_in.n != k.grid_out.n:
        raise ValidationError("unitarity_defect needs a square kernel")
    h = k.matrix
    m = (h.conj().T @ h) * (k.grid_out.dx * k.grid_in.dx)
    return float(np.max(np.abs(m - np.eye(k.grid_in.n))))


def circulant_matrix(column: np.ndarray) -> np.ndarray:
    """Circulant matrix with the given first column: H[i, j] = c[(i - j) % n].

    Convenience for building shift-invariant (isoplanatic) Custom kernels.
    """
    c = np.asarray(column, dtype=complex)
    n = c.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return c[idx]
