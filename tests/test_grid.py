import numpy as np
import pytest

from biphoton import (
    Grid,
    Identity,
    Scatterer,
    ValidationError,
    kernel_of,
    make_grid,
    profiles,
    with_scatterers,
)

SEED = 20260401


def test_make_grid_symmetric_lattice():
    g = make_grid(3, 0.5, 0.0)
    assert np.array_equal(g.points, [-0.5, 0.0, 0.5])


def test_make_grid_two_point_lattice():
    g = make_grid(2, 1.0, 0.0)
    assert np.array_equal(g.points, [-0.5, 0.5])


def test_make_grid_offcenter():
    # direct evaluation of point(i) = center + (i - (n-1)/2) dx
    g = make_grid(4, 0.25, 1.0)
    assert np.allclose(g.points, [0.625, 0.875, 1.125, 1.375], atol=0, rtol=0)


@pytest.mark.parametrize("n,dx", [(1, 1.0), (0, 1.0), (3, 0.0), (3, -0.5)])
def test_make_grid_rejects_bad_args(n, dx):
    with pytest.raises(ValidationError):
        make_grid(n, dx)


def test_nearest_index_examples():
    g3 = make_grid(3, 0.5, 0.0)
    assert g3.nearest_index(0.1) == 1
    assert g3.nearest_index(-0.26) == 0  # |−0.26−(−0.5)| < |−0.26−0|
    g2 = make_grid(2, 1.0, 0.0)
    assert g2.nearest_index(0.0) == 0  # exact tie broken toward the lower index


def test_nearest_index_range_check():
    g = make_grid(3, 0.5, 0.0)
    assert g.nearest_index(-0.75) == 0  # exactly half a sample below the first point
    assert g.nearest_index(0.75) == 2
    with pytest.raises(ValidationError):
        g.nearest_index(0.76)
    with pytest.raises(ValidationError):
        g.nearest_index(-0.9)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_nearest_index_rejects_non_finite(x):
    g = make_grid(3, 0.5, 0.0)
    ident = kernel_of(Identity(), g)
    with pytest.raises(ValidationError):
        g.nearest_index(x)
    with pytest.raises(ValidationError):
        profiles.delta(g, x)
    with pytest.raises(ValidationError):
        with_scatterers(ident, ident, [Scatterer(x, 1.0)], ident)


def test_quadrature_constant_exact():
    # dyadic spacing and value: the Riemann sum is exact in floating point
    g = make_grid(13, 0.5, -2.0)
    c = 0.25
    assert g.integrate(np.full(g.n, c)) == c * g.n * g.dx


def test_quadrature_constant_random():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        g = make_grid(n, float(rng.uniform(0.01, 3.0)), float(rng.uniform(-5, 5)))
        c = float(rng.uniform(-10, 10))
        assert g.integrate(np.full(n, c)) == pytest.approx(c * n * g.dx, rel=1e-13)


def test_nearest_index_roundtrip_property():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(2, 64))
        g = make_grid(n, float(rng.uniform(0.01, 2.0)), float(rng.uniform(-3, 3)))
        for i in range(n):
            assert g.point(g.nearest_index(g.point(i))) == g.point(i)


def test_grid_equality_and_span():
    assert make_grid(4, 0.25, 1.0) == Grid(4, 0.25, 1.0)
    assert make_grid(4, 0.25).span == 1.0


@pytest.mark.parametrize("dx,center,field", [
    (float("inf"), 0.0, "dx"), (float("nan"), 0.0, "dx"),
    (1.0, float("inf"), "center"), (1.0, float("-inf"), "center"), (1.0, float("nan"), "center"),
])
def test_make_grid_rejects_non_finite_geometry(dx, center, field):
    with pytest.raises(ValidationError) as e:
        make_grid(4, dx, center)
    assert e.value.field == field
