import numpy as np
import pytest
from helpers import random_kernel, random_unitary_kernel, rel_linf

from biphoton import (
    Custom,
    FourierSystem,
    FreeSpace,
    Identity,
    Kernel,
    Mask,
    Scatterer,
    SinglePhotonPure,
    ThinLens,
    ValidationError,
    chain,
    circulant_matrix,
    compose,
    g_kernel,
    image_metrics,
    kernel_of,
    make_grid,
    single_coherent,
    unitarity_defect,
    with_scatterers,
)

SEED = 20260402


def test_identity_kernel_unit_spacing():
    g = make_grid(2, 1.0, 0.0)
    k = kernel_of(Identity(), g)
    assert np.array_equal(k.matrix, np.eye(2))


def test_mask_kernel_and_application():
    g = make_grid(2, 0.5, 0.0)
    k = kernel_of(Mask(np.array([1.0, 0.0])), g)
    assert np.array_equal(k.matrix, np.diag([2.0, 0.0]))
    # quadrature-weighted application reproduces pointwise multiplication
    assert np.array_equal(k.apply(np.array([3.0, 4.0])), [3.0, 0.0])


def test_mask_rejects_gain():
    with pytest.raises(ValidationError):
        Mask(np.array([1.2, 0.0]))


def test_free_space_gaussian_beam_spread():
    # analytic Gaussian-beam oracle: w(d) = w0 sqrt(1 + (lambda d / (pi w0^2))^2),
    # intensity FWHM = sqrt(2 ln 2) w
    lam, w0, d = 5e-7, 1e-4, 0.1
    g = make_grid(512, 5e-6, 0.0)
    phi = SinglePhotonPure.normalized(g, np.exp(-(g.points**2) / w0**2))
    k = kernel_of(FreeSpace(d, lam), g)
    p = single_coherent(phi, k)
    w_d = w0 * np.sqrt(1 + (lam * d / (np.pi * w0**2)) ** 2)
    expected_fwhm = np.sqrt(2 * np.log(2)) * w_d
    assert image_metrics(p).fwhm == pytest.approx(expected_fwhm, rel=0.02)


def test_free_space_requires_positive_distance():
    with pytest.raises(ValidationError):
        FreeSpace(0.0, 5e-7)
    with pytest.raises(ValidationError):
        FreeSpace(-0.1, 5e-7)


def test_diagonal_element_needs_matching_grids():
    g1 = make_grid(4, 0.5, 0.0)
    g2 = make_grid(4, 0.5, 1.0)
    with pytest.raises(ValidationError):
        kernel_of(Identity(), g1, g2)


def test_compose_identity():
    g = make_grid(3, 1.0, 0.0)
    k = kernel_of(Identity(), g)
    assert np.allclose(compose(k, k).matrix, k.matrix, atol=0, rtol=0)


def test_compose_masks_multiply_pointwise():
    rng = np.random.default_rng(SEED)
    g = make_grid(16, 0.3, 0.0)
    t = rng.random(16) * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    s = rng.random(16) * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    k = compose(kernel_of(Mask(t), g), kernel_of(Mask(s), g))
    expected = kernel_of(Mask(t * s), g)
    assert np.allclose(k.matrix, expected.matrix, rtol=1e-12, atol=0)


def test_fresnel_semigroup_interior():
    # Cascading two propagators matches the direct one on fields whose energy
    # stays away from the window edges. (Raw kernel columns are point-source
    # responses whose chirp tails are window-truncated, so the semigroup is
    # checked on confined inputs, at interior outputs.)
    lam = 5.12e-7
    g = make_grid(256, 1e-5, 0.0)
    cascade = compose(kernel_of(FreeSpace(0.2, lam), g), kernel_of(FreeSpace(0.2, lam), g))
    direct = kernel_of(FreeSpace(0.4, lam), g)
    lo, hi = 64, 192
    for offset in [-3e-4, -1e-4, 0.0, 1.5e-4, 3e-4]:
        phi = np.exp(-((g.points - offset) ** 2) / (2 * (8e-5) ** 2)).astype(complex)
        out_c = cascade.apply(phi)
        out_d = direct.apply(phi)
        err = np.max(np.abs(out_c[lo:hi] - out_d[lo:hi])) / np.max(np.abs(out_d))
        assert err < 0.01


def test_compose_associative():
    rng = np.random.default_rng(SEED)
    g = make_grid(24, 0.17, 0.0)
    k1, k2, k3 = (random_kernel(rng, g) for _ in range(3))
    a = compose(compose(k3, k2), k1).matrix
    b = compose(k3, compose(k2, k1)).matrix
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def _chain_reference(elements, grid):
    """Identity-seeded fold of ``compose`` over every element's full kernel."""
    k = kernel_of(Identity(), grid)
    for e in elements:
        k = compose(kernel_of(e, grid), k)
    return k


def _chain_cases(grid):
    rng = np.random.default_rng(SEED)
    lam = 5e-7
    n = grid.n

    def mask():
        return Mask(rng.random(n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))

    def custom():
        return Custom(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    return {
        "empty": [],
        "diagonal-only": [Identity(), mask(), ThinLens(0.05, lam), mask()],
        "leading-diagonal": [mask(), ThinLens(0.05, lam), FreeSpace(0.02, lam)],
        "trailing-diagonal": [FreeSpace(0.02, lam), mask(), Identity()],
        "diagonal-dense-diagonal": [mask(), FourierSystem(0.1, lam), ThinLens(-0.05, lam),
                                    FreeSpace(0.03, lam), mask()],
        "custom": [custom(), mask(), custom(), Identity()],
    }


@pytest.mark.parametrize("case", ["empty", "diagonal-only", "leading-diagonal",
                                  "trailing-diagonal", "diagonal-dense-diagonal", "custom"])
def test_chain_matches_compose_reference(case):
    g = make_grid(24, 1e-5, 2e-6)
    elements = _chain_cases(g)[case]
    arrays = [a for e in elements for a in vars(e).values() if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    k = chain(elements, g)
    assert (k.grid_in, k.grid_out) == (g, g)
    assert rel_linf(k.matrix, _chain_reference(elements, g).matrix) <= 1e-10
    # the elements' own arrays are left untouched
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_compose_grid_mismatch():
    k1 = kernel_of(Identity(), make_grid(4, 0.5, 0.0))
    k2 = kernel_of(Identity(), make_grid(5, 0.5, 0.0))
    with pytest.raises(ValidationError):
        compose(k2, k1)


def test_g_kernel_identity_is_discrete_delta():
    g = make_grid(3, 1.0, 0.0)
    assert np.allclose(g_kernel(kernel_of(Identity(), g)), np.eye(3), atol=0, rtol=0)


def test_g_kernel_mask():
    g = make_grid(2, 0.5, 0.0)
    gk = g_kernel(kernel_of(Mask(np.array([1.0, 0.0])), g))
    assert np.allclose(gk, np.diag([2.0, 0.0]), atol=0, rtol=0)


def test_g_kernel_lossless_is_discrete_delta():
    rng = np.random.default_rng(SEED)
    g = make_grid(24, 0.31, 0.0)
    k = random_unitary_kernel(rng, g)
    assert np.allclose(g_kernel(k), np.eye(24) / g.dx, atol=1e-12 / g.dx)


def test_g_kernel_hermitian_psd():
    rng = np.random.default_rng(SEED)
    g = make_grid(24, 0.31, 0.0)
    for _ in range(5):
        gk = g_kernel(random_kernel(rng, g))
        scale = np.max(np.abs(gk))
        assert np.max(np.abs(gk - gk.conj().T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(gk).min() >= -1e-10 * scale


def test_with_scatterers_empty_is_background():
    rng = np.random.default_rng(SEED)
    g = make_grid(8, 1.0, 0.0)
    kb = ka = kernel_of(Identity(), g)
    ho = random_kernel(rng, g)
    out = with_scatterers(kb, ka, [], ho)
    assert np.array_equal(out.matrix, ho.matrix)


def test_with_scatterers_rank_one():
    g = make_grid(5, 1.0, 0.0)
    ident = kernel_of(Identity(), g)
    zero = Kernel(g, g, np.zeros((5, 5)))
    m = 2
    out = with_scatterers(ident, ident, [Scatterer(g.point(m), 1.0)], zero)
    expected = np.zeros((5, 5))
    expected[m, m] = 1.0
    assert np.allclose(out.matrix, expected, atol=0, rtol=0)


def test_with_scatterers_superposition_and_linearity():
    rng = np.random.default_rng(SEED)
    g = make_grid(12, 0.25, 0.0)
    kb, ka = random_kernel(rng, g), random_kernel(rng, g)
    ho = random_kernel(rng, g)
    s1 = Scatterer(g.point(3), 0.05 + 0.02j)
    s2 = Scatterer(g.point(8), -0.03j)
    one = with_scatterers(kb, ka, [s1], ho)
    two = with_scatterers(kb, ka, [s1, s2], ho)
    second_term = np.outer(ka.matrix[:, 8], kb.matrix[8, :]) * s2.strength * g.dx
    assert np.allclose(two.matrix - one.matrix, second_term, rtol=1e-12, atol=1e-12)
    # doubling a strength doubles its contribution exactly
    doubled = with_scatterers(kb, ka, [Scatterer(s1.position, 2 * s1.strength)], ho)
    assert np.allclose(doubled.matrix - ho.matrix, 2 * (one.matrix - ho.matrix),
                       rtol=1e-12, atol=1e-12)


def test_with_scatterers_position_outside_grid():
    g = make_grid(5, 1.0, 0.0)
    ident = kernel_of(Identity(), g)
    with pytest.raises(ValidationError):
        with_scatterers(ident, ident, [Scatterer(10.0, 1.0)], ident)


def test_unitarity_defect_examples():
    g = make_grid(2, 0.5, 0.0)
    assert unitarity_defect(kernel_of(Identity(), g)) == 0.0
    assert unitarity_defect(kernel_of(Mask(np.array([1.0, 0.0])), g)) == pytest.approx(1.0, abs=1e-12)
    g8 = make_grid(8, 0.5, 0.0)
    assert unitarity_defect(kernel_of(ThinLens(0.3, 5e-7), g8)) < 1e-12


def test_unitarity_defect_fourier_matched_grid():
    # dx^2 n = lambda f makes the Fourier kernel a discrete unitary
    lam, n, dx = 5.12e-7, 256, 1e-5
    f = n * dx**2 / lam
    g = make_grid(n, dx, 0.0)
    assert unitarity_defect(kernel_of(FourierSystem(f, lam), g)) < 1e-6


def test_unitarity_defect_needs_square():
    k = Kernel(make_grid(3, 1.0), make_grid(4, 1.0), np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        unitarity_defect(k)


def test_circulant_matrix():
    c = np.array([1.0, 2.0, 3.0])
    m = circulant_matrix(c)
    assert np.array_equal(m, [[1, 3, 2], [2, 1, 3], [3, 2, 1]])


def test_custom_kernel_shape_checked():
    g = make_grid(3, 1.0, 0.0)
    with pytest.raises(ValidationError):
        kernel_of(Custom(np.zeros((2, 2))), g)


def test_transposed_complex_matrix_accepted():
    # A transpose is not C-contiguous; the finiteness check must not need a view.
    g = make_grid(4, 1.0, 0.0)
    m = np.arange(16.0).reshape(4, 4) * (1 + 2j)
    assert not m.T.flags["C_CONTIGUOUS"]
    for k in (Kernel(g, g, m.T), kernel_of(Custom(m.T), g)):
        assert k.matrix.flags["C_CONTIGUOUS"]
        assert np.array_equal(k.matrix, m.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_transposed_complex_matrix_non_finite_rejected(bad):
    g = make_grid(4, 1.0, 0.0)
    m = np.ones((4, 4), dtype=complex)
    m[1, 2] = bad
    for make in (lambda: Kernel(g, g, m.T), lambda: kernel_of(Custom(m.T), g)):
        with pytest.raises(ValidationError, match="non-finite"):
            make()


# ---------------------------------------------------------------------------
# Physics oracles for the kernels


@pytest.mark.parametrize("ratio", [1.6, 2.4, 4.8, 14.4])
def test_fresnel_kernel_matches_gaussian_closed_form(ratio):
    """The impulse-response Fresnel kernel against the closed-form Fresnel
    integral of exp(-x^2 / 2w^2), on the demo grid (n = 256, dx = 10 um,
    lambda = 512 nm) with the `refocus` source waist. Above the critical
    distance z_c = n dx^2 / lambda (5 cm here) the error is the truncation
    of the input at the grid edge, under 1e-5 of the peak. Below z_c the
    sampled chirp aliases: at 0.8 z_c (refocus's 4 cm) the error is 2.4e-2
    of the peak, so that distance is not asserted."""
    n, dx, lam, w = 256, 1e-5, 5.12e-7, 2.83e-4
    g = make_grid(n, dx, 0.0)
    z = ratio * n * dx**2 / lam
    out = kernel_of(FreeSpace(z, lam), g).apply(np.exp(-g.points**2 / (2 * w**2)))
    # int exp(-a x^2 + i b (x1 - x)^2) dx = sqrt(pi / (a - ib)) exp(i a b x1^2 / (a - ib))
    a, b = 1 / (2 * w**2), np.pi / (lam * z)
    exact = (np.exp(2j * np.pi * z / lam) / np.sqrt(1j * lam * z) * np.sqrt(np.pi / (a - 1j * b))
             * np.exp(1j * a * b * g.points**2 / (a - 1j * b)))
    assert np.max(np.abs(out - exact)) <= 1e-4 * np.max(np.abs(exact))


def _transposed(e):
    # Thin, free-space and Fourier kernels are symmetric on one grid.
    return Custom(e.matrix.T) if isinstance(e, Custom) else e


def _arm_kernel(specs, g, plane=None, scatterers=()):
    h = chain(specs, g)
    if scatterers:
        h = with_scatterers(chain(specs[:plane], g), chain(specs[plane:], g), scatterers, h)
    return h


@pytest.mark.parametrize("scattering_arm", [None, 1, 2])
def test_klyshko_unfolding(scattering_arm):
    """A co-located pair amplitude diag(d) seen through two arms is the
    kernel of one unfolded chain (the advanced-wave picture): arm 2
    reversed with each element transposed, then a mask d / max|d|, then
    arm 1, up to the factor dx max|d|. A scatterer plane of arm 2 moves to
    its mirrored plane in the unfolded chain."""
    rng = np.random.default_rng(SEED)
    lam = 5.12e-7
    g = make_grid(128, 1e-5, 3.7e-4)

    def mask():
        return Mask(rng.uniform(0.2, 1.0, g.n) * np.exp(2j * np.pi * rng.random(g.n)))

    def custom():
        m = rng.normal(size=(g.n, g.n)) + 1j * rng.normal(size=(g.n, g.n))
        return Custom(m / (g.dx * np.sqrt(2 * g.n)))

    arm1 = [mask(), FreeSpace(0.03, lam), ThinLens(0.07, lam), custom()]
    arm2 = [FourierSystem(0.037, lam), mask(), FreeSpace(0.11, lam), custom(), mask()]
    d = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    scat = [Scatterer(float(rng.choice(g.points)), 0.05 * complex(*rng.normal(size=2)))
            for _ in range(2)]
    p1, p2 = 2, 3
    k1 = _arm_kernel(arm1, g, p1, scat if scattering_arm == 1 else ())
    k2 = _arm_kernel(arm2, g, p2, scat if scattering_arm == 2 else ())
    joint = k2.dot_t(k1.dot_diag(d)) * g.dx**2

    peak = np.max(np.abs(d))
    unfolded = [_transposed(e) for e in reversed(arm2)] + [Mask(d / peak)] + arm1
    plane = {None: None, 1: len(arm2) + 1 + p1, 2: len(arm2) - p2}[scattering_arm]
    ku = _arm_kernel(unfolded, g, plane, scat if scattering_arm else ())
    assert rel_linf(joint, g.dx * peak * ku.matrix) <= 1e-12
