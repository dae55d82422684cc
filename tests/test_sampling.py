import numpy as np
import pytest
from helpers import pearson_chi_square
from scipy import stats

from biphoton import (
    CoincidenceCounts,
    Density2D,
    ValidationError,
    empirical_densities,
    make_grid,
    sample_joint,
    sampling,
)

SEED = 20260405


def _uniform_joint(n: int, dx: float = 1.0) -> Density2D:
    g = make_grid(n, dx, 0.0)
    return Density2D(g, g, np.full((n, n), 1 / (n * dx) ** 2))


def test_sample_concentrated_density():
    g = make_grid(3, 1.0, 0.0)
    v = np.zeros((3, 3))
    v[1, 2] = 1.0
    p = Density2D(g, g, v)
    c = sample_joint(p, 500, seed=SEED)
    assert c.counts[1, 2] == 500
    assert c.counts.sum() == 500


def test_sample_uniform_counts_within_binomial_bound():
    # 5 sigma binomial bound: 5 sqrt(4000 * 0.25 * 0.75) ~ 137
    p = _uniform_joint(2)
    c = sample_joint(p, 4000, seed=SEED)
    assert np.all(np.abs(c.counts - 1000) <= 137)


def test_sample_deterministic_for_fixed_seed():
    p = _uniform_joint(8)
    a = sample_joint(p, 10_000, seed=123)
    b = sample_joint(p, 10_000, seed=123)
    assert np.array_equal(a.counts, b.counts)
    c = sample_joint(p, 10_000, seed=124)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_rejects_bad_n():
    p = _uniform_joint(2)
    with pytest.raises(ValidationError):
        sample_joint(p, 0, seed=1)


def test_empirical_densities_trivial():
    g = make_grid(2, 1.0, 0.0)
    c = CoincidenceCounts(g, g, np.array([[4, 0], [0, 0]]), 4)
    joint, m1, m2 = empirical_densities(c)
    assert np.array_equal(joint.values, [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(m1.values, [1.0, 0.0])
    assert np.array_equal(m2.values, [1.0, 0.0])


def test_empirical_marginals_consistent_with_joint():
    p = _uniform_joint(6, dx=0.5)
    c = sample_joint(p, 5000, seed=SEED)
    joint, m1, m2 = empirical_densities(c)
    assert np.allclose(joint.values.sum(axis=1) * 0.5, m1.values, rtol=1e-14)
    assert np.allclose(joint.values.sum(axis=0) * 0.5, m2.values, rtol=1e-14)


def test_empirical_marginal_total_variation_convergence():
    # smooth analytic joint, 1e6 draws: TV(empirical marginal, analytic) < 0.01
    n, dx = 64, 0.1
    g = make_grid(n, dx, 0.0)
    x = g.points
    v = np.exp(-np.add.outer(x**2, x**2) / 2) * (1 + 0.5 * np.outer(np.sin(x), np.cos(x)))
    v /= v.sum() * dx * dx
    p = Density2D(g, g, v)
    c = sample_joint(p, 1_000_000, seed=SEED)
    _, m1, _ = empirical_densities(c)
    analytic = p.values.sum(axis=1) * dx
    tv = 0.5 * np.sum(np.abs(m1.values - analytic)) * dx
    assert tv < 0.01


def test_pearson_chi_square_below_999_percentile():
    p = _uniform_joint(16, dx=0.25)
    c = sample_joint(p, 200_000, seed=SEED)
    stat, dof = pearson_chi_square(c, p)
    assert dof == 16 * 16 - 1
    assert stat < stats.chi2.ppf(0.999, dof)


def test_counts_invariants():
    with pytest.raises(ValidationError):
        CoincidenceCounts(make_grid(2, 1.0), make_grid(2, 1.0), np.array([[1, 0], [0, 0]]), 2)


def _per_draw_counts(p: Density2D, n: int, seed: int) -> np.ndarray:
    """Reference: one inverse-CDF search per uniform draw."""
    probs = (p.values * (p.grid1.dx * p.grid2.dx)).ravel()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    idx = np.searchsorted(cdf, u, side="right")
    return np.bincount(idx, minlength=probs.size).reshape(p.values.shape)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("shape,dx1,dx2", [((3, 5), 0.5, 0.3), ((16, 16), 1.0, 1.0),
                                           ((40, 23), 0.1, 2.0)])
def test_sample_joint_matches_per_draw_reference(monkeypatch, chunk, shape, dx1, dx2):
    if chunk is not None:
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
    rng = np.random.default_rng(SEED)
    v = rng.random(shape)
    v[v < 0.4] = 0.0  # zero-probability cells, including runs of them
    v[0, :] = 0.0
    v[:, -1] = 0.0
    v /= v.sum() * dx1 * dx2
    p = Density2D(make_grid(shape[0], dx1), make_grid(shape[1], dx2), v)
    for seed in (0, 1, SEED):
        for n in (1, 7, 50, 5003):  # 50 = seven chunks of 7 plus a remainder of 1
            c = sample_joint(p, n, seed)
            assert np.array_equal(c.counts, _per_draw_counts(p, n, seed))
            assert c.counts[v == 0].sum() == 0
