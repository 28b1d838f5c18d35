import numpy as np
import pytest
from scipy import special, stats

from berrri._special import BLOCK, digamma_gammaln, xlogy
from berrri.engine import geweke_statistic
from berrri.kernels import eta_factor_sweep

# a log grid over the model's range and beyond, with the zeros of psi
# (1.4616...) and of log Gamma (1 and 2) and their neighbourhoods
GRID = np.concatenate([
    np.geomspace(1e-6, 1e8, 2801),
    np.linspace(0.9, 2.1, 1201),
    [1.0, 2.0, 1.4616321449683623],
])


def within(got, want, tol=1e-13):
    """|got - want| within tol, relative to |want|, or absolute where
    |want| < 1 (near a zero)."""
    return np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))


def test_digamma_and_log_gamma_match_scipy_on_a_log_grid():
    psi, lgamma = digamma_gammaln(GRID)
    assert within(psi, special.digamma(GRID)).all()
    assert within(lgamma, special.gammaln(GRID)).all()


def test_shape_kept_and_large_values_finite():
    x = np.geomspace(1e-3, 1e149, 24).reshape(2, 3, 4)
    psi, lgamma = digamma_gammaln(x)
    assert psi.shape == lgamma.shape == x.shape
    assert within(psi, special.digamma(x)).all()
    assert within(lgamma, special.gammaln(x)).all()


def test_betaln_as_the_elbo_forms_it_matches_scipy():
    # log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b): a
    # difference, so it is as exact as its largest term, not its value
    # (at a = 0.08, b = 6e7 the terms cancel to a 1e-7 relative error)
    a, b = np.meshgrid(GRID[::40], GRID[::40])
    _, lgamma = digamma_gammaln(np.stack([a, b, a + b]))
    got = lgamma[0] + lgamma[1] - lgamma[2]
    scale = np.maximum(1.0, np.abs(lgamma).max(axis=0))
    assert (np.abs(got - special.betaln(a, b)) <= 1e-13 * scale).all()
    # where the model's stick parameters live, it is also within 1e-13 of
    # the value
    small = (a <= 100) & (b <= 100)
    assert within(got[small], special.betaln(a, b)[small]).all()


def test_each_value_keeps_its_bits_in_any_array():
    # elementwise: a value's result does not depend on its array's length,
    # its position or the blocks a long array is cut into
    x = np.random.default_rng(0).uniform(1e-3, 50.0, size=2 * BLOCK + 7)
    psi, lgamma = digamma_gammaln(x)
    for i in (0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 6):
        alone = digamma_gammaln(x[i : i + 1])
        assert (alone[0][0], alone[1][0]) == (psi[i], lgamma[i])
        pair = digamma_gammaln(x[[i, 0]])
        assert (pair[0][0], pair[1][0]) == (psi[i], lgamma[i])


@pytest.mark.parametrize("members", [1, 3])
def test_kernel_sigmoid_at_800_raises_no_warning(members):
    # np.exp overflows below -709; the kernel ignores that overflow, and
    # warnings are errors here
    rng = np.random.default_rng(1)
    XT = np.ascontiguousarray(rng.integers(0, 3, size=(10, 4)).astype(float).T)
    E = np.full((members, 4), 0.5)
    offset = np.array([-800.0, 800.0, -800.0, 800.0])[:, None].repeat(members, axis=1)
    assert eta_factor_sweep(XT, E, offset, np.zeros(members)) is None
    assert (E == [0.0, 1.0, 0.0, 1.0]).all()


def test_xlogy_is_zero_at_zero():
    x = np.array([0.0, 0.0, 0.25, 1.0, 3.0])
    y = np.array([0.0, 2.0, 0.25, 1.0, 0.5])
    got = xlogy(x, y)
    assert got[0] == got[1] == 0.0
    assert np.allclose(got, special.xlogy(x, y), rtol=1e-15, atol=0)


def test_geweke_p_value_is_the_two_sided_normal_tail():
    # a trace whose early mean sits apart from its late one, at several
    # distances: p = 2 * P(N(0, 1) > |t|)
    rng = np.random.default_rng(2)
    for shift in (0.0, 0.3, 1.0, 5.0):
        trace = rng.normal(size=400)
        trace[:40] += shift
        t, p, degenerate = geweke_statistic(trace)
        assert not degenerate
        assert p == pytest.approx(2 * stats.norm.sf(abs(t)), rel=1e-12, abs=0)
