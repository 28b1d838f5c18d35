import numpy as np
import pytest
from scipy.special import expit

from berrri.kernels import eta_factor_sweep, eta_snp_update


def kernel_inputs(n=12, q=8, b=1, seed=0):
    rng = np.random.default_rng(seed)
    XT = np.ascontiguousarray(rng.integers(0, 3, size=(n, q)).astype(float).T)
    x2sum = (XT**2).sum(axis=1)
    E = rng.uniform(0.05, 0.95, size=(b, q))
    U = 0.3 * rng.normal(size=(b, n))
    prior_logit = rng.normal(size=b)
    sa2 = rng.uniform(0.01, 0.1, size=b)
    inv_sigma2 = rng.uniform(0.5, 2.0)
    return XT, x2sum, E, U, prior_logit, sa2, inv_sigma2


def sweep(XT, x2sum, E, U, prior_logit, sa2, inv_sigma2):
    """`eta_factor_sweep` on the logit terms of the given inputs."""
    return eta_factor_sweep(XT, E, *factor_terms(XT, x2sum, U, prior_logit, sa2, inv_sigma2))


def factor_terms(XT, x2sum, U, prior_logit, sa2, inv_sigma2):
    """The Q x B logit offsets and length-B load coefficients, formed per
    member as the engine forms them."""
    coef = sa2 * inv_sigma2
    XU = np.matmul(XT, U[..., None])[..., 0].T
    return np.multiply.outer(x2sum, -0.5 * coef) + prior_logit + inv_sigma2 * XU, coef


def sequential_reference(XT, x2sum, eta_k, u, prior_logit, sa2, inv_sigma2):
    """One fit's SNP-by-SNP inclusion update, written out as a scalar loop."""
    eta_k = eta_k.copy()
    for q in range(eta_k.size):
        m_full = eta_k @ XT
        dot_xm = XT[q] @ m_full - eta_k[q] * x2sum[q]
        zeta = (
            prior_logit
            - 0.5 * sa2 * inv_sigma2 * x2sum[q]
            - sa2 * inv_sigma2 * dot_xm
            + inv_sigma2 * (XT[q] @ u)
        )
        eta_k[q] = expit(zeta)
    return eta_k


class TestEtaKernel:
    @pytest.mark.parametrize("b", [1, 5])
    def test_matches_sequential_reference(self, b):
        unsaturated = []
        for seed in range(5):
            XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs(b=b, seed=seed)
            expected = [
                sequential_reference(XT, x2sum, E[i], U[i], prior[i], sa2[i], inv_s2)
                for i in range(b)
            ]
            assert sweep(XT, x2sum, E, U, prior, sa2, inv_s2) is None
            assert np.allclose(E, expected, rtol=1e-12, atol=1e-14)
            unsaturated.append(((E > 0.01) & (E < 0.99)).mean())
        assert np.mean(unsaturated) > 0.5  # the comparison is not between saturated values

    def test_batch_rows_match_single_fits(self):
        # at each shape a product formed across members (one GEMM for the
        # batch) rounds differently from the members' own products
        for n, q in ((30, 20), (25, 25), (300, 50)):
            XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs(n=n, q=q, b=6, seed=7)
            batch = E.copy()
            sweep(XT, x2sum, batch, U, prior, sa2, inv_s2)
            for i in range(len(E)):
                single = E[i:i + 1].copy()
                one = slice(i, i + 1)
                sweep(XT, x2sum, single, U[one], prior[one], sa2[one], inv_s2)
                assert np.array_equal(batch[i], single[0]), (n, q, i)
            # a sub-batch of other members, in another order
            sub = [4, 1, 3]
            part = E[sub].copy()
            sweep(XT, x2sum, part, U[sub], prior[sub], sa2[sub], inv_s2)
            assert np.array_equal(part, batch[sub]), (n, q)

    def test_snp_steps_compose_to_factor_sweep(self):
        XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs(b=3, seed=4)
        swept = E.copy()
        sweep(XT, x2sum, swept, U, prior, sa2, inv_s2)
        stepped = E.copy()
        offset, coef = factor_terms(XT, x2sum, U, prior, sa2, inv_s2)
        for q in range(len(XT)):
            eta_snp_update(stepped, XT, q, offset[q], coef)
        assert (stepped == swept).all()

    def test_nonfinite_logit_reports_snp(self):
        XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs()
        U[:] = np.inf
        with np.errstate(invalid="ignore"):
            assert sweep(XT, x2sum, E.copy(), U, prior, sa2, inv_s2) == (0, 0)
        # in a batch, member 2 overflows first at the first SNP that carries
        # individual n, while SNP 0 (which does not) and member 1 stay finite
        XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs(b=3, seed=2)
        n = int(np.flatnonzero((XT[0] == 0) & (XT[1:] != 0).any(axis=0))[0])
        U[2, n] = 1e308
        inv_s2 = 4.0  # member 2's offset of every SNP that carries n overflows
        with np.errstate(over="ignore", invalid="ignore"):
            b, q = sweep(XT, x2sum, E.copy(), U, prior, sa2, inv_s2)
        assert (b, q) == (2, int(np.flatnonzero(XT[:, n])[0]))
        assert q > 0

    def test_updates_are_sequential(self):
        # the update for SNP q must see the already-updated values of SNPs
        # before it: freezing them (Jacobi style) changes the result
        XT, x2sum, E, U, prior, sa2, inv_s2 = kernel_inputs(seed=3)
        frozen = E[0].copy()
        sweep(XT, x2sum, E, U, prior, sa2, inv_s2)
        jacobi = _jacobi(XT, x2sum, frozen, U[0], prior[0], sa2[0], inv_s2)
        assert not np.allclose(E[0, 1:], jacobi[1:], atol=1e-12)
        assert E[0, 0] == pytest.approx(jacobi[0], abs=1e-15)


def _jacobi(XT, x2sum, eta_k, u, prior, sa2, inv_s2):
    out = np.empty_like(eta_k)
    m_full = eta_k @ XT
    for q in range(eta_k.size):
        dot_xm = XT[q] @ m_full - eta_k[q] * x2sum[q]
        dot_xu = XT[q] @ u
        out[q] = expit(prior - 0.5 * sa2 * inv_s2 * x2sum[q] - sa2 * inv_s2 * dot_xm + inv_s2 * dot_xu)
    return out
