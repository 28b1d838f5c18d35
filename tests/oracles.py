"""Independent computation paths used to validate the closed-form machinery.

Everything here deliberately avoids the package's own algebra: expectations
are taken by exhaustive enumeration of binary inclusion configurations and by
numerical quadrature (scipy.stats .expect / scipy.integrate.quad), and sums
are accumulated with explicit loops.
"""

import math

import numpy as np
from scipy import integrate, stats
from scipy.special import logsumexp


def enumerate_column_moments(eta_k, X):
    """E[X z_k] and E[(X z_k)^2] per individual by enumerating the 2^Q
    configurations of one inclusion column."""
    Q = eta_k.size
    N = X.shape[0]
    e1 = np.zeros(N)
    e2 = np.zeros(N)
    for bits in range(2**Q):
        z = np.array([(bits >> i) & 1 for i in range(Q)], dtype=float)
        w = float(np.prod(np.where(z > 0, eta_k, 1.0 - eta_k)))
        m = X @ z
        e1 += w * m
        e2 += w * m**2
    return e1, e2


def expected_log_joint_enum(state, data, hp):
    """E_q[log joint] with enumeration over Z and quadrature for the
    continuous blocks."""
    X, Y = data.X, data.Y
    N, P = Y.shape
    Q, K = state.eta.shape
    a0 = hp.alpha / K

    # likelihood: enumerate full Z, integrate A analytically per entry
    e_lik = 0.0
    for bits in range(2 ** (Q * K)):
        z = np.array([(bits >> i) & 1 for i in range(Q * K)], dtype=float).reshape(Q, K)
        w = float(np.prod(np.where(z > 0, state.eta, 1.0 - state.eta)))
        if w == 0.0:
            continue
        B = X @ z
        sq = 0.0
        for p in range(P):
            resid = Y[:, p] - B @ state.phi[:, p]
            sq += float(resid @ resid)
            for k in range(K):
                sq += state.varphi[k, p] * float(B[:, k] @ B[:, k])
        e_lik += w * sq
    e_lik = -0.5 * N * P * math.log(2 * math.pi * hp.sigma2) - e_lik / (2 * hp.sigma2)

    e_z = 0.0
    e_pi = 0.0
    for k in range(K):
        lam1, lam2 = state.lam[k]
        beta_q = stats.beta(lam1, lam2)
        e_log_pi = beta_q.expect(np.log)
        e_log_1mpi = beta_q.expect(lambda x: np.log1p(-x))
        for q in range(Q):
            e_z += state.eta[q, k] * e_log_pi + (1 - state.eta[q, k]) * e_log_1mpi
        e_pi += beta_q.expect(lambda x: stats.beta(a0, 1.0).logpdf(x))

    e_a = 0.0
    e_delta = 0.0
    for k in range(K):
        for p in range(P):
            k1, k2 = state.kappa[k, p]
            ig = stats.invgamma(k1, scale=k2)
            e_log_delta = ig.expect(np.log)
            e_inv_delta = ig.expect(lambda x: 1.0 / x)
            e_a2 = stats.norm(state.phi[k, p], math.sqrt(state.varphi[k, p])).expect(
                lambda x: x * x
            )
            e_a += -0.5 * (math.log(2 * math.pi) + e_log_delta) - 0.5 * e_inv_delta * e_a2
            e_delta += ig.expect(lambda x: stats.invgamma(hp.c, scale=hp.d).logpdf(x))
    return e_lik + e_z + e_pi + e_a + e_delta


def entropy_scipy(state):
    """H[q] via scipy.stats entropy implementations."""
    h = 0.0
    for k in range(state.k_max):
        h += float(stats.beta(state.lam[k, 0], state.lam[k, 1]).entropy())
    for value in state.eta.ravel():
        h += float(stats.bernoulli(value).entropy())
    for k in range(state.k_max):
        for p in range(state.n_traits):
            h += float(stats.norm(state.phi[k, p], math.sqrt(state.varphi[k, p])).entropy())
            h += float(stats.invgamma(state.kappa[k, p, 0], scale=state.kappa[k, p, 1]).entropy())
    return h


def elbo_enum(state, data, hp):
    return expected_log_joint_enum(state, data, hp) + entropy_scipy(state)


def log_marginal_quad(data, hp, k_max=1):
    """log p(Y | X) on a tiny instance: enumeration over Z, the A integral in
    closed form as a Gaussian marginal, and quadrature over the ARD variance.
    Requires P = 1 and k_max = 1."""
    X, Y = data.X, data.Y
    N, P = Y.shape
    assert P == 1 and k_max == 1
    Q = X.shape[1]
    a0 = hp.alpha / k_max
    y = Y[:, 0]

    def log_p_z(z):
        s = int(z.sum())
        val, _ = integrate.quad(
            lambda pi: pi**s * (1 - pi) ** (Q - s) * stats.beta(a0, 1.0).pdf(pi), 0, 1
        )
        return math.log(val)

    def log_p_y_given_z(z):
        b = X @ z
        if not b.any():
            return float(stats.multivariate_normal(np.zeros(N), hp.sigma2 * np.eye(N)).logpdf(y))

        def integrand(log_delta):
            delta = math.exp(log_delta)
            cov = hp.sigma2 * np.eye(N) + delta * np.outer(b, b)
            ll = stats.multivariate_normal(np.zeros(N), cov).logpdf(y)
            prior = stats.invgamma(hp.c, scale=hp.d).logpdf(delta)
            return math.exp(ll + prior + log_delta)  # log-substitution Jacobian

        val, _ = integrate.quad(integrand, -12, 12, limit=200)
        return math.log(val)

    parts = []
    for bits in range(2**Q):
        z = np.array([(bits >> i) & 1 for i in range(Q)], dtype=float)
        parts.append(log_p_z(z) + log_p_y_given_z(z))
    return float(logsumexp(parts))


def lambda_conjugate_oracle(eta_k, alpha, k_max):
    """Beta-Bernoulli conjugate posterior parameters via explicit summation."""
    ones = math.fsum(float(v) for v in eta_k)
    zeros = math.fsum(1.0 - float(v) for v in eta_k)
    return alpha / k_max + ones, 1.0 + zeros


def kappa_conjugate_oracle(phi_kp, varphi_kp, c, d):
    """Inverse-gamma conjugate update with E[A^2] taken by quadrature."""
    e_a2 = stats.norm(phi_kp, math.sqrt(varphi_kp)).expect(lambda x: x * x)
    return c + 0.5, d + e_a2 / 2.0


def effect_row_oracle(state, data, hp, k):
    """Exact conditional Gaussian posterior of effect row k via enumeration
    moments and per-trait normal equations."""
    e1, e2 = enumerate_column_moments(state.eta[:, k], data.X)
    expected_other = np.zeros_like(data.Y)
    for kk in range(state.k_max):
        if kk == k:
            continue
        m1, _ = enumerate_column_moments(state.eta[:, kk], data.X)
        expected_other += np.outer(m1, state.phi[kk])
    residual = data.Y - expected_other
    s_total = math.fsum(float(v) for v in e2)
    mean = np.empty(state.n_traits)
    var = np.empty(state.n_traits)
    for p in range(state.n_traits):
        precision = state.kappa[k, p, 0] / state.kappa[k, p, 1] + s_total / hp.sigma2
        var[p] = 1.0 / precision
        mean[p] = math.fsum(float(e1[n] * residual[n, p]) for n in range(data.n_individuals)) / hp.sigma2 * var[p]
    return mean, var
