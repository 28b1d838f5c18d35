"""Generative-model densities and the evidence lower bound.

The unnormalized log joint factorizes as

    log p(Y | X, Z, A, sigma2) + log p(Z | pi) + log p(pi | alpha)
        + log p(A | delta) + log p(delta | c, d)

and the ELBO is E_q[log joint] + H[q] under the factorized posterior held in
a VariationalState.  Both decompose additively; tests check the terms against
independently summed oracles.
"""

import math

import numpy as np
from scipy.special import betaln, digamma, gammaln, xlogy

from .errors import EngineError, ValidationError
from .types import Dataset, Hyperparameters, ModelPoint, VariationalState

__all__ = ["log_joint", "elbo", "expected_log_joint", "expected_residual_ss", "entropy"]

LOG_2PI = math.log(2.0 * math.pi)


def log_joint(point: ModelPoint, data: Dataset, hp: Hyperparameters) -> float:
    """Unnormalized log joint density at a concrete (Z, A, pi, delta)."""
    X, Y = data.X, data.Y
    N, P = Y.shape
    K = point.Z.shape[1]
    if point.Z.shape[0] != data.n_snps or point.A.shape[1] != P:
        raise ValidationError(
            f"point shapes Z {point.Z.shape}, A {point.A.shape} do not match "
            f"data with {data.n_snps} SNPs and {P} traits"
        )
    sigma2 = hp.sigma2
    a0 = hp.alpha / K

    resid = Y - X @ point.Z @ point.A
    ll = -0.5 * N * P * (LOG_2PI + math.log(sigma2)) - (resid**2).sum() / (2.0 * sigma2)

    log_pi = np.log(point.pi)
    log_1mpi = np.log1p(-point.pi)
    lz = float((point.Z * log_pi).sum() + ((1.0 - point.Z) * log_1mpi).sum())
    lpi = float(K * math.log(a0) + (a0 - 1.0) * log_pi.sum())

    la = float((-0.5 * (LOG_2PI + np.log(point.delta)) - point.A**2 / (2.0 * point.delta)).sum())
    ld = float(
        (hp.c * math.log(hp.d) - gammaln(hp.c) - (hp.c + 1.0) * np.log(point.delta) - hp.d / point.delta).sum()
    )

    total = ll + lz + lpi + la + ld
    if not np.isfinite(total):
        raise ValidationError("log joint is not finite; inputs are outside the model support")
    return float(total)


def expected_residual_ss(state: VariationalState, data: Dataset) -> float:
    """E_q ||Y - X Z A||_F^2 from K x P and K x K statistics.

    With M = X E[Z] (N x K) the expected residual is
    ||Y||^2 - 2 <phi, M^T Y> + <M^T M, phi phi^T> plus the variance terms,
    so no N x P array is formed.
    """
    X, Y, eta, phi = data.X, data.Y, state.eta, state.phi
    M = X @ eta                                        # E[X Z], N x K
    G = M.T @ M
    x2sum = np.einsum("nq,nq->q", X, X)
    V = x2sum @ (eta * (1.0 - eta))                    # sum_n Var[(X z_k)_n]
    S = np.diag(G) + V                                 # sum_n E[(X z_k)_n^2]
    rss = (
        np.einsum("np,np->", Y, Y)
        - 2.0 * np.einsum("kp,kp->", phi, M.T @ Y)
        + np.einsum("kl,kl->", G, phi @ phi.T)
    )
    return float(rss + S @ state.varphi.sum(axis=1) + V @ (phi**2).sum(axis=1))


def expected_log_joint(state: VariationalState, data: Dataset, hp: Hyperparameters) -> float:
    """E_q[log p(W, Y | X, theta)] under the factorized posterior."""
    N, P = data.Y.shape
    K = state.k_max
    sigma2 = hp.sigma2
    a0 = hp.alpha / K

    sq = expected_residual_ss(state, data)
    e_lik = -0.5 * N * P * (LOG_2PI + math.log(sigma2)) - sq / (2.0 * sigma2)

    e_log_pi = digamma(state.lam[:, 0]) - digamma(state.lam.sum(axis=1))
    e_log_1mpi = digamma(state.lam[:, 1]) - digamma(state.lam.sum(axis=1))
    e_z = float((state.eta * e_log_pi).sum() + ((1.0 - state.eta) * e_log_1mpi).sum())
    e_pi = float(K * math.log(a0) + (a0 - 1.0) * e_log_pi.sum())

    e_inv_delta = state.kappa[..., 0] / state.kappa[..., 1]
    e_log_delta = np.log(state.kappa[..., 1]) - digamma(state.kappa[..., 0])
    e_a2 = state.varphi + state.phi**2
    e_a = float((-0.5 * (LOG_2PI + e_log_delta) - 0.5 * e_inv_delta * e_a2).sum())
    e_delta = float(
        (hp.c * math.log(hp.d) - gammaln(hp.c) - (hp.c + 1.0) * e_log_delta - hp.d * e_inv_delta).sum()
    )
    return e_lik + e_z + e_pi + e_a + e_delta


def entropy(state: VariationalState) -> float:
    """Entropy H[q] of the factorized posterior."""
    lam1, lam2 = state.lam[:, 0], state.lam[:, 1]
    h_pi = float(
        (
            betaln(lam1, lam2)
            - (lam1 - 1.0) * digamma(lam1)
            - (lam2 - 1.0) * digamma(lam2)
            + (lam1 + lam2 - 2.0) * digamma(lam1 + lam2)
        ).sum()
    )
    h_z = float(-(xlogy(state.eta, state.eta) + xlogy(1.0 - state.eta, 1.0 - state.eta)).sum())
    h_a = float((0.5 * (LOG_2PI + 1.0 + np.log(state.varphi))).sum())
    k1, k2 = state.kappa[..., 0], state.kappa[..., 1]
    h_delta = float((k1 + np.log(k2) + gammaln(k1) - (1.0 + k1) * digamma(k1)).sum())
    return h_pi + h_z + h_a + h_delta


def elbo(state: VariationalState, data: Dataset, hp: Hyperparameters) -> float:
    """Evidence lower bound E_q[log joint] + H[q]; finite for a valid state."""
    value = expected_log_joint(state, data, hp) + entropy(state)
    if not np.isfinite(value):
        raise EngineError(f"ELBO is not finite ({value}); variational parameters are degenerate")
    return float(value)
