"""The evidence lower bound of the generative model.

The model's log joint factorizes as

    log p(Y | X, Z, A, sigma2) + log p(Z | pi) + log p(pi | alpha)
        + log p(A | delta) + log p(delta | c, d)

and the ELBO is E_q[log joint] + H[q] under the factorized posterior held in
a VariationalState; only this expectation is computed, never the log joint
at a concrete point.  Both parts decompose additively; tests check the terms
against independently summed oracles.  Every function takes one fit's state
with its Dataset, or a stacked state with the `BatchData` of its members,
whose precomputed column sums of squares and trait norms the data term
reads.
"""

import math

import numpy as np

from ._special import digamma_gammaln, xlogy
from .errors import EngineError
from .types import BatchData, Hyperparameters, VariationalState, batch_of

__all__ = ["elbo", "expected_log_joint", "expected_residual_ss", "entropy"]

LOG_2PI = math.log(2.0 * math.pi)


def _result(values: np.ndarray, state: VariationalState):
    """Per-member values of a batch; the one value of a plain state as a float."""
    return values if state.eta.ndim == 3 else float(values[0])


def expected_residual_ss(state: VariationalState, data):
    """E_q ||Y - X Z A||_F^2 from K x P and K x K statistics.

    With M = X E[Z] (N x K) the expected residual is
    ||Y||^2 - 2 <phi, M^T Y> + <M^T M, phi phi^T> plus the variance terms,
    so no N x P array is formed.  A stacked state with its BatchData gives
    one value per member.
    """
    batch, data = batch_of(state, data)
    return _result(_expected_residual_ss(batch, data), state)


def _expected_residual_ss(batch: VariationalState, data: BatchData) -> np.ndarray:
    eta, phi = batch.eta, batch.phi
    M = data.X @ eta                                   # E[X Z], B x N x K
    MT = M.transpose(0, 2, 1)
    G = MT @ M
    V = data.x2sum @ (eta * (1.0 - eta))               # sum_n Var[(X z_k)_n]
    S = np.diagonal(G, axis1=1, axis2=2) + V           # sum_n E[(X z_k)_n^2]
    rss = (
        data.yy
        - 2.0 * np.einsum("bkp,bkp->b", phi, MT @ data.Y)
        + np.einsum("bkl,bkl->b", G, phi @ phi.transpose(0, 2, 1))
    )
    # matmul, not einsum, for the K-term dot products: it sums them in the
    # order of a plain state's `S @ v`, so a batch of one keeps its bits
    return (
        rss
        + (S[:, None] @ batch.varphi.sum(axis=2)[..., None])[:, 0, 0]
        + (V[:, None] @ (phi**2).sum(axis=2)[..., None])[:, 0, 0]
    )


def _special_terms(batch: VariationalState):
    """The special-function and log terms that the expected log joint and
    the entropy share, from one digamma / log Gamma pass over lam1, lam2,
    lam1 + lam2 and kappa1: psi(lam1), psi(lam2), psi(lam1 + lam2),
    log B(lam1, lam2), psi(kappa1), log Gamma(kappa1) and log(kappa2).

    Every state `fit` writes holds kappa1 = c + 1/2 in each of its K x P
    entries (the update's closed form), so a kappa1 whose entries are all
    equal is passed as one value, and its terms broadcast: the pass is
    elementwise, so they are the bits the whole array would give.
    """
    lam1, lam2, kappa1 = batch.lam[..., 0], batch.lam[..., 1], batch.kappa[..., 0]
    n = lam1.size
    kappa1 = kappa1.ravel()
    k1_shape = batch.kappa.shape[:-1]
    if (kappa1 == kappa1[0]).all():
        kappa1, k1_shape = kappa1[:1], (1,) * len(k1_shape)
    psi, lgamma = digamma_gammaln(np.concatenate([lam1.ravel(), lam2.ravel(), (lam1 + lam2).ravel(), kappa1]))
    psi1, psi2, psi12 = psi[: 3 * n].reshape((3,) + lam1.shape)
    lgamma1, lgamma2, lgamma12 = lgamma[: 3 * n].reshape((3,) + lam1.shape)
    return (
        psi1, psi2, psi12, lgamma1 + lgamma2 - lgamma12,
        psi[3 * n :].reshape(k1_shape), lgamma[3 * n :].reshape(k1_shape),
        np.log(batch.kappa[..., 1]),
    )


def expected_log_joint(state: VariationalState, data, hp: Hyperparameters):
    """E_q[log p(W, Y | X, theta)] under the factorized posterior; one value
    per member for a stacked state with its BatchData, all under the one set
    of hyperparameters."""
    batch, data = batch_of(state, data)
    return _result(_expected_log_joint(batch, data, hp, _special_terms(batch)), state)


def _expected_log_joint(batch: VariationalState, data: BatchData, hp: Hyperparameters, terms) -> np.ndarray:
    N, P = data.Y.shape[1:]
    K = batch.k_max
    a0 = hp.alpha / K
    psi1, psi2, psi12, _, psi_k1, _, log_k2 = terms

    e_lik = (
        -0.5 * N * P * (LOG_2PI + math.log(hp.sigma2))
        - _expected_residual_ss(batch, data) / (2.0 * hp.sigma2)
    )

    e_log_pi = psi1 - psi12                            # B x K
    e_log_1mpi = psi2 - psi12
    eta = batch.eta
    e_z = (
        (eta * e_log_pi[:, None]).sum(axis=(1, 2))
        + ((1.0 - eta) * e_log_1mpi[:, None]).sum(axis=(1, 2))
    )
    e_pi = K * math.log(a0) + (a0 - 1.0) * e_log_pi.sum(axis=1)

    e_inv_delta = batch.kappa[..., 0] / batch.kappa[..., 1]
    e_log_delta = log_k2 - psi_k1
    e_a2 = batch.varphi + batch.phi**2
    e_a = (-0.5 * (LOG_2PI + e_log_delta) - 0.5 * e_inv_delta * e_a2).sum(axis=(1, 2))
    e_delta = (
        hp.c * math.log(hp.d) - math.lgamma(hp.c) - (hp.c + 1.0) * e_log_delta - hp.d * e_inv_delta
    ).sum(axis=(1, 2))
    return e_lik + e_z + e_pi + e_a + e_delta


def entropy(state: VariationalState):
    """Entropy H[q] of the factorized posterior; one value per member of a
    stacked state."""
    batch = state if state.eta.ndim == 3 else state.as_batch()
    return _result(_entropy(batch, _special_terms(batch)), state)


def _entropy(batch: VariationalState, terms) -> np.ndarray:
    psi1, psi2, psi12, log_beta, psi_k1, lgamma_k1, log_k2 = terms
    lam1, lam2 = batch.lam[..., 0], batch.lam[..., 1]
    h_pi = (
        log_beta - (lam1 - 1.0) * psi1 - (lam2 - 1.0) * psi2 + (lam1 + lam2 - 2.0) * psi12
    ).sum(axis=1)
    eta = batch.eta
    h_z = -(xlogy(eta, eta) + xlogy(1.0 - eta, 1.0 - eta)).sum(axis=(1, 2))
    h_a = (0.5 * (LOG_2PI + 1.0 + np.log(batch.varphi))).sum(axis=(1, 2))
    k1 = batch.kappa[..., 0]
    h_delta = (k1 + log_k2 + lgamma_k1 - (1.0 + k1) * psi_k1).sum(axis=(1, 2))
    return h_pi + h_z + h_a + h_delta


def elbo(state: VariationalState, data, hp: Hyperparameters):
    """Evidence lower bound E_q[log joint] + H[q]; finite for a valid state.

    Takes one fit's state with its Dataset and returns a float, or a stacked
    state (`VariationalState.stack`) with the `BatchData` of its members and
    returns one value per member.  A batch is one model: all members are
    scored under the one set of hyperparameters.
    """
    batch, data = batch_of(state, data)
    terms = _special_terms(batch)
    values = _expected_log_joint(batch, data, hp, terms) + _entropy(batch, terms)
    if not np.isfinite(values).all():
        b = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EngineError(
            f"ELBO is not finite ({values[b]}){data.name(b, ' for {}')}; "
            "variational parameters are degenerate"
        )
    return _result(values, state)
