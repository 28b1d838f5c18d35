"""The SNP-inclusion kernel: one factor's sequential inclusion updates for a
batch of B fits that share the genotype matrix.

At SNP q the load term x_q' X E[z_k] (SNP q excluded) is computed as
g . E[z_k] with g = X' x_q, the product of SNP q's genotype column with
every column.  g is recomputed at every step, so one fit costs one Q x N
product per SNP (the method's published per-sweep cost, quadratic in the
SNP count), and the whole batch shares it: each member adds only a
length-Q dot product.  No call sums across members, so each member's bits
do not depend on which other members share its batch; a member of a batch
gives exactly the result of a fit on its own.

`eta_factor_terms` and `eta_snp_update` take one fit as vectors (E of length
Q, U of length N, scalar coefficients) or a batch as matrices (E of B x Q, U
of B x N, length-B prior logits and effect second moments); their logit
offsets are Q-major either way.  A batch is one model, so the inverse noise
variance is one scalar for all its members.
"""

import numpy as np
from scipy.special import expit

__all__ = ["eta_factor_terms", "eta_snp_update", "eta_factor_sweep"]


def eta_factor_terms(XT, x2sum, U, prior_logit, sa2, inv_sigma2):
    """Parts of the inclusion logits that stay fixed across one factor's sweep.

    XT is the Q x N transposed genotype matrix, x2sum its row sums of squares,
    U the residuals (this factor excluded) projected onto the factor's
    effect-size means, and sa2 the summed second moment of those effect
    sizes.  Returns the logit offsets (Q, or Q x B) and the coefficient of
    the load term (scalar, or length B).
    """
    coef = sa2 * inv_sigma2
    # one Q x N matrix-vector product per member, never one across members
    XU = np.matmul(XT, U[..., None])[..., 0].T
    offset = np.multiply.outer(x2sum, -0.5 * coef) + prior_logit + inv_sigma2 * XU
    return offset, coef


def eta_snp_update(E, XT, q, offset_q, coef, g=None):
    """Update the inclusion probability of SNP q (column q of E) in place.

    The column product g = XT @ XT[q] is computed (into `g`, length Q, if
    given), the column is zeroed and each member's load term is its dot
    product with g; the column is then set to the sigmoid of the logits,
    which are returned (a non-finite logit is left for the caller to report).
    """
    g = np.dot(XT, XT[q], out=g)
    column = E.T
    column[q] = 0.0
    load = np.dot(E, g) if E.ndim == 1 else np.matmul(E[:, None, :], g)[:, 0]
    zeta = offset_q - coef * load
    column[q] = expit(zeta)
    return zeta


def eta_factor_sweep(XT, x2sum, E, U, prior_logit, sa2, inv_sigma2):
    """Sequential update of E[:, q] for q = 0..Q-1; E is modified in place.

    E holds the B x Q inclusion probabilities of the factor, U is B x N,
    prior_logit and sa2 are length-B coefficients and inv_sigma2 is one
    scalar for the whole batch (see `eta_factor_terms`).
    Finiteness is checked once, after the sweep.  Returns None on success,
    or (b, q) for the first member b with a non-finite logit and its first
    such SNP q; E then holds garbage and must not be written back.
    """
    if len(E) == 1:
        # a batch of one runs on row views: vector steps cost less per SNP
        E, U, prior_logit, sa2 = E[0], U[0], prior_logit[0], sa2[0]
    offset, coef = eta_factor_terms(XT, x2sum, U, prior_logit, sa2, inv_sigma2)
    zeta = np.empty_like(offset)
    g = np.empty(len(XT))
    for q in range(len(XT)):
        zeta[q] = eta_snp_update(E, XT, q, offset[q], coef, g)
    if np.isfinite(zeta).all():
        return None
    b, q = np.argwhere(~np.isfinite(zeta.reshape(len(XT), -1).T))[0]
    return int(b), int(q)
