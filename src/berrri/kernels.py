"""The SNP-inclusion kernel: one factor's sequential inclusion updates for a
batch of B fits that share the genotype matrix.

The expected factor load is rebuilt from all Q SNPs for every SNP (the
method's published per-sweep cost is quadratic in the SNP count), and for the
whole batch at once: one (B x Q)(Q x N) product per SNP.

`eta_factor_terms` and `eta_snp_update` take one fit as vectors (E of length
Q, U of length N, scalar coefficients) or a batch as matrices (E of B x Q, U
of B x N, length-B coefficients); their logit offsets are Q-major either way.
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
    offset = np.multiply.outer(x2sum, -0.5 * coef) + prior_logit + inv_sigma2 * (XT @ U.T)
    return offset, coef


def eta_snp_update(E, XT, q, offset_q, coef, load=None):
    """Update the inclusion probability of SNP q (column q of E) in place.

    The expected load of the other SNPs is rebuilt in full with that column
    zeroed (into `load`, N or B x N, if given), then the column is set to the
    sigmoid of the logits, which are returned (a non-finite logit is left for
    the caller to report).
    """
    column = E.T
    column[q] = 0.0
    zeta = offset_q - coef * np.dot(np.dot(E, XT, out=load), XT[q])
    column[q] = expit(zeta)
    return zeta


def eta_factor_sweep(XT, x2sum, E, U, prior_logit, sa2, inv_sigma2):
    """Sequential update of E[:, q] for q = 0..Q-1; E is modified in place.

    E holds the B x Q inclusion probabilities of the factor, U is B x N and
    prior_logit, sa2 and inv_sigma2 have length B (see `eta_factor_terms`).
    Finiteness is checked once, after the sweep.  Returns None on success,
    or (b, q) for the first member b with a non-finite logit and its first
    such SNP q; E then holds garbage and must not be written back.
    """
    args = (E, U, prior_logit, sa2, inv_sigma2)
    if len(E) == 1:
        # a batch of one runs on row views: vector steps cost less per SNP
        args = tuple(a[0] for a in args)
    offset, coef = eta_factor_terms(XT, x2sum, *args[1:])
    zeta = np.empty_like(offset)
    load = np.empty(args[0].shape[:-1] + XT.shape[1:])
    for q in range(len(XT)):
        zeta[q] = eta_snp_update(args[0], XT, q, offset[q], coef, load)
    if np.isfinite(zeta).all():
        return None
    b, q = np.argwhere(~np.isfinite(zeta.reshape(len(XT), -1).T))[0]
    return int(b), int(q)
