"""The SNP-inclusion kernel: one factor's sequential inclusion updates for a
batch of B fits that share the genotype matrix.

At SNP q the load term x_q' X E[z_k] (SNP q excluded) is computed as
g . E[z_k] with g = X' x_q, the product of SNP q's genotype column with
every column.  g is recomputed at every step, so one fit costs one Q x N
product per SNP (the method's published per-sweep cost, quadratic in the
SNP count), and the whole batch shares it: each member adds only a
length-Q dot product.  No call sums across members, so each member's bits
do not depend on which other members share its batch; a member of a batch
gives exactly the result of a fit on its own.  For that, a batch and a
batch of one also take the sigmoid with the same `exp`, numpy's, whose
results differ from the C library's in the last bit on some inputs.

The logit offsets and load coefficients, the parts of the logits that stay
fixed across a factor's sweep, come from the caller.  `eta_factor_sweep`
takes a batch: E of B x Q, offsets of Q x B and coefficients of length B.
`eta_snp_update` takes that batch with SNP q's row of offsets, or one fit:
E of length Q with a scalar offset and coefficient.
"""

import numpy as np

__all__ = ["eta_snp_update", "eta_factor_sweep"]


def eta_snp_update(E, XT, q, offset_q, coef, g=None, t=None, work=None):
    """Update the inclusion probability of SNP q (column q of E) in place.

    The column product g = XT @ XT[q] is computed (into `g`, length Q, if
    given) and its entry q zeroed, so each member's load term, its dot
    product with g, leaves SNP q out.  The column is set to the sigmoid of
    the logits zeta = offset_q - coef * load, formed as 1 / (1 + exp(t))
    from t = -zeta, which is returned (a non-finite t, that is a non-finite
    logit, is left for the caller to report).  A batch forms t and exp(t)
    in `t` and `work` (length B) if given.  exp(t) overflows to inf, with a
    warning, above t = 709, where the sigmoid is 0: run this under
    np.errstate(over="ignore").
    """
    g = XT.dot(XT[q], out=g)
    g[q] = 0.0
    if E.ndim == 1:
        t = coef * E.dot(g) - offset_q
        E[q] = 1.0 / (1.0 + np.exp(t))
        return t
    t = np.vecdot(E, g, out=t)
    t *= coef
    t -= offset_q
    work = np.exp(t, out=work)
    work += 1.0
    np.reciprocal(work, out=E.T[q])
    return t


def eta_factor_sweep(XT, E, offset, coef):
    """Sequential update of E[:, q] for q = 0..Q-1; E is modified in place.

    XT is the Q x N transposed genotype matrix.  Finiteness is checked once,
    after the sweep.  Returns None on success, or (b, q) for the first
    member b with a non-finite logit and its first such SNP q; E then holds
    garbage and must not be written back.
    """
    Q = len(XT)
    if len(E) == 1:
        # a batch of one runs on row views: vector steps cost less per SNP
        E, offset, coef = E[0], offset[:, 0], coef[0]
    t = np.empty_like(offset)
    g = np.empty(Q)
    with np.errstate(over="ignore"):
        if E.ndim == 1:
            for q in range(Q):
                t[q] = eta_snp_update(E, XT, q, offset[q], coef, g)
        else:
            work = np.empty(len(E))
            for q in range(Q):
                eta_snp_update(E, XT, q, offset[q], coef, g, t[q], work)
    if np.isfinite(t).all():
        return None
    b, q = np.argwhere(~np.isfinite(t.reshape(Q, -1).T))[0]
    return int(b), int(q)
