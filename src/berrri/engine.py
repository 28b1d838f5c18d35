"""Coordinate-ascent variational inference.

One sweep updates, in order: stick-weight Beta parameters (all factors), SNP
inclusion probabilities (factor by factor, SNP by SNP), effect-size Gaussians
(factor by factor), and ARD inverse-gamma parameters.  Every update is the
exact mean-field solution for its block given the others, so the ELBO never
decreases; updates within a block run sequentially (Gauss-Seidel) because the
factors couple through the shared residual.

Convergence is judged from per-block scalar traces with a Geweke-style
two-segment test, checked at a fixed iteration cadence after burn-in.  Each
fit's `FitReport` holds those traces, its ELBO trace and every check; the
state holds only the variational parameters.

Fits of one model that share the genotype matrix X (a real fit and its
permutation refits) run as one batch under one set of hyperparameters: the
members differ only in their traits and their initial state.  The state
carries a leading batch axis, and so does every block; the data is one
`BatchData`, which `fit` builds once and hands to every sweep and ELBO.
The inclusion kernel shares each SNP step's genotype column product across
the batch; lambda, the factor residuals, the effect sizes and the ARD
variances are array operations over the batch axis, and `fit` evaluates the
ELBO and the trace means of all members with one call each.  A single fit
is the batch of one.  Every product is formed per member (stacked
`matmul`), never as one BLAS call across members, so a member's result is
bit for bit that of the same fit run on its own.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, erfc

from . import kernels
from .errors import EngineError, ValidationError
from .model import elbo
from .streams import child_rng
from .types import BatchData, Dataset, Hyperparameters, VariationalState, batch_of

__all__ = [
    "TRACE_BLOCKS",
    "ConvergenceCheck",
    "FitReport",
    "initial_state",
    "update_lambda",
    "update_eta",
    "update_A",
    "update_kappa",
    "sweep",
    "geweke_statistic",
    "check_convergence",
    "fit",
]

logger = logging.getLogger("berrri")

TRACE_BLOCKS = ("lambda", "eta", "phi", "varphi", "kappa")

# A sweep whose ELBO falls by more than this fraction of the previous value
# counts as a decrease; smaller drops are floating-point noise.
ELBO_DECREASE_RTOL = 1e-8

# The shortest post-burn-in trace checked: the Geweke test needs two values
# in its first 10%.
_MIN_POST_BURN = 20


def initial_state(data: Dataset, hp: Hyperparameters) -> VariationalState:
    """Deterministic data-aware initialization.

    Inclusion probabilities start as a uniform random draw; the effect-size
    and ARD blocks are then set to their conditional optima given that draw.
    Starting the effect sizes at zero instead would let the first inclusion
    pass (which runs before any effect-size update) wipe out the random
    symmetry breaking, after which the factors collapse onto one another and
    the optimizer is left in a heavily merged local optimum.
    """
    K = hp.resolve_k_max(data.n_snps)
    Q, P = data.n_snps, data.n_traits
    rng = child_rng(hp.seed, "init")
    lam = np.column_stack([np.full(K, hp.alpha / K), np.ones(K)])
    eta = rng.uniform(0.25, 0.75, size=(Q, K))
    phi = np.zeros((K, P))
    varphi = np.ones((K, P))
    state = VariationalState(lam=lam, eta=eta, phi=phi, varphi=varphi, kappa=np.empty((K, P, 2)))
    _kappa_update(state.kappa, state.varphi, state.phi, hp.c, hp.d)
    batch, ws = batch_of(state, data)
    M = ws.X @ batch.eta
    for k in range(K):
        _A_factor_update(batch, ws, hp.sigma2, k, M)
    _kappa_update(state.kappa, state.varphi, state.phi, hp.c, hp.d)
    return state


# ---------------------------------------------------------------------------
# Block updates.  Each block has one core that updates a whole batch from its
# BatchData (a plain state with its Dataset enters as a batch of one, see
# `batch_of`); the public single-entry updates call it on one fit, and
# `sweep` calls it on the batch with per-factor caching.
# ---------------------------------------------------------------------------


def _lambda_update(lam, eta, alpha, k: int):
    """Beta parameters of stick weight k from the inclusion means, for one
    fit or for every member of a batch."""
    eta_k = eta[..., k]
    lam[..., k, 0] = alpha / eta.shape[-1] + eta_k.sum(axis=-1)
    lam[..., k, 1] = 1.0 + (1.0 - eta_k).sum(axis=-1)


def update_lambda(state: VariationalState, hp: Hyperparameters, k: int):
    """Beta parameters of stick weight k from the current inclusion means."""
    _lambda_update(state.lam, state.eta, hp.alpha, k)
    return state.lam[k, 0], state.lam[k, 1]


def _factor_residual(ws: BatchData, M: np.ndarray, phi: np.ndarray, k: int):
    """Expected residuals Y - M @ phi of every member with factor k's
    contribution excluded, that is with column k of the loads M (B x N x K)
    zeroed (cheaper than adding the N x P outer product M[:, k] phi[k]
    back).  Written into the batch's residual scratch."""
    M_other = M.copy()
    M_other[:, :, k] = 0.0
    R = np.matmul(M_other, phi, out=ws.residual)
    return np.subtract(ws.Y, R, out=R)


def _eta_factor_inputs(batch: VariationalState, ws: BatchData, k: int):
    """Per-member quantities that stay fixed across one factor's inclusion
    sweep: the residual projected onto the effect means (B x N), the prior
    logit and the summed effect second moment (length B)."""
    R = _factor_residual(ws, ws.X @ batch.eta, batch.phi, k)
    # matmul forms, so a batch of one computes `R @ phi[k]` bit for bit
    U = np.matmul(R, batch.phi[:, k, :, None])[..., 0]
    prior_logit = digamma(batch.lam[:, k, 0]) - digamma(batch.lam[:, k, 1])
    sa2 = (batch.varphi[:, k] + batch.phi[:, k] ** 2).sum(axis=1)
    return U, prior_logit, sa2


def _nonfinite_logit(k: int, q: int, b: int, batch_size: int) -> EngineError:
    member = f" of batch member {b}" if batch_size > 1 else ""
    return EngineError(
        f"non-finite inclusion logit at factor {k}, SNP {q}{member}; state is corrupted"
    )


def _eta_factor_update(batch: VariationalState, ws: BatchData, sigma2: float, k: int):
    """Inclusion updates of factor k for every member of the batch, in the
    kernel.  A non-finite logit raises before any SNP of the factor is
    written."""
    U, prior_logit, sa2 = _eta_factor_inputs(batch, ws, k)
    E = np.ascontiguousarray(batch.eta[:, :, k])
    bad = kernels.eta_factor_sweep(ws.XT, ws.x2sum, E, U, prior_logit, sa2, 1.0 / sigma2)
    if bad is not None:
        raise _nonfinite_logit(k, bad[1], bad[0], len(E))
    batch.eta[:, :, k] = E


def update_eta(state: VariationalState, data: Dataset, hp: Hyperparameters, k: int, q: int):
    """Exact mean-field update of one inclusion probability: the kernel's
    per-SNP step, with only SNP q's logit offset computed.  A non-finite
    logit raises before the SNP is written."""
    batch, ws = batch_of(state, data)
    U, prior_logit, sa2 = _eta_factor_inputs(batch, ws, k)
    offset, coef = kernels.eta_factor_terms(
        ws.XT[q:q + 1], ws.x2sum[q:q + 1], U[0], prior_logit[0], sa2[0], 1.0 / hp.sigma2
    )
    E = state.eta[:, k].copy()
    if not np.isfinite(kernels.eta_snp_update(E, ws.XT, q, offset[0], coef)):
        raise _nonfinite_logit(k, q, 0, 1)
    state.eta[q, k] = E[q]
    return state.eta[q, k]


def _A_factor_update(batch: VariationalState, ws: BatchData, sigma2: float, k: int, M: np.ndarray):
    """Effect-size row k of every member, given the expected loads M (B x N x K)."""
    eta_k = batch.eta[:, :, k]
    M_k = M[:, :, k]
    # per-member matmul forms, so a member's bits do not depend on its batch
    var_k = np.matmul((eta_k * (1.0 - eta_k))[:, None, :], ws.x2sum)[:, 0]
    S_k = (M_k[:, None, :] @ M_k[:, :, None])[:, 0, 0] + var_k
    MR_k = np.matmul(M_k[:, None, :], _factor_residual(ws, M, batch.phi, k))[:, 0]
    e_inv_delta = batch.kappa[:, k, :, 0] / batch.kappa[:, k, :, 1]
    precision = e_inv_delta + (S_k / sigma2)[:, None]
    if not (np.isfinite(precision).all() and (precision > 0).all()):
        raise EngineError(f"effect-size precision for factor {k} is not positive definite")
    batch.varphi[:, k] = 1.0 / precision
    batch.phi[:, k] = MR_k / sigma2 * batch.varphi[:, k]


def update_A(state: VariationalState, data: Dataset, hp: Hyperparameters, k: int):
    """Exact Gaussian update of the effect-size row for factor k.

    The row posterior factorizes over traits, so the covariance is diagonal:
    the returned variance vector is the diagonal of the posterior covariance.
    """
    batch, ws = batch_of(state, data)
    _A_factor_update(batch, ws, hp.sigma2, k, ws.X @ batch.eta)
    return state.phi[k].copy(), state.varphi[k].copy()


def _kappa_update(kappa, varphi, phi, c, d):
    """Exact inverse-gamma update of the ARD variances of matching slices,
    with prior shape c and rate d broadcast against them."""
    kappa[..., 0] = c + 0.5
    kappa[..., 1] = d + (varphi + phi**2) / 2.0


def update_kappa(state: VariationalState, hp: Hyperparameters, k: int, p: int):
    """Exact inverse-gamma update of one ARD variance."""
    _kappa_update(state.kappa[k, p], state.varphi[k, p], state.phi[k, p], hp.c, hp.d)
    return state.kappa[k, p, 0], state.kappa[k, p, 1]


def sweep(state: VariationalState, data, hp: Hyperparameters) -> VariationalState:
    """One full coordinate pass in block order lambda, eta, A, kappa.

    `state` is one fit's state with its Dataset, or a batch
    (`VariationalState.stack`) with the `BatchData` of its members; the
    whole batch runs under the one set of hyperparameters `hp`.  Every
    block updates the whole batch at once: lambda, the inclusion kernel and
    the effect sizes factor by factor, the ARD variances in one step.  The result equals, to round-off, the public
    updates composed in the same order (`update_lambda`, `update_eta` per
    SNP, `update_A`, `update_kappa` per entry).
    """
    batch, ws = batch_of(state, data)
    K = state.k_max

    # lambda factor by factor: a whole-array sum over the SNP axis would
    # round differently from one fit's per-factor sums
    for k in range(K):
        _lambda_update(batch.lam, batch.eta, hp.alpha, k)

    for k in range(K):
        _eta_factor_update(batch, ws, hp.sigma2, k)

    M = ws.X @ batch.eta
    for k in range(K):
        _A_factor_update(batch, ws, hp.sigma2, k, M)

    _kappa_update(batch.kappa, batch.varphi, batch.phi, hp.c, hp.d)
    return state


# ---------------------------------------------------------------------------
# Convergence monitoring
# ---------------------------------------------------------------------------


def _block_means(batch: VariationalState) -> np.ndarray:
    """The mean of each parameter block (in TRACE_BLOCKS order) for every
    member of a batch, one reduction per block: row b holds member b's."""
    B = len(batch.eta)
    return np.column_stack([
        getattr(batch, name).reshape(B, -1).mean(axis=1)
        for name in ("lam", "eta", "phi", "varphi", "kappa")
    ])


@dataclass
class FitReport:
    """The record of one fit, kept by `fit` while the fit runs and returned
    when it stops: per-block scalar traces (the mean of each parameter
    block, one value per sweep), the ELBO of every sweep, every convergence
    check run on the traces (empty if none ran) and the number of sweeps
    that lowered the ELBO; plus the burn-in and check cadence settings.
    The sweep count, final ELBO and convergence follow from these.  It
    holds no timing, so identical fits give equal reports."""

    burn_in: int = 100
    check_interval: int = 100
    traces: dict = field(default_factory=lambda: {b: [] for b in TRACE_BLOCKS})
    elbo_trace: list = field(default_factory=list, init=False)
    checks: list = field(default_factory=list, init=False)
    elbo_decreases: int = field(default=0, init=False)

    def record(self, means, elbo: float) -> bool:
        """Append one sweep's five block means (in TRACE_BLOCKS order) and
        its ELBO.  Returns True, and counts the decrease, when the ELBO fell
        by more than ELBO_DECREASE_RTOL of its previous value."""
        for block, value in zip(TRACE_BLOCKS, means):
            self.traces[block].append(float(value))
        trace = self.elbo_trace
        trace.append(float(elbo))
        fell = len(trace) > 1 and trace[-2] - trace[-1] > ELBO_DECREASE_RTOL * abs(trace[-2])
        self.elbo_decreases += fell
        return fell

    @property
    def iterations(self) -> int:
        """The number of sweeps recorded."""
        return len(self.traces["lambda"])

    @property
    def final_elbo(self) -> float:
        return self.elbo_trace[-1]

    @property
    def converged(self) -> bool:
        """Whether the last convergence check passed; False if none ran."""
        return bool(self.checks) and self.checks[-1].converged

    def post_burn(self, block: str) -> np.ndarray:
        return np.asarray(self.traces[block][self.burn_in:], dtype=np.float64)

    def ready(self) -> bool:
        n = self.iterations
        return n - self.burn_in >= _MIN_POST_BURN and n % self.check_interval == 0


@dataclass(frozen=True)
class ConvergenceCheck:
    t_stats: dict
    p_values: dict
    converged: bool
    degenerate: tuple = ()
    iteration: int = 0


def geweke_statistic(trace):
    """Two-segment stationarity test on one trace.

    Compares the mean of the first 10% against the mean of the last 50% with
    t = (m1 - m2) / sqrt(s1/n1 + s2/n2), where s1 and s2 are the segment
    standard deviations; the two-sided p-value uses the standard normal
    reference.  For unit-variance stationary traces this matches the usual
    z statistic, while for nearly flat traces the sqrt(s/n) floor absorbs
    numerically irrelevant micro-drift.  Exactly flat segments are degenerate:
    equal means count as converged (t = 0), unequal means do not.
    Returns (t, p, degenerate_flag).
    """
    x = np.asarray(trace, dtype=np.float64)
    n1 = int(0.1 * x.size)
    n2 = int(0.5 * x.size)
    if n1 < 2 or n2 < 2:
        raise ValidationError(
            f"trace of length {x.size} is too short for segment sizes ({n1}, {n2})"
        )
    seg1, seg2 = x[:n1], x[x.size - n2:]
    m1, m2 = float(seg1.mean()), float(seg2.mean())
    s1, s2 = float(seg1.std(ddof=1)), float(seg2.std(ddof=1))
    if s1 + s2 == 0.0:
        if m1 == m2:
            return 0.0, 1.0, True
        return math.inf, 0.0, True
    t = (m1 - m2) / math.sqrt(s1 / n1 + s2 / n2)
    p = float(erfc(abs(t) / math.sqrt(2.0)))
    return float(t), p, False


def check_convergence(report: FitReport, hp: Hyperparameters) -> ConvergenceCheck:
    """Geweke test on every block trace; converged iff all p exceed p_thresh."""
    t_stats, p_values, degenerate = {}, {}, []
    for block in TRACE_BLOCKS:
        t, p, degen = geweke_statistic(report.post_burn(block))
        t_stats[block] = t
        p_values[block] = p
        if degen:
            degenerate.append(block)
    converged = all(p > hp.p_thresh for p in p_values.values())
    return ConvergenceCheck(
        t_stats=t_stats,
        p_values=p_values,
        converged=converged,
        degenerate=tuple(degenerate),
        iteration=report.iterations,
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit(data, hp: Hyperparameters, init_state=None):
    """Run coordinate ascent until the convergence check passes or max_iter.

    Fits one Dataset and returns (state, report).  Given a sequence of
    Datasets that share X and, if any, a sequence of initial states, fits
    them as one batch under the one set of hyperparameters `hp` and returns
    the list of states and the list of reports; each member stops at its
    own converged check, and those still running stop at max_iter.  A
    member's start is `initial_state(data, hp)` unless given, so members
    that should start apart are given their own initial states; a given
    state is left unchanged.  Each member's `FitReport` records its
    progress (block traces, ELBO trace, checks, ELBO decreases) as it runs
    and is returned as it stands when the member stops; its sweep count
    covers this fit's sweeps only.  Deterministic for a given (data, hp,
    seed): identical runs produce identical parameter traces and reports.
    Non-convergence at max_iter is reported, not raised.  Every update
    should raise the ELBO, so each sweep that lowers it by more than
    ELBO_DECREASE_RTOL of its previous value is logged as a warning and
    counted in the report's elbo_decreases.
    """
    batched = not isinstance(data, Dataset)
    datasets = list(data) if batched else [data]
    B = len(datasets)
    inits = [None] * B if init_state is None else list(init_state) if batched else [init_state]
    if B == 0 or len(inits) != B:
        raise ValidationError(
            f"a batch needs one initial state per dataset, got {B} datasets and "
            f"{len(inits)} initial states"
        )
    states = []
    for d, init in zip(datasets, inits):
        state = init if init is not None else initial_state(d, hp)
        state.validate()
        if state.n_snps != d.n_snps or state.n_traits != d.n_traits:
            raise ValidationError(
                f"state is for {state.n_snps} SNPs x {state.n_traits} traits, data has "
                f"{d.n_snps} x {d.n_traits}"
            )
        states.append(state)
    ws = BatchData(datasets)
    reports = [FitReport(hp.burn_in, hp.check_interval) for _ in range(B)]
    results = [None] * B
    active = list(range(B))
    stack = VariationalState.stack(states)

    for n_sweeps in range(1, hp.max_iter + 1):
        sweep(stack, ws, hp)
        values = elbo(stack, ws, hp)
        means = _block_means(stack)
        staying = []
        for i, b in enumerate(active):
            report = reports[b]
            if report.record(means[i], values[i]):
                logger.warning(
                    "%siteration %d: elbo fell from %.6f to %.6f",
                    f"batch member {b}: " if batched else "",
                    n_sweeps,
                    *report.elbo_trace[-2:],
                )
            if report.ready():
                check = check_convergence(report, hp)
                report.checks.append(check)
                logger.info(
                    "%siteration %d: elbo=%.6f p-values=%s",
                    f"batch member {b}: " if batched else "",
                    n_sweeps,
                    report.final_elbo,
                    {blk: round(p, 4) for blk, p in check.p_values.items()},
                )
            # without a check this sweep the last one failed, or the member
            # would have stopped at it
            if not (report.converged or n_sweeps == hp.max_iter):
                staying.append(i)
                continue
            results[b] = stack.member(i).copy()
        if not staying:
            break
        if len(staying) < len(active):
            active = [active[i] for i in staying]
            stack = VariationalState.stack([stack.member(i) for i in staying])
            ws.keep(staying)

    if not batched:
        return results[0], reports[0]
    return results, reports
