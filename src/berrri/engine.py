"""Coordinate-ascent variational inference.

One sweep updates, in order: stick-weight Beta parameters (all factors), SNP
inclusion probabilities (factor by factor, SNP by SNP), effect-size Gaussians
(factor by factor), and ARD inverse-gamma parameters.  Every update is the
exact mean-field solution for its block given the others, so the ELBO never
decreases; updates within a block run sequentially (Gauss-Seidel) because the
factors couple through the shared residual.

Convergence is judged from per-block scalar traces with a Geweke-style
two-segment test, checked at a fixed iteration cadence after burn-in.

Fits that share the genotype matrix X (permutation refits) run as one batch:
the state carries a leading batch axis, the inclusion kernel updates every
member at once with one (B x Q)(Q x N) product per SNP, and the other blocks
work member by member on views of the stacked arrays.  A single fit is the
batch of one.
"""

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np
from scipy.special import digamma, erfc

from . import kernels
from .errors import EngineError, ValidationError
from .model import elbo
from .streams import child_rng
from .types import Dataset, Hyperparameters, VariationalState

__all__ = [
    "TRACE_BLOCKS",
    "TraceMonitor",
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
    _kappa_block_update(state, hp)
    ws = _Workspace([data], [hp])
    batch = _as_batch(state)
    M = ws.X @ batch.eta
    for k in range(K):
        _A_factor_update(batch, ws, k, M)
    _kappa_block_update(state, hp)
    return state


class _Workspace:
    """Constants of one batch of fits: the genotype matrix they share, their
    traits, and their noise variances stacked along the batch axis."""

    def __init__(self, datasets, hps):
        X = datasets[0].X
        for data in datasets[1:]:
            if data.X is not X and not np.array_equal(data.X, X):
                raise ValidationError("fits in one batch must share the genotype matrix")
        self.X = X
        self.XT = np.ascontiguousarray(X.T)
        self.x2sum = (X**2).sum(axis=0)
        self.Y = [data.Y for data in datasets]
        self.sigma2 = np.array([hp.sigma2 for hp in hps])
        # scratch for one member's N x P residual: reused for every factor,
        # so a sweep allocates (and page-faults) no N x P temporaries
        self.residual = np.empty(self.Y[0].shape)


def _as_batch(state: VariationalState) -> VariationalState:
    """A plain state as a batch of one whose arrays are views of its own."""
    return VariationalState(
        state.lam[None], state.eta[None], state.phi[None], state.varphi[None],
        state.kappa[None], iteration=state.iteration,
    )


# ---------------------------------------------------------------------------
# Block updates.  The standalone functions recompute whatever they need from
# the current state; `sweep` reuses the same cores with per-factor caching.
# The inclusion and effect-size cores take a batch (a plain state enters as
# a batch of one).
# ---------------------------------------------------------------------------


def update_lambda(state: VariationalState, hp: Hyperparameters, k: int):
    """Beta parameters of stick weight k from the current inclusion means."""
    eta_k = state.eta[:, k]
    state.lam[k, 0] = hp.alpha / state.k_max + eta_k.sum()
    state.lam[k, 1] = 1.0 + (1.0 - eta_k).sum()
    return state.lam[k, 0], state.lam[k, 1]


def _factor_residual(ws: _Workspace, Y: np.ndarray, M: np.ndarray, phi: np.ndarray, k: int):
    """Expected residual Y - M @ phi of one member with factor k's
    contribution excluded, that is with column k of the loads M zeroed
    (cheaper than adding the N x P outer product M[:, k] phi[k] back).  It
    lives in the workspace's scratch buffer until the next call."""
    M_other = M.copy()
    M_other[:, k] = 0.0
    R = np.matmul(M_other, phi, out=ws.residual)
    return np.subtract(Y, R, out=R)


def _eta_factor_inputs(batch: VariationalState, ws: _Workspace, k: int):
    """Per-member quantities that stay fixed across one factor's inclusion
    sweep: the residual projected onto the effect means (B x N), the prior
    logit and the summed effect second moment (length B)."""
    M = ws.X @ batch.eta
    U = np.array([
        _factor_residual(ws, Y, M_b, phi, k) @ phi[k] for Y, M_b, phi in zip(ws.Y, M, batch.phi)
    ])
    prior_logit = digamma(batch.lam[:, k, 0]) - digamma(batch.lam[:, k, 1])
    sa2 = (batch.varphi[:, k] + batch.phi[:, k] ** 2).sum(axis=1)
    return U, prior_logit, sa2


def _nonfinite_logit(k: int, q: int, b: int, batch_size: int) -> EngineError:
    member = f" of batch member {b}" if batch_size > 1 else ""
    return EngineError(
        f"non-finite inclusion logit at factor {k}, SNP {q}{member}; state is corrupted"
    )


def _eta_factor_update(batch: VariationalState, ws: _Workspace, k: int):
    """Inclusion updates of factor k for every member of the batch, in the
    kernel.  A non-finite logit raises before any SNP of the factor is
    written."""
    U, prior_logit, sa2 = _eta_factor_inputs(batch, ws, k)
    E = np.ascontiguousarray(batch.eta[:, :, k])
    bad = kernels.eta_factor_sweep(ws.XT, ws.x2sum, E, U, prior_logit, sa2, 1.0 / ws.sigma2)
    if bad is not None:
        raise _nonfinite_logit(k, bad[1], bad[0], len(E))
    batch.eta[:, :, k] = E


def update_eta(state: VariationalState, data: Dataset, hp: Hyperparameters, k: int, q: int):
    """Exact mean-field update of one inclusion probability: the kernel's
    per-SNP step.  A non-finite logit raises before the SNP is written."""
    ws = _Workspace([data], [hp])
    U, prior_logit, sa2 = _eta_factor_inputs(_as_batch(state), ws, k)
    offset, coef = kernels.eta_factor_terms(
        ws.XT, ws.x2sum, U[0], prior_logit[0], sa2[0], 1.0 / hp.sigma2
    )
    E = state.eta[:, k].copy()
    if not np.isfinite(kernels.eta_snp_update(E, ws.XT, q, offset[q], coef)):
        raise _nonfinite_logit(k, q, 0, 1)
    state.eta[q, k] = E[q]
    return state.eta[q, k]


def _A_factor_update(batch: VariationalState, ws: _Workspace, k: int, M: np.ndarray):
    """Effect-size row k of every member, given the expected loads M (B x N x K)."""
    eta_k = batch.eta[:, :, k]
    M_k = M[:, :, k]
    S_k = (M_k[:, None, :] @ M_k[:, :, None])[:, 0, 0] + (eta_k * (1.0 - eta_k)) @ ws.x2sum
    MR_k = np.array([
        M_b[:, k] @ _factor_residual(ws, Y, M_b, phi, k) for Y, M_b, phi in zip(ws.Y, M, batch.phi)
    ])
    e_inv_delta = batch.kappa[:, k, :, 0] / batch.kappa[:, k, :, 1]
    precision = e_inv_delta + (S_k / ws.sigma2)[:, None]
    if not (np.isfinite(precision).all() and (precision > 0).all()):
        raise EngineError(f"effect-size precision for factor {k} is not positive definite")
    batch.varphi[:, k] = 1.0 / precision
    batch.phi[:, k] = MR_k / ws.sigma2[:, None] * batch.varphi[:, k]


def update_A(state: VariationalState, data: Dataset, hp: Hyperparameters, k: int):
    """Exact Gaussian update of the effect-size row for factor k.

    The row posterior factorizes over traits, so the covariance is diagonal:
    the returned variance vector is the diagonal of the posterior covariance.
    """
    batch = _as_batch(state)
    _A_factor_update(batch, _Workspace([data], [hp]), k, data.X @ batch.eta)
    return state.phi[k].copy(), state.varphi[k].copy()


def _kappa_block_update(state: VariationalState, hp: Hyperparameters):
    """Exact inverse-gamma update of every ARD variance of one fit."""
    state.kappa[..., 0] = hp.c + 0.5
    state.kappa[..., 1] = hp.d + (state.varphi + state.phi**2) / 2.0


def update_kappa(state: VariationalState, hp: Hyperparameters, k: int, p: int):
    """Exact inverse-gamma update of one ARD variance."""
    state.kappa[k, p, 0] = hp.c + 0.5
    state.kappa[k, p, 1] = hp.d + (state.varphi[k, p] + state.phi[k, p] ** 2) / 2.0
    return state.kappa[k, p, 0], state.kappa[k, p, 1]


def sweep(
    state: VariationalState,
    data,
    hp,
    *,
    order=None,
    workspace: Optional[_Workspace] = None,
) -> VariationalState:
    """One full coordinate pass in block order lambda, eta, A, kappa.

    `state` is one fit's state with its Dataset and Hyperparameters, or a
    batch (`VariationalState.stack`) with one Dataset and one Hyperparameters
    per member, all datasets sharing X.  Lambda runs per member, the
    inclusion kernel and the effect-size update per factor for the whole
    batch, and the ARD block as one update per member.  `order` overrides
    the factor processing sequence (default ascending).  The result equals,
    to round-off, the public updates composed in the same order
    (`update_lambda`, `update_eta` per SNP, `update_A`, `update_kappa` per
    entry).
    """
    batched = state.eta.ndim == 3
    batch = state if batched else _as_batch(state)
    members = [state.member(b) for b in range(len(state.eta))] if batched else [state]
    datasets = list(data) if batched else [data]
    hps = list(hp) if batched else [hp]
    if not len(members) == len(datasets) == len(hps):
        raise ValidationError(
            f"a batch of {len(members)} states needs as many datasets and hyperparameters, "
            f"got {len(datasets)} and {len(hps)}"
        )
    ws = workspace if workspace is not None else _Workspace(datasets, hps)
    K = state.k_max
    factor_order = range(K) if order is None else [int(k) for k in order]
    if order is not None and sorted(factor_order) != list(range(K)):
        raise ValidationError(f"order must be a permutation of 0..{K - 1}")

    for k in factor_order:
        for m, h in zip(members, hps):
            update_lambda(m, h, k)

    for k in factor_order:
        _eta_factor_update(batch, ws, k)

    M = ws.X @ batch.eta
    for k in factor_order:
        _A_factor_update(batch, ws, k, M)

    for m, h in zip(members, hps):
        _kappa_block_update(m, h)

    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# Convergence monitoring
# ---------------------------------------------------------------------------


@dataclass
class TraceMonitor:
    """Per-block scalar traces (the mean of each parameter block, recorded
    once per iteration) plus the burn-in and check cadence settings."""

    burn_in: int = 100
    check_interval: int = 100
    min_post_burn: int = 20
    traces: dict = field(default_factory=lambda: {b: [] for b in TRACE_BLOCKS})

    def record(self, state: VariationalState):
        self.traces["lambda"].append(float(state.lam.mean()))
        self.traces["eta"].append(float(state.eta.mean()))
        self.traces["phi"].append(float(state.phi.mean()))
        self.traces["varphi"].append(float(state.varphi.mean()))
        self.traces["kappa"].append(float(state.kappa.mean()))

    def __len__(self) -> int:
        return len(self.traces["lambda"])

    def post_burn(self, block: str) -> np.ndarray:
        return np.asarray(self.traces[block][self.burn_in:], dtype=np.float64)

    def ready(self) -> bool:
        n = len(self)
        return n - self.burn_in >= self.min_post_burn and n % self.check_interval == 0


@dataclass(frozen=True)
class ConvergenceCheck:
    t_stats: dict
    p_values: dict
    converged: bool
    degenerate: tuple = ()
    iteration: int = 0


def geweke_statistic(trace, first: float = 0.1, last: float = 0.5):
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
    n1 = int(first * x.size)
    n2 = int(last * x.size)
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


def check_convergence(monitor: TraceMonitor, hp: Hyperparameters) -> ConvergenceCheck:
    """Geweke test on every block trace; converged iff all p exceed p_thresh."""
    t_stats, p_values, degenerate = {}, {}, []
    for block in TRACE_BLOCKS:
        t, p, degen = geweke_statistic(monitor.post_burn(block))
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
        iteration=len(monitor),
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    converged: bool
    iterations: int
    final_elbo: float
    k_effective: int
    wall_seconds: float
    p_values: dict
    t_stats: dict
    elbo_trace: tuple
    n_checks: int
    elbo_decreases: int


def fit(data, hp, init_state=None):
    """Run coordinate ascent until the trace monitor converges or max_iter.

    Fits one Dataset under its Hyperparameters and returns (state, report).
    Given sequences of Datasets that share X, of Hyperparameters and, if
    any, of initial states, fits them as one batch and returns the list of
    states and the list of reports; each member stops at its own converged
    check or its own max_iter.  Deterministic for a given (data, hp, seed):
    identical runs produce identical parameter traces and reports.
    Non-convergence at max_iter is reported, not raised.  Every update
    should raise the ELBO, so each sweep that lowers it by more than
    ELBO_DECREASE_RTOL of its previous value is logged as a warning and
    counted in the report's elbo_decreases.
    """
    start = perf_counter()
    batched = not isinstance(data, Dataset)
    datasets = list(data) if batched else [data]
    hps = list(hp) if batched else [hp]
    B = len(datasets)
    inits = [None] * B if init_state is None else list(init_state) if batched else [init_state]
    if B == 0 or not len(hps) == len(inits) == B:
        raise ValidationError(
            f"a batch needs one hyperparameter set and initial state per dataset, got "
            f"{B} datasets, {len(hps)} hyperparameter sets and {len(inits)} initial states"
        )
    states = []
    for d, h, init in zip(datasets, hps, inits):
        state = init.copy() if init is not None else initial_state(d, h)
        state.validate()
        if state.n_snps != d.n_snps or state.n_traits != d.n_traits:
            raise ValidationError(
                f"state is for {state.n_snps} SNPs x {state.n_traits} traits, data has "
                f"{d.n_snps} x {d.n_traits}"
            )
        states.append(state)
    ws = _Workspace(datasets, hps)
    monitors = [TraceMonitor(burn_in=h.burn_in, check_interval=h.check_interval) for h in hps]
    elbo_traces = [[] for _ in range(B)]
    last_checks = [None] * B
    n_checks = [0] * B
    decreases = [0] * B
    results = [None] * B
    active = list(range(B))
    stack = VariationalState.stack(states)
    n_sweeps = 0

    while active:
        sweep(stack, [datasets[b] for b in active], [hps[b] for b in active], workspace=ws)
        n_sweeps += 1
        staying = []
        for i, b in enumerate(active):
            member = stack.member(i)
            trace = elbo_traces[b]
            trace.append(elbo(member, datasets[b], hps[b]))
            if len(trace) > 1 and trace[-2] - trace[-1] > ELBO_DECREASE_RTOL * abs(trace[-2]):
                decreases[b] += 1
                logger.warning(
                    "%siteration %d: elbo fell from %.6f to %.6f",
                    f"batch member {b}: " if batched else "",
                    member.iteration,
                    trace[-2],
                    trace[-1],
                )
            monitors[b].record(member)
            converged = False
            if monitors[b].ready():
                last_checks[b] = check = check_convergence(monitors[b], hps[b])
                n_checks[b] += 1
                logger.info(
                    "%siteration %d: elbo=%.6f p-values=%s",
                    f"batch member {b}: " if batched else "",
                    member.iteration,
                    trace[-1],
                    {blk: round(p, 4) for blk, p in check.p_values.items()},
                )
                converged = check.converged
            if not (converged or n_sweeps >= hps[b].max_iter):
                staying.append(i)
                continue
            final = member.copy()
            check = last_checks[b]
            results[b] = final, FitReport(
                converged=converged,
                iterations=final.iteration,
                final_elbo=trace[-1],
                k_effective=final.effective_k(),
                wall_seconds=perf_counter() - start,
                p_values=dict(check.p_values) if check else {},
                t_stats=dict(check.t_stats) if check else {},
                elbo_trace=tuple(trace),
                n_checks=n_checks[b],
                elbo_decreases=decreases[b],
            )
        if len(staying) < len(active):
            active = [active[i] for i in staying]
            if active:
                stack = VariationalState.stack([stack.member(i) for i in staying])
                ws = _Workspace([datasets[b] for b in active], [hps[b] for b in active])

    if not batched:
        return results[0]
    return [r[0] for r in results], [r[1] for r in results]
