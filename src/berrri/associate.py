"""SNP-trait association scores and permutation FDR.

The score for pair (q, p) is the magnitude of the posterior-mean
reconstruction coefficient (E[Z] @ E[A])[q, p]; the signed matrix is kept for
effect-direction reporting.  Significance is calibrated by refitting on
row-shuffled trait matrices and pooling the resulting scores as a global null.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import engine
from .engine import fit
from .errors import ValidationError
from .metrics import _count_at_least
from .streams import child_rng, child_seed_sequence
from .types import Dataset, Hyperparameters, VariationalState, is_real, require_integer

__all__ = [
    "AssociationScores",
    "vmap",
    "vmap_signed",
    "permute_labels",
    "fdr_threshold",
    "run_permutation_fdr",
]


def _check_fdr_target(fdr_target: float):
    if not (is_real(fdr_target) and 0.0 < fdr_target < 1.0):
        raise ValidationError(f"fdr_target must lie in (0, 1), got {fdr_target!r}")


@dataclass(frozen=True)
class AssociationScores:
    """The permutation-FDR calibration of a fit's scores, `vmap(state)`.

    threshold is None when no score reaches the FDR target, and
    `discoveries(state)` applies it.  null_scores pools the permutation
    refits' scores; permutation_reports holds the FitReport of each refit.
    """

    fdr_target: float
    threshold: Optional[float] = None
    null_scores: Optional[np.ndarray] = None
    permutation_reports: tuple = ()

    def __post_init__(self):
        _check_fdr_target(self.fdr_target)

    @property
    def n_permutations(self) -> int:
        return len(self.permutation_reports)

    def discoveries(self, state: VariationalState) -> np.ndarray:
        """Boolean Q x P matrix: the state's scores at or above the
        threshold, all False when there is none."""
        scores = vmap(state)
        if self.threshold is None:
            return np.zeros_like(scores, dtype=bool)
        return scores >= self.threshold


def vmap_signed(state: VariationalState) -> np.ndarray:
    """Posterior-mean reconstruction coefficients E[Z] @ E[A], with sign."""
    return state.eta @ state.phi


def vmap(state: VariationalState) -> np.ndarray:
    """Association score magnitudes |E[Z] @ E[A]| per SNP-trait pair."""
    return np.abs(vmap_signed(state))


def permute_labels(data: Dataset, seed) -> Dataset:
    """Shuffle the sample labels of the trait matrix (X stays untouched)."""
    if data.n_individuals < 2:
        raise ValidationError("need at least 2 individuals to permute")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(data.n_individuals)
    return replace(data, Y=data.Y[perm])


def fdr_threshold(real_scores, null_scores, fdr_target: float) -> Optional[float]:
    """Smallest observed real score usable as a significance cutoff.

    The FDR estimate at cutoff t is (#null >= t / #real >= t) scaled by the
    ratio of real to null test counts.  The returned threshold is the smallest
    real score such that the estimate stays at or below the target for it and
    every larger candidate, so the declared set is stable under raising the
    cutoff; None when no candidate qualifies.  A NaN score in either set is
    an error naming the set and its index (in the flattened scores).
    """
    real = np.asarray(real_scores, dtype=np.float64).ravel()
    null = np.asarray(null_scores, dtype=np.float64).ravel()
    if real.size == 0 or null.size == 0:
        raise ValidationError("both real and null score sets must be non-empty")
    for name, scores in (("real", real), ("null", null)):
        if np.isnan(scores).any():
            raise ValidationError(f"{name} score at index {np.flatnonzero(np.isnan(scores))[0]} is NaN")
    _check_fdr_target(fdr_target)
    scale = real.size / null.size

    candidates = np.unique(real)[::-1]                 # descending
    n_ge_real = _count_at_least(real, candidates)
    n_ge_null = _count_at_least(null, candidates)

    # every candidate is an observed real score, so n_ge_real >= 1
    worst = np.maximum.accumulate(n_ge_null / n_ge_real * scale)  # max estimate over cutoffs >= t
    n_usable = np.searchsorted(worst, fdr_target, side="right")
    return float(candidates[n_usable - 1]) if n_usable else None


def run_permutation_fdr(
    data: Dataset,
    hp: Hyperparameters,
    fdr_target: float = 0.1,
    n_permutations: int = 10,
):
    """Fit on real data, refit on permuted data, pool a global null, threshold.

    Returns (AssociationScores, VariationalState, FitReport) for the real fit.
    The real fit and the permutation refits run as one batch of one model:
    the real fit is batch member 0 and permutation j is member j + 1.  The
    members share `hp` and differ only in their traits and their initial
    state: `fit` builds the real fit's start itself, and permutation j starts
    from `initial_state` under its own derived seed.  Every member's result
    is bit for bit that of its fit on its own, so the real fit and its report
    equal `fit(data, hp)` exactly.  An unconverged permutation fit (`fit`
    logs a warning naming it) is kept: its scores are still valid null draws.
    """
    require_integer(n_permutations, "n_permutations")
    if n_permutations < 1:
        raise ValidationError(f"n_permutations must be >= 1, got {n_permutations}")
    _check_fdr_target(fdr_target)
    shuffled = [
        permute_labels(data, child_rng(hp.seed, "fdr-permutation", j)) for j in range(n_permutations)
    ]
    starts = [None]                                    # the real fit starts as `fit` starts it
    for j, d in enumerate(shuffled):
        seed = int(child_seed_sequence(hp.seed, "fdr-fit", j).generate_state(1)[0])
        starts.append(engine.initial_state(d, replace(hp, seed=seed)))
    (state, *perm_states), (report, *perm_reports) = fit([data, *shuffled], hp, starts)
    null = np.concatenate([vmap(s).ravel() for s in perm_states])
    result = AssociationScores(
        fdr_target=fdr_target,
        threshold=fdr_threshold(vmap(state).ravel(), null, fdr_target),
        null_scores=null,
        permutation_reports=tuple(perm_reports),
    )
    return result, state, report
