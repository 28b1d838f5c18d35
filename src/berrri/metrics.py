"""Evaluation harness: reconstruction error, precision/recall against the
planted mask, and the per-sweep wall-clock time.

The precision/recall machinery is method-agnostic: any Q x P score matrix can
be evaluated against a binary truth mask, including score files produced by
external methods.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from . import engine
from .errors import ValidationError
from .types import BatchData, Dataset, Hyperparameters, owned_array

__all__ = [
    "PRCurve",
    "rss",
    "precision_recall",
    "per_sweep_seconds",
]

MAX_PR_THRESHOLDS = 500


def rss(y_true, y_pred) -> float:
    """Residual sum of squares over all matrix entries."""
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).sum())


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall at a strictly decreasing list of score thresholds;
    the area under the curve follows from them."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    def __post_init__(self):
        t, pr, rc = (owned_array(a, np.float64) for a in (self.thresholds, self.precision, self.recall))
        if not (t.shape == pr.shape == rc.shape) or t.ndim != 1 or t.size == 0:
            raise ValidationError("curve arrays must be equal-length non-empty vectors")
        if t.size > 1 and not (np.diff(t) < 0).all():
            raise ValidationError("thresholds must be strictly decreasing")
        if ((pr < 0) | (pr > 1)).any() or ((rc < 0) | (rc > 1)).any():
            raise ValidationError("precision and recall must lie in [0, 1]")
        if t.size > 1 and (np.diff(rc) < 0).any():
            raise ValidationError("recall must be non-increasing in the threshold")
        for name, arr in (("thresholds", t), ("precision", pr), ("recall", rc)):
            object.__setattr__(self, name, arr)

    @property
    def auc(self) -> float:
        """The step-wise average precision sum_i (r_i - r_{i-1}) p_i over
        the thresholds, with r_0 = 0."""
        return float(np.sum(np.diff(self.recall, prepend=0.0) * self.precision))

    def precision_at_recall(self, level: float) -> Optional[float]:
        """Precision at the first (largest) threshold reaching the recall level."""
        hit = np.nonzero(self.recall >= level)[0]
        return float(self.precision[hit[0]]) if hit.size else None

    def rows(self):
        return list(zip(self.thresholds, self.precision, self.recall))


def _count_at_least(values: np.ndarray, t) -> np.ndarray:
    """How many of `values` are >= each threshold in `t`, by binary search."""
    ranked = np.sort(values)
    return ranked.size - np.searchsorted(ranked, t, side="left")


def precision_recall(scores, mask, thresholds=None) -> PRCurve:
    """PR curve of a score matrix against a binary truth mask.

    Default thresholds are the unique observed scores in descending order,
    subsampled to at most 500 points.  Precision with zero predictions is 1.
    A NaN score is an error naming its cell; infinite scores are allowed.
    """
    s = np.asarray(scores, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if s.shape != m.shape:
        raise ValidationError(f"shape mismatch: scores {s.shape} vs mask {m.shape}")
    if np.isnan(s).any():
        row, col = np.argwhere(np.isnan(np.atleast_2d(s)))[0]
        raise ValidationError(f"score at row {row}, column {col} is NaN")
    positives = int(m.sum())
    if positives == 0:
        raise ValidationError("mask has no positive entries")

    if thresholds is None:
        t = np.unique(s)[::-1]
        if t.size > MAX_PR_THRESHOLDS:
            idx = np.unique(np.linspace(0, t.size - 1, MAX_PR_THRESHOLDS).round().astype(int))
            t = t[idx]
    else:
        t = np.asarray(thresholds, dtype=np.float64)

    tp = _count_at_least(s[m], t)
    n_pred = _count_at_least(s.ravel(), t)
    precision = np.where(n_pred > 0, tp / np.maximum(n_pred, 1), 1.0)
    recall = tp / positives
    return PRCurve(thresholds=t, precision=precision, recall=recall)


def per_sweep_seconds(
    data: Dataset,
    hp: Hyperparameters,
    n_sweeps: int = 5,
    warmup: int = 2,
) -> float:
    """Average wall-clock seconds per coordinate sweep on the given data."""
    state = engine.initial_state(data, hp).as_batch()
    batch = BatchData([data])
    for _ in range(warmup):
        engine.sweep(state, batch, hp)
    start = perf_counter()
    for _ in range(n_sweeps):
        engine.sweep(state, batch, hp)
    return (perf_counter() - start) / n_sweeps
