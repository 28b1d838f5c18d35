import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from berrri import (
    Hyperparameters,
    ValidationError,
    precision_recall,
    rss,
)
from berrri.metrics import PRCurve, per_sweep_seconds
from berrri.simulate import SimConfig, simulate


class TestRss:
    def test_identical_matrices(self):
        m = np.arange(12.0).reshape(3, 4)
        assert rss(m, m) == 0.0

    def test_unit_shift(self):
        m = np.zeros((5, 7))
        assert rss(m, m + 1.0) == pytest.approx(35.0)

    @given(
        arrays(np.float64, (5, 4), elements=st.floats(-100, 100)),
        arrays(np.float64, (5, 4), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_oracle(self, a, b):
        expected = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(5) for j in range(4)
        )
        assert rss(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            rss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPrecisionRecall:
    def test_perfect_scorer(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        curve = precision_recall(mask.astype(float), mask, thresholds=[0.5])
        assert curve.precision[0] == 1.0 and curve.recall[0] == 1.0
        assert curve.auc == 1.0
        # default thresholds {1, 0}: the second adds recall 0 at precision 1/2
        assert precision_recall(mask.astype(float), mask).auc == 1.0

    def test_predict_everything(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.1, 1.0, size=(4, 5))
        mask = np.zeros((4, 5), dtype=bool)
        mask[0, :3] = True
        curve = precision_recall(scores, mask, thresholds=[0.05])
        assert curve.recall[0] == 1.0
        assert curve.precision[0] == pytest.approx(3 / 20)

    def test_hand_enumerated_case(self):
        scores = np.array([[0.9, 0.2, 0.8], [0.1, 0.7, 0.3], [0.6, 0.4, 0.5]])
        mask = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=bool)
        curve = precision_recall(scores, mask, thresholds=[0.85, 0.65, 0.45, 0.05])
        # counting oracle by hand:
        # t=0.85: pred {0.9}: tp 1 fp 0  -> p=1,    r=1/4
        # t=0.65: pred {0.9,0.8,0.7}: tp 2 fp 1 -> p=2/3, r=2/4
        # t=0.45: +{0.6,0.5}: tp 3 fp 2 -> p=3/5, r=3/4
        # t=0.05: all 9: tp 4 fp 5 -> p=4/9, r=1
        assert np.allclose(curve.precision, [1.0, 2 / 3, 3 / 5, 4 / 9])
        assert np.allclose(curve.recall, [0.25, 0.5, 0.75, 1.0])
        # step-wise average precision: each recall step of 1/4 at its precision
        assert curve.auc == pytest.approx(0.25 * (1 + 2 / 3 + 3 / 5 + 4 / 9), rel=1e-12)

    @given(
        arrays(np.float64, (4, 5), elements=st.sampled_from([-1.0, 0.0, 0.25, 0.5, np.inf])),
        arrays(bool, (4, 5)),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_match_a_comparison_at_every_threshold(self, scores, mask):
        assume(mask.any())
        for thresholds in (None, [2.0, 0.5, 0.1, -3.0]):
            curve = precision_recall(scores, mask, thresholds)
            for thr, p, r in curve.rows():
                predicted = scores >= thr
                tp = int((predicted & mask).sum())
                assert p == (tp / int(predicted.sum()) if predicted.any() else 1.0)
                assert r == tp / int(mask.sum())

    def test_default_thresholds_subsampled_and_decreasing(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(40, 30))
        mask = rng.uniform(size=(40, 30)) < 0.1
        curve = precision_recall(scores, mask)
        assert curve.thresholds.size <= 500
        assert (np.diff(curve.thresholds) < 0).all()
        assert (np.diff(curve.recall) >= 0).all()

    def test_precision_at_recall(self):
        scores = np.array([[0.9, 0.2, 0.8], [0.1, 0.7, 0.3], [0.6, 0.4, 0.5]])
        mask = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=bool)
        curve = precision_recall(scores, mask, thresholds=[0.85, 0.65, 0.45, 0.05])
        assert curve.precision_at_recall(0.75) == pytest.approx(3 / 5)
        assert curve.precision_at_recall(0.999) == pytest.approx(4 / 9)

    def test_curve_leaves_given_thresholds_writable(self):
        t = np.array([0.85, 0.45, 0.05])
        curve = precision_recall(np.array([[0.9, 0.1]]), np.array([[True, False]]), thresholds=t)
        assert t.flags.writeable and not curve.thresholds.flags.writeable
        t[0] = 2.0
        assert curve.thresholds[0] == 0.85

    @pytest.mark.parametrize("thresholds", [None, [0.3]])
    def test_nan_score_rejected_naming_its_cell(self, thresholds):
        scores = [[0.5, 0.4], [0.2, np.nan]]
        with pytest.raises(ValidationError, match="score at row 1, column 1 is NaN"):
            precision_recall(scores, [[True, False], [False, True]], thresholds)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            precision_recall(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_curve_invariants_enforced(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            PRCurve(
                thresholds=np.array([1.0, 1.0]),
                precision=np.array([1.0, 1.0]),
                recall=np.array([0.5, 0.5]),
            )


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the package needs none of it
    import berrri

    src = str(Path(berrri.__file__).resolve().parents[1])
    code = "import sys, berrri; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    )
    assert out.stdout.strip() == "False"


class TestTiming:
    def test_per_sweep_seconds_positive(self):
        data, _ = simulate(SimConfig(n_individuals=20, n_snps=8, n_traits=4, k_true=2, seed=0))
        hp = Hyperparameters(k_max=3)
        assert per_sweep_seconds(data, hp, n_sweeps=2, warmup=1) > 0
