import numpy as np
import pytest

from berrri import FitReport, Hyperparameters, ValidationError, check_convergence, geweke_statistic
from berrri.engine import TRACE_BLOCKS

# one sweep's block means, one per block in TRACE_BLOCKS order
MEANS = (0.5, 0.4, 0.1, 0.2, 1.5)


class TestGewekeStatistic:
    def test_constant_trace_converges(self):
        t, p, degenerate = geweke_statistic(np.full(200, 3.5))
        assert t == 0.0 and p == 1.0 and degenerate

    def test_constant_trace_with_rounding_noise_converges(self):
        # 3.7 is not exactly representable, so segment means carry 1-ulp
        # noise; the sqrt(s/n) floor still yields p ~ 1
        _, p, _ = geweke_statistic(np.full(200, 3.7))
        assert p > 0.9

    def test_flat_segments_at_different_levels_do_not_converge(self):
        trace = np.concatenate([np.zeros(30), np.ones(270)])
        t, p, degenerate = geweke_statistic(trace)
        assert p == 0.0 and degenerate

    def test_strong_drift_detected(self):
        rng = np.random.default_rng(0)
        trace = 0.05 * np.arange(400) + rng.normal(0, 0.1, 400)
        _, p, _ = geweke_statistic(trace)
        assert p < 0.05

    def test_stationary_noise_converges(self):
        rng = np.random.default_rng(1)
        _, p, _ = geweke_statistic(rng.normal(size=400))
        assert p > 0.05

    def test_short_trace_rejected(self):
        with pytest.raises(ValidationError, match="too short"):
            geweke_statistic(np.ones(15))

    def test_segment_sizes(self):
        # 10% head vs 50% tail, both need at least two points
        geweke_statistic(np.random.default_rng(2).normal(size=20))
        with pytest.raises(ValidationError):
            geweke_statistic(np.random.default_rng(2).normal(size=19))


class TestFitReport:
    def test_records_one_scalar_per_block_per_iteration(self):
        mon = FitReport(burn_in=2, check_interval=5)
        for _ in range(7):
            mon.record(MEANS, -1.0)
        assert mon.iterations == 7
        for block in TRACE_BLOCKS:
            assert len(mon.traces[block]) == 7
        assert mon.elbo_trace == [-1.0] * 7 and mon.elbo_decreases == 0

    def test_post_burn_slices_off_burn_in(self):
        mon = FitReport(burn_in=3, check_interval=5)
        for _ in range(10):
            mon.record(MEANS, -1.0)
        assert mon.post_burn("eta").size == 7

    def test_ready_needs_cadence_and_min_length(self):
        mon = FitReport(burn_in=5, check_interval=10)
        for i in range(1, 41):
            mon.record(MEANS, -1.0)
            if i < 30:
                assert not mon.ready() or i % 10 != 0 or i - 5 >= 20
        assert mon.iterations == 40 and mon.ready()


class TestCheckConvergence:
    def _monitor_with(self, traces):
        mon = FitReport(burn_in=0, check_interval=1)
        n = len(next(iter(traces.values())))
        for block in TRACE_BLOCKS:
            mon.traces[block] = list(traces.get(block, np.zeros(n)))
        return mon

    def test_converged_requires_all_blocks(self):
        rng = np.random.default_rng(3)
        flat = {b: rng.normal(size=300) for b in TRACE_BLOCKS}
        hp = Hyperparameters()
        assert check_convergence(self._monitor_with(flat), hp).converged
        drifting = dict(flat)
        drifting["kappa"] = 0.05 * np.arange(300) + rng.normal(0, 0.01, 300)
        result = check_convergence(self._monitor_with(drifting), hp)
        assert not result.converged
        assert result.p_values["kappa"] < 0.05
        assert result.p_values["eta"] > 0.05

    def test_reports_degenerate_blocks(self):
        traces = {b: np.ones(100) for b in TRACE_BLOCKS}
        result = check_convergence(self._monitor_with(traces), Hyperparameters())
        assert result.converged
        assert set(result.degenerate) == set(TRACE_BLOCKS)


class TestMonitorCalibration:
    def test_iid_traces_pass_most_of_the_time(self):
        # stationary unit-variance traces: the test should accept ~95%
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, p, _ = geweke_statistic(rng.normal(size=1000))
            hits += p > 0.05
        assert hits >= 90

    def test_drifting_traces_fail_almost_always(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            trace = 0.01 * np.arange(1000) + rng.normal(0, 0.05, 1000)
            _, p, _ = geweke_statistic(trace)
            hits += p <= 0.05
        assert hits >= 95
