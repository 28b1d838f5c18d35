import logging
from dataclasses import replace

import numpy as np
import pytest

import berrri.engine
from berrri import (
    Dataset,
    EngineError,
    Hyperparameters,
    SimConfig,
    ValidationError,
    elbo,
    fit,
    initial_state,
    permute_labels,
    simulate,
    sweep,
)
from berrri.metrics import rss
from berrri.types import BatchData, VariationalState

from conftest import compose_public_updates, micro_instance


def six_member_batch():
    """The batch of `test_each_batch_member_matches_its_serial_fit` with its
    members' starts: they leave at sweeps 50, 60 and 65."""
    data, _ = simulate(SimConfig(n_individuals=60, n_snps=12, n_traits=6, k_true=2, seed=1))
    datasets = [permute_labels(data, j) for j in range(6)]
    hp = Hyperparameters(k_max=4, burn_in=0, check_interval=10, max_iter=65)
    starts = [initial_state(d, replace(hp, seed=j)) for j, d in enumerate(datasets)]
    return datasets, hp, starts


class TestSweep:
    def test_matches_composition_of_public_updates(self):
        data, hp, state = micro_instance(n=5, q=4, p=3, k=2, seed=31)
        # a batch whose members differ in traits and state
        batch_data, batch_hp, first = micro_instance(n=6, q=5, p=4, k=3, seed=50)
        _, _, second = micro_instance(n=6, q=5, p=4, k=3, seed=51)
        datasets = [batch_data, permute_labels(batch_data, 1)]
        batch = VariationalState.stack([first, second])
        sweep(batch, BatchData(datasets), batch_hp)
        via_sweep = state.copy()
        sweep(via_sweep, data, hp)
        cases = [(via_sweep, state, data, hp)] + [
            (batch.member(b), start, d, batch_hp)
            for b, (start, d) in enumerate(zip([first, second], datasets))
        ]
        for swept, start, d, h in cases:
            manual = start.copy()
            compose_public_updates(manual, d, h)
            assert np.allclose(swept.lam, manual.lam, rtol=1e-12, atol=1e-14)
            assert np.allclose(swept.eta, manual.eta, rtol=1e-10, atol=1e-14)
            assert np.allclose(swept.phi, manual.phi, rtol=1e-10, atol=1e-14)
            assert np.allclose(swept.varphi, manual.varphi, rtol=1e-10, atol=1e-14)
            assert np.allclose(swept.kappa, manual.kappa, rtol=1e-10, atol=1e-14)

    def test_elbo_increases_on_first_sweep_from_random_init(self):
        cfg = SimConfig(n_individuals=40, n_snps=12, n_traits=6, k_true=2, seed=5)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=4, seed=5)
        state = initial_state(data, hp)
        before = elbo(state, data, hp)
        sweep(state, data, hp)
        assert elbo(state, data, hp) > before

    def test_fixed_point_is_idempotent(self):
        cfg = SimConfig(n_individuals=30, n_snps=8, n_traits=5, k_true=2, seed=2)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=3, seed=2)
        state = initial_state(data, hp)
        for _ in range(800):
            sweep(state, data, hp)
        frozen = state.copy()
        sweep(state, data, hp)
        for name in ("lam", "eta", "phi", "varphi", "kappa"):
            assert np.allclose(
                getattr(state, name), getattr(frozen, name), rtol=1e-12, atol=1e-12
            ), name

    def test_domain_preserved_after_sweeps(self):
        cfg = SimConfig(n_individuals=25, n_snps=10, n_traits=4, k_true=2, seed=9)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=4, seed=9)
        state = initial_state(data, hp)
        for _ in range(5):
            sweep(state, data, hp)
            state.validate()

    def test_nonfinite_logit_in_one_member_raises_before_writing(self):
        data, hp, state = micro_instance(n=6, q=5, p=4, k=3, seed=52)
        batch = VariationalState.stack([state, state])
        batch.phi[1, 1] = 1e200
        batch.varphi[1, 1] = 1e200
        before = batch.eta.copy()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            EngineError, match=r"factor 1, SNP 0 of batch member 1"
        ):
            sweep(batch, BatchData([data, data]), hp)
        assert not (batch.eta[:, :, 0] == before[:, :, 0]).all()  # factor 0 ran
        assert (batch.eta[:, :, 1] == before[:, :, 1]).all()


class TestFit:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(n_individuals=30, n_snps=10, n_traits=5, k_true=2, seed=3)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=4, seed=11, burn_in=20, check_interval=20, max_iter=120)
        s1, r1 = fit(data, hp)
        s2, r2 = fit(data, hp)
        assert r1 == r2
        assert (s1.eta == s2.eta).all() and (s1.phi == s2.phi).all()

    def test_truth_init_on_noiseless_data(self):
        # exact low-rank data with the state initialized at the truth stays
        # at the truth (up to ARD shrinkage) and converges at the first check
        rng = np.random.default_rng(17)
        N, Q, P, K = 60, 12, 6, 2
        X = rng.integers(0, 3, size=(N, Q)).astype(float)
        Z = np.zeros((Q, K))
        Z[1, 0] = Z[7, 1] = 1.0
        A = rng.normal(0, 0.8, size=(K, P))
        data = Dataset(X=X, Y=X @ Z @ A)
        # noiseless data, so the model is told the noise floor is tiny;
        # ARD shrinkage of the truth is then negligible
        hp = Hyperparameters(
            k_max=K, seed=0, sigma2=1e-4, burn_in=20, check_interval=20, max_iter=200
        )
        init = VariationalState(
            lam=np.column_stack([np.full(K, hp.alpha / K) + Z.sum(0), 1.0 + (1.0 - Z).sum(0)]),
            eta=np.clip(Z, 1e-9, 1 - 1e-9),
            phi=A.copy(),
            varphi=np.full((K, P), 1e-10),
            kappa=np.stack(
                [np.full((K, P), hp.c + 0.5), hp.d + (1e-10 + A**2) / 2.0], axis=-1
            ),
        )
        before = init.copy()
        state, report = fit(data, hp, init_state=init)
        assert report.converged
        assert len(report.checks) <= 2
        assert rss(data.Y, X @ state.eta @ state.phi) < 1e-3
        for name in ("lam", "eta", "phi", "varphi", "kappa"):
            assert np.array_equal(getattr(init, name), getattr(before, name)), name

    def test_nonconvergence_reported_not_raised(self):
        cfg = SimConfig(n_individuals=20, n_snps=6, n_traits=4, k_true=2, seed=4)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=2, seed=4, burn_in=2, check_interval=1000, max_iter=5)
        _, report = fit(data, hp)
        assert not report.converged
        assert report.iterations == 5

    def test_state_shape_mismatch_rejected(self):
        data, hp, state = micro_instance()
        other = Dataset(X=[[1, 0], [2, 1]], Y=[[0.1], [0.2]])
        with pytest.raises(ValidationError, match="state is for"):
            fit(other, hp, init_state=state)

    def test_each_batch_member_matches_its_serial_fit(self):
        # members converge at different check points (50, 60) and two stop
        # unconverged at max_iter (65); each leaves the batch on its own
        data, _ = simulate(SimConfig(n_individuals=60, n_snps=12, n_traits=6, k_true=2, seed=1))
        datasets = [permute_labels(data, j) for j in range(6)]
        hp = Hyperparameters(k_max=4, burn_in=0, check_interval=10, max_iter=65)
        hps = [replace(hp, seed=j) for j in range(6)]
        states, reports = fit(datasets, hp, [initial_state(d, h) for d, h in zip(datasets, hps)])
        outcomes = set()
        for d, h, st, rep in zip(datasets, hps, states, reports):
            alone, alone_rep = fit(d, h)
            assert rep == alone_rep
            assert rep.iterations == len(rep.elbo_trace)
            assert np.array_equal(st.eta, alone.eta)
            assert np.array_equal(st.phi, alone.phi)
            outcomes.add((rep.iterations, rep.converged))
        assert {(50, True), (60, True), (65, False)} <= outcomes

    def test_batch_builds_one_workspace(self, monkeypatch):
        # the batch's data is built once, not per sweep or ELBO; members
        # that leave only shrink the stacked traits and the scratch
        datasets, hp, starts = six_member_batch()
        built = []

        class CountingBatchData(BatchData):
            def __init__(self, members):
                built.append(len(members))
                super().__init__(members)

        monkeypatch.setattr(berrri.engine, "BatchData", CountingBatchData)
        monkeypatch.setattr(berrri.types, "BatchData", CountingBatchData)
        _, reports = fit(datasets, hp, starts)
        assert len({rep.iterations for rep in reports}) == 3
        assert built == [6]

    def test_report_keeps_every_check(self):
        # with burn_in 0 the first check needs a 20-sweep trace, then one
        # runs every 10th sweep until the member converges or reaches 65
        datasets, hp, starts = six_member_batch()
        _, reports = fit(datasets, hp, starts)
        assert {rep.converged for rep in reports} == {True, False}
        for rep in reports:
            assert [c.iteration for c in rep.checks] == list(range(20, rep.iterations + 1, 10))
            assert not any(c.converged for c in rep.checks[:-1])
            assert rep.checks[-1].converged == rep.converged

    def test_batch_rejects_mismatched_members(self):
        data, _ = simulate(SimConfig(n_individuals=20, n_snps=6, n_traits=3, k_true=2, seed=2))
        other, _ = simulate(SimConfig(n_individuals=20, n_snps=6, n_traits=3, k_true=2, seed=3))
        hp = Hyperparameters(k_max=2, burn_in=2, check_interval=5, max_iter=10)
        with pytest.raises(ValidationError, match="share the genotype matrix"):
            fit([data, other], hp)
        with pytest.raises(ValidationError, match="one initial state"):
            fit([data, data], hp, [initial_state(data, hp)])
        fewer = Dataset(X=data.X, Y=data.Y[:, :2])
        with pytest.raises(
            ValidationError, match=r"member 1 has traits of shape \(20, 2\), member 0 has \(20, 3\)"
        ):
            fit([data, fewer], hp)

    def test_sweep_count_covers_this_fit_only(self):
        # a start already swept twice: the report counts this fit's sweeps
        # only, and it can share a batch with a fresh start
        data, _ = simulate(SimConfig(n_individuals=20, n_snps=6, n_traits=3, k_true=2, seed=1))
        hp = Hyperparameters(k_max=2, burn_in=0, check_interval=10, max_iter=30)
        swept = initial_state(data, hp)
        for _ in range(2):
            sweep(swept, data, hp)
        _, report = fit(data, hp, init_state=swept)
        assert report.iterations == len(report.elbo_trace) <= hp.max_iter
        assert [c.iteration for c in report.checks] == list(range(20, report.iterations + 1, 10))
        fresh = initial_state(data, replace(hp, seed=1))
        states, reports = fit([data, data], hp, [swept, fresh])
        for start, st, rep in zip((swept, fresh), states, reports):
            alone, alone_rep = fit(data, hp, init_state=start)
            assert rep == alone_rep
            assert np.array_equal(st.eta, alone.eta) and np.array_equal(st.phi, alone.phi)

    def test_report_fields_consistent(self):
        cfg = SimConfig(n_individuals=30, n_snps=10, n_traits=5, k_true=2, seed=6)
        data, _ = simulate(cfg)
        hp = Hyperparameters(k_max=4, seed=6, burn_in=20, check_interval=20, max_iter=100)
        _, report = fit(data, hp)
        assert report.iterations <= hp.max_iter
        assert len(report.elbo_trace) == report.iterations
        assert report.final_elbo == report.elbo_trace[-1]

    def test_monotone_fit_reports_no_elbo_decrease(self, caplog):
        data, _ = simulate(SimConfig(n_individuals=30, n_snps=10, n_traits=5, k_true=2, seed=6))
        hp = Hyperparameters(k_max=4, seed=6, burn_in=20, check_interval=20, max_iter=100)
        with caplog.at_level(logging.WARNING, logger="berrri"):
            _, report = fit(data, hp)
        assert report.elbo_decreases == 0
        assert "elbo fell" not in caplog.text

    def test_elbo_decreases_counted_and_logged(self, monkeypatch, caplog):
        # drops of 1e-6 and 1 relative count; a 1e-9 relative dip, ties and rises do not
        values = [-100.0, -99.0, -99.0001, -99.0001, -99.0001001, -98.0, -196.0, -195.0]
        calls = iter(values)
        monkeypatch.setattr(berrri.engine, "elbo", lambda state, data, hp: np.full(len(data), next(calls)))
        data, _ = simulate(SimConfig(n_individuals=20, n_snps=6, n_traits=3, k_true=2, seed=1))
        hp = Hyperparameters(k_max=2, burn_in=5, check_interval=100, max_iter=len(values))
        with caplog.at_level(logging.WARNING, logger="berrri"):
            _, report = fit(data, hp)
        assert report.elbo_trace == values
        assert report.elbo_decreases == 2
        assert caplog.text.count("elbo fell") == 2
