import numpy as np
import pytest
from scipy.special import digamma, expit

from berrri import Dataset, EngineError, Hyperparameters, SimConfig, elbo, initial_state, simulate
from berrri.engine import _eta_factor_update, _prior_logits, update_A, update_eta, update_kappa, update_lambda
from berrri.types import BatchData

from conftest import micro_instance
from oracles import effect_row_oracle, kappa_conjugate_oracle, lambda_conjugate_oracle


class TestLambdaUpdate:
    def test_all_included(self):
        _, hp, state = micro_instance(q=3, k=2, alpha=1.0)
        state.eta[:, 0] = 1.0
        l1, l2 = update_lambda(state, hp, 0)
        assert l1 == pytest.approx(3.5) and l2 == pytest.approx(1.0)

    def test_empty_factor(self):
        data, hp, state = micro_instance(q=5, alpha=2.0)
        state.eta[:, 1] = 0.0
        l1, l2 = update_lambda(state, hp, 1)
        assert l1 == pytest.approx(hp.alpha / state.k_max) and l2 == pytest.approx(6.0)

    def test_half_included(self):
        _, hp, state = micro_instance(q=2, k=4, alpha=2.0)
        state.eta[:, 2] = 0.5
        l1, l2 = update_lambda(state, hp, 2)
        assert l1 == pytest.approx(1.5) and l2 == pytest.approx(2.0)

    def test_matches_conjugate_oracle(self):
        _, hp, state = micro_instance(q=4, k=2, seed=9)
        for k in range(2):
            l1, l2 = update_lambda(state, hp, k)
            o1, o2 = lambda_conjugate_oracle(state.eta[:, k], hp.alpha, state.k_max)
            assert l1 == pytest.approx(o1, abs=1e-12) and l2 == pytest.approx(o2, abs=1e-12)


class TestEtaUpdate:
    def test_null_predictor_reduces_to_prior(self):
        data, hp, state = micro_instance(n=4, q=3, seed=3)
        X = data.X.copy()
        X[:, 1] = 0.0
        data = Dataset(X=X, Y=data.Y)
        new = update_eta(state, data, hp, k=0, q=1)
        expected = expit(digamma(state.lam[0, 0]) - digamma(state.lam[0, 1]))
        assert new == pytest.approx(expected, abs=1e-12)

    def test_symmetric_prior_and_no_data_gives_half(self):
        data, hp, state = micro_instance(n=3, q=2, seed=4)
        X = np.zeros_like(data.X)
        data = Dataset(X=X, Y=data.Y)
        state.lam[1] = (2.3, 2.3)
        assert update_eta(state, data, hp, k=1, q=0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_elbo_grid_argmax(self):
        # 4 x 3 x 4 x 2 instance; the update must sit at the grid argmax of
        # the ELBO over this single coordinate
        data, hp, state = micro_instance(n=4, q=3, p=4, k=2, seed=6)
        grid = np.linspace(1e-9, 1 - 1e-9, 20001)
        for (k, q) in [(0, 0), (1, 2)]:
            values = np.empty(grid.size)
            probe = state.copy()
            for i, g in enumerate(grid):
                probe.eta[q, k] = g
                values[i] = elbo(probe, data, hp)
            best = grid[int(np.argmax(values))]
            got = update_eta(state.copy(), data, hp, k, q)
            assert abs(got - best) < 1e-4

    def test_equals_first_step_of_factor_sweep(self):
        # update_eta and the sweep take their logit terms from one helper,
        # so SNP 0 of a factor's kernel sweep is the single update bit for bit
        for seed, sigma2 in ((1, 1.0), (5, 0.7)):
            data, _ = simulate(SimConfig(n_individuals=60, n_snps=12, n_traits=6, k_true=2, seed=seed))
            hp = Hyperparameters(k_max=4, sigma2=sigma2)
            state = initial_state(data, hp)
            for k in range(state.k_max):
                swept = state.as_batch().copy()
                _eta_factor_update(swept, BatchData([data]), hp.sigma2, k, _prior_logits(swept.lam[:, k]))
                assert update_eta(state.copy(), data, hp, k, 0) == swept.eta[0, 0, k]

    def test_nonfinite_logit_aborts(self):
        data, hp, state = micro_instance(seed=1)
        state.phi[0] = 1e200
        state.varphi[0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(EngineError, match="non-finite"):
            update_eta(state, data, hp, 0, 0)


class TestEffectUpdate:
    def test_inactive_factor_returns_prior(self):
        data, hp, state = micro_instance(seed=8)
        state.eta[:, 0] = 0.0
        phi_k, varphi_k = update_A(state, data, hp, 0)
        assert np.allclose(phi_k, 0.0)
        assert np.allclose(varphi_k, state.kappa[0, :, 1] / state.kappa[0, :, 0])

    def test_infinite_noise_returns_prior(self):
        data, _, state = micro_instance(seed=8)
        hp = Hyperparameters(k_max=2, sigma2=1e300, c=0.7, d=1.3)
        phi_k, varphi_k = update_A(state, data, hp, 1)
        assert np.allclose(phi_k, 0.0, atol=1e-12)
        assert np.allclose(varphi_k, state.kappa[1, :, 1] / state.kappa[1, :, 0])

    def test_matches_normal_equations_oracle(self):
        # 4 x 3 x 4 x 2 instance against enumeration + per-trait normal
        # equations
        data, hp, state = micro_instance(n=4, q=3, p=4, k=2, seed=10)
        for k in range(2):
            mean, var = effect_row_oracle(state, data, hp, k)
            phi_k, varphi_k = update_A(state, data, hp, k)
            assert np.allclose(phi_k, mean, atol=1e-8)
            assert np.allclose(varphi_k, var, atol=1e-8)

    def test_invalid_kappa_aborts(self):
        data, hp, state = micro_instance(seed=2)
        state.kappa[0, 0, 1] = np.inf
        state.eta[:, 0] = 0.0  # zero data precision, prior side must carry
        with pytest.raises(EngineError, match="positive definite"):
            update_A(state, data, hp, 0)


class TestKappaUpdate:
    def test_shape_parameter_is_constant(self):
        _, hp, state = micro_instance()
        k1, _ = update_kappa(state, hp, 0, 0)
        assert k1 == pytest.approx(hp.c + 0.5)

    def test_zero_effect_gives_rate_d(self):
        _, hp, state = micro_instance()
        state.phi[0, 1] = 0.0
        state.varphi[0, 1] = 1e-300
        _, k2 = update_kappa(state, hp, 0, 1)
        assert k2 == pytest.approx(hp.d, rel=1e-12)

    def test_direct_substitution(self):
        _, _, state = micro_instance()
        hp = Hyperparameters(k_max=2, c=1e-3, d=1e-3)
        state.phi[1, 2] = 2.0
        state.varphi[1, 2] = 1.0
        k1, k2 = update_kappa(state, hp, 1, 2)
        assert k1 == pytest.approx(0.5 + 1e-3)
        assert k2 == pytest.approx(1e-3 + 2.5)

    def test_matches_quadrature_oracle(self):
        _, hp, state = micro_instance(seed=12)
        for (k, p) in [(0, 0), (1, 3)]:
            k1, k2 = update_kappa(state, hp, k, p)
            o1, o2 = kappa_conjugate_oracle(state.phi[k, p], state.varphi[k, p], hp.c, hp.d)
            assert k1 == pytest.approx(o1, abs=1e-10) and k2 == pytest.approx(o2, rel=1e-8)


class TestPerUpdateMonotonicity:
    def test_every_update_raises_elbo(self):
        data, hp, state = micro_instance(n=5, q=4, p=3, k=2, seed=21)
        before = elbo(state, data, hp)
        steps = [
            lambda: update_lambda(state, hp, 0),
            lambda: update_lambda(state, hp, 1),
            lambda: update_eta(state, data, hp, 0, 0),
            lambda: update_eta(state, data, hp, 1, 3),
            lambda: update_A(state, data, hp, 0),
            lambda: update_A(state, data, hp, 1),
            lambda: update_kappa(state, hp, 0, 2),
            lambda: update_kappa(state, hp, 1, 0),
        ]
        for step in steps:
            step()
            after = elbo(state, data, hp)
            assert after >= before - 1e-10 * abs(before)
            before = after
