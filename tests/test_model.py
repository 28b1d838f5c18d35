import tracemalloc

import numpy as np
import pytest

from berrri import Dataset, Hyperparameters, ValidationError, elbo, fit
from berrri.model import entropy, expected_log_joint, expected_residual_ss
from berrri.types import BatchData, VariationalState

from conftest import micro_instance, random_state
from oracles import elbo_enum, log_marginal_quad


def high_signal_instance(n=3, q=2, p=2, k=2, seed=0):
    """Traits that the state's posterior mean nearly reproduces: ||Y||^2 is
    over a thousand times the residual, so a data term computed as
    ||Y||^2 - 2 <phi, M^T Y> + <M^T M, phi phi^T> cancels heavily."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, q)).astype(float)
    X[0] = 1.0  # every SNP carries an allele, so every factor loads
    state = random_state(q, p, k, seed)
    state.eta = np.where(rng.random((q, k)) < 0.5, 1e-3, 1.0 - 1e-3)
    state.phi = rng.normal(scale=20.0, size=(k, p))
    state.varphi = np.full((k, p), 1e-4)
    Y = X @ state.eta @ state.phi + rng.normal(scale=0.1, size=(n, p))
    hp = Hyperparameters(k_max=k, c=0.7, d=1.3, sigma2=0.8, alpha=1.5)
    return Dataset(X=X, Y=Y), hp, state


def direct_residual_ss(state, data):
    """E_q ||Y - X Z A||^2 summed from the explicit N x P residual."""
    M = data.X @ state.eta
    V = (data.X**2).sum(axis=0) @ (state.eta * (1.0 - state.eta))
    S = (M**2).sum(axis=0) + V
    R = data.Y - M @ state.phi
    return (R**2).sum() + S @ state.varphi.sum(axis=1) + V @ (state.phi**2).sum(axis=1)


class TestElbo:
    def test_matches_enumeration_oracle(self):
        for data, hp, state in (
            micro_instance(n=3, q=2, p=2, k=2, seed=2),
            high_signal_instance(seed=4),
        ):
            assert elbo(state, data, hp) == pytest.approx(elbo_enum(state, data, hp), rel=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_data_term_survives_cancellation(self, seed):
        data, _, state = high_signal_instance(n=40, q=6, p=5, k=3, seed=seed)
        M = data.X @ state.eta
        rss = ((data.Y - M @ state.phi) ** 2).sum()
        assert (data.Y**2).sum() >= 1e3 * rss
        assert expected_residual_ss(state, data) == pytest.approx(direct_residual_ss(state, data), rel=1e-9)

    def test_forms_no_n_by_p_array(self):
        n = p = 400
        q, k = 40, 8
        rng = np.random.default_rng(0)
        X = rng.integers(0, 3, size=(n, q)).astype(float)
        datasets = [Dataset(X=X, Y=rng.normal(size=(n, p))) for _ in range(3)]
        hp = Hyperparameters(k_max=k)
        states = [random_state(q, p, k, seed=b) for b in range(3)]
        # one fit, and a batch of three that shares X
        for members, args in (
            (1, (states[0], datasets[0], hp)),
            (3, (VariationalState.stack(states), BatchData(datasets), hp)),
        ):
            elbo(*args)  # warm-up, so one-time allocations are not counted
            tracemalloc.start()
            try:
                elbo(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # an explicit residual Y - M @ phi alone would take one whole
            # N x P array per member; the K x P temporaries scale with the
            # batch, so the bound is a quarter of that per member
            assert peak < members * n * p * 8 / 4

    def test_batch_gives_each_members_value(self):
        # members differ in traits and state, under hyperparameters away
        # from every default
        data, hp, _ = micro_instance(n=6, q=5, p=4, k=3, seed=60)
        rng = np.random.default_rng(61)
        datasets = [data] + [Dataset(X=data.X, Y=rng.normal(size=data.Y.shape)) for _ in range(2)]
        states = [random_state(q=5, p=4, k=3, seed=62 + b) for b in range(3)]
        batch, batch_data = VariationalState.stack(states), BatchData(datasets)
        for fn, args, member_args in (
            (elbo, (batch, batch_data, hp), zip(states, datasets, [hp] * 3)),
            (expected_log_joint, (batch, batch_data, hp), zip(states, datasets, [hp] * 3)),
            (expected_residual_ss, (batch, batch_data), zip(states, datasets)),
            (entropy, (batch,), zip(states)),
        ):
            got = fn(*args)
            assert got.shape == (3,)
            # no product sums across members, so each value is exactly its own
            assert (got == [fn(*m) for m in member_args]).all(), fn.__name__

    def test_batch_data_needs_one_genotype_matrix_and_one_entry_per_member(self):
        data, hp, state = micro_instance(n=6, q=5, p=4, k=2, seed=63)
        other, _, _ = micro_instance(n=6, q=5, p=4, k=2, seed=64)
        batch = VariationalState.stack([state, state])
        with pytest.raises(ValidationError, match="share the genotype matrix"):
            BatchData([data, other])
        with pytest.raises(ValidationError, match="as many members"):
            elbo(batch, BatchData([data]), hp)
        with pytest.raises(ValidationError, match="a single state needs its Dataset"):
            elbo(state, BatchData([data]), hp)

    def test_decomposition_is_additive(self):
        data, hp, state = micro_instance(seed=5)
        assert elbo(state, data, hp) == pytest.approx(
            expected_log_joint(state, data, hp) + entropy(state), abs=1e-10
        )

    def test_invariant_under_factor_relabeling(self):
        data, hp, state = micro_instance(k=2, seed=3)
        swapped = state.copy()
        swapped.lam = state.lam[::-1].copy()
        swapped.eta = state.eta[:, ::-1].copy()
        swapped.phi = state.phi[::-1].copy()
        swapped.varphi = state.varphi[::-1].copy()
        swapped.kappa = state.kappa[::-1].copy()
        assert elbo(swapped, data, hp) == pytest.approx(elbo(state, data, hp), rel=1e-12)

    def test_bounded_by_log_marginal(self):
        # 2 individuals x 2 SNPs x 1 trait x 1 factor; the exact evidence comes
        # from enumerating Z and integrating A and delta numerically
        rng = np.random.default_rng(11)
        data = Dataset(X=rng.integers(0, 3, (2, 2)).astype(float), Y=rng.normal(size=(2, 1)))
        hp = Hyperparameters(k_max=1, c=1.0, d=1.0, sigma2=1.0, alpha=1.0, burn_in=10, max_iter=120)
        bound = log_marginal_quad(data, hp, k_max=1)
        for seed in range(20):
            state = random_state(q=2, p=1, k=1, seed=seed)
            assert elbo(state, data, hp) <= bound + 1e-9
        fitted, _ = fit(data, hp)
        fitted_elbo = elbo(fitted, data, hp)
        assert fitted_elbo <= bound + 1e-9
        # the optimized bound should come reasonably close to the evidence
        assert bound - fitted_elbo < 3.0
