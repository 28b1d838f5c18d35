import numpy as np
import pytest

import berrri.engine
from berrri import Dataset, Hyperparameters, VariationalState
from berrri.engine import update_A, update_eta, update_kappa, update_lambda


def random_dataset(n=4, q=3, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, q)).astype(float)
    Y = rng.normal(size=(n, p))
    return Dataset(X=X, Y=Y)


def random_state(q=3, p=4, k=2, seed=0):
    rng = np.random.default_rng(seed + 1000)
    return VariationalState(
        lam=rng.uniform(0.5, 3.0, size=(k, 2)),
        eta=rng.uniform(0.05, 0.95, size=(q, k)),
        phi=rng.normal(scale=0.7, size=(k, p)),
        varphi=rng.uniform(0.1, 2.0, size=(k, p)),
        kappa=rng.uniform(0.5, 3.0, size=(k, p, 2)),
    )


def micro_instance(n=4, q=3, p=4, k=2, seed=0, **hp_kwargs):
    data = random_dataset(n, q, p, seed)
    defaults = dict(k_max=k, c=0.7, d=1.3, sigma2=0.8, alpha=1.5)
    defaults.update(hp_kwargs)
    hp = Hyperparameters(**defaults)
    state = random_state(q, p, k, seed)
    return data, hp, state


def compose_public_updates(state, data, hp, after=lambda: None):
    """One sweep as the public updates, one entry at a time in sweep order:
    lambda per factor, eta per factor and SNP, A per factor, kappa per
    factor and trait.  `after` is called after every update."""
    K, Q, P = state.k_max, state.n_snps, state.n_traits
    for k in range(K):
        update_lambda(state, hp, k)
        after()
    for k in range(K):
        for q in range(Q):
            update_eta(state, data, hp, k, q)
            after()
    for k in range(K):
        update_A(state, data, hp, k)
        after()
    for k in range(K):
        for p in range(P):
            update_kappa(state, hp, k, p)
            after()


def record_row_blocks(monkeypatch, entries: int) -> list:
    """Make the engine form residuals in blocks of `entries` per member and
    record the (start, stop) rows of every block it forms from then on;
    returns the list they are appended to."""
    monkeypatch.setattr(berrri.engine, "RESIDUAL_BLOCK_ENTRIES", entries)
    real = berrri.engine._factor_residual_blocks
    seen = []

    def recorded(*args):
        for rows, R in real(*args):
            seen.append((rows.start, rows.stop))
            yield rows, R

    monkeypatch.setattr(berrri.engine, "_factor_residual_blocks", recorded)
    return seen


@pytest.fixture
def micro():
    return micro_instance()
