from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrri import (
    Dataset,
    Hyperparameters,
    SimConfig,
    ValidationError,
    fdr_threshold,
    fit,
    permute_labels,
    run_permutation_fdr,
    simulate,
    vmap,
    vmap_signed,
)
from berrri.streams import child_rng

from conftest import random_state


class TestVmap:
    def test_zero_inclusions_give_zero_scores(self):
        state = random_state(q=4, p=3, k=2)
        state.eta[:] = 0.0
        assert (vmap(state) == 0.0).all()

    def test_single_factor_product(self):
        state = random_state(q=2, p=2, k=1)
        state.eta[:, 0] = 1.0
        state.phi[0] = (0.56, -0.56)
        scores = vmap(state)
        assert np.allclose(scores, 0.56)
        assert vmap_signed(state)[0, 1] == pytest.approx(-0.56)

    def test_matches_triple_loop_oracle(self):
        state = random_state(q=3, p=4, k=2, seed=5)
        got = vmap_signed(state)
        expected = np.zeros((3, 4))
        for q in range(3):
            for p in range(4):
                for k in range(2):
                    expected[q, p] += state.eta[q, k] * state.phi[k, p]
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(vmap(state), np.abs(expected), atol=1e-12)

    def test_bilinearity_in_phi(self):
        state = random_state(q=3, p=4, k=2, seed=6)
        base = vmap(state)
        scaled = state.copy()
        scaled.phi *= -2.5
        assert np.allclose(vmap(scaled), 2.5 * base, atol=1e-12)

    def test_zeroing_a_factor_removes_its_contribution(self):
        state = random_state(q=3, p=4, k=2, seed=7)
        full = vmap_signed(state)
        partial = state.copy()
        partial.eta[:, 1] = 0.0
        assert np.allclose(
            vmap_signed(partial), np.outer(state.eta[:, 0], state.phi[0]), atol=1e-12
        )
        assert not np.allclose(full, vmap_signed(partial))


class TestPermuteLabels:
    def test_identity_permutation_leaves_y_unchanged(self):
        data = Dataset(X=[[0], [1]], Y=[[1.0], [2.0]])
        identity_seed = next(
            s for s in range(100)
            if (np.random.default_rng(s).permutation(2) == (0, 1)).all()
        )
        permuted = permute_labels(data, identity_seed)
        assert (permuted.Y == data.Y).all()

    def test_marginals_preserved_and_x_untouched(self):
        rng = np.random.default_rng(0)
        data = Dataset(X=rng.integers(0, 3, (30, 4)).astype(float), Y=rng.normal(size=(30, 5)))
        permuted = permute_labels(data, 123)
        assert permuted.X is data.X
        assert np.allclose(permuted.Y.mean(0), data.Y.mean(0))
        assert np.allclose(permuted.Y.var(0), data.Y.var(0))
        assert not (permuted.Y == data.Y).all()

    def test_distinct_seeds_distinct_permutations_at_scale(self):
        data = Dataset(
            X=np.zeros((608, 1)), Y=np.arange(608, dtype=float).reshape(-1, 1)
        )
        seen = set()
        for s in range(100):
            seen.add(tuple(permute_labels(data, s).Y[:5, 0]))
        assert len(seen) == 100

    def test_needs_two_individuals(self):
        with pytest.raises(ValidationError, match="2 individuals"):
            permute_labels(Dataset(X=[[0]], Y=[[1.0]]), 0)


class TestFdrThreshold:
    def test_worked_example(self):
        real = [5, 4, 3, 2, 1]
        null = [3, 1, 0.5, 0.2, 0.1]
        assert fdr_threshold(real, null, 0.10) == pytest.approx(4.0)

    def test_perfect_separation_returns_min_real(self):
        real = [2.0, 3.0, 4.0]
        null = [0.1, 0.5, 0.9]
        assert fdr_threshold(real, null, 0.10) == pytest.approx(2.0)

    def test_exchangeable_scores_threshold_exists_about_half_the_time(self):
        # with real and null drawn from the same continuous distribution and
        # equal counts, a cutoff exists exactly when the top score is real,
        # i.e. with probability 1/2
        rng = np.random.default_rng(42)
        present = 0
        for _ in range(200):
            real = rng.normal(size=50)
            null = rng.normal(size=50)
            present += fdr_threshold(real, null, 0.10) is not None
        assert 0.38 <= present / 200 <= 0.62

    def test_monotone_in_target(self):
        rng = np.random.default_rng(3)
        real = rng.exponential(size=200)
        null = rng.exponential(size=400) * 0.3
        thresholds = []
        for target in (0.02, 0.05, 0.1, 0.2, 0.4):
            t = fdr_threshold(real, null, target)
            thresholds.append(np.inf if t is None else t)
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))

    def test_scaling_by_test_counts(self):
        real = [5.0, 1.0]
        null = [2.0, 2.0, 2.0, 2.0]
        # 1 null above t=5? none -> fdr 0; at t=1: 4 null / 2 real, scaled by
        # n_real/n_null = 1/2 -> 1.0
        assert fdr_threshold(real, null, 0.10) == pytest.approx(5.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            fdr_threshold([], [1.0], 0.1)

    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=30),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=30),
        st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition_at_every_candidate_with_ties(self, real, null, target):
        # the smallest real score whose estimate, and that of every larger
        # real score, is at or below the target
        def estimate(t):
            return sum(v >= t for v in null) / sum(v >= t for v in real) * (len(real) / len(null))

        usable = [t for t in set(real) if all(estimate(u) <= target for u in set(real) if u >= t)]
        assert fdr_threshold(real, null, target) == (min(usable) if usable else None)


class TestRunPermutationFdr:
    def _small(self, seed=0):
        cfg = SimConfig(n_individuals=40, n_snps=10, n_traits=5, k_true=2, seed=seed)
        data, truth = simulate(cfg)
        hp = Hyperparameters(
            k_max=4, seed=seed, burn_in=20, check_interval=20, max_iter=80
        )
        return data, truth, hp

    def test_single_permutation_matches_manual_pipeline(self):
        from berrri.streams import child_seed_sequence

        data, _, hp = self._small()
        scores, state, _ = run_permutation_fdr(data, hp, fdr_target=0.1, n_permutations=1)
        shuffled = permute_labels(data, child_rng(hp.seed, "fdr-permutation", 0))
        perm_seed = int(child_seed_sequence(hp.seed, "fdr-fit", 0).generate_state(1)[0])
        perm_state, _ = fit(shuffled, replace(hp, seed=perm_seed))
        manual_null = vmap(perm_state).ravel()
        assert np.array_equal(scores.null_scores, manual_null)
        manual_thr = fdr_threshold(vmap(state).ravel(), manual_null, 0.1)
        assert scores.threshold == manual_thr or (
            scores.threshold is None and manual_thr is None
        )

    def test_real_fit_equals_fit_on_its_own(self):
        # the real fit shares its batch with the permutation refits, which
        # leave it at other sweeps (65 for the real fit, [65, 50, 50] for
        # the permutations); it must still equal `fit` exactly
        data, _ = simulate(SimConfig(n_individuals=60, n_snps=12, n_traits=6, k_true=2, seed=4))
        hp = Hyperparameters(k_max=4, seed=2, burn_in=0, check_interval=10, max_iter=65)
        scores, state, report = run_permutation_fdr(data, hp, n_permutations=3)
        alone, alone_report = fit(data, hp)
        assert sorted({r.iterations for r in scores.permutation_reports}) == [50, 65]
        for name in ("lam", "eta", "phi", "varphi", "kappa"):
            assert np.array_equal(getattr(state, name), getattr(alone, name)), name
        assert report == alone_report
        assert np.array_equal(scores.vmap, vmap(alone))

    def test_deterministic(self):
        data, _, hp = self._small(seed=1)
        a, _, _ = run_permutation_fdr(data, hp, n_permutations=2)
        b, _, _ = run_permutation_fdr(data, hp, n_permutations=2)
        assert (a.vmap == b.vmap).all()
        assert (a.null_scores == b.null_scores).all()
        assert a.threshold == b.threshold

    def test_discoveries_empty_without_threshold(self):
        state = random_state()
        from berrri import AssociationScores

        scores = AssociationScores(signed=vmap_signed(state), fdr_target=0.1)
        assert not scores.discoveries().any()

    def test_rejects_zero_permutations(self):
        data, _, hp = self._small()
        with pytest.raises(ValidationError, match="n_permutations"):
            run_permutation_fdr(data, hp, n_permutations=0)
        with pytest.raises(ValidationError, match="n_permutations must be an integer, got 2.0"):
            run_permutation_fdr(data, hp, n_permutations=2.0)

    def test_null_distribution_invariant_to_seed(self):
        # the distribution of permuted-fit scores must not depend on the
        # master seed; summarized per permutation (the maxima) so the
        # two-sample KS test sees nearly independent draws
        from scipy import stats

        from berrri.streams import child_seed_sequence

        data, _, hp = self._small(seed=0)

        def null_maxima(master_seed, n_perm=20):
            out = []
            for j in range(n_perm):
                shuffled = permute_labels(data, child_rng(master_seed, "fdr-permutation", j))
                perm_seed = int(
                    child_seed_sequence(master_seed, "fdr-fit", j).generate_state(1)[0]
                )
                st, _ = fit(shuffled, replace(hp, seed=perm_seed))
                out.append(float(vmap(st).max()))
            return np.asarray(out)

        pools = [null_maxima(s) for s in range(10)]
        p_values = [stats.ks_2samp(pools[0], pools[i]).pvalue for i in range(1, 10)]
        assert min(p_values) > 0.01
