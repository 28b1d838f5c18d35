import numpy as np
import pytest

from berrri import SimConfig, ValidationError, simulate, synthetic_genotypes


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_individuals": 0},
            {"k_true": 6, "n_snps": 5},
            {"effect_sd": 0.0},
            {"correlation_floor": 1.2},
            {"maf_min": 0.0},
            {"maf_max": 0.6},
            {"effect_sd": float("inf")},
            {"noise_sd": float("nan")},
            {"maf_min": 0.4, "maf_max": 0.3},
            {"maf_max": float("nan")},
            {"seed": False},
            {"effect_sd": "1"},
            {"noise_sd": True},
            {"correlation_floor": "0.5"},
            {"correlation_floor": True},
            {"maf_min": "0.1"},
            {"maf_max": True},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("effect_sd", float("inf")), ("noise_sd", 0.0), ("effect_sd", "1"), ("noise_sd", True),
        ("correlation_floor", "0.5"), ("correlation_floor", True),
        ("maf_min", 0.0), ("maf_min", "0.1"), ("maf_max", 0.6), ("maf_max", True),
    ])
    def test_error_names_the_field(self, name, value):
        maf = r"lie in \(0, 0\.5\]"
        rule = {"correlation_floor": r"lie in \[0, 1\]", "maf_min": maf, "maf_max": maf}.get(name, "be")
        with pytest.raises(ValidationError, match=f"^{name} must {rule}"):
            SimConfig(**{name: value})

    def test_maf_min_above_maf_max_names_both(self):
        with pytest.raises(ValidationError, match=r"^maf_min must not exceed maf_max \(0\.3\), got 0\.4$"):
            SimConfig(maf_min=0.4, maf_max=0.3)

    def test_holds_settings_only(self):
        # a pure settings record: hashable and equal by value
        assert hash(SimConfig()) == hash(SimConfig())
        assert SimConfig(seed=3, maf_min=0.1) == SimConfig(seed=3, maf_min=0.1) != SimConfig(seed=4)
        assert len({SimConfig(), SimConfig(), SimConfig(seed=1)}) == 2

    def test_counts_and_seed_are_integers(self):
        cfg = SimConfig(n_individuals=np.int64(20), n_snps=np.int32(6), k_true=2, seed=np.uint8(3))
        data, _ = simulate(cfg)
        assert data.X.shape == (20, 6)
        for name, value in (("n_individuals", 30.5), ("n_snps", 8.5), ("n_traits", 4.0),
                            ("k_true", 2.5), ("seed", 1.5)):
            with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value}"):
                SimConfig(**{name: value})


class TestSyntheticGenotypes:
    def test_support(self):
        X = synthetic_genotypes(200, 40, seed=1)
        assert np.isin(X, (0.0, 1.0, 2.0)).all()

    def test_symmetric_maf_means_one(self):
        X = synthetic_genotypes(3000, 30, maf_min=0.5, maf_max=0.5, seed=2)
        # column mean of Binomial(2, 0.5) is 1 with sd sqrt(0.5/N)
        se = np.sqrt(0.5 / 3000)
        assert (np.abs(X.mean(axis=0) - 1.0) < 3.5 * se + 1e-9).all()

    def test_frequency_recovery(self):
        # the realized per-SNP allele frequency should match its drawn value
        # within the binomial confidence band
        from berrri.streams import child_rng

        rng = child_rng(7, "genotypes")
        freqs = rng.uniform(0.05, 0.5, size=25)
        X = synthetic_genotypes(1000, 25, maf_min=0.05, maf_max=0.5, seed=7)
        observed = X.mean(axis=0) / 2.0
        se = np.sqrt(freqs * (1 - freqs) / (2 * 1000))
        assert (np.abs(observed - freqs) < 4 * se).all()

    def test_deterministic(self):
        assert (synthetic_genotypes(50, 10, seed=3) == synthetic_genotypes(50, 10, seed=3)).all()


class TestSimulate:
    def test_noiseless_limit(self):
        cfg = SimConfig(n_individuals=30, n_snps=10, n_traits=5, k_true=2, noise_sd=1e-9, seed=4)
        data, truth = simulate(cfg)
        recon = data.X @ truth.Z_true @ truth.A_true
        assert np.abs(data.Y - recon).max() < 1e-6

    def test_correlation_floor_one_gives_single_snp_factors(self):
        cfg = SimConfig(n_individuals=50, n_snps=20, k_true=4, correlation_floor=1.0, seed=5)
        _, truth = simulate(cfg)
        assert (truth.Z_true.sum(axis=0) == 1).all()

    def test_every_factor_has_a_snp_and_mask_follows_z(self):
        cfg = SimConfig(seed=6)
        _, truth = simulate(cfg)
        assert (truth.Z_true.sum(axis=0) >= 1).all()
        rows_with_mask = truth.mask.any(axis=1)
        rows_in_factors = truth.Z_true.any(axis=1)
        assert (rows_with_mask == rows_in_factors).all()

    def test_trait_variance_decomposition(self):
        # Var(Y) ~ Var(signal) + noise variance, within 10% at N*P >= 1e4
        cfg = SimConfig(n_individuals=500, n_snps=40, n_traits=25, k_true=3, seed=8)
        data, truth = simulate(cfg)
        signal = data.X @ truth.Z_true @ truth.A_true
        expected = signal.var() + cfg.noise_sd**2
        assert data.Y.var() == pytest.approx(expected, rel=0.1)

    def test_signal_fraction_consistency(self):
        cfg = SimConfig(n_individuals=400, n_snps=30, n_traits=20, k_true=3, seed=9)
        data, truth = simulate(cfg)
        signal = data.X @ truth.Z_true @ truth.A_true
        v = signal.var()
        explained = 1.0 - ((data.Y - signal).var() / data.Y.var())
        assert explained >= v / (v + cfg.noise_sd**2) - 0.1

    def test_deterministic_given_seed(self):
        cfg = SimConfig(seed=10)
        d1, t1 = simulate(cfg)
        d2, t2 = simulate(cfg)
        assert (d1.X == d2.X).all() and (d1.Y == d2.Y).all()
        assert (t1.Z_true == t2.Z_true).all() and (t1.A_true == t2.A_true).all()

    def test_correlated_columns_co_included(self):
        # an external genotype matrix with a duplicated column: whenever the
        # index SNP lands on one copy, the other copy joins the factor
        rng = np.random.default_rng(11)
        base = rng.integers(0, 3, size=(40, 6)).astype(float)
        pool = np.column_stack([base, base[:, 0]])  # column 6 duplicates 0
        cfg = SimConfig(n_individuals=40, n_snps=7, n_traits=4, k_true=7, correlation_floor=0.8, seed=12)
        data, truth = simulate(cfg, genotypes=pool)
        dup = [q for q in range(7) if (data.X[:, q] == data.X[:, 0]).all()]
        if len(dup) == 2:  # subset kept both copies
            a, b = dup
            assert (truth.Z_true[a] == truth.Z_true[b]).all()

    def test_external_matrix_too_small(self):
        with pytest.raises(ValidationError, match="too small"):
            simulate(SimConfig(n_individuals=10, n_snps=5), genotypes=np.zeros((3, 5)))

    def test_external_matrix_bad_values(self):
        pool = np.full((10, 5), 3.0)
        with pytest.raises(ValidationError, match="not a dosage"):
            simulate(SimConfig(n_individuals=5, n_snps=3, k_true=2), genotypes=pool)
