"""Planted-truth data generation.

Each factor gets one uniformly chosen index SNP plus every SNP whose genotype
correlation with the index exceeds the correlation floor (a linkage-
disequilibrium-style co-inclusion rule).  Effects are dense Gaussian draws,
and traits are the noisy linear reconstruction X @ Z @ A + noise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .streams import child_rng
from .types import GENOTYPE_VALUES, Dataset, PlantedTruth, is_real, require_integer, require_positive_finite

__all__ = ["SimConfig", "synthetic_genotypes", "simulate"]


@dataclass(frozen=True)
class SimConfig:
    """Simulation dimensions and distributions: one field per flag of
    `berrri simulate`.  Synthetic genotypes are sampled per SNP as
    Binomial(2, f) with minor-allele frequency f drawn uniformly from
    [maf_min, maf_max].
    """

    n_individuals: int = 100
    n_snps: int = 50
    n_traits: int = 25
    k_true: int = 5
    effect_sd: float = 0.5
    noise_sd: float = 1.0
    correlation_floor: float = 0.8
    maf_min: float = 0.05
    maf_max: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_individuals", "n_snps", "n_traits", "k_true", "seed"):
            require_integer(getattr(self, name), name)
        for name in ("n_individuals", "n_snps", "n_traits", "k_true"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k_true > self.n_snps:
            raise ValidationError(
                f"k_true ({self.k_true}) cannot exceed n_snps ({self.n_snps})"
            )
        for name in ("effect_sd", "noise_sd"):
            require_positive_finite(getattr(self, name), name)
        if not (is_real(self.correlation_floor) and 0.0 <= self.correlation_floor <= 1.0):
            raise ValidationError(
                f"correlation_floor must lie in [0, 1], got {self.correlation_floor!r}"
            )
        for name in ("maf_min", "maf_max"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 < value <= 0.5):
                raise ValidationError(f"{name} must lie in (0, 0.5], got {value!r}")
        if self.maf_min > self.maf_max:
            raise ValidationError(f"maf_min must not exceed maf_max ({self.maf_max}), got {self.maf_min}")


def synthetic_genotypes(n_individuals: int, n_snps: int, maf_min=0.05, maf_max=0.5, seed=0) -> np.ndarray:
    """Independent dosage matrix: per SNP, Binomial(2, f) with
    f ~ U(maf_min, maf_max)."""
    rng = seed if isinstance(seed, np.random.Generator) else child_rng(seed, "genotypes")
    freqs = rng.uniform(maf_min, maf_max, size=n_snps)
    return rng.binomial(2, freqs, size=(n_individuals, n_snps)).astype(np.float64)


def _correlation_with(X: np.ndarray, index: int) -> np.ndarray:
    """Pearson correlation of every genotype column with the index column,
    computed across individuals; constant columns correlate as zero."""
    Xc = X - X.mean(axis=0)
    norms = np.sqrt((Xc**2).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (Xc.T @ Xc[:, index]) / (norms * norms[index])
    r[~np.isfinite(r)] = 0.0
    return r


def simulate(cfg: SimConfig, genotypes=None):
    """Draw (Dataset, PlantedTruth) deterministically from the config seed.

    genotypes, when given, is an external dosage matrix at least
    (n_individuals x n_snps), of which a seeded random subset of rows and
    columns is used; otherwise the genotypes are `synthetic_genotypes`.
    """
    N, Q, P, K = cfg.n_individuals, cfg.n_snps, cfg.n_traits, cfg.k_true

    if genotypes is not None:
        pool = np.asarray(genotypes, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[0] < N or pool.shape[1] < Q:
            shape = pool.shape if pool.ndim == 2 else ("?",)
            raise ValidationError(
                f"external genotype matrix of shape {tuple(shape)} is too small; "
                f"need at least {N} rows x {Q} columns"
            )
        sub = child_rng(cfg.seed, "genotype-subset")
        rows = np.sort(sub.choice(pool.shape[0], size=N, replace=False))
        cols = np.sort(sub.choice(pool.shape[1], size=Q, replace=False))
        X = pool[np.ix_(rows, cols)]
        bad = ~np.isin(X, GENOTYPE_VALUES)
        if bad.any():
            n, q = np.argwhere(bad)[0]
            raise ValidationError(
                f"external genotype value {X[n, q]!r} at row {rows[n]}, column {cols[q]} "
                "is not a dosage in {0, 1, 2}"
            )
    else:
        X = synthetic_genotypes(N, Q, cfg.maf_min, cfg.maf_max, child_rng(cfg.seed, "genotypes"))

    factor_rng = child_rng(cfg.seed, "factors")
    Z = np.zeros((Q, K), dtype=np.int8)
    for k in range(K):
        index = int(factor_rng.integers(Q))
        r = _correlation_with(X, index)
        Z[:, k] = r > cfg.correlation_floor
        Z[index, k] = 1

    A = child_rng(cfg.seed, "effects").normal(0.0, cfg.effect_sd, size=(K, P))
    noise = child_rng(cfg.seed, "noise").normal(0.0, cfg.noise_sd, size=(N, P))
    Y = X @ Z @ A + noise

    data = Dataset(X=X, Y=Y)
    truth = PlantedTruth(Z, A)
    return data, truth
