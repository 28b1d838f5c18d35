"""BERRRI: Bayesian extendable reduced-rank regression with an Indian
Buffet Process prior, for multi-SNP multi-trait association mapping.

Traits Y (N x P) are modelled as X @ Z @ A + noise, with a truncated IBP
prior on the binary SNP-inclusion matrix Z and ARD priors on the effect
sizes A.  Inference is mean-field coordinate-ascent variational Bayes;
associations are scored by the posterior-mean product E[Z] @ E[A] and
calibrated by permutation FDR.
"""

from .associate import (
    AssociationScores,
    fdr_threshold,
    permute_labels,
    run_permutation_fdr,
    vmap,
    vmap_signed,
)
from .engine import (
    FitReport,
    check_convergence,
    fit,
    geweke_statistic,
    initial_state,
    sweep,
)
from .errors import BerrriError, EngineError, ValidationError
from .metrics import PRCurve, precision_recall, rss
from .model import elbo
from .simulate import SimConfig, simulate, synthetic_genotypes
from .types import (
    Dataset,
    Hyperparameters,
    PlantedTruth,
    VariationalState,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScores",
    "BerrriError",
    "Dataset",
    "EngineError",
    "FitReport",
    "Hyperparameters",
    "PRCurve",
    "PlantedTruth",
    "SimConfig",
    "ValidationError",
    "VariationalState",
    "check_convergence",
    "elbo",
    "fdr_threshold",
    "fit",
    "geweke_statistic",
    "initial_state",
    "permute_labels",
    "precision_recall",
    "rss",
    "run_permutation_fdr",
    "simulate",
    "sweep",
    "synthetic_genotypes",
    "vmap",
    "vmap_signed",
    "__version__",
]
