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
    univariate_bf,
    vmap,
    vmap_signed,
)
from .engine import (
    FitReport,
    TraceMonitor,
    check_convergence,
    fit,
    geweke_statistic,
    initial_state,
    sweep,
)
from .errors import BerrriError, EngineError, ValidationError
from .metrics import PRCurve, confidence_interval, precision_recall, rss
from .model import elbo, log_joint
from .simulate import SimConfig, simulate, synthetic_genotypes
from .types import (
    Dataset,
    Hyperparameters,
    ModelPoint,
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
    "ModelPoint",
    "PRCurve",
    "PlantedTruth",
    "SimConfig",
    "TraceMonitor",
    "ValidationError",
    "VariationalState",
    "check_convergence",
    "confidence_interval",
    "elbo",
    "fdr_threshold",
    "fit",
    "geweke_statistic",
    "initial_state",
    "log_joint",
    "permute_labels",
    "precision_recall",
    "rss",
    "run_permutation_fdr",
    "simulate",
    "sweep",
    "synthetic_genotypes",
    "univariate_bf",
    "vmap",
    "vmap_signed",
    "__version__",
]
