import argparse
import importlib
import pkgutil

import berrri
from berrri.cli import build_parser

PIPELINE_NAMES = {
    "AssociationScores",
    "BerrriError",
    "Dataset",
    "EngineError",
    "FitReport",
    "Hyperparameters",
    "PRCurve",
    "PlantedTruth",
    "SimConfig",
    "TraceMonitor",
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
}


def test_exports_resolve_and_cli_has_four_subcommands():
    modules = [berrri] + [
        importlib.import_module(f"berrri.{info.name}") for info in pkgutil.iter_modules(berrri.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == {"simulate", "fit", "fdr", "eval"}


def test_public_surface_is_the_pipeline():
    # a name leaves or joins the package surface only by editing this set
    assert set(berrri.__all__) == PIPELINE_NAMES
    assert len(berrri.__all__) == len(PIPELINE_NAMES) == 28
