import argparse
import ast
import importlib
import pkgutil
from pathlib import Path

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
    assert len(berrri.__all__) == len(PIPELINE_NAMES) == 27


def unused_imports(path: Path) -> list:
    """Names a module imports but never references and does not list in its
    `__all__`."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    tests = Path(__file__).parent
    paths = sorted(Path(berrri.__file__).parent.glob("*.py")) + sorted(tests.glob("*.py"))
    unused = {path.name: names for path in paths if (names := unused_imports(path))}
    assert not unused
