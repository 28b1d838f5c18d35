import argparse
import importlib
import pkgutil

import berrri
from berrri.cli import build_parser


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
