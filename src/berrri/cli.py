"""Command-line surface: simulate, fit, fdr, eval.

All configuration is flag-only except the output directory, which falls back
to the BERRRI_OUTPUT_DIR environment variable.  Errors exit nonzero with a
single machine-parsable line on stderr.
"""

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io, metrics
from .associate import run_permutation_fdr
from .engine import fit
from .errors import BerrriError, ValidationError
from .simulate import SimConfig, simulate
from .types import Hyperparameters

__all__ = ["RunConfig", "build_parser", "run", "main"]

logger = logging.getLogger("berrri")


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: subcommand, paths, and all flag values."""

    subcommand: str
    out_dir: str
    options: dict = field(default_factory=dict)
    format_version: str = io.FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "out_dir": str(self.out_dir),
            "options": {k: _jsonable(v) for k, v in self.options.items()},
            "format_version": self.format_version,
        }


def _jsonable(v):
    if isinstance(v, Path):
        return str(v)
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    return v


def _add_out_dir(parser):
    parser.add_argument(
        "--out-dir",
        default=os.environ.get("BERRRI_OUTPUT_DIR"),
        help="output directory (default: $BERRRI_OUTPUT_DIR)",
    )


# (flag, Hyperparameters field, type, help); every default comes from the
# field's own default, so the command line fits the library's model.
_HYPER_FLAGS = (
    ("--alpha", "alpha", float, "IBP concentration"),
    ("--sigma2", "sigma2", float, "shared noise variance"),
    ("--ard-shape", "c", float, "ARD inverse-gamma shape c"),
    ("--ard-rate", "d", float, "ARD inverse-gamma rate d"),
    ("--k-max", "k_max", int, "factor truncation (default min(Q, 50))"),
    ("--p-thresh", "p_thresh", float, "convergence p-value cutoff"),
    ("--burn-in", "burn_in", int, "iterations excluded from traces"),
    ("--check-interval", "check_interval", int, "iterations between convergence checks"),
    ("--max-iter", "max_iter", int, "sweep cap"),
    ("--seed", "seed", int, "master RNG seed"),
)


def _add_hyper_flags(parser):
    defaults = {f.name: f.default for f in dataclasses.fields(Hyperparameters)}
    for flag, name, kind, text in _HYPER_FLAGS:
        parser.add_argument(flag, type=kind, default=defaults[name], dest=name, help=text)


def _add_input_flags(parser):
    parser.add_argument("--genotypes", required=True, help="genotype TSV (individuals x SNPs)")
    parser.add_argument("--traits", required=True, help="trait TSV (individuals x traits)")
    parser.add_argument("--snp-positions", default=None, help="TSV of SNP base-pair positions")
    parser.add_argument("--trait-positions", default=None, help="TSV of trait base-pair positions")


def _hp_from_args(args) -> Hyperparameters:
    return Hyperparameters(**{name: getattr(args, name) for _, name, _, _ in _HYPER_FLAGS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrri",
        description=(
            "Nonparametric Bayesian reduced-rank regression for multi-SNP, "
            "multi-trait association mapping"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a planted-truth dataset")
    _add_out_dir(sim)
    sim.add_argument("--individuals", type=int, default=100, dest="n_individuals")
    sim.add_argument("--snps", type=int, default=50, dest="n_snps")
    sim.add_argument("--traits", type=int, default=25, dest="n_traits")
    sim.add_argument("--k-true", type=int, default=5)
    sim.add_argument("--effect-sd", type=float, default=0.5)
    sim.add_argument("--noise-sd", type=float, default=1.0)
    sim.add_argument("--correlation-floor", type=float, default=0.8)
    sim.add_argument("--maf-min", type=float, default=0.05)
    sim.add_argument("--maf-max", type=float, default=0.5)
    sim.add_argument("--genotypes", default=None, help="optional external genotype TSV to subsample")
    sim.add_argument("--seed", type=int, default=0)

    fit_p = sub.add_parser("fit", help="fit the model and write association scores")
    _add_out_dir(fit_p)
    _add_input_flags(fit_p)
    _add_hyper_flags(fit_p)

    fdr_p = sub.add_parser("fdr", help="fit plus permutation FDR calibration")
    _add_out_dir(fdr_p)
    _add_input_flags(fdr_p)
    _add_hyper_flags(fdr_p)
    fdr_p.add_argument("--fdr-target", type=float, default=0.1)
    fdr_p.add_argument("--n-permutations", type=int, default=10)

    eval_p = sub.add_parser("eval", help="score a fit (or any score file) against truth")
    _add_out_dir(eval_p)
    eval_p.add_argument("--scores", default=None, help="TSV score matrix (SNPs x traits)")
    eval_p.add_argument("--mask", default=None, help="TSV binary truth mask (SNPs x traits)")
    eval_p.add_argument(
        "--rss",
        nargs=3,
        action="append",
        metavar=("LABEL", "TRUTH", "PREDICTION"),
        default=[],
        help="compute a labelled residual sum of squares between two trait TSVs",
    )

    return parser


def _require_out_dir(args) -> str:
    """The output directory, created and probed for writing before any work."""
    if not args.out_dir:
        raise ValidationError("no output directory: pass --out-dir or set BERRRI_OUTPUT_DIR")
    io._prepare_out_dir(args.out_dir)
    return args.out_dir


def _cmd_simulate(args) -> int:
    out_dir = _require_out_dir(args)
    cfg = SimConfig(
        n_individuals=args.n_individuals,
        n_snps=args.n_snps,
        n_traits=args.n_traits,
        k_true=args.k_true,
        effect_sd=args.effect_sd,
        noise_sd=args.noise_sd,
        correlation_floor=args.correlation_floor,
        maf_range=(args.maf_min, args.maf_max),
        seed=args.seed,
        genotypes=io.load_matrix(args.genotypes, "genotype").values if args.genotypes else None,
    )
    data, truth = simulate(cfg)
    run_cfg = RunConfig("simulate", out_dir, _sim_options(args))
    paths = io.save_simulation(run_cfg.out_dir, data, truth, config=run_cfg.to_dict())
    logger.info("simulated %d x %d genotypes, %d traits -> %s", data.n_individuals, data.n_snps, data.n_traits, paths["manifest"])
    return 0


def _sim_options(args) -> dict:
    keys = (
        "n_individuals", "n_snps", "n_traits", "k_true", "effect_sd", "noise_sd",
        "correlation_floor", "maf_min", "maf_max", "seed", "genotypes",
    )
    return {k: getattr(args, k, None) for k in keys}


def _fit_options(args, extra=()) -> dict:
    keys = [
        "genotypes", "traits", "snp_positions", "trait_positions",
        *(name for _, name, _, _ in _HYPER_FLAGS), *extra,
    ]
    return {k: getattr(args, k, None) for k in keys}


def _cmd_fit(args) -> int:
    out_dir = _require_out_dir(args)
    data = io.load_dataset(args.genotypes, args.traits, args.snp_positions, args.trait_positions)
    hp = _hp_from_args(args)
    state, report = fit(data, hp)
    run_cfg = RunConfig("fit", out_dir, _fit_options(args))
    paths = io.save_results(out_dir, data, state, report, config=run_cfg.to_dict())
    logger.info(
        "fit %s in %d iterations (converged=%s, k_effective=%d) -> %s",
        "converged" if report.converged else "stopped",
        report.iterations,
        report.converged,
        report.k_effective,
        paths["manifest"],
    )
    return 0


def _cmd_fdr(args) -> int:
    out_dir = _require_out_dir(args)
    data = io.load_dataset(args.genotypes, args.traits, args.snp_positions, args.trait_positions)
    hp = _hp_from_args(args)
    scores, state, report = run_permutation_fdr(
        data,
        hp,
        fdr_target=args.fdr_target,
        n_permutations=args.n_permutations,
    )
    run_cfg = RunConfig("fdr", out_dir, _fit_options(args, extra=("fdr_target", "n_permutations")))
    paths = io.save_results(out_dir, data, state, report, scores=scores, config=run_cfg.to_dict())
    logger.info(
        "fdr threshold=%s discoveries=%d -> %s",
        "none" if scores.threshold is None else f"{scores.threshold:.6g}",
        int(scores.discoveries().sum()),
        paths["manifest"],
    )
    return 0


def _cmd_eval(args) -> int:
    if args.scores is None and not args.rss:
        raise ValidationError("eval needs --scores/--mask and/or --rss entries")
    if (args.scores is None) != (args.mask is None):
        raise ValidationError("--scores and --mask must be given together")
    out_dir = _require_out_dir(args)
    out = Path(out_dir)
    results = {}

    if args.scores is not None:
        score_file = io.load_matrix(args.scores, "trait")
        mask_file = io.load_matrix(args.mask, "trait")
        curve = metrics.precision_recall(score_file.values, mask_file.values > 0.5)
        pr_path = out / "pr_curve.tsv"
        with open(pr_path, "w") as fh:
            fh.write("threshold\tprecision\trecall\n")
            for t, pr, rc in curve.rows():
                fh.write(f"{io.fmt(t)}\t{io.fmt(pr)}\t{io.fmt(rc)}\n")
        results["pr_auc"] = curve.auc
        p75 = curve.precision_at_recall(0.75)
        results["precision_at_recall_0.75"] = p75 if p75 is not None else "NA"

    for label, truth_path, pred_path in args.rss:
        truth = io.load_matrix(truth_path, "trait")
        pred = io.load_matrix(pred_path, "trait")
        results[f"rss_{label}"] = metrics.rss(truth.values, pred.values)

    metrics_path = out / "metrics.tsv"
    with open(metrics_path, "w") as fh:
        fh.write("metric\tvalue\n")
        for key in sorted(results):
            v = results[key]
            fh.write(f"{key}\t{io.fmt(v) if isinstance(v, float) else v}\n")
    run_cfg = RunConfig(
        "eval", out_dir,
        {"scores": args.scores, "mask": args.mask, "rss": [list(r) for r in args.rss]},
    )
    io._write_manifest(out / "manifest.json", {"config": run_cfg.to_dict(), "metrics": {k: _jsonable(v) for k, v in results.items()}})
    logger.info("eval metrics -> %s", metrics_path)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "fdr": _cmd_fdr,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    """Parse argv and dispatch; returns a process exit status."""
    if not logging.getLogger().handlers and not logger.handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except BerrriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
