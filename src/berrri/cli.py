"""Command-line surface: simulate, fit, fdr, eval.

All configuration is flag-only except the output directory, which falls back
to the BERRRI_OUTPUT_DIR environment variable.  Every flag that sets a
`SimConfig` or `Hyperparameters` field or a `run_permutation_fdr` parameter
takes its default from the library, and each manifest records every parsed
flag.  All files are written by `io`.  Errors exit nonzero with a single
machine-parsable line on stderr.
"""

import argparse
import dataclasses
import inspect
import logging
import os
import sys

from . import io, metrics
from .associate import run_permutation_fdr
from .engine import fit
from .errors import BerrriError, ValidationError
from .simulate import SimConfig, simulate
from .types import Hyperparameters

__all__ = ["build_parser", "run", "main"]

logger = logging.getLogger("berrri")


def _add_out_dir(parser):
    parser.add_argument(
        "--out-dir",
        default=os.environ.get("BERRRI_OUTPUT_DIR"),
        help="output directory (default: $BERRRI_OUTPUT_DIR)",
    )


# Flag tables: (flag, library field or parameter, type, help).  Every default
# comes from the library, so the command line fits the library's model.
_SIM_FLAGS = (
    ("--individuals", "n_individuals", int, "individuals N"),
    ("--snps", "n_snps", int, "SNPs Q"),
    ("--traits", "n_traits", int, "traits P"),
    ("--k-true", "k_true", int, "planted factors"),
    ("--effect-sd", "effect_sd", float, "effect-size standard deviation"),
    ("--noise-sd", "noise_sd", float, "trait noise standard deviation"),
    ("--correlation-floor", "correlation_floor", float, "genotype correlation that co-includes a SNP"),
    ("--maf-min", "maf_min", float, "lowest minor-allele frequency"),
    ("--maf-max", "maf_max", float, "highest minor-allele frequency"),
    ("--seed", "seed", int, "master RNG seed"),
)

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

_FDR_FLAGS = (
    ("--fdr-target", "fdr_target", float, "target false discovery rate"),
    ("--n-permutations", "n_permutations", int, "permuted-trait refits pooled into the null"),
)


def _sim_defaults() -> dict:
    """SimConfig's defaults, with maf_range split into --maf-min/--maf-max."""
    defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    defaults["maf_min"], defaults["maf_max"] = defaults.pop("maf_range")
    return defaults


def _add_flags(parser, table, defaults: dict):
    for flag, name, kind, text in table:
        parser.add_argument(flag, type=kind, default=defaults[name], dest=name, help=text)


def _values(args, table) -> dict:
    return {name: getattr(args, name) for _, name, _, _ in table}


def _add_input_flags(parser):
    parser.add_argument("--genotypes", required=True, help="genotype TSV (individuals x SNPs)")
    parser.add_argument("--traits", required=True, help="trait TSV (individuals x traits)")
    parser.add_argument("--snp-positions", default=None, help="TSV of SNP base-pair positions")
    parser.add_argument("--trait-positions", default=None, help="TSV of trait base-pair positions")


def _hp_from_args(args) -> Hyperparameters:
    return Hyperparameters(**_values(args, _HYPER_FLAGS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrri",
        description=(
            "Nonparametric Bayesian reduced-rank regression for multi-SNP, "
            "multi-trait association mapping"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    hyper_defaults = {f.name: f.default for f in dataclasses.fields(Hyperparameters)}
    fdr_defaults = {
        name: param.default for name, param in inspect.signature(run_permutation_fdr).parameters.items()
    }

    sim = sub.add_parser("simulate", help="generate a planted-truth dataset")
    _add_out_dir(sim)
    _add_flags(sim, _SIM_FLAGS, _sim_defaults())
    sim.add_argument("--genotypes", default=None, help="optional external genotype TSV to subsample")

    fit_p = sub.add_parser("fit", help="fit the model and write association scores")
    fdr_p = sub.add_parser("fdr", help="fit plus permutation FDR calibration")
    for command in (fit_p, fdr_p):
        _add_out_dir(command)
        _add_input_flags(command)
        _add_flags(command, _HYPER_FLAGS, hyper_defaults)
    _add_flags(fdr_p, _FDR_FLAGS, fdr_defaults)

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


def _run_config(args) -> dict:
    """The manifest's record of one invocation: every parsed flag."""
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "out_dir")}
    return {
        "subcommand": args.subcommand,
        "out_dir": args.out_dir,
        "options": options,
        "format_version": io.FORMAT_VERSION,
    }


def _require_out_dir(args) -> str:
    """The output directory, created and probed for writing before any work."""
    if not args.out_dir:
        raise ValidationError("no output directory: pass --out-dir or set BERRRI_OUTPUT_DIR")
    io._prepare_out_dir(args.out_dir)
    return args.out_dir


def _cmd_simulate(args) -> int:
    out_dir = _require_out_dir(args)
    fields = _values(args, _SIM_FLAGS)
    fields["maf_range"] = (fields.pop("maf_min"), fields.pop("maf_max"))
    genotypes = io.load_matrix(args.genotypes, "genotype").values if args.genotypes else None
    data, truth = simulate(SimConfig(**fields, genotypes=genotypes))
    paths = io.save_simulation(out_dir, data, truth, config=_run_config(args))
    logger.info("simulated %d x %d genotypes, %d traits -> %s", data.n_individuals, data.n_snps, data.n_traits, paths["manifest"])
    return 0


def _cmd_fit(args) -> int:
    out_dir = _require_out_dir(args)
    data = io.load_dataset(args.genotypes, args.traits, args.snp_positions, args.trait_positions)
    hp = _hp_from_args(args)
    if args.subcommand == "fdr":
        scores, state, report = run_permutation_fdr(data, hp, **_values(args, _FDR_FLAGS))
    else:
        scores, (state, report) = None, fit(data, hp)
    paths = io.save_results(out_dir, data, state, report, scores=scores, config=_run_config(args))
    logger.info(
        "fit %s in %d iterations (k_effective=%d) -> %s",
        "converged" if report.converged else "stopped",
        report.iterations,
        state.effective_k(),
        paths["manifest"],
    )
    if scores is not None:
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
    results, pr_rows = {}, None

    if args.scores is not None:
        score_file = io.load_matrix(args.scores, "trait")
        mask_file = io.load_matrix(args.mask, "trait")
        io.require_same_ids(args.scores, score_file, args.mask, mask_file)
        curve = metrics.precision_recall(score_file.values, mask_file.values > 0.5)
        pr_rows = curve.rows()
        results["pr_auc"] = curve.auc
        p75 = curve.precision_at_recall(0.75)
        results["precision_at_recall_0.75"] = p75 if p75 is not None else "NA"

    for label, truth_path, pred_path in args.rss:
        truth = io.load_matrix(truth_path, "trait")
        pred = io.load_matrix(pred_path, "trait")
        io.require_same_ids(truth_path, truth, pred_path, pred)
        results[f"rss_{label}"] = metrics.rss(truth.values, pred.values)

    paths = io.save_evaluation(out_dir, results, pr_rows, config=_run_config(args))
    logger.info("eval metrics -> %s", paths["metrics"])
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "fdr": _cmd_fit,
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
    except (BerrriError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
