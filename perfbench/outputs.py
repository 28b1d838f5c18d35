"""Checks on the files a benchmarked CLI op writes, and their scoring against
the planted truth.

Scoring is done here rather than with `berrri.metrics`, so a change to the
program's own evaluation code cannot move the benchmark's quality numbers.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

RESULT_FILES = ("vmap.tsv", "vmap_matrix.tsv", "factors.tsv", "loadings.tsv", "manifest.json")


def digests(out_dir) -> dict:
    """sha256 of every file in an output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }


def _table(path, cols, rows=None) -> np.ndarray:
    """Finite numeric columns of a TSV with a header row, one row per record."""
    values = np.loadtxt(path, delimiter="\t", skiprows=1, usecols=cols, ndmin=2)
    if rows is not None and len(values) != rows:
        raise ValueError(f"{path.name} has {len(values)} rows, expected {rows}")
    if not np.isfinite(values).all():
        raise ValueError(f"{path.name} has non-finite values")
    return values


def check_op(workload, status, out_dir):
    """Validate one op's outputs.  Returns (problems, parsed), where parsed
    holds the scores and final ELBO when the files could be read."""
    out_dir = Path(out_dir)
    if status != 0:
        return [f"exit status {status}"], None
    fdr = workload.subcommand == "fdr"
    expected = RESULT_FILES + (("null_scores.tsv",) if fdr else ())
    missing = [f for f in expected if not (out_dir / f).is_file()]
    if missing:
        return [f"missing output files {missing}"], None
    Q, P = workload.n_snps, workload.n_traits
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        final_elbo = float(manifest["final_elbo"])
        vmap = _table(out_dir / "vmap.tsv", (2, 3, 4), Q * P)
        eta = _table(out_dir / "factors.tsv", (2,))
        k_max = len(eta) // Q
        eta = eta.reshape(Q, k_max)
        phi = _table(out_dir / "loadings.tsv", (2,), k_max * P).reshape(k_max, P)
        null = _table(out_dir / "null_scores.tsv", (0,), workload.n_permutations * Q * P) if fdr else None
    except (ValueError, TypeError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], None
    signed, magnitude = vmap[:, 0].reshape(Q, P), vmap[:, 1].reshape(Q, P)
    significant = vmap[:, 2].reshape(Q, P).astype(bool)

    problems = []
    shape = (manifest.get("n_individuals"), manifest.get("n_snps"), manifest.get("n_traits"))
    if shape != (workload.n_individuals, Q, P):
        problems.append(f"manifest shape {shape} does not match the inputs")
    if not np.array_equal(magnitude, np.abs(signed)):
        problems.append("vmap magnitude is not |vmap_signed|")
    if not np.allclose(signed, eta @ phi, rtol=1e-9, atol=1e-12 * (np.abs(signed).max() + 1.0)):
        problems.append("vmap_signed does not equal factors @ loadings")
    iterations = manifest.get("iterations")
    if not (isinstance(iterations, int) and 0 < iterations <= workload.max_iter):
        problems.append(f"manifest iterations {iterations!r} out of range")
    threshold = manifest.get("threshold")
    flagged = magnitude >= threshold if threshold is not None else np.zeros_like(significant)
    if not np.array_equal(significant, flagged):
        problems.append("significance flags disagree with the manifest threshold")
    if manifest.get("n_discoveries") != int(significant.sum()):
        problems.append("manifest n_discoveries disagrees with vmap.tsv")
    if null is not None and (null < 0).any():
        problems.append("negative null scores")
    return problems, {"magnitude": magnitude, "significant": significant, "final_elbo": final_elbo}


def _pr_points(scores, mask):
    """Precision and recall at every distinct score cutoff, highest first."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(mask, dtype=bool).ravel()
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    tp = np.cumsum(y)
    last = np.r_[s[1:] != s[:-1], True]  # last entry of each tied group
    precision = tp[last] / np.arange(1, s.size + 1)[last]
    recall = tp[last] / y.sum()
    return precision, recall


def pr_auc(scores, mask) -> float:
    """Area under the step-wise precision-recall curve (average precision)."""
    precision, recall = _pr_points(scores, mask)
    return float(np.sum(np.diff(np.r_[0.0, recall]) * precision))


def precision_at_recall(scores, mask, level: float) -> float:
    """Precision at the highest cutoff whose recall reaches `level`."""
    precision, recall = _pr_points(scores, mask)
    return float(precision[np.nonzero(recall >= level)[0][0]])


def discovery_rates(significant, mask):
    """(false-discovery proportion, recall) of the flagged pairs; fdp is 0
    when nothing is flagged."""
    flagged = int(significant.sum())
    true = int((significant & mask).sum())
    return (flagged - true) / flagged if flagged else 0.0, true / int(mask.sum())
