"""Matrix file ingestion and result persistence.

Interchange format is tab-separated text: one header row of column IDs and one
leading column of row IDs.  Floats are written with 17 significant digits so a
write/read round trip is exact.  Every result directory carries a JSON
manifest with the full configuration, seed, format version, and the berrri,
numpy, scipy and Python versions, from which the run is reproducible.
"""

import csv
import json
import platform
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy

from . import __version__
from .associate import vmap_signed
from .errors import ValidationError
from .types import Dataset, GENOTYPE_VALUES, reject_repeats

__all__ = [
    "FORMAT_VERSION",
    "MatrixFile",
    "load_matrix",
    "save_matrix",
    "write_table",
    "load_positions",
    "load_dataset",
    "require_same_ids",
    "save_results",
    "save_simulation",
    "save_evaluation",
    "load_manifest",
]

FORMAT_VERSION = "2"


def fmt(x) -> str:
    """Decimal text at 17 significant digits (round-trips float64 exactly)."""
    return format(float(x), ".17g")


class MatrixFile(NamedTuple):
    values: np.ndarray
    row_ids: tuple
    col_ids: tuple


def load_matrix(path, kind: str) -> MatrixFile:
    """Read a labelled TSV matrix; kind is 'genotype' or 'trait'.

    Genotype matrices must contain only dosages {0, 1, 2}; trait matrices must
    be finite reals.  Errors name the offending cell by row and column ID.
    """
    if kind not in ("genotype", "trait"):
        raise ValidationError(f"kind must be 'genotype' or 'trait', got {kind!r}")
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        col_ids = tuple(header[1:])
        if not col_ids:
            raise ValidationError(f"{path}: header row has no column IDs")
        reject_repeats(col_ids, f"{path}: column ID", "in columns", start=2)
        row_ids = []
        rows = []
        for i, rec in enumerate(reader, start=2):
            if len(rec) != len(col_ids) + 1:
                raise ValidationError(
                    f"{path}: line {i} has {len(rec)} fields, expected {len(col_ids) + 1}"
                )
            row_ids.append(rec[0])
            parsed = np.empty(len(col_ids))
            for j, text in enumerate(rec[1:]):
                try:
                    parsed[j] = float(text)
                except ValueError:
                    raise ValidationError(
                        f"{path}: malformed cell at row {rec[0]!r} (line {i}), "
                        f"column {col_ids[j]!r}: {text!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    reject_repeats(row_ids, f"{path}: row ID", "on lines", start=2)
    values = np.vstack(rows)

    if kind == "genotype":
        bad = ~np.isin(values, GENOTYPE_VALUES)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"{path}: genotype value {values[i, j]!r} at row {row_ids[i]!r}, "
                f"column {col_ids[j]!r} is not a dosage in {{0, 1, 2}}"
            )
    else:
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"{path}: non-finite trait value at row {row_ids[i]!r}, column {col_ids[j]!r}"
            )
    return MatrixFile(values=values, row_ids=tuple(row_ids), col_ids=tuple(col_ids))


def _first_mismatch(ids_a, ids_b) -> Optional[int]:
    """The first position at which two ID lists differ (an ID that one list
    lacks counts), or None when they are equal."""
    if ids_a == ids_b:
        return None
    differing = (i for i, (a, b) in enumerate(zip(ids_a, ids_b)) if a != b)
    return next(differing, min(len(ids_a), len(ids_b)))


def require_same_ids(path_a, a: MatrixFile, path_b, b: MatrixFile):
    """Raise unless two matrices list the same row IDs and the same column
    IDs in the same order, naming both files, the first position that
    differs and the ID each file has there."""
    for axis, ids_a, ids_b in (("row", a.row_ids, b.row_ids), ("column", a.col_ids, b.col_ids)):
        i = _first_mismatch(ids_a, ids_b)
        if i is not None:
            has_a = repr(ids_a[i]) if i < len(ids_a) else "none"
            has_b = repr(ids_b[i]) if i < len(ids_b) else "none"
            raise ValidationError(
                f"{axis} IDs differ at {axis} {i + 1}: {path_a} has {has_a}, {path_b} has {has_b}; "
                f"both files must list the same {axis}s in the same order"
            )


def write_table(path, header, rows):
    """Write a TSV table: the header cells, then one line per row of text cells."""
    with open(path, "w", newline="") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)


def save_matrix(path, values, row_ids, col_ids, corner: str = "id"):
    """Write a labelled matrix as TSV: `corner` and the column IDs, then each
    row's ID and its values at 17 significant digits."""
    write_table(
        path,
        [corner, *map(str, col_ids)],
        ([str(rid), *map(fmt, row)] for rid, row in zip(row_ids, values)),
    )


def load_positions(path) -> dict:
    """Two-column TSV (ID, base-pair position) -> {id: position}."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"no such file: {path}")
    ids, positions = [], []
    with open(path, newline="") as fh:
        for i, rec in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if len(rec) != 2:
                raise ValidationError(f"{path}: line {i} has {len(rec)} fields, expected 2")
            try:
                positions.append(float(rec[1]))
            except ValueError:
                raise ValidationError(
                    f"{path}: malformed position at line {i}: {rec[1]!r}"
                ) from None
            if not np.isfinite(positions[-1]):
                raise ValidationError(f"{path}: non-finite position at line {i}: {rec[1]!r}")
            ids.append(rec[0])
    reject_repeats(ids, f"{path}: ID", "on lines", start=1)
    return dict(zip(ids, positions))


def load_dataset(
    genotype_path,
    trait_path,
    snp_positions_path=None,
    trait_positions_path=None,
) -> Dataset:
    gen = load_matrix(genotype_path, "genotype")
    tr = load_matrix(trait_path, "trait")
    if len(gen.row_ids) != len(tr.row_ids):
        raise ValidationError(
            f"genotype file has {len(gen.row_ids)} individuals but trait file has "
            f"{len(tr.row_ids)}; the row counts must match"
        )
    i = _first_mismatch(gen.row_ids, tr.row_ids)
    if i is not None:
        raise ValidationError(
            f"individuals differ at data line {i + 2}: genotype file {genotype_path} has "
            f"{gen.row_ids[i]!r}, trait file {trait_path} has {tr.row_ids[i]!r}; both files "
            f"must list the same individuals in the same order"
        )
    return Dataset(
        X=gen.values,
        Y=tr.values,
        snp_ids=gen.col_ids,
        trait_ids=tr.col_ids,
        snp_positions=_positions_of(snp_positions_path, gen.col_ids, "SNPs"),
        trait_positions=_positions_of(trait_positions_path, tr.col_ids, "traits"),
    )


def _positions_of(path, ids, kind: str):
    """The positions of `ids`, in order, from a position file (None without one)."""
    if path is None:
        return None
    table = load_positions(path)
    missing = [i for i in ids if i not in table]
    if missing:
        raise ValidationError(f"missing positions for {kind}: {missing[:5]}")
    return np.array([table[i] for i in ids])


def _prepare_out_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ValidationError(f"output directory {out} is not writable: {exc}") from None
    return out


def _write_manifest(path, payload: dict):
    payload = dict(payload)
    payload["format_version"] = FORMAT_VERSION
    payload["versions"] = {
        "berrri": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_results(out_dir, dataset: Dataset, state, report, scores=None, config: Optional[dict] = None):
    """Persist a fitted model: score, factor, and loading tables plus manifest.

    Writes vmap.tsv (snp, trait, signed score, magnitude, significance flag,
    and SNP-trait distance when both position tracks are present),
    factors.tsv (snp, factor, inclusion probability), loadings.tsv (factor,
    trait, effect mean), null_scores.tsv when a permutation null is attached,
    and manifest.json, which holds the real fit's `FitReport.summary()` at
    its top level and each permutation fit's under `permutation_fits`.  The
    scores are `state`'s; `scores` adds only its calibration, flagging the
    pairs whose magnitude reaches its threshold.  Returns {name: path}.
    """
    out = _prepare_out_dir(out_dir)
    signed = vmap_signed(state)
    magnitude = np.abs(signed)
    threshold = scores.threshold if scores is not None else None
    significant = magnitude >= threshold if threshold is not None else np.zeros_like(magnitude, dtype=bool)
    with_distance = dataset.snp_positions is not None and dataset.trait_positions is not None

    paths = {}
    cols = ["snp_id", "trait_id", "vmap_signed", "vmap", "significant"]
    if with_distance:
        cols.append("distance")

    def vmap_rows():
        for q, snp in enumerate(dataset.snp_ids):
            s_row, m_row, f_row = signed[q].tolist(), magnitude[q].tolist(), significant[q].tolist()
            for p, trait in enumerate(dataset.trait_ids):
                row = [snp, trait, fmt(s_row[p]), fmt(m_row[p]), str(int(f_row[p]))]
                if with_distance:
                    row.append(fmt(abs(dataset.snp_positions[q] - dataset.trait_positions[p])))
                yield row

    paths["vmap"] = out / "vmap.tsv"
    write_table(paths["vmap"], cols, vmap_rows())

    # wide Q x P magnitude matrix, consumable by `eval` and external tools
    paths["vmap_matrix"] = out / "vmap_matrix.tsv"
    save_matrix(paths["vmap_matrix"], magnitude, dataset.snp_ids, dataset.trait_ids, corner="snp_id")

    paths["factors"] = out / "factors.tsv"
    write_table(paths["factors"], ["snp_id", "factor", "eta"], (
        [snp, str(k), fmt(state.eta[q, k])]
        for q, snp in enumerate(dataset.snp_ids)
        for k in range(state.k_max)
    ))

    paths["loadings"] = out / "loadings.tsv"
    write_table(paths["loadings"], ["factor", "trait_id", "phi"], (
        [str(k), trait, fmt(state.phi[k, p])]
        for k in range(state.k_max)
        for p, trait in enumerate(dataset.trait_ids)
    ))

    if scores is not None and scores.null_scores is not None:
        paths["null_scores"] = out / "null_scores.tsv"
        write_table(paths["null_scores"], ["null_score"], ([fmt(v)] for v in scores.null_scores))

    manifest = {
        "config": config or {},
        **report.summary(),
        "k_effective": state.effective_k(),
        "threshold": threshold,
        "fdr_target": scores.fdr_target if scores is not None else None,
        "n_permutations": scores.n_permutations if scores is not None else None,
        "permutation_fits": [r.summary() for r in scores.permutation_reports] if scores is not None else None,
        "n_discoveries": int(significant.sum()),
        "n_snps": dataset.n_snps,
        "n_traits": dataset.n_traits,
        "n_individuals": dataset.n_individuals,
    }
    manifest_path = out / "manifest.json"
    _write_manifest(manifest_path, manifest)
    paths["manifest"] = manifest_path
    return paths


def save_simulation(out_dir, dataset: Dataset, truth, config: Optional[dict] = None):
    """Persist a simulated dataset and its planted truth. Returns {name: path}."""
    out = _prepare_out_dir(out_dir)
    ind_ids = [f"ind{n}" for n in range(dataset.n_individuals)]
    k_ids = [f"factor{k}" for k in range(truth.Z_true.shape[1])]
    paths = {}
    for name, values, rows, cols in (
        ("genotypes", dataset.X, ind_ids, dataset.snp_ids),
        ("traits", dataset.Y, ind_ids, dataset.trait_ids),
        ("Z_true", truth.Z_true, dataset.snp_ids, k_ids),
        ("A_true", truth.A_true, k_ids, dataset.trait_ids),
        ("mask", truth.mask.astype(int), dataset.snp_ids, dataset.trait_ids),
    ):
        path = out / f"{name}.tsv"
        save_matrix(path, values, rows, cols)
        paths[name] = path
    manifest_path = out / "manifest.json"
    _write_manifest(manifest_path, {"config": config or {}})
    paths["manifest"] = manifest_path
    return paths


def save_evaluation(out_dir, results: dict, pr_rows=None, config: Optional[dict] = None):
    """Persist `eval` metrics: metrics.tsv (metric, value) sorted by name,
    pr_curve.tsv (threshold, precision, recall) when PR rows are given, and
    manifest.json.  Float values are written at 17 digits; others as text.
    Returns {name: path}.
    """
    out = _prepare_out_dir(out_dir)
    paths = {}
    if pr_rows is not None:
        paths["pr_curve"] = out / "pr_curve.tsv"
        write_table(paths["pr_curve"], ["threshold", "precision", "recall"], (list(map(fmt, row)) for row in pr_rows))
    paths["metrics"] = out / "metrics.tsv"
    write_table(paths["metrics"], ["metric", "value"], (
        [key, fmt(v) if isinstance(v, float) else str(v)] for key, v in sorted(results.items())
    ))
    paths["manifest"] = out / "manifest.json"
    _write_manifest(paths["manifest"], {"config": config or {}, "metrics": results})
    return paths
