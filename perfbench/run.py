#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the berrri command line.

    python3 perfbench/run.py --workload flagship_fit --seed 0 --seconds 30 --trace 0

It benchmarks the berrri source tree next to this directory (`../src/berrri`)
and exits with status 2, printing no result, when there is none.  From the
seed it draws the workload's planted-truth datasets with `berrri simulate`,
then times real `berrri fit` / `berrri fdr` invocations in-process, from argv
to a written manifest, for `--seconds` seconds.  Every op's outputs are
checked, and ops on identical inputs must agree byte for byte.

With `--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json,
measured untraced.  With `--trace 1` untraced and traced ops alternate on the
same inputs and the metrics are the `per_layer` ones, tracing overhead
included.  Standard output ends with a line holding the machine and software
context and then the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# BLAS is pinned to one thread before numpy is first imported, here and in
# the import-timing child processes, which inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import outputs  # noqa: E402
from spans import Tracer, op_layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ".perfbench_work"
IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import berrri; print(time.perf_counter() - t)"


class Inputs(NamedTuple):
    seed: int
    genotypes: Path
    traits: Path
    mask: np.ndarray
    out_dir: Path


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _mb(paths) -> float:
    return sum(p.stat().st_size for p in paths if p.is_file()) / 1e6


def _keep_going(start: float, minimum: int, durations, seconds: float) -> bool:
    """Another op (or pair) while fewer than `minimum` ran, or while a typical
    one still fits in the time left."""
    return len(durations) < minimum or perf_counter() - start + statistics.median(durations) <= seconds


def dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def import_seconds() -> float:
    """Time `import berrri` in a fresh interpreter, as every CLI call pays it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Bench:
    """One benchmark run: inputs drawn from the seed, ops timed and checked."""

    def __init__(self, workload, seed: int, work: Path):
        from berrri import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = []
        self.setup_seconds = []
        self.setup_spans = []
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # dataset index -> output digests of its first good op
        self.first = {}      # dataset index -> parsed outputs of its first good op

    def set_up(self, traced: bool):
        """Draw every dataset through `berrri simulate`; time each draw."""
        w = self.workload
        for i in range(w.datasets):
            seed = dataset_seed(self.seed, i)
            in_dir = self.work / f"d{i}" / "input"
            tracer = Tracer() if traced else None
            with tracer or nullcontext():
                start = perf_counter()
                status = self.cli.run(w.simulate_argv(in_dir, seed))
                self.setup_seconds.append(perf_counter() - start)
            if status != 0:
                raise RuntimeError(f"berrri simulate exited with status {status}")
            if tracer is not None:
                self.setup_spans.append(tracer.spans)
            mask = np.loadtxt(
                in_dir / "mask.tsv", delimiter="\t", skiprows=1,
                usecols=range(1, w.n_traits + 1), ndmin=2,
            )
            self.inputs.append(Inputs(
                seed, in_dir / "genotypes.tsv", in_dir / "traits.tsv", mask > 0.5,
                self.work / f"d{i}" / "out",
            ))

    def op(self, i: int, traced: bool):
        """Run one CLI op on dataset i and check it.  Returns (wall seconds,
        tracer or None, root span or None)."""
        inp = self.inputs[i]
        argv = self.workload.op_argv(inp.genotypes, inp.traits, inp.out_dir, inp.seed)
        shutil.rmtree(inp.out_dir, ignore_errors=True)  # no stale file can pass a check
        tracer = Tracer() if traced else None
        self.attempted += 1
        with tracer or nullcontext():
            start = perf_counter()
            try:
                with tracer.span("cli.run") if traced else nullcontext() as root:
                    status = self.cli.run(argv)
            except SystemExit as exc:  # argparse rejected the argv
                status = exc.code
            except Exception:  # noqa: BLE001 - count the op as failed, keep measuring
                traceback.print_exc()
                status = "exception"
            wall = perf_counter() - start
        problems, parsed = outputs.check_op(self.workload, status, inp.out_dir)
        if not problems:
            digests = outputs.digests(inp.out_dir)
            if digests != self.reference.setdefault(i, digests):
                problems.append("outputs differ byte for byte from an earlier op on the same inputs")
            self.first.setdefault(i, parsed)
        verdict = "failed: " + "; ".join(problems) if problems else "ok"
        print(f"op {self.attempted} dataset {i} traced={int(traced)} {wall:.3f} s {verdict}", file=sys.stderr)
        self.failed += bool(problems)
        return wall, tracer, root

    def end_to_end(self, seconds: float) -> dict:
        w = self.workload
        import_s = _median(import_seconds() for _ in range(IMPORT_REPEATS))
        self.set_up(traced=False)
        walls = {i: [] for i in range(w.datasets)}
        durations = []
        start = perf_counter()
        # Every dataset once, then one repeat for the byte-identity check,
        # then more ops round-robin while the time lasts.
        while _keep_going(start, w.datasets + 1, durations, seconds):
            i = len(durations) % w.datasets
            wall, _, _ = self.op(i, traced=False)
            walls[i].append(wall)
            durations.append(wall)
        return {
            "wall_s": _median(_median(v) for v in walls.values()),
            "setup_s": import_s + _median(self.setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "neg_elbo": _mean(-out["final_elbo"] for out in self.first.values()),
            "pr_auc": _mean(
                outputs.pr_auc(out["magnitude"], self.inputs[i].mask) for i, out in self.first.items()
            ),
        }

    def per_layer(self, seconds: float) -> dict:
        w = self.workload
        self.set_up(traced=True)
        rows, ratios, durations = [], [], []
        absent = set()
        start = perf_counter()
        # Untraced and traced ops alternate on the same dataset, so each pair
        # gives one overhead ratio and the traced op is checked against the
        # untraced one byte for byte.
        while _keep_going(start, 1, durations, seconds):
            i = len(durations) % w.datasets
            pair_start = perf_counter()
            plain, _, _ = self.op(i, traced=False)
            traced, tracer, root = self.op(i, traced=True)
            durations.append(perf_counter() - pair_start)
            ratios.append(traced / plain)
            absent |= tracer.absent
            row = op_layer_metrics(tracer.spans, root, w.n_individuals, w.n_snps)
            inp = self.inputs[i]
            row["io.load_mb"] = _mb([inp.genotypes, inp.traits])
            row["io.save_mb"] = _mb(inp.out_dir.iterdir())
            rows.append(row)
        for layer in sorted(absent):
            print(f"layer {layer!r}: a span target is missing at this commit; reported as absent", file=sys.stderr)

        def total(key):
            return sum(r[key] for r in rows)

        metrics = {key: total(key) / len(rows) for key in rows[0] if key != "engine.nonconverged"}
        metrics["kernels.eta_gflops"] = total("kernels.eta_gflop") / total("kernels.eta_s") if total("kernels.eta_s") else 0.0
        metrics["engine.sweeps_per_fit"] = total("engine.sweeps") / total("engine.fits") if total("engine.fits") else 0.0
        metrics["engine.nonconverged_frac"] = total("engine.nonconverged") / total("engine.fits") if total("engine.fits") else 0.0
        setup = [{name: t for name, (_, t, _) in summarize(s).items()} for s in self.setup_spans]
        metrics["simulate.draw_s"] = _median(s.get("simulate.draw", 0.0) for s in setup)
        metrics["io.setup_write_s"] = _median(s.get("io.setup_write", 0.0) for s in setup)
        scored = sorted(self.first)
        rates = [outputs.discovery_rates(self.first[i]["significant"], self.inputs[i].mask) for i in scored]
        metrics["associate.fdp"] = _mean(r[0] for r in rates)
        metrics["associate.recall_at_fdr"] = _mean(r[1] for r in rates)
        metrics["associate.precision_at_recall_0.75"] = _mean(
            outputs.precision_at_recall(self.first[i]["magnitude"], self.inputs[i].mask, 0.75) for i in scored
        )
        metrics["trace.overhead_frac"] = _median(ratios) - 1.0
        metrics["trace.absent_layers"] = len(absent)
        return metrics


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def context(workload) -> dict:
    import scipy

    import berrri

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = None
    backend = getattr(berrri, "default_backend", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "kernel_backend": backend() if callable(backend) else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "berrri": getattr(berrri, "__version__", None),
        "git_commit": _git_commit(),
        "workload": workload.name,
        "argv": workload.op_argv("GENOTYPES", "TRAITS", "OUT_DIR", "SEED"),
        "datasets": workload.datasets,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="shrink the workload to smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "berrri" / "__init__.py").is_file():
        print(f"error: no berrri source tree at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()

    work = ROOT / WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(workload, args.seed, work)
        values = bench.per_layer(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"context": context(workload)}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
