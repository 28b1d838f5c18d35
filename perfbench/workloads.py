"""The benchmark's workloads and the berrri argv each one times.

Each workload is a planted-truth shape plus the CLI subcommand run on it.
Why each one exists is in BENCHMARK.json and, at more length, README.md:
every queued speed-up moves a different layer, so each layer has a workload
where it dominates and one where it does not.
"""

from dataclasses import dataclass, replace

# Every hyperparameter is passed explicitly, at the values of the library's
# `Hyperparameters` defaults, so a change to the CLI's own defaults cannot
# silently change the model the benchmark times.  No kernel or backend flag
# is passed: the engine runs on the backend it picks by itself.
HYPERPARAMETER_FLAGS = (
    "--k-max", "10",
    "--ard-shape", "1",
    "--ard-rate", "1",
    "--alpha", "1",
    "--sigma2", "1",
    "--p-thresh", "0.05",
    "--burn-in", "100",
    "--check-interval", "100",
)


@dataclass(frozen=True)
class Workload:
    """One planted-truth shape and the CLI op run on it.

    `datasets` is the number of distinct planted datasets a run draws from
    its seed; quality metrics average over them and the wall time takes
    their median, so one slow-converging draw does not swing a run.
    """

    name: str
    subcommand: str
    n_individuals: int
    n_snps: int
    n_traits: int
    max_iter: int
    datasets: int
    k_true: int = 5
    n_permutations: int = 0
    fdr_target: float = 0.1

    def simulate_argv(self, out_dir, seed: int) -> list:
        return [
            "simulate", "--out-dir", str(out_dir),
            "--individuals", str(self.n_individuals),
            "--snps", str(self.n_snps),
            "--traits", str(self.n_traits),
            "--k-true", str(self.k_true),
            "--seed", str(seed),
        ]

    def op_argv(self, genotypes, traits, out_dir, seed: int) -> list:
        argv = [
            self.subcommand,
            "--genotypes", str(genotypes),
            "--traits", str(traits),
            "--out-dir", str(out_dir),
            "--max-iter", str(self.max_iter),
            *HYPERPARAMETER_FLAGS,
            "--seed", str(seed),
        ]
        if self.subcommand == "fdr":
            argv += [
                "--n-permutations", str(self.n_permutations),
                "--fdr-target", str(self.fdr_target),
            ]
        return argv

    def toy(self) -> "Workload":
        """The same op at a size that runs in a second, for the smoke test."""
        return replace(
            self,
            n_individuals=40,
            n_snps=12,
            n_traits=40 if self.n_traits > self.n_snps else 6,
            max_iter=200,
            datasets=2,
            k_true=2,
            n_permutations=min(self.n_permutations, 2),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flagship_fit",
            subcommand="fit",
            n_individuals=500,
            n_snps=100,
            n_traits=25,
            max_iter=500,
            datasets=5,
        ),
        Workload(
            name="fdr_perm",
            subcommand="fdr",
            n_individuals=300,
            n_snps=50,
            n_traits=25,
            max_iter=300,
            datasets=1,
            n_permutations=10,
        ),
        Workload(
            name="wide_traits",
            subcommand="fit",
            n_individuals=500,
            n_snps=50,
            n_traits=500,
            max_iter=500,
            datasets=3,
        ),
    )
}
