"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
quantities before asserting its gate, so `pytest tests/test_acceptance.py -s`
yields a complete scorecard.  Shared across criteria 3-5: one battery of ten
planted-truth fits at N=500, Q=100, P=25, K_true=5; criterion 5 scores each
fitted mean X E[Z] E[A] against the noiseless planted mean X Z_true A_true.
"""

import time

import numpy as np
import pytest

from berrri import (
    Dataset,
    Hyperparameters,
    SimConfig,
    elbo,
    fit,
    geweke_statistic,
    initial_state,
    precision_recall,
    rss,
    run_permutation_fdr,
    simulate,
    sweep,
    synthetic_genotypes,
    vmap,
)
from berrri.cli import run
from berrri.engine import update_A, update_eta, update_kappa, update_lambda
from berrri.metrics import per_sweep_seconds
from berrri.streams import child_rng

from conftest import compose_public_updates, micro_instance
from oracles import effect_row_oracle, kappa_conjugate_oracle, lambda_conjugate_oracle

REFERENCE_RSS_Q100_K5 = 1095.64  # reference flagship residual scale for the gate


def report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: ELBO monotonicity for every block update and every sweep
# ---------------------------------------------------------------------------


def test_criterion_1_elbo_monotonicity():
    start = time.perf_counter()
    worst = 0.0
    violations = 0
    for seed in range(20):
        data, _ = simulate(
            SimConfig(n_individuals=25, n_snps=25, n_traits=10, k_true=3, seed=seed)
        )
        hp = Hyperparameters(k_max=8, seed=seed)
        state = initial_state(data, hp)
        current = elbo(state, data, hp)

        def check():
            nonlocal current, worst, violations
            new = elbo(state, data, hp)
            drop = current - new
            worst = max(worst, drop)
            if drop > 1e-8 * abs(current):
                violations += 1
            current = new

        # 40 sweeps cover the active dynamics at this scale; afterwards the
        # state sits at its fixed point and updates are no-ops.  Each sweep
        # runs once as plain `sweep`, checked as a whole, and once as the
        # public updates in sweep order, checked after every update; the
        # latter carries the state forward
        for _ in range(40):
            before = current
            swept = sweep(state.copy(), data, hp)
            assert elbo(swept, data, hp) >= before - 1e-8 * abs(before)
            compose_public_updates(state, data, hp, after=check)
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed < 120
    report(1, passed, f"0 required; {violations} violations, worst drop {worst:.3e}, {elapsed:.0f}s")
    assert violations == 0
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 2: closed-form updates match independent numeric maximizers
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"lambda": 0.0, "eta": 0.0, "phi": 0.0, "varphi": 0.0, "kappa": 0.0}
    grid = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    for trial in range(50):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        data, hp, state = micro_instance(n=n, q=q, p=p, k=2, seed=int(rng.integers(1 << 30)))

        for k in range(2):
            l1, l2 = update_lambda(state.copy(), hp, k)
            o1, o2 = lambda_conjugate_oracle(state.eta[:, k], hp.alpha, 2)
            worst["lambda"] = max(worst["lambda"], abs(l1 - o1), abs(l2 - o2))

        k, qq = int(rng.integers(2)), int(rng.integers(q))
        probe = state.copy()
        values = np.empty(grid.size)
        for i, g in enumerate(grid):
            probe.eta[qq, k] = g
            values[i] = elbo(probe, data, hp)
        got = update_eta(state.copy(), data, hp, k, qq)
        worst["eta"] = max(worst["eta"], abs(got - grid[int(np.argmax(values))]))

        k = int(rng.integers(2))
        mean, var = effect_row_oracle(state, data, hp, k)
        phi_k, varphi_k = update_A(state.copy(), data, hp, k)
        worst["phi"] = max(worst["phi"], np.abs(phi_k - mean).max())
        worst["varphi"] = max(worst["varphi"], np.abs(varphi_k - var).max())

        k, pp = int(rng.integers(2)), int(rng.integers(p))
        k1, k2 = update_kappa(state.copy(), hp, k, pp)
        o1, o2 = kappa_conjugate_oracle(state.phi[k, pp], state.varphi[k, pp], hp.c, hp.d)
        worst["kappa"] = max(worst["kappa"], abs(k1 - o1), abs(k2 - o2))

    elapsed = time.perf_counter() - start
    ok = (
        worst["lambda"] < 1e-8
        and worst["eta"] < 1e-4
        and worst["phi"] < 1e-8
        and worst["varphi"] < 1e-8
        and worst["kappa"] < 1e-8
    )
    report(2, ok and elapsed < 300, f"worst deviations {worst}, {elapsed:.0f}s")
    assert worst["lambda"] < 1e-8
    assert worst["eta"] < 1e-4
    assert worst["phi"] < 1e-8
    assert worst["varphi"] < 1e-8
    assert worst["kappa"] < 1e-8
    assert elapsed < 300


# ---------------------------------------------------------------------------
# criteria 3-5 share one battery of flagship-simulation fits
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flagship_battery():
    runs = []
    start = time.perf_counter()
    for seed in range(10):
        cfg = SimConfig(n_individuals=500, n_snps=100, n_traits=25, k_true=5, seed=seed)
        data, truth = simulate(cfg)
        hp = Hyperparameters(k_max=10, seed=seed, max_iter=500)
        state, rep = fit(data, hp)
        runs.append((data, truth, state, rep))
    return runs, time.perf_counter() - start


def test_criterion_3_convergence_speed(flagship_battery):
    runs, elapsed = flagship_battery
    converged = sum(rep.converged and rep.iterations <= 500 for _, _, _, rep in runs)
    iters = [rep.iterations for _, _, _, rep in runs]
    passed = converged >= 8 and elapsed < 1800
    report(3, passed, f"{converged}/10 converged within 500 iterations {iters}, battery {elapsed:.0f}s")
    assert converged >= 8
    assert elapsed < 1800


def test_criterion_4_recovery_quality(flagship_battery):
    runs, _ = flagship_battery
    precisions = []
    for data, truth, state, _ in runs:
        curve = precision_recall(vmap(state), truth.mask)
        precisions.append(curve.precision_at_recall(0.75))
    hits = sum(p is not None and p >= 0.6 for p in precisions)
    report(4, hits >= 8, f"{hits}/10 seeds with precision >= 0.6 at recall 0.75: "
           + str([None if p is None else round(p, 2) for p in precisions]))
    assert hits >= 8


def test_criterion_5_rss_scale(flagship_battery):
    # The gate [0.2x, 5x] of the reference scores the signal residual: the RSS
    # between the fitted mean X E[Z] E[A] and the noiseless planted mean
    # X Z_true A_true.  The in-sample RSS against Y cannot be the gated
    # quantity: every fit of the form X @ B leaves at least the least-squares
    # residual ||(I - P_X) Y||^2, about (N - Q) * P = 10,000 at N=500, Q=100,
    # P=25 with unit trait noise, above the gate's upper edge of 5,478.2 (the
    # planted truth itself leaves about 12,500).  It is printed for context.
    runs, _ = flagship_battery
    signal, in_sample, floor = [], [], []
    for data, truth, st, _ in runs:
        fitted = data.X @ st.eta @ st.phi
        coef = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        signal.append(rss(data.X @ truth.Z_true @ truth.A_true, fitted))
        in_sample.append(rss(data.Y, fitted))
        floor.append(rss(data.Y, data.X @ coef))
    mean_signal = float(np.mean(signal))
    lo, hi = 0.2 * REFERENCE_RSS_Q100_K5, 5.0 * REFERENCE_RSS_Q100_K5
    passed = lo <= mean_signal <= hi
    report(5, passed, f"mean RSS of fitted vs planted mean {mean_signal:.1f} vs gate "
           f"[{lo:.1f}, {hi:.1f}] {[round(v) for v in signal]}; context: mean in-sample "
           f"RSS {np.mean(in_sample):.1f}, least-squares floor {np.mean(floor):.1f}")
    assert lo <= mean_signal <= hi, (
        f"mean RSS between fitted and planted mean {mean_signal:.1f} "
        f"outside [{lo:.1f}, {hi:.1f}]"
    )


# ---------------------------------------------------------------------------
# criterion 6: permutation-FDR calibration
# ---------------------------------------------------------------------------


def test_criterion_6_fdr_calibration():
    start = time.perf_counter()
    zero_seeds = 0
    for seed in range(10):
        X = synthetic_genotypes(100, 50, seed=child_rng(seed, "noise-geno"))
        Y = child_rng(seed, "noise-traits").normal(size=(100, 25))
        data = Dataset(X=X, Y=Y)
        hp = Hyperparameters(k_max=10, seed=seed, max_iter=300)
        scores, state, _ = run_permutation_fdr(data, hp, fdr_target=0.1, n_permutations=10)
        zero_seeds += int(scores.discoveries(state).sum()) == 0

    # planted arm: N=300 keeps spurious genotype correlations (~1/sqrt(N))
    # well below the co-inclusion scale, the regime the calibration targets
    fdrs = []
    for seed in range(10):
        cfg = SimConfig(n_individuals=300, n_snps=50, n_traits=25, k_true=5, seed=seed)
        data, truth = simulate(cfg)
        hp = Hyperparameters(k_max=10, seed=seed, max_iter=300)
        scores, state, _ = run_permutation_fdr(data, hp, fdr_target=0.1, n_permutations=10)
        disc = scores.discoveries(state)
        n_disc = int(disc.sum())
        fdrs.append(int((disc & ~truth.mask).sum()) / n_disc if n_disc else 0.0)
    mean_fdr = float(np.mean(fdrs))
    elapsed = time.perf_counter() - start
    passed = zero_seeds >= 9 and mean_fdr <= 0.2
    report(6, passed, f"noise arm {zero_seeds}/10 zero-discovery seeds; planted arm "
           f"mean empirical FDR {mean_fdr:.3f} {[round(f, 2) for f in fdrs]}, {elapsed:.0f}s")
    assert zero_seeds >= 9
    assert mean_fdr <= 0.2


# ---------------------------------------------------------------------------
# criterion 7: per-sweep scaling in the SNP count
# ---------------------------------------------------------------------------


def test_criterion_7_scaling_probe():
    hp = Hyperparameters(k_max=10)
    times = {}
    for q in (100, 200):
        cfg = SimConfig(n_individuals=100, n_snps=q, n_traits=25, k_true=5, seed=0)
        data, _ = simulate(cfg)
        times[q] = per_sweep_seconds(data, hp, n_sweeps=15, warmup=3)
    ratio = times[200] / times[100]
    passed = 2.0 <= ratio <= 6.0
    report(7, passed, f"per-sweep {1e3 * times[100]:.2f}ms -> {1e3 * times[200]:.2f}ms, ratio {ratio:.2f}")
    assert 2.0 <= ratio <= 6.0


# ---------------------------------------------------------------------------
# criterion 8: byte-identical outputs for identical config and seed
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    sim_args = ["--individuals", "40", "--snps", "12", "--traits", "6", "--k-true", "2", "--seed", "9"]
    fit_args = ["--k-max", "4", "--burn-in", "10", "--check-interval", "10", "--max-iter", "60", "--seed", "3"]
    sim, fitd, fdrd, evd = (tmp_path / name for name in ("sim", "fit", "fdr", "ev"))
    data_flags = ["--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv")]

    def run_all():
        assert run(["simulate", "--out-dir", str(sim), *sim_args]) == 0
        assert run(["fit", "--out-dir", str(fitd), *data_flags, *fit_args]) == 0
        assert run(["fdr", "--out-dir", str(fdrd), *data_flags, *fit_args, "--n-permutations", "2"]) == 0
        assert run([
            "eval", "--out-dir", str(evd),
            "--scores", str(fitd / "vmap_matrix.tsv"), "--mask", str(sim / "mask.tsv"),
        ]) == 0
        return {
            f"{d.name}/{f.name}": f.read_bytes()
            for d in (sim, fitd, fdrd, evd)
            for f in sorted(d.iterdir())
        }

    first = run_all()
    second = run_all()
    mismatches = sorted(
        name for name in first | second if first.get(name) != second.get(name)
    )
    passed = not mismatches
    report(8, passed, f"byte-identical reruns across simulate/fit/fdr/eval; mismatches: {mismatches}")
    assert not mismatches


# ---------------------------------------------------------------------------
# criterion 9: convergence-monitor calibration
# ---------------------------------------------------------------------------


def test_criterion_9_geweke_calibration():
    stationary_pass = 0
    for seed in range(100):
        trace = np.random.default_rng(seed).normal(size=1000)
        _, p, _ = geweke_statistic(trace)
        stationary_pass += p > 0.05
    drift_fail = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        trace = 0.01 * np.arange(1000) + rng.normal(0, 0.05, size=1000)
        _, p, _ = geweke_statistic(trace)
        drift_fail += p <= 0.05
    passed = stationary_pass >= 90 and drift_fail >= 95
    report(9, passed, f"stationary converged {stationary_pass}/100, drifting rejected {drift_fail}/100")
    assert stationary_pass >= 90
    assert drift_fail >= 95
