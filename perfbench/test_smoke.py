"""Smoke test of the benchmark itself: every workload shape at toy size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import outputs  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]
    if trace:
        assert result["metrics"]["trace.absent_layers"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in listed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_span_target_marks_its_layer_absent():
    tracer = Tracer(TARGETS + (
        ("gone.f", "gone", "berrri.no_such_module", "f"),
        ("io.gone", "io", "berrri.io", "no_such_function"),
    ))
    assert tracer.absent == {"gone", "io"}
    with tracer:
        pass


def test_scoring_against_a_hand_worked_curve():
    scores = np.array([0.9, 0.8, 0.7, 0.1])
    mask = np.array([True, False, True, False])
    # cutoffs 0.9, 0.8, 0.7, 0.1 -> precision 1, 1/2, 2/3, 1/2; recall 1/2, 1/2, 1, 1
    assert outputs.pr_auc(scores, mask) == pytest.approx(0.5 * 1 + 0.5 * 2 / 3)
    assert outputs.precision_at_recall(scores, mask, 0.75) == pytest.approx(2 / 3)
    assert outputs.discovery_rates(scores >= 0.7, mask) == (pytest.approx(1 / 3), 1.0)
