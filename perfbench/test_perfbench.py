"""Smoke tests for the benchmark, at the tiny input size.

Run from the repository root:  python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=REPO, seconds="0.5"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_is_clean_and_prints_every_metric(workload):
    lines, result = result_of(bench(workload, 5, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(result["metrics"][k]["value"] > 0 for k in spec)
    for name, unit in spec.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any(line.startswith("metric fail_frac 0.0 ratio") for line in lines)
    assert any(line.startswith("env {") for line in lines)
    assert sum(line.startswith("digest ") for line in lines) == result["attempted"]


EXACT = ([f"{name}.calls" for name in run.tracing.CALLS] + list(run.tracing.COUNTERS)
         + ["fourier.check_c0.prefilter_accept_frac"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_repeat_their_counters(workload):
    _, first = result_of(bench(workload, 7, 1))
    _, second = result_of(bench(workload, 7, 1))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert {k: first["metrics"][k]["value"] for k in EXACT} == \
        {k: second["metrics"][k]["value"] for k in EXACT}
    # every traced call sits under cli.main, so self times add up to the traced work
    assert first["metrics"]["trace.self_share"]["value"] == pytest.approx(1.0, abs=0.05)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("freeprod", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_flags_each_kind_of_failure(tmp_path):
    inv = workloads.Invocation(name="x", part="freeprod-scalar", argv=[], exit_code=1,
                               verdicts=[("identity-convergence", False)])
    report = json.dumps({"conditions": [{"name": "identity-convergence", "passed": False}]})
    good = run.Outcome(1, "text\n", "", report)
    assert run.check(inv, good, tmp_path) == []
    assert run.check(inv, run.Outcome(0, "text\n", "", report), tmp_path)
    assert run.check(inv, run.Outcome(1, "", "Traceback (most recent call last):\nX", report),
                     tmp_path)
    assert run.check(inv, run.Outcome(1, "text\n", "", "{not json"), tmp_path)
    flipped = report.replace("false", "true")
    assert run.check(inv, run.Outcome(1, "text\n", "", flipped), tmp_path)
    assert run.compare(good, run.Outcome(1, "other\n", "", report))
    assert run.compare(good, good) == []


def test_closed_form_check_catches_a_missing_witness(tmp_path):
    invocations = workloads.build("freeprod", 3, 0, "tiny", tmp_path)
    inv = next(i for i in invocations if i.exit_code == 1)
    config = json.loads(Path(inv.argv[1]).read_text())
    assert config["conv_tols"][-1] < 1.0
    assert inv.check({"conditions": [{"name": "identity-convergence", "passed": False,
                                      "witnesses": []}]}, tmp_path)


def test_ball_size_recurrence():
    assert workloads.ball_size((0, 0), 1) == 5          # F2: e and four generators
    assert workloads.ball_size((0, 0), 2) == 17
    assert workloads.ball_size((2, 3), 1) == 4          # e, a, b, b^2
    assert workloads.ball_size((3, 4), 6) == 392
