"""Tiny-size runs of every workload emit every metric and fail nothing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, per_layer_units

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("query-large", "repair-conflict", "suites")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_two_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    record, result = last_two_lines(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_frac"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    record, result = last_two_lines(run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == per_layer_units()
    repair_calls = metrics["evolution.minimal_repair_candidates.calls"]["value"]
    if workload == "query-large":
        assert repair_calls == 0
        assert metrics["dsl.parse_domain.calls"]["value"] == 3
        assert metrics["kernel.models.calls"]["value"] > 0
    else:
        assert repair_calls > 0
    if workload == "suites":
        for suite in ("interaction", "agm", "dp", "lehmann", "i1i2"):
            assert metrics[f"postulates.instances.{suite}"]["value"] > 0
    else:
        assert metrics["cli.main.calls"]["value"] == (workload == "repair-conflict") * result["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("suites", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
