"""Tests of the benchmark itself: tiny runs of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    report, out = result("--workload", workload, "--seed", 3, "--ops", 3, "--trace", 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 3
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    assert len(report["setup_s_samples"]) == 3
    assert report["workload"] == workload and report["op_count"] == 3


@pytest.mark.parametrize("workload", ["ql-transport", "cli-cold"])
def test_traced_run_reports_layers_and_matches_untraced_digest(workload):
    report, out = result("--workload", workload, "--seed", 3, "--ops", 3, "--trace", 1)
    assert out["correct"] and report["digests_equal"]
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    plain, _ = result("--workload", workload, "--seed", 3, "--ops", 3, "--trace", 0)
    assert plain["runs"]["timed"]["digest"] == report["runs"]["traced"]["digest"]


def test_seed_fixes_the_answers():
    first, _ = result("--workload", "refute-search", "--seed", 5, "--ops", 4)
    second, _ = result("--workload", "refute-search", "--seed", 5, "--ops", 4)
    other, _ = result("--workload", "refute-search", "--seed", 6, "--ops", 4)
    assert first["runs"]["timed"]["digest"] == second["runs"]["timed"]["digest"]
    assert first["runs"]["timed"]["digest"] != other["runs"]["timed"]["digest"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 0, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
