"""End-to-end runs of run.py with a tiny job count, checked against BENCHMARK.json."""
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload, trace", [("mn_check", 0), ("mn_fluctuate", 1), ("u1u2_cli", 0),
                                             ("u1u2_cli", 1)])
def test_smoke_run_reports_every_metric(workload, trace):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    work = os.path.join(ROOT, ".perfbench_work")
    assert not os.path.exists(work) or not os.listdir(work)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "mn_check", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
