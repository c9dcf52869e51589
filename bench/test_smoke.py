"""Smoke test of the benchmark harness: every workload at toy size, in seconds.

    python -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload_and_reports_every_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seed", "5"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] == 2 * len(json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = metrics[f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"], metric["name"]
            assert isinstance(got["value"], (int, float)), metric["name"]
    assert len(metrics) == len(spec["workloads"]) * (len(spec["end_to_end"]) + len(spec["per_layer"]))


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kac-mc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
