"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``. For each
workload it runs the benchmark untraced and traced and checks that

- every metric BENCHMARK.json declares for the mode is emitted, with its unit
  and direction, and no other metric is;
- the result line has exactly the keys the benchmark contract names;
- the traced and untraced runs write byte-identical outputs (equal digests),
  so wrapping mvpad from outside never changes an output byte.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_digests(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        record, result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, record["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m for m in SPEC[kind]}
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == declared[name]["unit"]
            assert isinstance(metric["value"], (int, float))
            assert record["directions"][name] == declared[name]["better"]
        digests.append(record["digest"])
        if trace:
            assert record["untraced_digest"] == record["digest"]
            assert result["metrics"]["memory_bank.nn_oracle_mismatches"]["value"] == 0
    assert digests[0] == digests[1]


def test_refuses_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for item in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / item.name).write_bytes(item.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
