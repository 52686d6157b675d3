"""Smoke test of the benchmark itself.

One short pass per workload must emit every metric that BENCHMARK.json
declares, with its unit, and the traced and untraced measurements must run
in separate processes.  Takes about a minute on two cores:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "perfbench" / "run.py"
ENV_KEYS = {"python", "nproc", "platform", "git_commit", "seed"}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def short_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_pass_emits_every_declared_metric(workload, trace, section):
    record, result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    assert ENV_KEYS <= set(record["env"])
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
        assert set(record["samples"]) == set(declared)
    else:
        procs = record["processes"]
        assert procs["untraced"]["pid"] != procs["traced"]["pid"]
        assert procs["untraced"]["wrapped_names"] == 0
        assert procs["traced"]["wrapped_names"] > 0


def test_refuses_to_run_without_qll_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
