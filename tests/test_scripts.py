"""Smoke test of scripts/run_all_theorems.py, run as a user runs it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_theorems.py"


def test_run_all_theorems(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--report-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert len(list(tmp_path.glob("*.json"))) == 7
    thm104 = next(line for line in lines if line.startswith("thm10.4 "))
    assert "analog-divergence" in thm104
    assert thm104.endswith("failing: axiom_p4_full_aut_fails")
    assert all("verified" in line for line in lines if line is not thm104)
    # the worst exit code among the reports: thm10.4's analog divergence
    assert proc.returncode == 1
