"""Smoke tests of the scripts under scripts/, run as a user runs them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from helpers import count_dot_elements

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "run_all_theorems.py"


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


def test_export_diagrams(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "export_diagrams.py"), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the default list: the four factor spaces and sep(mo2,mo2)
    expected = {"mo2": 6, "mo3": 8, "boolean3": 8, "gf3_2": 6, "sep_mo2_mo2_": 114}
    nodes = {
        path.stem: count_dot_elements(path.read_text())[0]
        for path in tmp_path.glob("*.dot")
    }
    assert nodes == expected
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        "mo2", "mo3", "boolean3", "gf3_2", "sep(mo2,mo2)"
    ]
