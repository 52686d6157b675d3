"""Helpers shared by the benchmark scripts: locate the qll sources of this
checkout, run a child process under a wall cap, and describe the
environment a figure was measured in."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Exits with code 2 when the checkout has no qll sources, so the benchmark
    never measures some other installed copy of the package.
    """
    if not (SRC / "qll" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qll sources under {SRC}\n")
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout(module) -> None:
    """Exit with code 2 unless ``module`` was imported from this checkout."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.stderr.write(f"perfbench: qll was imported from {origin}, not {SRC}\n")
        raise SystemExit(2)


def run_child(argv: list[str], timeout: float) -> dict | None:
    """Run ``<this python> <argv>`` from the checkout root and return the
    JSON object on its last stdout line, or None if it ran past ``timeout``
    seconds.  On timeout the child is killed and waited for before this
    returns."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed the child and waited for it
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {argv} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int | None = None) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    env = {
        "python": platform.python_version(),
        "nproc": usable,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
    if seed is not None:
        env["seed"] = seed
    return env
