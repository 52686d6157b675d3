#!/usr/bin/env python3
"""Ladder census: every claim on the L0, L1 and L2 rungs, plus the two
deciders known to be slow at L2, each in its own child process under a wall
cap.  Records each verdict and its seconds, or ``timeout``.

The rungs are L0 = mo2 x mo2 / gf3_2 x gf3_2 (the claim defaults),
L1 = mo2 x mo3 / gf5_2 x gf5_2 and L2 = mo3 x mo3 / gf7_2 x gf7_2.  Claims
whose default factors are finite-field models climb the gf rungs, the others
the mo rungs.  The census is informational and gates nothing: several L1 and
L2 entries do not finish in repeatable time, which is why the benchmark's
gated workloads leave them out.

    python3 perfbench/ladder.py [--cap SECONDS]

Children run one at a time, so entries never compete with each other for
the machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common

MO_RUNGS = {"L0": ("mo2", "mo2"), "L1": ("mo2", "mo3"), "L2": ("mo3", "mo3")}
GF_RUNGS = {"L0": ("gf3_2", "gf3_2"), "L1": ("gf5_2", "gf5_2"), "L2": ("gf7_2", "gf7_2")}

# Finite-field factors the registry lacks.  -1 is a square mod 5, so the
# identity form has isotropic points there; diag(1, 2) is anisotropic.
EXTRA_GF_FORMS = {"gf5_2": (5, ((1, 0), (0, 2))), "gf7_2": (7, ((1, 0), (0, 1)))}

PROBES = {
    "is_coatomistic top(mo3,mo3)": "L2",
    "interval_check down(gf7_2,gf7_2)": "L2",
}


def register_extra_factors() -> None:
    from qll.geometry import SubspaceModel, build_projective_space
    from qll.harness import BASE_BUILDERS, NamedInstance

    def builder(name: str, q: int, form):
        def build(budgets):
            model = SubspaceModel.create(q, 2, form)
            space, rel = build_projective_space(model, budgets)
            return NamedInstance(name, space, relation=rel, model=model)

        return build

    for name, (q, form) in EXTRA_GF_FORMS.items():
        BASE_BUILDERS.setdefault(name, builder(name, q, form))


def run_probe(name: str):
    from qll.closure import is_coatomistic
    from qll.harness import resolve_base
    from qll.products import down_product, interval_check, materialize_top_product

    if name == "is_coatomistic top(mo3,mo3)":
        mo3 = resolve_base("mo3").space
        return is_coatomistic(materialize_top_product(mo3, mo3).space)
    if name == "interval_check down(gf7_2,gf7_2)":
        model = resolve_base("gf7_2").model
        return interval_check(down_product(model, model)).to_json()
    raise SystemExit(f"unknown probe {name!r}")


def child(kind: str, rest: list[str]) -> int:
    common.use_checkout_sources()
    import qll

    common.check_imported_from_checkout(qll)
    register_extra_factors()
    start = time.perf_counter()
    if kind == "claim":
        tid, left, right = rest
        report = qll.verify(tid, left, right)
        out = {
            "verdict": report.verdict,
            "failed_checks": [c.name for c in report.checks if not c.passed],
        }
        if report.verdict == "inconclusive-budget":
            out["budget"] = report.certificates
    else:
        out = {"result": run_probe(rest[0])}
    out["seconds"] = time.perf_counter() - start
    print(json.dumps(out))
    return 0


def entries() -> list[dict]:
    common.use_checkout_sources()
    from qll.harness import THEOREMS

    out = []
    for tid, spec in sorted(THEOREMS.items()):
        rungs = GF_RUNGS if spec.default_left.startswith("gf") else MO_RUNGS
        for rung, (left, right) in rungs.items():
            out.append(
                {"entry": f"{tid} {left} {right}", "rung": rung,
                 "argv": ["claim", tid, left, right]}
            )
    for name, rung in PROBES.items():
        out.append({"entry": name, "rung": rung, "argv": ["probe", name]})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=60.0,
                        help="wall seconds allowed per entry (default 60)")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child[0], args.child[1:])

    results = []
    for item in entries():
        started = time.perf_counter()
        try:
            got = common.run_child(
                [str(Path(__file__).resolve()), "--child", *item["argv"]], timeout=args.cap
            )
        except RuntimeError as exc:
            got = {"error": str(exc)}
        row = {"entry": item["entry"], "rung": item["rung"]}
        if got is None:
            row.update(status="timeout", seconds=round(time.perf_counter() - started, 3))
        elif "error" in got:
            row.update(status="error", error=got["error"])
        else:
            row.update(status="done", **got)
            row["seconds"] = round(row["seconds"], 3)
        results.append(row)
        shown = row.get("verdict", row.get("result", row.get("error", "")))
        print(f"{row['rung']}  {row['entry']:34} {row['status']:8} "
              f"{row.get('seconds', ''):>8}  {shown}", file=sys.stderr, flush=True)
    print(json.dumps({"env": common.environment(), "cap_s": args.cap, "entries": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
