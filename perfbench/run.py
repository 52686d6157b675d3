#!/usr/bin/env python3
"""qll benchmark: one workload, one client in a closed loop, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is one run through the workload's fixed op list; the seed sets the op
order within each pass and the atom relabelling of the spaces handed
straight to a decider (see workloads.py).  Passes repeat until the next one
would end past ``--seconds``; at least one pass always runs.  Pass time is
the sum of the ops' wall times; answer checks and garbage collection between
ops run outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Set-up time is the median over
fresh processes that each import qll and build the workload's inputs; they
run between passes, spread evenly over the run, so they see the same drift
in machine speed as the passes.

``--trace 1`` prints the per-layer metrics.  It runs the workload untraced
in one child process and traced in another, half of ``--seconds`` each, so
no wrapper leaks into an untraced number, and reports the tracing overhead
as the difference of their median pass times.  The traced child writes its
spans to perfbench/out/.

Every run prints a record line (environment, sample counts, per-op medians,
any failures) and, as its last line, the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
from pathlib import Path
from time import perf_counter

import common

WORKLOADS = ("claims-l0", "deciders-l1", "construct-l2")
CLAIMS = ("thm8.6", "thm9.1", "thm9.4", "thm5.x", "thm7.5", "thm10.4", "cnot")
SETUP_RUNS = 9
OUT_DIR = Path(__file__).resolve().parent / "out"
HERE = str(Path(__file__).resolve())

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "pass_s.tail": ("s", "lower"),
    "slowest_op_s": ("s", "lower"),
    "ok_share": ("share", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}


# ---------------------------------------------------------------------------
# per-layer metrics, each a function of one traced pass


def _calls(name):
    return lambda p: p["calls"].get(name, 0)


def _self(name):
    return lambda p: p["self_s"].get(name, 0.0)


def _count(name):
    return lambda p: p["counters"].get(name, 0)


def _ratio(num, den):
    return lambda p: p["counters"].get(num, 0) / p["counters"][den] if p["counters"].get(den) else 0.0


def _layer_self(layer):
    return lambda p: sum(v for k, v in p["self_s"].items() if k.startswith(layer + "."))


S, N = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "closure.self_s": (S, _layer_self("closure")),
    "closure.closure_mask.calls": (N, _calls("closure.closure_mask")),
    "closure.closure_mask.self_s": (S, _self("closure.closure_mask")),
    "closure.ExplicitSpace.self_s": (S, _self("closure.ExplicitSpace")),
    "closure.find_covering_violation.self_s": (S, _self("closure.find_covering_violation")),
    "closure.find_covering_violation.family": (N, _count("closure.find_covering_violation.family")),
    "closure.find_dual_covering_violation.self_s": (S, _self("closure.find_dual_covering_violation")),
    "closure.coatom_masks.self_s": (S, _self("closure.coatom_masks")),
    "closure.is_coatomistic.self_s": (S, _self("closure.is_coatomistic")),
    "ortho.self_s": (S, _layer_self("ortho")),
    "ortho.find_orthocomplementations.self_s": (S, _self("ortho.find_orthocomplementations")),
    "ortho.search.nodes": (N, _count("ortho.search.nodes")),
    "ortho.verify_orthocomplementation.calls": (N, _calls("ortho.verify_orthocomplementation")),
    "ortho.verify_orthocomplementation.self_s": (S, _self("ortho.verify_orthocomplementation")),
    "ortho.leaf_yield": (("ratio", "higher"), _ratio("ortho.search.maps", "ortho.search.leaves")),
    "automorphisms.self_s": (S, _layer_self("automorphisms")),
    "automorphisms.automorphism_group.self_s": (S, _self("automorphisms.automorphism_group")),
    "automorphisms.group_elements": (N, _count("automorphisms.group_elements")),
    "automorphisms.decompose_automorphism.calls": (N, _calls("automorphisms.decompose_automorphism")),
    "automorphisms.decompose_automorphism.self_s": (S, _self("automorphisms.decompose_automorphism")),
    "automorphisms.induced_product_automorphism.self_s": (
        S, _self("automorphisms.induced_product_automorphism")),
    "automorphisms.is_automorphism.calls": (N, _calls("automorphisms.is_automorphism")),
    "products.self_s": (S, _layer_self("products")),
    **{
        f"products.{fn}.self_s": (S, _self(f"products.{fn}"))
        for fn in ("sep_product", "materialize_top_product", "star_product", "star_generators",
                   "down_product", "check_p123", "check_p4", "interval_check")
    },
    "products.family_sets": (N, _count("products.family_sets")),
    "products.top.row_yield": (("ratio", "higher"), _ratio("products.top.kept", "products.top.rows")),
    "products.down.image_yield": (
        ("ratio", "higher"), _ratio("products.down.images", "products.down.subspaces")),
    "geometry.self_s": (S, _layer_self("geometry")),
    "geometry.enumerate_subspaces.self_s": (S, _self("geometry.enumerate_subspaces")),
    "geometry.subspaces": (N, _count("geometry.subspaces")),
    "geometry.sigma_down.calls": (N, _calls("geometry.sigma_down")),
    "geometry.sigma_down.self_s": (S, _self("geometry.sigma_down")),
    "geometry.build_projective_space.self_s": (S, _self("geometry.build_projective_space")),
    "geometry.similitude_group.self_s": (S, _self("geometry.similitude_group")),
    "gf.self_s": (S, _layer_self("gf")),
    "gf.in_row_space.calls": (N, _calls("gf.in_row_space")),
    "gf.in_row_space.self_s": (S, _self("gf.in_row_space")),
    "gf.rref.calls": (N, _calls("gf.rref")),
    "gf.rref.self_s": (S, _self("gf.rref")),
    "harness.self_s": (S, _layer_self("harness")),
    "harness.verify.self_s": (S, _self("harness.verify")),
    **{f"harness.verify.{c}.s": (S, _count(f"harness.verify.{c}.s")) for c in CLAIMS},
    "harness.resolve_base.calls": (N, _calls("harness.resolve_base")),
    "harness.resolve_base.self_s": (S, _self("harness.resolve_base")),
    # time inside ops but outside every traced qll function
    "trace.bench_self_s": (S, _layer_self("op")),
    "trace.spans": (N, lambda p: sum(p["calls"].values())),
    # wrapper cost taken out of the self times above
    "trace.wrapper_s": (S, lambda p: p["wrapper_s"]),
}
# whole-run figures of the traced run, computed from both children
TRACE_TOTALS = {
    "trace.pass_s": S,
    "trace.untraced_pass_s": S,
    "trace.overhead_s": S,
}


# ---------------------------------------------------------------------------
# measuring


def load_workload(name: str, seed: int) -> list:
    common.use_checkout_sources()
    import qll

    common.check_imported_from_checkout(qll)
    import workloads

    return workloads.setup(name, seed)


def run_passes(ops: list, seed: int, seconds: float, tracer=None, between=None) -> dict:
    """Closed loop over passes until the next pass would end past
    ``seconds``.  Returns per-pass op times, failures and, when traced, the
    per-pass layer figures.

    ``between(elapsed, last)``, when given, runs before the first pass and
    after every pass, with the seconds the passes have taken so far; time
    spent in it does not count towards ``seconds``."""
    order_rng = random.Random(f"order:{seed}")
    passes: list[dict[str, float]] = []
    layers: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    paused = 0.0

    def pause(elapsed: float, last: bool) -> None:
        nonlocal paused
        t0 = perf_counter()
        between(elapsed, last)
        paused += perf_counter() - t0

    start = perf_counter()
    if between is not None:
        pause(0.0, False)
    while True:
        order = list(ops)
        order_rng.shuffle(order)
        times: dict[str, float] = {}
        for op in order:
            gc.collect()
            t0 = perf_counter()
            dt = None
            try:
                result = tracer.root(f"op.{op.name}", op.run) if tracer else op.run()
                dt = perf_counter() - t0
                why = op.check(result)
            except Exception as exc:  # raised by the op, or by a malformed answer
                why = f"{op.name}: {type(exc).__name__}: {exc}"
            result = None  # release the answer before the next op runs
            times[op.name] = perf_counter() - t0 if dt is None else dt
            attempted += 1
            if why is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(why)
        passes.append(times)
        if tracer is not None:
            layers.append(tracer.take())
        wall = perf_counter() - start - paused
        last = wall + wall / len(passes) > seconds
        if between is not None:
            pause(wall, last)
        if last:
            break
    out = {"passes": passes, "attempted": attempted, "failed": failed, "errors": errors}
    if tracer is not None:
        out["layers"] = layers
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, capped at
    a quarter of the samples when there are fewer than forty.  Returns
    (value, percentile, samples beyond it)."""
    n = len(values)
    beyond = min(10, n // 4)
    return sorted(values)[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def setup_probes(args) -> tuple[list[float], object]:
    """A sample list and a ``between`` hook for run_passes that fills it.
    Probe i is due once the passes have run i / SETUP_RUNS of ``--seconds``;
    the last call runs every probe still owed."""
    samples: list[float] = []
    argv = [HERE, "--probe", "setup", "--workload", args.workload, "--seed", str(args.seed)]

    def between(elapsed: float, last: bool) -> None:
        due = SETUP_RUNS if last else 1 + int(elapsed * SETUP_RUNS / args.seconds)
        while len(samples) < min(due, SETUP_RUNS):
            child = common.run_child(argv, timeout=120)
            if child is None:
                raise RuntimeError("a set-up probe ran past its cap")
            samples.append(child["setup_s"])

    return samples, between


def end_to_end(args) -> tuple[dict, dict]:
    ops = load_workload(args.workload, args.seed)
    setups, between = setup_probes(args)
    run = run_passes(ops, args.seed, args.seconds, between=between)
    pass_times = [sum(p.values()) for p in run["passes"]]
    slowest = [max(p.values()) for p in run["passes"]]
    tail_value, tail_pct, beyond = tail(pass_times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_times),
        "pass_s.tail": tail_value,
        "slowest_op_s": statistics.median(slowest),
        "ok_share": 1.0 - run["failed"] / run["attempted"],
        "peak_rss_mib": peak_kib / 1024.0,
    }
    n = len(pass_times)
    record = {
        "samples": {"setup_s": len(setups), "pass_s": n, "pass_s.tail": n,
                    "slowest_op_s": n, "ok_share": run["attempted"], "peak_rss_mib": 1},
        "pass_s.tail": {"percentile": round(tail_pct, 2), "passes_beyond": beyond},
        "fail_share": run["failed"] / run["attempted"],
        "op_median_s": {
            name: statistics.median(p[name] for p in run["passes"]) for name in run["passes"][0]
        },
        "setup_samples_s": setups,
        **{k: run[k] for k in ("attempted", "failed", "errors")},
    }
    return values, record


def per_layer(args) -> tuple[dict, dict]:
    half = args.seconds / 2
    common_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(half)]
    untraced = common.run_child([HERE, "--probe", "untraced", *common_args], timeout=2 * half + 120)
    traced = common.run_child([HERE, "--probe", "traced", *common_args], timeout=4 * half + 120)
    if untraced is None or traced is None:
        raise RuntimeError("a measuring child ran past its cap")
    layers = traced["layers"]
    values = {
        name: statistics.median(fn(p) for p in layers) for name, (_, fn) in PER_LAYER.items()
    }
    traced_pass = statistics.median(sum(p.values()) for p in traced["passes"])
    untraced_pass = statistics.median(sum(p.values()) for p in untraced["passes"])
    values.update({
        "trace.pass_s": traced_pass,
        "trace.untraced_pass_s": untraced_pass,
        "trace.overhead_s": traced_pass - untraced_pass,
    })
    record = {
        "samples": {"per_layer": len(layers), "trace.untraced_pass_s": len(untraced["passes"])},
        "processes": {
            role: {"pid": child["pid"], "wrapped_names": child["wrapped_names"]}
            for role, child in (("untraced", untraced), ("traced", traced))
        },
        "wrapper_cost_s": traced["wrapper_cost_s"],
        "spans_file": traced["spans_file"],
        "spans_kept": traced["spans_kept"],
        "dropped_spans": traced["dropped_spans"],
    }
    for key in ("attempted", "failed", "errors"):
        record[key] = untraced[key] + traced[key]
    record["fail_share"] = record["failed"] / record["attempted"]
    return values, record


def probe(args) -> dict:
    if args.probe == "setup":
        t0 = perf_counter()
        load_workload(args.workload, args.seed)
        return {"setup_s": perf_counter() - t0}
    import tracing

    if args.probe == "untraced":
        run = run_passes(load_workload(args.workload, args.seed), args.seed, args.seconds)
        return {**run, "pid": os.getpid(), "wrapped_names": tracing.installed_wrappers()}

    # install before the workload module binds qll's functions
    tracer = tracing.Tracer()
    rebound = tracer.install()
    ops = load_workload(args.workload, args.seed)
    tracer.calibrate()
    t0 = perf_counter()
    run = run_passes(ops, args.seed, args.seconds, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(path, t0)
    run.update(rebound=rebound, spans_file=str(path.relative_to(common.ROOT)),
               spans_kept=len(tracer.spans), dropped_spans=tracer.dropped_spans,
               pid=os.getpid(), wrapped_names=tracing.installed_wrappers(),
               wrapper_cost_s={"own": tracer.own_cost, "parent": tracer.parent_cost})
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    common.use_checkout_sources()

    if args.probe:
        print(json.dumps(probe(args)))
        return 0

    if args.trace:
        values, record = per_layer(args)
        units = {k: u for k, ((u, _), _) in PER_LAYER.items()}
        units.update({k: u for k, (u, _) in TRACE_TOTALS.items()})
    else:
        values, record = end_to_end(args)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": common.environment(args.seed), **record}
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
