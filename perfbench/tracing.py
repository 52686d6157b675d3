"""Per-layer tracing of qll from outside the package.

``Tracer.install()`` rebinds, in every ``qll.*`` module namespace, each name
that refers to a public function of a traced layer to a wrapper, and wraps
the closure kernel's methods.  A wrapper records a span (name, start, end,
parent) and adds to per-name call counts and self time: the span's time
minus the time of its child spans.  Counters come from call counts and from
return values (search nodes, group sizes, family sizes, ``down.notes``).

A wrapper's own bookkeeping lands partly inside its span and partly in its
parent's.  ``Tracer.calibrate()`` times a wrapped empty function against a
plain one, and ``take()`` subtracts the two per-call costs from each name's
self time: the own cost once per call, the parent cost once per traced
child call.  What it subtracted is reported as ``wrapper_s``.

Only calls made inside an open root span (one benchmark op) are recorded,
so set-up and answer checks stay out of the figures.  Spans live in memory
up to ``SPAN_CAP``; later spans still count towards self times and counters
but are not kept, and ``dropped_spans`` says how many.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import common

LAYERS = ("closure", "ortho", "automorphisms", "products", "geometry", "gf", "harness")

# (module, class, method, span name): the closure kernel and the point where
# an explicit space is built, which is where a closure index would be paid.
METHODS = (
    ("closure", "ExplicitSpace", "__init__", "closure.ExplicitSpace"),
    ("closure", "ExplicitSpace", "closure_mask", "closure.closure_mask"),
    ("closure", "ImplicitSpace", "closure_mask", "closure.closure_mask"),
    ("closure", "ExplicitSpace", "coatom_masks", "closure.coatom_masks"),
)

SPAN_CAP = 50_000


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counter hooks: (tracer, fn, args, kwargs, result, seconds, parent span name).
def _ortho_search(t, fn, args, kwargs, res, dt, parent):
    t.counters["ortho.search.nodes"] += res.nodes
    t.counters["ortho.search.maps"] += len(res.maps)


def _ortho_verify(t, fn, args, kwargs, res, dt, parent):
    if parent == "ortho.find_orthocomplementations":
        t.counters["ortho.search.leaves"] += 1


def _group(t, fn, args, kwargs, res, dt, parent):
    t.counters["automorphisms.group_elements"] += len(res)


def _family(t, fn, args, kwargs, res, dt, parent):
    t.counters["products.family_sets"] += len(res.space.masks)


def _top(t, fn, args, kwargs, res, dt, parent):
    _family(t, fn, args, kwargs, res, dt, parent)
    left, right = _arg(fn, args, kwargs, "left"), _arg(fn, args, kwargs, "right")
    t.counters["products.top.rows"] += len(right.masks) ** left.universe_size
    t.counters["products.top.kept"] += len(res.space.masks)


def _down(t, fn, args, kwargs, res, dt, parent):
    _family(t, fn, args, kwargs, res, dt, parent)
    t.counters["products.down.subspaces"] += res.notes["subspaces"]
    t.counters["products.down.images"] += res.notes["distinct_images"]


def _subspaces(t, fn, args, kwargs, res, dt, parent):
    t.counters["geometry.subspaces"] += len(res)


def _covering(t, fn, args, kwargs, res, dt, parent):
    t.counters["closure.find_covering_violation.family"] += len(
        _arg(fn, args, kwargs, "space").masks
    )


def _verify(t, fn, args, kwargs, res, dt, parent):
    t.counters[f"harness.verify.{_arg(fn, args, kwargs, 'theorem_id')}.s"] += dt


HOOKS = {
    "ortho.find_orthocomplementations": _ortho_search,
    "ortho.verify_orthocomplementation": _ortho_verify,
    "automorphisms.automorphism_group": _group,
    "products.sep_product": _family,
    "products.star_product": _family,
    "products.materialize_top_product": _top,
    "products.down_product": _down,
    "geometry.enumerate_subspaces": _subspaces,
    "closure.find_covering_violation": _covering,
    "harness.verify": _verify,
}


def installed_wrappers() -> int:
    """How many names in the loaded qll modules and classes are bound to a
    tracer wrapper; 0 in a process that was never traced."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qll" or modname.startswith("qll.")):
            continue
        for obj in vars(mod).values():
            targets = vars(obj).values() if inspect.isclass(obj) else (obj,)
            count += sum(hasattr(t, "__qll_trace__") for t in targets)
    return count


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.dropped_spans = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # traced child calls per parent name
        self.children: dict[str, int] = defaultdict(int)
        # seconds one wrapped call adds inside its own span and in its parent's
        self.own_cost = self.parent_cost = 0.0
        # open frames: [name, span index, seconds covered by children]
        self._stack: list[list] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, start: float) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, start, None, parent])
        else:
            idx = -1
            self.dropped_spans += 1
        frame = [name, idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> float:
        self._stack.pop()
        dt = end - start
        name = frame[0]
        self.calls[name] += 1
        self.self_s[name] += dt - frame[2]
        if frame[1] >= 0:
            self.spans[frame[1]][2] = end
        if self._stack:
            self._stack[-1][2] += dt
            self.children[self._stack[-1][0]] += 1
        return dt

    def root(self, name: str, fn):
        """Run ``fn()`` as a root span and return its result."""
        start = perf_counter()
        frame = self._enter(name, start)
        try:
            return fn()
        finally:
            self._exit(frame, start, perf_counter())

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            start = perf_counter()
            frame = self._enter(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._exit(frame, start, perf_counter())
            if hook is not None:
                hook(self, fn, args, kwargs, result, dt, parent)
            return result

        wrapper.__qll_trace__ = name
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function; returns how many names were rebound.

        Modules outside qll that bind qll functions by name must be imported
        after this, or they keep the unwrapped functions.
        """
        common.use_checkout_sources()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qll.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        rebound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qll" or modname.startswith("qll.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    rebound += 1
        for modname, cls, meth, name in METHODS:
            klass = getattr(importlib.import_module(f"qll.{modname}"), cls)
            setattr(klass, meth, self.wrap(name, vars(klass)[meth]))
            rebound += 1
        return rebound

    # -- results -----------------------------------------------------------

    def calibrate(self, n: int = 20_000, repeats: int = 5) -> None:
        """Set ``own_cost`` and ``parent_cost`` from the median of
        ``repeats`` timings of ``n`` calls to an empty two-argument
        function: plain, wrapped, and an empty loop for the loop's own
        cost."""
        probe = Tracer()

        def noop(a, b):
            return None

        def loop(fn):
            def run():
                for i in range(n):
                    fn(i, n)
            return run

        def empty():
            for i in range(n):
                pass

        wrapped = probe.wrap("noop", noop)
        own, parent = [], []
        for _ in range(repeats):
            probe.root("empty", empty)
            probe.root("plain", loop(noop))
            probe.root("wrapped", loop(wrapped))
            got = probe.take()["self_s"]
            own.append((got["noop"] - (got["plain"] - got["empty"])) / n)
            parent.append((got["wrapped"] - got["empty"]) / n)
        self.own_cost = statistics.median(own)
        self.parent_cost = statistics.median(parent)

    def take(self) -> dict:
        """Per-name calls, self seconds net of wrapper cost, and counters
        since the last take; ``wrapper_s`` is the wrapper cost subtracted."""
        self_s = {
            name: s - self.own_cost * self.calls[name] - self.parent_cost * self.children[name]
            for name, s in self.self_s.items()
        }
        out = {
            "calls": dict(self.calls),
            "self_s": self_s,
            "counters": dict(self.counters),
            "wrapper_s": sum(self.self_s.values()) - sum(self_s.values()),
        }
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self.children.clear()
        return out

    def write_spans(self, path, t0: float) -> None:
        """Write the kept spans as JSON, times in seconds from ``t0``."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            nid = names.setdefault(name, len(names))
            rows.append([nid, round(start - t0, 7), round(end - t0, 7), parent])
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": list(names),
            "spans": rows,
            "dropped_spans": self.dropped_spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
