"""The names perfbench/tracing.py wraps and hooks, and the span names
perfbench/run.py reads its per-layer metrics from, must exist in qll.

The tracer finds its targets by name: a hooked function that is renamed
loses its counters without a word, a metric whose function is renamed or
turned private reads 0, and a renamed method or parameter fails only once
`perfbench/run.py --trace 1` gets there.  Both files are read as source,
not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"


def _tracing_module() -> ast.Module:
    return ast.parse(TRACING.read_text())


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} not found")


def _hooks(tree: ast.Module) -> dict[str, str]:
    """HOOKS as traced name -> hook function name."""
    value = _assigned(tree, "HOOKS")
    return {k.value: v.id for k, v in zip(value.keys, value.values)}


def _names_read_by_arg(tree: ast.Module) -> dict[str, set[str]]:
    """For each hook function, the parameter names it reads with _arg(...)."""
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = {
                call.args[-1].value
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "_arg"
            }
    return out


def test_traced_methods_exist():
    methods = ast.literal_eval(_assigned(_tracing_module(), "METHODS"))
    assert methods
    for modname, cls, meth, _ in methods:
        klass = getattr(importlib.import_module(f"qll.{modname}"), cls)
        # the tracer rebinds vars(klass)[meth], so it must not be inherited
        assert inspect.isfunction(vars(klass).get(meth)), (modname, cls, meth)


def test_hooked_functions_and_their_parameters_exist():
    tree = _tracing_module()
    reads = _names_read_by_arg(tree)
    hooks = _hooks(tree)
    assert hooks
    for name, hook in hooks.items():
        layer, attr = name.split(".")
        mod = importlib.import_module(f"qll.{layer}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        params = inspect.signature(fn).parameters
        missing = reads[hook] - set(params)
        assert not missing, (name, missing)


def test_hooks_read_the_expected_parameters():
    # guards the AST reading above: these are the parameters the hooks
    # read today, so an empty or wrong parse cannot pass vacuously
    tree = _tracing_module()
    reads = _names_read_by_arg(tree)
    read = {name: reads[hook] for name, hook in _hooks(tree).items() if reads[hook]}
    assert read == {
        "products.materialize_top_product": {"left", "right"},
        "closure.find_covering_violation": {"space"},
        "harness.verify": {"theorem_id"},
    }


def _run_module() -> ast.Module:
    return ast.parse(RUN.read_text())


def _span_names_read(node: ast.AST, env: dict[str, str]) -> set[str]:
    """The span names node reads through _self(...) or _calls(...).  An
    f-string argument is evaluated with env, which binds the loop variable
    of each enclosing comprehension over a literal tuple, given in place or
    as a module constant of run.py."""
    if isinstance(node, ast.DictComp):
        (gen,) = node.generators
        values = gen.iter
        if isinstance(values, ast.Name):
            values = _assigned(_run_module(), values.id)
        return {
            name
            for value in ast.literal_eval(values)
            for part in (node.key, node.value)
            for name in _span_names_read(part, {**env, gen.target.id: value})
        }
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("_self", "_calls")
    ):
        (arg,) = node.args
        return {eval(compile(ast.Expression(arg), str(RUN), "eval"), {}, dict(env))}
    return {
        name
        for child in ast.iter_child_nodes(node)
        for name in _span_names_read(child, env)
    }


def _per_layer_span_names() -> set[str]:
    return _span_names_read(_assigned(_run_module(), "PER_LAYER"), {})


def test_per_layer_span_names_exist():
    # a span name is a public function of a traced layer (the tracer wraps
    # those by name) or a method span of tracing.METHODS
    tree = _tracing_module()
    layers = ast.literal_eval(_assigned(tree, "LAYERS"))
    methods = {m[3] for m in ast.literal_eval(_assigned(tree, "METHODS"))}
    for name in _per_layer_span_names() - methods:
        layer, attr = name.split(".")
        assert layer in layers, name
        mod = importlib.import_module(f"qll.{layer}")
        fn = getattr(mod, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name


def test_per_layer_span_names_are_read():
    # guards the AST reading above, comprehension included
    names = _per_layer_span_names()
    assert {
        "closure.closure_mask",
        "closure.is_coatomistic",
        "products.materialize_top_product",
        "products.star_generators",
        "harness.resolve_base",
    } <= names
