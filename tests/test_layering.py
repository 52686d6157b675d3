"""The modules of qll import each other only at module level, and those
imports form no cycle; and sets cross module boundaries as masks.

A function-local import from the package usually hides a cycle: the module
could not import the other one at the top without the two loading each
other.  Imports under `if TYPE_CHECKING:` run only for type checkers and
are left out of the graph.  The sources are read as text, not imported.
"""

from __future__ import annotations

import ast
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qll"


def _package_target(node: ast.stmt) -> list[str]:
    """The qll modules an import statement loads, by short name ("" for
    the package itself); empty when it imports from elsewhere."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            if node.module:
                return [node.module.split(".")[0]]
            return [a.name for a in node.names]
        if node.level == 0 and node.module and node.module.split(".")[0] == "qll":
            parts = node.module.split(".")
            return [parts[1] if len(parts) > 1 else ""]
    if isinstance(node, ast.Import):
        return [
            a.name.split(".")[1] if "." in a.name else ""
            for a in node.names
            if a.name.split(".")[0] == "qll"
        ]
    return []


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The qll modules a module imports outside its functions and classes,
    leaving out the body of `if TYPE_CHECKING:`."""
    out: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            if not _is_type_checking(node):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            stack.extend(s for h in node.handlers for s in h.body)
        else:
            out.update(_package_target(node))
    return out


def _local_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(function name, line) of every package import inside a function."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and _package_target(node):
                    out.append((fn.name, node.lineno))
    return out


def _sources() -> dict[str, ast.Module]:
    return {
        p.stem if p.stem != "__init__" else "": ast.parse(p.read_text())
        for p in sorted(PACKAGE.glob("*.py"))
    }


def test_no_function_imports_from_the_package():
    found = {
        name or "__init__": local
        for name, tree in _sources().items()
        if (local := _local_imports(tree))
    }
    assert not found


def test_module_level_imports_are_acyclic():
    graph = {name: _module_level_imports(tree) for name, tree in _sources().items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_import_reading_sees_what_it_should():
    # guards the AST reading above, so an empty parse cannot pass vacuously
    graph = {name: _module_level_imports(tree) for name, tree in _sources().items()}
    assert {"geometry", "gf", "closure", "automorphisms"} <= graph["products"]
    assert "products" not in graph["geometry"]
    assert "ortho" not in graph["automorphisms"]
    # automorphisms names ProductInstance only for type checkers
    assert "products" not in graph["automorphisms"]

    sample = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from .a import x\n"
        "import qll.b\n"
        "if TYPE_CHECKING:\n"
        "    from .c import y\n"
        "def f():\n"
        "    from .d import z\n"
        "    from itertools import chain\n"
    )
    assert _module_level_imports(sample) == {"a", "b"}
    assert _local_imports(sample) == [("f", 7)]


# the AtomSet conveniences that wrapped the mask methods, by module and class
REMOVED = {
    ("closure", None): {"join", "meet", "covers", "upper_covers", "coatoms", "_require_closed"},
    ("closure", "ClosureSpace"): {"contains", "closure", "_check_universe"},
    ("atomset", "AtomSet"): {
        "empty", "full", "singleton", "__contains__", "__len__", "__iter__", "__bool__",
        "issubset", "issuperset", "_check", "__and__", "__or__", "__sub__",
    },
    ("ortho", "OrthoMap"): {"complement", "image_masks"},
    ("automorphisms", "AtomPermutation"): {"apply"},
}


def _defined(tree: ast.Module, cls: str | None) -> set[str]:
    """The names a module defines at top level, or in the body of class cls."""
    body = tree.body
    if cls is not None:
        (body,) = [n.body for n in body if isinstance(n, ast.ClassDef) and n.name == cls]
    return {
        n.name
        for n in body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _scopes_naming(tree: ast.Module, name: str) -> set[str]:
    """The dotted names of the functions and classes whose code names name,
    "" standing for module level outside them all."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name:
                found.add(scope)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_the_family_door_names_atomset():
    # every other module takes and returns masks
    naming = {
        p.name for p in PACKAGE.glob("*.py") if re.search(r"\bAtomSet\b", p.read_text())
    }
    assert naming == {"atomset.py", "closure.py"}
    # and in closure.py only the family door and the family view do:
    # validation and the JSON loader read masks
    assert _scopes_naming(_sources()["closure"], "AtomSet") == {
        "ClosureSpace.family",
        "ExplicitSpace.__init__",
        "ExplicitSpace.family",
        "ImplicitSpace.family",
    }
    sample = ast.parse("x: A = A\nclass C(A):\n    def f(self, a: A) -> B: ...\n")
    assert _scopes_naming(sample, "A") == {"", "C", "C.f"}


def test_removed_conveniences_are_neither_defined_nor_exported():
    sources = _sources()
    for (module, cls), names in REMOVED.items():
        defined = _defined(sources[module], cls)
        assert defined and not names & defined, (module, cls, names & defined)
    exported = {
        alias.asname or alias.name
        for node in sources[""].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "find_covering_violation" in exported
    assert not exported & REMOVED[("closure", None)]
