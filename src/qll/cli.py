"""Command line front end.

JSON results go to stdout (or --out), human messages to stderr.  Exit codes:
0 verified / property holds, 1 falsified or analog divergence, 2 budget ran
out before an answer, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .automorphisms import Decomposition, automorphism_chain, decompose_generators, orbits
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import _dac_checks, find_covering_violation
from .errors import BudgetExceeded, InputError, QllError
from .export import export_dot
from .harness import (
    NamedInstance,
    _p4_check,
    list_instances,
    list_theorems,
    resolve_instance,
    sep_cross_ortho,
    verify,
)
from .ortho import (
    _orthomodularity_violation,
    find_orthocomplementations,
    ortho_from_atom_orthogonality,
)
from .products import check_p123

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cap(text: str) -> int:
    """A budget cap from the command line: a whole number, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def _budgets(args: argparse.Namespace) -> Budgets:
    overrides = {}
    if args.budget_family is not None:
        overrides["family_cap"] = args.budget_family
    if args.budget_nodes is not None:
        overrides["node_cap"] = args.budget_nodes
    if args.budget_subspaces is not None:
        overrides["subspace_cap"] = args.budget_subspaces
    return DEFAULT_BUDGETS.with_overrides(**overrides) if overrides else DEFAULT_BUDGETS


def _emit(args: argparse.Namespace, payload, raw: bool = False) -> None:
    text = payload if raw else json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left: flush the rest to devnull, keep the exit code
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _instance_ortho(inst: NamedInstance):
    """An orthocomplementation candidate for omod checks: the instance's own
    atom orthogonality, or the cross relation on a sep product of
    orthocomplemented factors."""
    if inst.relation is not None:
        return ortho_from_atom_orthogonality(inst.space, inst.relation)
    if inst.product is not None and inst.product.kind == "sep":
        if inst.left.relation is not None and inst.right.relation is not None:
            return sep_cross_ortho(inst.product, inst.left.relation, inst.right.relation)
    return None


def cmd_build(args: argparse.Namespace) -> int:
    inst = resolve_instance(args.name, _budgets(args))
    _emit(args, inst.to_json())
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    args.name = f"{args.product}({args.left},{args.right})"
    return cmd_build(args)


def _answer(args: argparse.Namespace, inst: NamedInstance, payload: dict, ok: bool) -> int:
    _emit(args, {"instance": inst.name, "property": args.property, **payload})
    return EXIT_OK if ok else EXIT_FALSIFIED


def _witness(found) -> dict | None:
    return None if found is None else found.to_json()


def cmd_check(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    inst = resolve_instance(args.instance, budgets)
    prop = args.property

    if prop == "ortho":
        res = find_orthocomplementations(inst.space, budgets=budgets)
        return _answer(args, inst, res.to_json(), bool(res.maps))

    if prop == "omod":
        cons = _instance_ortho(inst)
        if cons is None or not cons.ok:
            detail = None if cons is None else cons.failure
            print(
                f"no orthocomplementation available on {inst.name}: {detail}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        viol = _orthomodularity_violation(inst.space, cons.ortho)
        payload = {"orthomodular": viol is None, "witness": _witness(viol)}
        return _answer(args, inst, payload, viol is None)

    if prop == "covering":
        viol = find_covering_violation(inst.space)
        payload = {"holds": viol is None, "witness": _witness(viol)}
        return _answer(args, inst, payload, viol is None)

    if prop == "dac":
        atomistic, coatomistic, cov, dual, dac = _dac_checks(inst.space)
        payload = {
            "atomistic": atomistic,
            "coatomistic": coatomistic,
            "covering": cov is None,
            "dual_covering": dual is None,
            "dac": dac,
            "witness": _witness(dual),
        }
        return _answer(args, inst, payload, dac)

    # p123 and p4, the choices left
    if inst.product is None:
        print(f"{prop} applies to product instances", file=sys.stderr)
        return EXIT_USAGE
    if prop == "p123":
        report = check_p123(inst.product)
        return _answer(args, inst, report.to_json(), report.passed)
    report, pairs = _p4_check(inst.product, inst.left, inst.right, args.symmetries, budgets)
    payload = {"symmetries": args.symmetries, "pairs": pairs, **report.to_json()}
    return _answer(args, inst, payload, report.passed)


def cmd_aut(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    inst = resolve_instance(args.instance, budgets)
    if inst.product is None:
        chain, splits = automorphism_chain(inst.space, budgets), None
    else:
        chain, splits = decompose_generators(inst.product, budgets)
    payload: dict = {
        "instance": inst.name,
        "order": chain.order,
        "orbits": [list(o) for o in orbits(chain.generators, inst.space.universe_size)],
        "generators": [u.to_json() for u in chain.generators],
    }
    if splits is not None:
        payload["decompositions"] = [
            {"image": list(u.image), **split.to_json()}
            if isinstance(split, Decomposition)
            else {"image": list(u.image), "decomposes": False, "witness": split.witness}
            for u, split in zip(chain.generators, splits)
        ]
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.theorem, args.left, args.right, _budgets(args))
    _emit(args, report.to_json())
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return report.exit_code


def cmd_export(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    inst = resolve_instance(args.instance, budgets)
    if args.dot:
        name = "".join(c if c.isalnum() else "_" for c in inst.name)
        _emit(args, export_dot(inst.space, name=name), raw=True)
    else:
        _emit(args, inst.to_json())
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    _emit(args, {"instances": list_instances(), "theorems": list_theorems()})
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-family", type=_cap, default=None, metavar="N",
                     help="cap on closed-set family size")
    sub.add_argument("--budget-nodes", type=_cap, default=None, metavar="N",
                     help="cap on search nodes")
    sub.add_argument("--budget-subspaces", type=_cap, default=None, metavar="N",
                     help="cap on enumerated subspaces")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the result here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="qll", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="resolve a named instance and emit its JSON")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(fn=cmd_build)

    p = subs.add_parser("construct", help="build a product of two named instances")
    p.add_argument("--product", required=True, choices=["sep", "top", "down", "star"])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_construct)

    p = subs.add_parser("check", help="decide a property of an instance")
    p.add_argument("--property", required=True,
                   choices=["ortho", "omod", "covering", "dac", "p123", "p4"])
    p.add_argument("--symmetries", default="aut", choices=["aut", "similitudes"],
                   help="symmetry pairs for p4")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("aut", help="automorphism group of an instance")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_aut)

    p = subs.add_parser("verify", help="run a claim pipeline")
    p.add_argument("theorem")
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("export", help="emit an instance as DOT or JSON")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=cmd_export)

    p = subs.add_parser("list", help="known instances and claim ids")
    _add_common(p)
    p.set_defaults(fn=cmd_list)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except BudgetExceeded as exc:
            payload = {"verdict": "inconclusive-budget", "budget": exc.budget_name, "cap": exc.cap}
            _emit(args, json.dumps(payload), raw=True)
            print(f"budget {exc.budget_name} (cap {exc.cap}) ran out", file=sys.stderr)
            return EXIT_BUDGET
    except QllError as exc:  # also an unwritable --out in the budget handler
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
