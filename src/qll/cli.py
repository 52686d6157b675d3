"""Command line front end.

JSON results go to stdout (or --out), human messages to stderr.  Exit codes:
0 verified / property holds, 1 falsified or analog divergence, 2 budget ran
out before an answer, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automorphisms import automorphism_chain, decompose_automorphism, orbits
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import find_covering_violation, find_dual_covering_violation, is_atomistic, is_coatomistic
from .errors import BudgetExceeded, DecompositionFailed, QllError
from .export import export_dot
from .geometry import similitude_group
from .harness import (
    ResolvedInstance,
    list_instances,
    list_theorems,
    resolve_base,
    resolve_instance,
    verify,
)
from .ortho import (
    find_orthocomplementations,
    find_orthomodularity_violation,
    ortho_from_atom_orthogonality,
)
from .products import check_p123, check_p4

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


def _instance_ortho(inst: ResolvedInstance, budgets: Budgets):
    """An orthocomplementation candidate for omod checks: the instance's own
    atom orthogonality, or the cross relation on a sep product of
    orthocomplemented factors."""
    from .harness import pair_relation

    if inst.relation is not None:
        return ortho_from_atom_orthogonality(inst.space, inst.relation)
    if inst.product is not None and inst.product.kind == "sep":
        if inst.left.relation is not None and inst.right.relation is not None:
            rel = pair_relation(
                inst.product.grid.n1,
                inst.product.grid.n2,
                inst.left.relation,
                inst.right.relation,
            )
            return ortho_from_atom_orthogonality(inst.space, rel)
    return None


def cmd_build(args: argparse.Namespace) -> int:
    inst = resolve_instance(args.name, _budgets(args))
    _emit(args, inst.to_json())
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    name = f"{args.product}({args.left},{args.right})"
    inst = resolve_instance(name, _budgets(args))
    _emit(args, inst.to_json())
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    inst = resolve_instance(args.instance, budgets)
    prop = args.property

    if prop == "ortho":
        res = find_orthocomplementations(inst.space, budgets=budgets)
        _emit(args, {"instance": inst.name, "property": prop, **res.to_json()})
        return EXIT_OK if res.maps else EXIT_FALSIFIED

    if prop == "omod":
        cons = _instance_ortho(inst, budgets)
        if cons is None or not cons.ok:
            detail = None if cons is None else cons.failure
            print(
                f"no orthocomplementation available on {inst.name}: {detail}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        viol = find_orthomodularity_violation(inst.space, cons.ortho)
        _emit(
            args,
            {
                "instance": inst.name,
                "property": prop,
                "orthomodular": viol is None,
                "witness": None if viol is None else viol.to_json(),
            },
        )
        return EXIT_OK if viol is None else EXIT_FALSIFIED

    if prop == "covering":
        viol = find_covering_violation(inst.space)
        _emit(
            args,
            {
                "instance": inst.name,
                "property": prop,
                "holds": viol is None,
                "witness": None if viol is None else viol.to_json(),
            },
        )
        return EXIT_OK if viol is None else EXIT_FALSIFIED

    if prop == "dac":
        dual = find_dual_covering_violation(inst.space)
        cov = find_covering_violation(inst.space)
        atomistic = is_atomistic(inst.space)
        coatomistic = is_coatomistic(inst.space)
        result = {
            "instance": inst.name,
            "property": prop,
            "atomistic": atomistic,
            "coatomistic": coatomistic,
            "covering": cov is None,
            "dual_covering": dual is None,
            # is_dac from the four results above, not computed again
            "dac": atomistic and coatomistic and cov is None and dual is None,
            "witness": None if dual is None else dual.to_json(),
        }
        _emit(args, result)
        return EXIT_OK if result["dac"] else EXIT_FALSIFIED

    if prop == "p123":
        if inst.product is None:
            print("p123 applies to product instances", file=sys.stderr)
            return EXIT_USAGE
        report = check_p123(inst.product)
        _emit(args, {"instance": inst.name, "property": prop, **report.to_json()})
        return EXIT_OK if report.passed else EXIT_FALSIFIED

    if prop == "p4":
        if inst.product is None:
            print("p4 applies to product instances", file=sys.stderr)
            return EXIT_USAGE
        if args.symmetries == "similitudes":
            if inst.left.model is None or inst.right.model is None:
                print("similitudes need finite-field factors", file=sys.stderr)
                return EXIT_USAGE
            t1 = similitude_group(inst.left.model, budgets)
            t2 = similitude_group(inst.right.model, budgets)
            pairs = len(t1) * len(t2)
        else:
            c1 = automorphism_chain(inst.product.left, budgets)
            c2 = automorphism_chain(inst.product.right, budgets)
            t1, t2 = c1.generators, c2.generators
            pairs = c1.order * c2.order
        report = check_p4(inst.product, t1, t2)
        _emit(
            args,
            {
                "instance": inst.name,
                "property": prop,
                "symmetries": args.symmetries,
                "pairs": pairs,
                **report.to_json(),
            },
        )
        return EXIT_OK if report.passed else EXIT_FALSIFIED

    print(f"unknown property {prop!r}", file=sys.stderr)
    return EXIT_USAGE


def cmd_aut(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    inst = resolve_instance(args.instance, budgets)
    chain = automorphism_chain(inst.space, budgets)
    payload: dict = {
        "instance": inst.name,
        "order": chain.order,
        "orbits": [list(o) for o in orbits(chain.generators, inst.space.universe_size)],
        "generators": [u.to_json() for u in chain.generators],
    }
    if inst.product is not None:
        table = []
        for u in chain.generators:
            try:
                dec = decompose_automorphism(inst.product, u)
                table.append({"image": list(u.image), **dec.to_json()})
            except DecompositionFailed as exc:
                table.append(
                    {"image": list(u.image), "decomposes": False, "witness": exc.witness}
                )
        payload["decompositions"] = table
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
        _emit(args, export_dot(inst.space, name=name, budgets=budgets), raw=True)
    else:
        _emit(args, inst.to_json())
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    _emit(args, {"instances": list_instances(), "theorems": list_theorems()})
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-family", type=int, default=None, metavar="N",
                     help="cap on closed-set family size")
    sub.add_argument("--budget-nodes", type=int, default=None, metavar="N",
                     help="cap on search nodes")
    sub.add_argument("--budget-subspaces", type=int, default=None, metavar="N",
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
        return args.fn(args)
    except BudgetExceeded as exc:
        print(
            json.dumps(
                {"verdict": "inconclusive-budget", "budget": exc.budget_name, "cap": exc.cap}
            )
        )
        print(f"budget {exc.budget_name} (cap {exc.cap}) ran out", file=sys.stderr)
        return EXIT_BUDGET
    except QllError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
