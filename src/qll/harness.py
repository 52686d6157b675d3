"""Named instances and claim-verification pipelines.

Every pipeline composes library calls into a single report: each sub-check
runs exhaustively at this scale, witnesses and certificates land in the
report, and the verdict is a pure function of the checks.  Claim ids are
stable strings used by the command line; the registered claim text states
what is being verified.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable

from .atomset import AtomSet, bit_members
from .automorphisms import automorphism_chain, decompose_automorphism
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import (
    ClosureSpace,
    ExplicitSpace,
    find_covering_violation,
    find_dual_covering_violation,
    is_atomistic,
    is_coatomistic,
    powerset_space,
    space_to_json,
)
from .errors import BudgetExceeded, DecompositionFailed, InputError
from .geometry import (
    Subspace,
    SubspaceModel,
    build_projective_space,
    linear_map_coatom,
    mo_lattice,
    orthogonal_complement,
    similitude_group,
    sigma_down,
    tensor_model,
)
from .gf import kron_vec, vec_add
from .ortho import (
    OrthogonalityRelation,
    find_orthocomplementations,
    find_orthomodularity_violation,
    four_atom_condition,
    ortho_from_atom_orthogonality,
    third_atom_condition,
)
from .products import (
    ProductInstance,
    check_p123,
    check_p4,
    down_product,
    interval_check,
    materialize_top_product,
    sep_product,
    star_product,
    top_product,
)

VERDICT_VERIFIED = "verified"
VERDICT_FALSIFIED = "falsified"
VERDICT_BUDGET = "inconclusive-budget"
VERDICT_DIVERGENCE = "analog-divergence"


# ---------------------------------------------------------------------------
# instance registry


@dataclass(frozen=True)
class NamedInstance:
    """A registered base space: lattice plus optional orthogonality/model."""

    name: str
    space: ExplicitSpace
    relation: OrthogonalityRelation | None = None
    model: SubspaceModel | None = None
    boolean: bool = False


def _build_mo(n: int) -> Callable[[Budgets], NamedInstance]:
    def build(budgets: Budgets) -> NamedInstance:
        space, rel = mo_lattice(n)
        return NamedInstance(f"mo{n}", space, relation=rel)

    return build


def _build_boolean(n: int) -> Callable[[Budgets], NamedInstance]:
    def build(budgets: Budgets) -> NamedInstance:
        space = powerset_space(n)
        # in a powerset the complement of an atom is everything else, so any
        # two distinct atoms are orthogonal
        rel = OrthogonalityRelation.from_pairs(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        return NamedInstance(f"boolean{n}", space, relation=rel, boolean=True)

    return build


def _build_gf3_2(budgets: Budgets) -> NamedInstance:
    model = SubspaceModel.create(3, 2)
    space, rel = build_projective_space(model, budgets)
    return NamedInstance("gf3_2", space, relation=rel, model=model)


def _build_gf3_tensor(budgets: Budgets) -> NamedInstance:
    base = SubspaceModel.create(3, 2)
    tm = tensor_model(base, base)
    # the tensor space has isotropic points, so no atom orthogonality here
    space, _ = build_projective_space(tm, budgets, require_anisotropic=False)
    return NamedInstance("gf3_tensor", space, model=tm)


BASE_BUILDERS: dict[str, Callable[[Budgets], NamedInstance]] = {
    "mo2": _build_mo(2),
    "mo3": _build_mo(3),
    "boolean2": _build_boolean(2),
    "boolean3": _build_boolean(3),
    "gf3_2": _build_gf3_2,
    "gf3_tensor": _build_gf3_tensor,
}

PRODUCT_KINDS = ("sep", "top", "star", "down")

_PRODUCT_RE = re.compile(r"^(sep|top|star|down)\(\s*(\w+)\s*,\s*(\w+)\s*\)$")


def list_instances() -> dict:
    return {
        "base": sorted(BASE_BUILDERS),
        "products": [f"{k}(<left>,<right>)" for k in PRODUCT_KINDS],
    }


def resolve_base(name: str, budgets: Budgets = DEFAULT_BUDGETS) -> NamedInstance:
    try:
        builder = BASE_BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown instance {name!r}; known: {', '.join(sorted(BASE_BUILDERS))}"
        ) from None
    return builder(budgets)


@dataclass(frozen=True)
class ResolvedInstance:
    """A registry name resolved to a concrete space, with its provenance."""

    name: str
    space: ClosureSpace
    product: ProductInstance | None = None
    relation: OrthogonalityRelation | None = None
    model: SubspaceModel | None = None
    left: NamedInstance | None = None
    right: NamedInstance | None = None

    def to_json(self) -> dict:
        if self.product is not None:
            out = self.product.to_json()
            out["name"] = self.name
            if self.left is not None and self.right is not None:
                out["factors"] = [self.left.name, self.right.name]
            return out
        out = space_to_json(self.space)
        out["name"] = self.name
        if self.relation is not None:
            out["orthogonality"] = self.relation.to_json()
        if self.model is not None:
            out["model"] = self.model.to_json()
        return out


def build_product(
    kind: str,
    left: NamedInstance,
    right: NamedInstance,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ProductInstance:
    if kind == "sep":
        return sep_product(left.space, right.space, budgets)
    if kind == "top":
        return materialize_top_product(left.space, right.space, budgets)
    if kind == "star":
        return star_product(left.space, right.space, budgets)
    if kind == "down":
        if left.model is None or right.model is None:
            raise InputError(
                "down products need finite-field factors (gf3_2 style), got "
                f"{left.name!r} and {right.name!r}"
            )
        return down_product(left.model, right.model, budgets)
    raise InputError(f"unknown product kind {kind!r}")


def resolve_instance(name: str, budgets: Budgets = DEFAULT_BUDGETS) -> ResolvedInstance:
    """Resolve a base name or a product expression like sep(mo2,mo2)."""
    m = _PRODUCT_RE.match(name.strip())
    if m is None:
        base = resolve_base(name.strip(), budgets)
        return ResolvedInstance(
            base.name, base.space, relation=base.relation, model=base.model
        )
    kind, lname, rname = m.groups()
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    inst = build_product(kind, left, right, budgets)
    return ResolvedInstance(
        f"{kind}({left.name},{right.name})",
        inst.space,
        product=inst,
        left=left,
        right=right,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    claim: str
    instances: tuple[str, ...]
    verdict: str
    checks: tuple[CheckResult, ...]
    certificates: dict
    artifacts: dict
    elapsed_seconds: float
    budgets: Budgets

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_VERIFIED:
            return 0
        if self.verdict == VERDICT_BUDGET:
            return 2
        return 1

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "claim": self.claim,
            "instances": list(self.instances),
            "verdict": self.verdict,
            "checks": [c.to_json() for c in self.checks],
            "certificates": self.certificates,
            "artifacts": self.artifacts,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "budgets": {
                "family_cap": self.budgets.family_cap,
                "node_cap": self.budgets.node_cap,
                "subspace_cap": self.budgets.subspace_cap,
            },
        }

    def summary_lines(self) -> list[str]:
        lines = [f"{self.theorem} [{self.verdict}] on {', '.join(self.instances)}"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"  {mark:4} {c.name}")
        return lines


def _check(name: str, passed: bool, **details) -> CheckResult:
    return CheckResult(name, bool(passed), details)


# ---------------------------------------------------------------------------
# pipelines

# A pipeline appends its checks to the list verify passes in, so the checks
# finished before a budget overrun survive into the report, and returns
# (certificates, artifacts, instance names).
PipelineResult = tuple[dict, dict, tuple[str, ...]]


def pair_relation(
    grid_n1: int,
    grid_n2: int,
    rel1: OrthogonalityRelation,
    rel2: OrthogonalityRelation,
) -> OrthogonalityRelation:
    """Product-atom orthogonality: orthogonal in either coordinate."""
    pairs = []
    size = grid_n1 * grid_n2
    for k in range(size):
        p1, p2 = divmod(k, grid_n2)
        for j in range(k + 1, size):
            q1, q2 = divmod(j, grid_n2)
            if rel1.are_orthogonal(p1, q1) or rel2.are_orthogonal(p2, q2):
                pairs.append((k, j))
    return OrthogonalityRelation.from_pairs(size, pairs)


def _require_relation(inst: NamedInstance) -> OrthogonalityRelation:
    if inst.relation is None:
        raise InputError(f"instance {inst.name!r} carries no atom orthogonality")
    return inst.relation


def _search_summary(res) -> dict:
    out = {"count": len(res.maps), "exhaustive": res.exhaustive, "nodes": res.nodes}
    if res.certificate is not None:
        out["certificate"] = res.certificate
    return out


def _pipeline_only_bottom_has_ortho(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    rel1 = _require_relation(left)
    rel2 = _require_relation(right)
    certs: dict = {}
    artifacts: dict = {}

    sep = sep_product(left.space, right.space, budgets)
    pair_rel = pair_relation(
        sep.grid.n1, sep.grid.n2, rel1, rel2
    )
    cons = ortho_from_atom_orthogonality(sep.space, pair_rel)
    checks.append(
        _check(
            "sep_cross_relation_is_ortho",
            cons.ok,
            failure=cons.failure,
        )
    )
    search = find_orthocomplementations(sep.space, budgets=budgets)
    checks.append(
        _check(
            "sep_admits_ortho",
            search.exhaustive and len(search.maps) > 0,
            **_search_summary(search),
        )
    )
    if cons.ok:
        checks.append(
            _check(
                "cross_map_found_by_search",
                any(m.image_masks() == cons.ortho.image_masks() for m in search.maps),
            )
        )
        certs["sep_cross_ortho"] = cons.ortho.to_json()
    certs["sep_search"] = _search_summary(search)

    top = materialize_top_product(left.space, right.space, budgets)
    top_search = find_orthocomplementations(top.space, budgets=budgets)
    checks.append(
        _check(
            "top_admits_none",
            top_search.exhaustive and not top_search.maps,
            **_search_summary(top_search),
        )
    )
    certs["top_search"] = _search_summary(top_search)

    star = star_product(left.space, right.space, budgets)
    star_search = find_orthocomplementations(star.space, budgets=budgets)
    checks.append(
        _check(
            "star_admits_none",
            star_search.exhaustive and not star_search.maps,
            **_search_summary(star_search),
        )
    )
    certs["star_search"] = _search_summary(star_search)

    names = [f"sep({lname},{rname})", f"top({lname},{rname})", f"star({lname},{rname})"]
    artifacts[names[0]] = sep.to_json()
    artifacts[names[1]] = top.to_json()
    artifacts[names[2]] = star.to_json()

    if left.model is not None and right.model is not None:
        down = down_product(left.model, right.model, budgets)
        down_search = find_orthocomplementations(down.space, budgets=budgets)
        checks.append(
            _check(
                "down_admits_none",
                down_search.exhaustive and not down_search.maps,
                **_search_summary(down_search),
            )
        )
        certs["down_search"] = _search_summary(down_search)
        names.append(f"down({lname},{rname})")
        artifacts[names[-1]] = down.to_json()

    return certs, artifacts, tuple(names)


def _pipeline_bottom_not_orthomodular(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    if left.boolean or right.boolean:
        raise InputError("this claim is about non-powerset factors")
    rel1 = _require_relation(left)
    rel2 = _require_relation(right)
    certs: dict = {}

    sep = sep_product(left.space, right.space, budgets)
    pair_rel = pair_relation(sep.grid.n1, sep.grid.n2, rel1, rel2)
    cons = ortho_from_atom_orthogonality(sep.space, pair_rel)
    checks.append(_check("cross_relation_is_ortho", cons.ok, failure=cons.failure))

    if cons.ok:
        certs["ortho"] = cons.ortho.to_json()
        viol = find_orthomodularity_violation(sep.space, cons.ortho)
        checks.append(
            _check(
                "orthomodularity_fails",
                viol is not None,
                witness=None if viol is None else viol.to_json(),
            )
        )
        if viol is not None:
            certs["orthomodularity_witness"] = viol.to_json()
    cov = find_covering_violation(sep.space)
    checks.append(
        _check(
            "covering_fails",
            cov is not None,
            witness=None if cov is None else cov.to_json(),
        )
    )
    if cov is not None:
        certs["covering_witness"] = cov.to_json()

    name = f"sep({lname},{rname})"
    return certs, {name: sep.to_json()}, (name,)


def _pipeline_top_lacks_covering(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    certs: dict = {}

    checks.append(_check("four_atom_condition_left", four_atom_condition(left.space)))
    checks.append(_check("four_atom_condition_right", four_atom_condition(right.space)))

    top = materialize_top_product(left.space, right.space, budgets)
    cov = find_covering_violation(top.space)
    checks.append(
        _check(
            "top_covering_fails",
            cov is not None,
            witness=None if cov is None else cov.to_json(),
        )
    )
    if cov is not None:
        certs["covering_witness"] = cov.to_json()

    name = f"top({lname},{rname})"
    return certs, {name: top.to_json()}, (name,)


def _pipeline_bottom_equals_top_iff_boolean(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    certs: dict = {}

    # hypothesis: every non-powerset factor has two atoms whose join contains
    # a third atom and covers all three
    for side, inst in (("left", left), ("right", right)):
        ok = inst.boolean or third_atom_condition(inst.space)
        checks.append(_check(f"hypothesis_{side}", ok, boolean=inst.boolean))

    sep = sep_product(left.space, right.space, budgets)
    top = materialize_top_product(left.space, right.space, budgets)
    equal = sep.space == top.space
    expected = left.boolean or right.boolean
    checks.append(
        _check(
            "bottom_equals_top_iff_boolean_factor",
            equal == expected,
            equal=equal,
            boolean_factor=expected,
            sep_size=len(sep.space.masks),
            top_size=len(top.space.masks),
        )
    )

    if not equal and sep.grid.n1 == sep.grid.n2:
        graph = 0
        for i in range(sep.grid.n1):
            graph |= 1 << sep.grid.index(i, i)
        in_top = top.space.contains_mask(graph)
        in_sep = sep.space.contains_mask(graph)
        checks.append(
            _check(
                "bijection_graph_separates",
                in_top and not in_sep,
                graph=[list(sep.grid.unindex(k)) for k in bit_members(graph)],
                in_top=in_top,
                in_sep=in_sep,
            )
        )
        certs["bijection_graph"] = [list(sep.grid.unindex(k)) for k in bit_members(graph)]

    names = (f"sep({lname},{rname})", f"top({lname},{rname})")
    return certs, {names[0]: sep.to_json(), names[1]: top.to_json()}, names


def _pipeline_automorphisms_decompose(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    certs: dict = {}
    artifacts: dict = {}

    # precondition, not a claim: each factor needs two atoms whose join holds
    # a third atom and covers all three; for factors outside this hypothesis
    # the aut command decomposes each generator, with a witness where it fails
    for side, inst in (("left", left), ("right", right)):
        if not third_atom_condition(inst.space):
            raise InputError(
                f"{side} factor {inst.name!r} misses the third-atom hypothesis"
            )
    checks.append(_check("hypothesis_third_atom_left", True))
    checks.append(_check("hypothesis_third_atom_right", True))

    order_l = automorphism_chain(left.space, budgets).order
    order_r = automorphism_chain(right.space, budgets).order
    certs["factor_group_orders"] = {"left": order_l, "right": order_r}
    same_factors = left.space == right.space

    names = []
    for kind in ("sep", "star"):
        inst = build_product(kind, left, right, budgets)
        name = f"{kind}({lname},{rname})"
        names.append(name)
        artifacts[name] = inst.to_json()

        # the maps that split into a factor pair, swapped or not, form a
        # subgroup, so the group decomposes iff every generator does
        chain = automorphism_chain(inst.space, budgets)
        order = chain.order
        failure = None
        for u in chain.generators:
            try:
                decompose_automorphism(inst, u)
            except DecompositionFailed as exc:
                failure = {"permutation": list(u.image), "witness": exc.witness}
                break

        checks.append(
            _check(f"{kind}_all_decompose", failure is None, failure=failure)
        )
        # decompose_automorphism returns only once pair_image of its triple
        # equals u, so every generator that decomposes round-trips
        checks.append(_check(f"{kind}_roundtrip", failure is None))
        checks.append(
            _check(
                f"{kind}_triples_distinct",
                failure is None,
                order=order,
                # u = pair_image(triple), so the decomposition is injective:
                # once every element decomposes there are |G| distinct triples
                triples=order if failure is None else None,
            )
        )
        if same_factors:
            expected = 2 * order_l * order_r
            checks.append(
                _check(
                    f"{kind}_order_is_twice_factor_product",
                    order == expected,
                    order=order,
                    expected=expected,
                )
            )
        certs[f"{kind}_group_order"] = order

    return certs, artifacts, tuple(names)


def _pipeline_down_properties(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    if left.model is None or right.model is None:
        raise InputError("this claim needs finite-field factors")
    certs: dict = {}

    down = down_product(left.model, right.model, budgets)
    certs["notes"] = dict(down.notes)

    axioms = check_p123(down)
    for axiom in ("P1", "P2", "P3"):
        c = axioms.check(axiom)
        checks.append(
            _check(
                f"axiom_{axiom.lower()}",
                c.passed,
                witnesses=[list(w) if isinstance(w, tuple) else w for w in c.witnesses],
            )
        )

    sims_l = similitude_group(left.model, budgets)
    sims_r = similitude_group(right.model, budgets)
    p4_sims = check_p4(down, sims_l, sims_r)
    checks.append(
        _check(
            "axiom_p4_similitude_pairs",
            p4_sims.check("P4").passed,
            pairs=len(sims_l) * len(sims_r),
        )
    )

    aut_l = automorphism_chain(left.space, budgets)
    aut_r = automorphism_chain(right.space, budgets)
    p4_full = check_p4(down, aut_l.generators, aut_r.generators)
    # the claim expects covariance to BREAK for some full factor-automorphism
    # pair; if every pair is covariant the finite model diverges on this point
    checks.append(
        _check(
            "axiom_p4_full_aut_fails",
            not p4_full.check("P4").passed,
            expected="some factor-automorphism pair is not covariant",
            observed=(
                "all pairs covariant"
                if p4_full.check("P4").passed
                else "non-covariant pair found"
            ),
            pairs=aut_l.order * aut_r.order,
            witnesses=[w for w in p4_full.check("P4").witnesses],
        )
    )

    atomistic = is_atomistic(down.space)
    coatomistic = is_coatomistic(down.space)
    checks.append(_check("atomistic", atomistic))
    checks.append(_check("coatomistic", coatomistic))
    cov = find_covering_violation(down.space)
    checks.append(
        _check(
            "covering_holds", cov is None, witness=None if cov is None else cov.to_json()
        )
    )
    dual = find_dual_covering_violation(down.space)
    checks.append(
        _check(
            "dual_covering_fails",
            dual is not None,
            witness=None if dual is None else dual.to_json(),
        )
    )
    # is_dac from the four results above, not computed again
    dac = atomistic and coatomistic and cov is None and dual is None
    checks.append(_check("not_dac", not dac))
    if dual is not None:
        certs["dual_covering_witness"] = dual.to_json()

    n1, n2 = down.grid.n1, down.grid.n2
    q = left.model.q
    expected_coatoms = (q ** (left.model.n * right.model.n) - 1) // (q - 1)
    coatoms = down.space.coatom_masks()
    checks.append(
        _check(
            "coatom_count_is_projective_map_count",
            len(coatoms) == expected_coatoms,
            coatoms=len(coatoms),
            expected=expected_coatoms,
        )
    )

    # independent description of the coatoms: duals of nonzero linear maps
    map_coatoms = set()
    entries = left.model.n * right.model.n
    for code in range(1, q**entries):
        digits = []
        c = code
        for _ in range(entries):
            digits.append(c % q)
            c //= q
        a = tuple(
            tuple(digits[i * right.model.n + j] for j in range(right.model.n))
            for i in range(left.model.n)
        )
        map_coatoms.add(linear_map_coatom(a, left.model, right.model).mask)
    checks.append(
        _check(
            "coatoms_are_linear_map_duals",
            map_coatoms == set(coatoms),
            linear_map_sets=len(map_coatoms),
        )
    )

    search = find_orthocomplementations(down.space, budgets=budgets)
    checks.append(
        _check(
            "no_orthocomplementation",
            search.exhaustive
            and not search.maps
            and search.certificate is not None,
            **_search_summary(search),
        )
    )
    certs["ortho_search"] = _search_summary(search)

    iv = interval_check(down, budgets)
    checks.append(
        _check(
            "strictly_between_bottom_and_top",
            bool(iv.contains_sep and iv.inside_top and iv.sep_strict and iv.top_strict),
            **iv.to_json(),
        )
    )

    checks.append(
        _check(
            "atom_count_is_pair_count",
            down.space.universe_size == n1 * n2,
            atoms=down.space.universe_size,
        )
    )

    name = f"down({lname},{rname})"
    return certs, {name: down.to_json()}, (name,)


def _pipeline_entangling_graph(
    lname: str, rname: str, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    if left.model is None or right.model is None:
        raise InputError("this claim needs finite-field factors")
    if left.model.n < 2 or right.model.n < 2:
        raise InputError("factors need dimension at least 2")
    certs: dict = {}

    tm = tensor_model(left.model, right.model)
    q = tm.q
    e0 = tuple(1 if i == 0 else 0 for i in range(left.model.n))
    e1 = tuple(1 if i == 1 else 0 for i in range(left.model.n))
    f0 = tuple(1 if i == 0 else 0 for i in range(right.model.n))
    f1 = tuple(1 if i == 1 else 0 for i in range(right.model.n))
    vec = vec_add(kron_vec(e0, f0, q), kron_vec(e1, f1, q), q)
    line = Subspace.span(tm, [vec])
    graph = sigma_down(orthogonal_complement(line))

    down = down_product(left.model, right.model, budgets)
    grid = down.grid
    pairs = [list(grid.unindex(k)) for k in graph.members]
    labeled = [
        [down.left.label(i1), down.right.label(i2)]
        for i1, i2 in (grid.unindex(k) for k in graph.members)
    ]
    certs["graph_pairs"] = pairs
    certs["graph_labels"] = labeled

    if (left.model.q, left.model.n, right.model.q, right.model.n) == (3, 2, 3, 2):
        expected = {(0, 1), (1, 0), (2, 3), (3, 2)}
        checks.append(
            _check(
                "graph_matches_expected_pairs",
                {tuple(p) for p in pairs} == expected,
                pairs=pairs,
            )
        )

    checks.append(_check("graph_in_down", down.space.contains_mask(graph.mask)))
    top = top_product(down.left, down.right)
    checks.append(_check("graph_in_top", top.space.contains_mask(graph.mask)))
    sep = sep_product(down.left, down.right, budgets)
    checks.append(_check("graph_not_in_sep", not sep.space.contains_mask(graph.mask)))

    name = f"down({lname},{rname})"
    return certs, {name: down.to_json()}, (name,)


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class ClaimSpec:
    claim: str
    default_left: str
    default_right: str
    pipeline: Callable[[str, str, Budgets, list[CheckResult]], PipelineResult]
    analog: bool = False


THEOREMS: dict[str, ClaimSpec] = {
    "thm8.6": ClaimSpec(
        "of the four constructions only the bottom product admits an "
        "orthocomplementation; the cross relation induces one there",
        "mo2",
        "mo2",
        _pipeline_only_bottom_has_ortho,
    ),
    "thm9.1": ClaimSpec(
        "the bottom product of orthocomplemented non-powerset factors is "
        "neither orthomodular nor has the covering property",
        "mo2",
        "mo2",
        _pipeline_bottom_not_orthomodular,
    ),
    "thm9.4": ClaimSpec(
        "factors whose two-atom joins cover four distinct atoms force the "
        "top product to lack the covering property",
        "mo2",
        "mo2",
        _pipeline_top_lacks_covering,
    ),
    "thm5.x": ClaimSpec(
        "the bottom and top products coincide exactly when a factor is a "
        "powerset",
        "mo2",
        "mo2",
        _pipeline_bottom_equals_top_iff_boolean,
    ),
    "thm7.5": ClaimSpec(
        "every automorphism of the bottom and star products splits into a "
        "factor swap plus factor automorphisms, bijectively",
        "mo2",
        "mo2",
        _pipeline_automorphisms_decompose,
    ),
    "thm10.4": ClaimSpec(
        "the subspace-image product is coatomistic with the covering "
        "property, is not a DAC lattice, admits no orthocomplementation, "
        "sits strictly between bottom and top, and is covariant for "
        "similitude pairs but not for all factor automorphisms",
        "gf3_2",
        "gf3_2",
        _pipeline_down_properties,
        analog=True,
    ),
    "cnot": ClaimSpec(
        "the entangling-permutation graph lies in the subspace-image and "
        "top products but not in the bottom product",
        "gf3_2",
        "gf3_2",
        _pipeline_entangling_graph,
        analog=True,
    ),
}


def verify(
    theorem_id: str,
    left: str | None = None,
    right: str | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> TheoremReport:
    """Run one claim pipeline and fold the checks into a verdict."""
    try:
        spec = THEOREMS[theorem_id]
    except KeyError:
        raise InputError(
            f"unknown claim id {theorem_id!r}; known: {', '.join(sorted(THEOREMS))}"
        ) from None
    lname = left or spec.default_left
    rname = right or spec.default_right
    start = time.perf_counter()
    checks: list[CheckResult] = []
    try:
        certs, artifacts, names = spec.pipeline(lname, rname, budgets, checks)
    except BudgetExceeded as exc:
        return TheoremReport(
            theorem=theorem_id,
            claim=spec.claim,
            instances=(lname, rname),
            verdict=VERDICT_BUDGET,
            checks=tuple(checks),
            certificates={"budget": exc.budget_name, "cap": exc.cap},
            artifacts={},
            elapsed_seconds=time.perf_counter() - start,
            budgets=budgets,
        )
    if all(c.passed for c in checks):
        verdict = VERDICT_VERIFIED
    elif spec.analog:
        verdict = VERDICT_DIVERGENCE
    else:
        verdict = VERDICT_FALSIFIED
    return TheoremReport(
        theorem=theorem_id,
        claim=spec.claim,
        instances=names,
        verdict=verdict,
        checks=tuple(checks),
        certificates=certs,
        artifacts=artifacts,
        elapsed_seconds=time.perf_counter() - start,
        budgets=budgets,
    )


def list_theorems() -> dict:
    return {tid: spec.claim for tid, spec in sorted(THEOREMS.items())}
