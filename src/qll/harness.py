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

from .atomset import bit_members
from .automorphisms import automorphism_chain, decompose_automorphism
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import (
    ExplicitSpace,
    _dac_checks,
    find_covering_violation,
    powerset_space,
    space_to_json,
)
from .errors import BudgetExceeded, DecompositionFailed, InputError
from .geometry import (
    SubspaceModel,
    _pair_perp,
    build_projective_space,
    linear_map_coatom,
    mo_lattice,
    similitude_group,
    tensor_model,
)
from .gf import mat_mul, projective_points
from .ortho import (
    OrthoConstruction,
    OrthogonalityRelation,
    find_orthocomplementations,
    find_orthomodularity_violation,
    four_atom_condition,
    ortho_from_atom_orthogonality,
    third_atom_condition,
)
from .products import (
    AxiomReport,
    PairGrid,
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
    """A resolved name: a registered base space with its optional
    orthogonality and model, or a product with the two bases it came from."""

    name: str
    space: ExplicitSpace
    relation: OrthogonalityRelation | None = None
    model: SubspaceModel | None = None
    product: ProductInstance | None = None
    left: NamedInstance | None = None
    right: NamedInstance | None = None

    @property
    def boolean(self) -> bool:
        """Whether the space is a powerset: every subset is closed."""
        return len(self.space.masks) == 1 << self.space.universe_size

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


def _build_mo(n: int) -> Callable[[Budgets], NamedInstance]:
    def build(budgets: Budgets) -> NamedInstance:
        space, rel = mo_lattice(n, budgets)
        return NamedInstance(f"mo{n}", space, relation=rel)

    return build


def _build_boolean(n: int) -> Callable[[Budgets], NamedInstance]:
    def build(budgets: Budgets) -> NamedInstance:
        space = powerset_space(n, budgets)
        # in a powerset the complement of an atom is everything else, so any
        # two distinct atoms are orthogonal
        rel = OrthogonalityRelation.from_pairs(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        return NamedInstance(f"boolean{n}", space, relation=rel)

    return build


def _build_gf_plane(q: int, form=None) -> Callable[[Budgets], NamedInstance]:
    """GF(q)^2 with an anisotropic form (the identity unless given)."""

    def build(budgets: Budgets) -> NamedInstance:
        model = SubspaceModel.create(q, 2, form)
        space, rel = build_projective_space(model, budgets)
        return NamedInstance(f"gf{q}_2", space, relation=rel, model=model)

    return build


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
    "gf3_2": _build_gf_plane(3),
    # -1 is a square mod 5, so the identity form has isotropic points there
    "gf5_2": _build_gf_plane(5, ((1, 0), (0, 2))),
    "gf7_2": _build_gf_plane(7),
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


def resolve_instance(name: str, budgets: Budgets = DEFAULT_BUDGETS) -> NamedInstance:
    """Resolve a base name or a product expression like sep(mo2,mo2)."""
    m = _PRODUCT_RE.match(name.strip())
    if m is None:
        return resolve_base(name.strip(), budgets)
    kind, lname, rname = m.groups()
    left = resolve_base(lname, budgets)
    right = resolve_base(rname, budgets)
    inst = build_product(kind, left, right, budgets)
    return NamedInstance(
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

# A pipeline receives the resolved factors and appends its checks to the list
# verify passes in, so the checks finished before a budget overrun survive
# into the report.  It checks its preconditions before it builds a product,
# builds each product through build_product, and returns its certificates and
# the products the report embeds, in order.  build_product is the
# finite-field gate: down refuses factors without models, and factors over
# different fields, so a pipeline that needs models builds down first.
PipelineResult = tuple[dict, tuple[ProductInstance, ...]]


def pair_relation(
    grid_n1: int,
    grid_n2: int,
    rel1: OrthogonalityRelation,
    rel2: OrthogonalityRelation,
) -> OrthogonalityRelation:
    """Product-atom orthogonality: orthogonal in either coordinate, so the
    atoms orthogonal to (p1, p2) form the cross of p1's and p2's perp sets."""
    grid = PairGrid(grid_n1, grid_n2)
    crosses = [grid.cross_mask(a, b) for a in rel1.perp_masks for b in rel2.perp_masks]
    return OrthogonalityRelation(grid.size, tuple(crosses))


def sep_cross_ortho(
    sep: ProductInstance, rel1: OrthogonalityRelation, rel2: OrthogonalityRelation
) -> OrthoConstruction:
    """The orthocomplementation the cross relation (pair_relation of the
    factor orthogonalities) induces on a sep product, or why it fails."""
    rel = pair_relation(sep.grid.n1, sep.grid.n2, rel1, rel2)
    return ortho_from_atom_orthogonality(sep.space, rel)


def _require_relation(inst: NamedInstance) -> OrthogonalityRelation:
    if inst.relation is None:
        raise InputError(f"instance {inst.name!r} carries no atom orthogonality")
    return inst.relation


def _p4_check(
    product: ProductInstance,
    left: NamedInstance,
    right: NamedInstance,
    symmetries: str,
    budgets: Budgets,
) -> tuple[AxiomReport, int]:
    """P4 on a product of left and right under pairs of factor symmetries,
    with the number of pairs: the similitudes of both models
    ("similitudes"), or every factor automorphism ("aut"), given by the
    stabilizer-chain generators.  Equal factors share one list."""
    if symmetries == "similitudes":
        if left.model is None or right.model is None:
            raise InputError("similitudes need finite-field factors")
        t1 = similitude_group(left.model, budgets)
        t2 = t1
        if right.model != left.model:
            t2 = similitude_group(right.model, budgets)
        return check_p4(product, t1, t2), len(t1) * len(t2)
    c1 = c2 = automorphism_chain(product.left, budgets)
    if product.right != product.left:
        c2 = automorphism_chain(product.right, budgets)
    return check_p4(product, c1.generators, c2.generators), c1.order * c2.order


def _search_summary(res) -> dict:
    out = {"count": len(res.maps), "exhaustive": res.exhaustive, "nodes": res.nodes}
    if res.certificate is not None:
        out["certificate"] = res.certificate
    return out


def _witness_check(
    checks: list[CheckResult],
    certs: dict,
    name: str,
    found,
    expected: bool,
    cert: str | None = None,
) -> None:
    """Check that a witness search found one (expected) or none (not
    expected); the witness goes into the check and, if cert names a key,
    into the certificates."""
    witness = None if found is None else found.to_json()
    checks.append(_check(name, (found is not None) == expected, witness=witness))
    if cert is not None and witness is not None:
        certs[cert] = witness


def _pipeline_only_bottom_has_ortho(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    rel1 = _require_relation(left)
    rel2 = _require_relation(right)
    certs: dict = {}

    sep = build_product("sep", left, right, budgets)
    cons = sep_cross_ortho(sep, rel1, rel2)
    checks.append(_check("sep_cross_relation_is_ortho", cons.ok, failure=cons.failure))
    search = find_orthocomplementations(sep.space, budgets=budgets)
    checks.append(_check("sep_admits_ortho", bool(search.maps), **_search_summary(search)))
    if cons.ok:
        checks.append(
            _check(
                "cross_map_found_by_search",
                any(m.atom_image == cons.ortho.atom_image for m in search.maps),
            )
        )
        certs["sep_cross_ortho"] = cons.ortho.to_json()
    certs["sep_search"] = _search_summary(search)

    products = [sep]
    kinds = ["top", "star"]
    if left.model is not None and right.model is not None:
        kinds.append("down")
    for kind in kinds:
        inst = build_product(kind, left, right, budgets)
        search = find_orthocomplementations(inst.space, budgets=budgets)
        checks.append(
            _check(f"{kind}_admits_none", not search.maps, **_search_summary(search))
        )
        certs[f"{kind}_search"] = _search_summary(search)
        products.append(inst)
    return certs, tuple(products)


def _pipeline_bottom_not_orthomodular(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    if left.boolean or right.boolean:
        raise InputError("this claim is about non-powerset factors")
    rel1 = _require_relation(left)
    rel2 = _require_relation(right)
    certs: dict = {}

    sep = build_product("sep", left, right, budgets)
    cons = sep_cross_ortho(sep, rel1, rel2)
    checks.append(_check("cross_relation_is_ortho", cons.ok, failure=cons.failure))
    if cons.ok:
        certs["ortho"] = cons.ortho.to_json()
        viol = find_orthomodularity_violation(sep.space, cons.ortho)
        _witness_check(
            checks, certs, "orthomodularity_fails", viol, True, "orthomodularity_witness"
        )
    cov = find_covering_violation(sep.space)
    _witness_check(checks, certs, "covering_fails", cov, True, "covering_witness")
    return certs, (sep,)


def _pipeline_top_lacks_covering(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    certs: dict = {}
    checks.append(_check("four_atom_condition_left", four_atom_condition(left.space)))
    checks.append(_check("four_atom_condition_right", four_atom_condition(right.space)))

    top = build_product("top", left, right, budgets)
    cov = find_covering_violation(top.space)
    _witness_check(checks, certs, "top_covering_fails", cov, True, "covering_witness")
    return certs, (top,)


def _pipeline_bottom_equals_top_iff_boolean(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    certs: dict = {}

    # hypothesis: every non-powerset factor has two atoms whose join contains
    # a third atom and covers all three
    for side, inst in (("left", left), ("right", right)):
        ok = inst.boolean or third_atom_condition(inst.space)
        checks.append(_check(f"hypothesis_{side}", ok, boolean=inst.boolean))

    sep = build_product("sep", left, right, budgets)
    top = build_product("top", left, right, budgets)
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

    return certs, (sep, top)


def _pipeline_automorphisms_decompose(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    certs: dict = {}

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

    products = []
    for kind in ("sep", "star"):
        inst = build_product(kind, left, right, budgets)
        products.append(inst)

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
        # a decomposed triple reproduces u by construction (see
        # decompose_automorphism), so every generator that decomposes
        # round-trips
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

    return certs, tuple(products)


def _pipeline_down_properties(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    certs: dict = {}

    down = build_product("down", left, right, budgets)
    certs["notes"] = dict(down.notes)

    axioms = check_p123(down)
    for axiom in ("P1", "P2", "P3"):
        c = axioms.check(axiom)
        checks.append(
            _check(
                f"axiom_{axiom.lower()}",
                c.passed,
                witnesses=list(c.witnesses),
            )
        )

    p4_sims, pairs = _p4_check(down, left, right, "similitudes", budgets)
    checks.append(_check("axiom_p4_similitude_pairs", p4_sims.passed, pairs=pairs))

    p4_full, pairs = _p4_check(down, left, right, "aut", budgets)
    # the claim expects covariance to BREAK for some full factor-automorphism
    # pair; if every pair is covariant the finite model diverges on this point
    checks.append(
        _check(
            "axiom_p4_full_aut_fails",
            not p4_full.passed,
            expected="some factor-automorphism pair is not covariant",
            observed=(
                "all pairs covariant" if p4_full.passed else "non-covariant pair found"
            ),
            pairs=pairs,
            witnesses=list(p4_full.check("P4").witnesses),
        )
    )

    atomistic, coatomistic, cov, dual, dac = _dac_checks(down.space)
    checks.append(_check("atomistic", atomistic))
    checks.append(_check("coatomistic", coatomistic))
    _witness_check(checks, certs, "covering_holds", cov, False)
    _witness_check(
        checks, certs, "dual_covering_fails", dual, True, "dual_covering_witness"
    )
    checks.append(_check("not_dac", not dac))

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

    # independent description of the coatoms: duals of nonzero linear maps,
    # one per projective class since proportional maps give the same set
    k1, k2 = left.model.n, right.model.n
    map_coatoms = {
        linear_map_coatom(
            tuple(w[i * k1 : (i + 1) * k1] for i in range(k2)), left.model, right.model
        )
        for w in projective_points(q, k1 * k2)
    }
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
            not search.maps and search.certificate is not None,
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
    return certs, (down,)


def _entangling_graph(m1: SubspaceModel, m2: SubspaceModel) -> int:
    """The pairs whose product vector is orthogonal to e0⊗f0 + e1⊗f1, as a
    pair mask.

    Read as a d1 x d2 matrix, that vector is V with V[0][0] = V[1][1] = 1,
    and under the Kronecker form <v, v1⊗v2> = v1ᵀ F1 V F2 v2, so the graph
    is one _pair_perp read.
    """
    q = m1.q
    v = tuple(tuple(int(i == j < 2) for j in range(m2.n)) for i in range(m1.n))
    return _pair_perp(mat_mul(mat_mul(m1.form, v, q), m2.form, q), m1, m2)


def _pipeline_entangling_graph(
    left: NamedInstance, right: NamedInstance, budgets: Budgets, checks: list[CheckResult]
) -> PipelineResult:
    down = build_product("down", left, right, budgets)
    m1, m2 = down.models
    if m1.n < 2 or m2.n < 2:
        raise InputError("factors need dimension at least 2")
    certs: dict = {}
    graph = _entangling_graph(m1, m2)
    grid = down.grid
    pairs = [list(grid.unindex(k)) for k in bit_members(graph)]
    labeled = [[down.left.label(i1), down.right.label(i2)] for i1, i2 in pairs]
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

    checks.append(_check("graph_in_down", down.space.contains_mask(graph)))
    # membership in top needs only the section test, so top stays implicit
    # here: materialized, it outgrows family_cap on gf7_2 factors
    top = top_product(down.left, down.right)
    checks.append(_check("graph_in_top", top.space.contains_mask(graph)))
    sep = build_product("sep", left, right, budgets)
    checks.append(_check("graph_not_in_sep", not sep.space.contains_mask(graph)))
    return certs, (down,)


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class ClaimSpec:
    claim: str
    default_left: str
    default_right: str
    pipeline: Callable[
        [NamedInstance, NamedInstance, Budgets, list[CheckResult]], PipelineResult
    ]
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
        factors = (resolve_base(lname, budgets), resolve_base(rname, budgets))
        certs, products = spec.pipeline(*factors, budgets, checks)
    except BudgetExceeded as exc:
        verdict = VERDICT_BUDGET
        certs = {"budget": exc.budget_name, "cap": exc.cap}
        artifacts: dict = {}
        instances: tuple[str, ...] = (lname, rname)
    else:
        artifacts = {f"{p.kind}({lname},{rname})": p.to_json() for p in products}
        instances = tuple(artifacts)
        if all(c.passed for c in checks):
            verdict = VERDICT_VERIFIED
        elif spec.analog:
            verdict = VERDICT_DIVERGENCE
        else:
            verdict = VERDICT_FALSIFIED
    return TheoremReport(
        theorem=theorem_id,
        claim=spec.claim,
        instances=instances,
        verdict=verdict,
        checks=tuple(checks),
        certificates=certs,
        artifacts=artifacts,
        elapsed_seconds=time.perf_counter() - start,
        budgets=budgets,
    )


def list_theorems() -> dict:
    return {tid: spec.claim for tid, spec in sorted(THEOREMS.items())}
