"""Acceptance gate: nine numbered criteria, one PASS/FAIL line apiece.

Each criterion recomputes its own evidence from the public API (or from a
verification report plus an independent cross-check) and prints a single
summary line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they go by; they also appear in captured output on failure.
"""

from __future__ import annotations

import random

from qll.atomset import bit_members, mask_from_members
from qll.closure import validate_simple_closure_space
from qll.harness import resolve_base, resolve_instance, verify
from qll.ortho import ortho_from_atom_orthogonality, verify_orthocomplementation
from qll.products import PairGrid, top_product

MAX_SECONDS = {1: 60.0, 2: 300.0, 3: 30.0, 4: 60.0, 5: 30.0, 6: 300.0, 7: 30.0}


def _criterion(number: int, checks: dict[str, bool]) -> None:
    failed = sorted(name for name, ok in checks.items() if not ok)
    line = f"CRITERION {number}: {'FAIL' if failed else 'PASS'}"
    if failed:
        line += f"  (failed: {', '.join(failed)})"
    print(line)
    assert not failed, line


def _mo2_partner() -> dict[int, int]:
    rel = resolve_base("mo2").relation
    out = {}
    for p, mask in enumerate(rel.perp_masks):
        (q,) = [i for i in range(rel.universe_size) if mask >> i & 1]
        out[p] = q
    return out


def test_criterion_1_sep_has_ortho_top_star_do_not():
    report = verify("thm8.6", "mo2", "mo2")
    checks = {c.name: c.passed for c in report.checks}
    certs = report.certificates

    # the searched-for map on sep must be the cross construction:
    # atom (p1,p2) goes to the partner row union the partner column
    partner = _mo2_partner()
    grid = PairGrid(4, 4)
    found = {tuple(img) for img in certs["sep_cross_ortho"]["atom_image"]}
    expected = set()
    for p1 in range(4):
        for p2 in range(4):
            row = {grid.index(partner[p1], j) for j in range(4)}
            col = {grid.index(i, partner[p2]) for i in range(4)}
            expected.add(tuple(sorted(row | col)))
    sep = resolve_instance("sep(mo2,mo2)")
    cross_map = ortho_from_atom_orthogonality(
        sep.space,
        _sep_pair_relation(),
    )
    verification = verify_orthocomplementation(sep.space, cross_map.ortho)

    _criterion(
        1,
        {
            "verdict_verified": report.verdict == "verified",
            "sep_at_least_one_map": certs["sep_search"]["count"] >= 1,
            "sep_search_exhaustive": certs["sep_search"]["exhaustive"],
            "cross_map_verifies": verification.ok,
            "cross_map_has_partner_cross_images": found == expected,
            "search_found_cross_map": checks["cross_map_found_by_search"],
            "top_exactly_zero": certs["top_search"]["count"] == 0,
            "top_search_exhaustive": certs["top_search"]["exhaustive"],
            "star_exactly_zero": certs["star_search"]["count"] == 0,
            "star_search_exhaustive": certs["star_search"]["exhaustive"],
            "runtime": report.elapsed_seconds < MAX_SECONDS[1],
        },
    )


def _sep_pair_relation():
    from qll.harness import pair_relation

    rel = resolve_base("mo2").relation
    return pair_relation(4, 4, rel, rel)


def test_criterion_2_down_product_structure():
    report = verify("thm10.4", "gf3_2", "gf3_2")
    checks = {c.name: c.passed for c in report.checks}
    down = resolve_instance("down(gf3_2,gf3_2)")

    # independent coatom recount: nonzero 2x2 matrices over GF(3) modulo
    # scalars, 80/2 = 40
    scalar_classes = set()
    for code in range(1, 3**4):
        entries = tuple(code // 3**k % 3 for k in range(4))
        scalar_classes.add(max(entries, tuple((2 * e) % 3 for e in entries)))

    # the full-automorphism covariance probe is a deliberate extra check in
    # the report and is outside this criterion; it flips the verdict to
    # analog-divergence without touching any item below
    _criterion(
        2,
        {
            "sixteen_atoms": down.space.universe_size == 16
            and checks["atom_count_is_pair_count"],
            "forty_coatoms": checks["coatom_count_is_projective_map_count"],
            "coatoms_match_linear_map_duals": checks["coatoms_are_linear_map_duals"],
            "independent_map_count_is_40": len(scalar_classes) == 40,
            "no_ortho_counting_certificate": checks["no_orthocomplementation"],
            "search_confirms_exhaustively": report.certificates["ortho_search"][
                "exhaustive"
            ]
            and report.certificates["ortho_search"]["count"] == 0,
            "p1_p2_p3": checks["axiom_p1"]
            and checks["axiom_p2"]
            and checks["axiom_p3"],
            "p4_similitude_pairs": checks["axiom_p4_similitude_pairs"],
            "covering_holds": checks["covering_holds"],
            "dac_fails": checks["not_dac"] and checks["dual_covering_fails"],
            "strict_chain_sep_down_top": checks["strictly_between_bottom_and_top"],
            "runtime": report.elapsed_seconds < MAX_SECONDS[2],
        },
    )


def test_criterion_3_sep_not_orthomodular_no_covering():
    report = verify("thm9.1", "mo2", "mo2")
    checks = {c.name: c.passed for c in report.checks}
    omod = report.certificates["orthomodularity_witness"]
    cov = report.certificates["covering_witness"]
    _criterion(
        3,
        {
            "verdict_verified": report.verdict == "verified",
            "not_orthomodular": checks["orthomodularity_fails"],
            "covering_fails": checks["covering_fails"],
            "orthomodularity_witness_emitted": {"a", "b", "rejoin"} <= set(omod),
            "covering_witness_emitted": {"atom", "base", "joined"} <= set(cov)
            or len(cov) >= 2,
            "runtime": report.elapsed_seconds < MAX_SECONDS[3],
        },
    )


def test_criterion_4_top_lacks_covering():
    report = verify("thm9.4", "mo2", "mo2")
    checks = {c.name: c.passed for c in report.checks}
    _criterion(
        4,
        {
            "verdict_verified": report.verdict == "verified",
            "four_atom_left": checks["four_atom_condition_left"],
            "four_atom_right": checks["four_atom_condition_right"],
            "top_covering_fails": checks["top_covering_fails"],
            "witness_emitted": bool(report.certificates["covering_witness"]),
            "runtime": report.elapsed_seconds < MAX_SECONDS[4],
        },
    )


def test_criterion_5_bottom_equals_top_iff_boolean():
    results = {}
    for left, right, expect_equal in [
        ("boolean2", "mo2", True),
        ("boolean2", "boolean2", True),
        ("mo2", "mo2", False),
    ]:
        report = verify("thm5.x", left, right)
        results[f"{left}x{right}_verified"] = report.verdict == "verified"
        if not expect_equal:
            graph = report.certificates["bijection_graph"]
            sep = resolve_instance(f"sep({left},{right})")
            top = resolve_instance(f"top({left},{right})")
            grid = PairGrid(4, 4)
            mask = 0
            for i, j in graph:
                mask |= 1 << grid.index(i, j)
            results["witness_is_bijection_graph"] = (
                sorted(p[0] for p in graph) == [0, 1, 2, 3]
                and sorted(p[1] for p in graph) == [0, 1, 2, 3]
            )
            results["witness_in_top"] = top.space.contains_mask(mask)
            results["witness_not_in_sep"] = not sep.space.contains_mask(mask)
        results["runtime"] = report.elapsed_seconds < MAX_SECONDS[5]
    _criterion(5, results)


def test_criterion_6_automorphism_group_order():
    report = verify("thm7.5", "mo2", "mo2")
    checks = {c.name: c.passed for c in report.checks}
    certs = report.certificates
    factor = certs["factor_group_orders"]
    _criterion(
        6,
        {
            "verdict_verified": report.verdict == "verified",
            "sep_all_decompose": checks["sep_all_decompose"],
            "star_all_decompose": checks["star_all_decompose"],
            "sep_triples_distinct": checks["sep_triples_distinct"],
            "star_triples_distinct": checks["star_triples_distinct"],
            "sep_count_is_1152": certs["sep_group_order"] == 1152,
            "star_count_is_1152": certs["star_group_order"] == 1152,
            "order_formula": certs["sep_group_order"]
            == 2 * factor["left"] * factor["right"]
            == certs["star_group_order"],
            "runtime": report.elapsed_seconds < MAX_SECONDS[6],
        },
    )


def test_criterion_7_entangling_graph_memberships():
    report = verify("cnot", "gf3_2", "gf3_2")
    checks = {c.name: c.passed for c in report.checks}
    labels = {tuple(pair) for pair in report.certificates["graph_labels"]}
    want = {
        ("(1,0)", "(0,1)"),
        ("(0,1)", "(1,0)"),
        ("(1,1)", "(1,2)"),
        ("(1,2)", "(1,1)"),
    }
    _criterion(
        7,
        {
            "verdict_verified": report.verdict == "verified",
            "graph_is_the_four_pairs": labels == want,
            "graph_in_down": checks["graph_in_down"],
            "graph_in_top": checks["graph_in_top"],
            "graph_not_in_sep": checks["graph_not_in_sep"],
            "runtime": report.elapsed_seconds < MAX_SECONDS[7],
        },
    )


def test_criterion_8_property_suites():
    mo2 = resolve_base("mo2")
    gf = resolve_base("gf3_2")
    sep = resolve_instance("sep(mo2,mo2)").space
    star = resolve_instance("star(mo2,mo2)").space
    top = resolve_instance("top(mo2,mo2)").space
    implicit = top_product(mo2.space, mo2.space).space
    sep_g = resolve_instance("sep(gf3_2,gf3_2)").space
    down_g = resolve_instance("down(gf3_2,gf3_2)").space
    star_g = resolve_instance("star(gf3_2,gf3_2)").space
    top_g = resolve_instance("top(gf3_2,gf3_2)").space

    rng = random.Random(20260813)
    samples = 10_000
    chain_ok = True
    laws_ok = True
    implicit_agrees = True
    for _ in range(samples):
        mask = rng.randrange(1 << 16)
        in_sep = sep.contains_mask(mask)
        in_star = star.contains_mask(mask)
        in_top = top.contains_mask(mask)
        chain_ok &= (not in_sep or in_star) and (not in_star or in_top)
        chain_ok &= (not sep_g.contains_mask(mask) or down_g.contains_mask(mask))
        chain_ok &= (not down_g.contains_mask(mask) or star_g.contains_mask(mask))
        chain_ok &= (not star_g.contains_mask(mask) or top_g.contains_mask(mask))
        implicit_agrees &= implicit.contains_mask(mask) == in_top

        c = implicit.closure_mask(mask)
        laws_ok &= mask & ~c == 0
        laws_ok &= implicit.closure_mask(c) == c
        sub = mask & rng.randrange(1 << 16)
        laws_ok &= implicit.closure_mask(sub) & ~c == 0

    # exhaustive sides: materialized families really are closure systems,
    # and the chains hold set-wise
    families_valid = all(
        validate_simple_closure_space(s.universe_size, s.masks).valid
        for s in (sep, star, top, sep_g, down_g, star_g, top_g)
    )
    masks = {name: set(s.masks) for name, s in
             [("sep", sep), ("star", star), ("top", top),
              ("sep_g", sep_g), ("down_g", down_g), ("star_g", star_g),
              ("top_g", top_g)]}
    chain_exhaustive = (
        masks["sep"] < masks["star"] < masks["top"]
        and masks["sep_g"] < masks["down_g"] <= masks["star_g"] < masks["top_g"]
    )

    # join identities for atom pairs, exhaustively on every product
    remarks_ok = True
    grid = PairGrid(4, 4)
    for space, factors in [
        (sep, (mo2.space, mo2.space)),
        (star, (mo2.space, mo2.space)),
        (top, (mo2.space, mo2.space)),
        (down_g, (gf.space, gf.space)),
    ]:
        for p in range(16):
            for q in range(16):
                if p == q:
                    continue
                (p1, p2), (q1, q2) = grid.unindex(p), grid.unindex(q)
                joined = space.closure_mask(1 << p | 1 << q)
                if p1 != q1 and p2 != q2:
                    remarks_ok &= joined == 1 << p | 1 << q
                elif p1 == q1:
                    fj = factors[1].closure_mask(1 << p2 | 1 << q2)
                    want = mask_from_members(grid.index(p1, j) for j in bit_members(fj))
                    remarks_ok &= joined == want
                else:
                    fj = factors[0].closure_mask(1 << p1 | 1 << q1)
                    want = mask_from_members(grid.index(i, p2) for i in bit_members(fj))
                    remarks_ok &= joined == want

    _criterion(
        8,
        {
            "sampled_inclusion_chain": chain_ok,
            "sampled_closure_laws": laws_ok,
            "implicit_matches_materialized": implicit_agrees,
            "families_are_closure_systems": families_valid,
            "exhaustive_inclusion_chain": chain_exhaustive,
            "atom_pair_join_identities": remarks_ok,
            "sample_count": samples >= 10_000,
        },
    )


def test_criterion_9_boolean_factors_give_powerset():
    from qll.closure import powerset_space
    from qll.errors import InputError

    ps = set(powerset_space(4).masks)
    results = {}
    for kind in ("sep", "top", "star"):
        space = resolve_instance(f"{kind}(boolean2,boolean2)").space
        results[f"{kind}_is_powerset"] = set(space.masks) == ps
        results[f"{kind}_has_16_sets"] = len(space.masks) == 16
    try:
        resolve_instance("down(boolean2,boolean2)")
        results["down_does_not_apply"] = False
    except InputError:
        results["down_does_not_apply"] = True
    _criterion(9, results)
