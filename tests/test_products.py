from __future__ import annotations

import pytest

from helpers import (
    family_as_sets,
    naive_sep_family,
    naive_star_family,
    naive_star_generators,
    naive_top_family,
    nested_p4_failures,
    product_family_as_sets,
)
from qll.atomset import AtomSet
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import coatoms, powerset_space, validate_simple_closure_space
from qll.errors import (
    BudgetExceeded,
    ContractViolation,
    InputError,
    UnsupportedRepresentation,
)
from qll.products import (
    PairGrid,
    check_p123,
    check_p4,
    down_product,
    interval_check,
    materialize_top_product,
    sep_product,
    star_generators,
    star_product,
    top_product,
    validate_instance,
)
from qll.automorphisms import AtomPermutation, automorphism_chain, automorphism_group
from qll.geometry import similitude_group


def _mo2_sets(mo2):
    return family_as_sets(mo2.space), frozenset(range(4))


def test_pair_grid_indexing():
    g = PairGrid(3, 5)
    seen = set()
    for i in range(3):
        for j in range(5):
            k = g.index(i, j)
            assert g.unindex(k) == (i, j)
            seen.add(k)
    assert seen == set(range(15))
    assert g.row_full_mask(1) == 0b11111 << 5
    row = g.row_section(g.row_full_mask(1) | 1, 1)
    assert row == 0b11111
    col = g.col_section(g.col_full_mask(2), 2)
    assert col == 0b111


def test_pair_image():
    v1, v2 = AtomPermutation((2, 0, 1)), AtomPermutation((1, 2, 0))
    g = PairGrid(3, 3)
    pairs = [g.unindex(k) for k in range(9)]
    assert g.pair_image(v1, v2) == tuple(g.index(v1(i), v2(j)) for i, j in pairs)
    assert g.pair_image(v1, v2, swap=True) == tuple(
        g.index(v2(j), v1(i)) for i, j in pairs
    )
    with pytest.raises(InputError):
        PairGrid(3, 2).pair_image(v1, AtomPermutation((1, 0)), swap=True)
    with pytest.raises(InputError):
        g.pair_image(v1, AtomPermutation((1, 0)))


def test_grid_cross_mask():
    g = PairGrid(2, 2)
    m = g.cross_mask(0b01, 0b10)
    # {0}xS2 union S1x{1} = {(0,0),(0,1),(1,1)}
    assert m == (1 << g.index(0, 0)) | (1 << g.index(0, 1)) | (1 << g.index(1, 1))


def test_sep_family_matches_independent_construction(mo2, sep_mm):
    f1, u1 = _mo2_sets(mo2)
    naive = naive_sep_family(f1, f1, sorted(u1), sorted(u1))
    got = product_family_as_sets(sep_mm.space, 4, 4)
    assert got == naive
    assert len(got) == 114


def test_sep_validates_as_closure_space(sep_mm):
    assert validate_simple_closure_space(sep_mm.space.family).valid
    validate_instance(sep_mm)


def test_sep_coatoms_are_crosses(sep_mm):
    cs = coatoms(sep_mm.space)
    assert len(cs) == 16
    assert all(len(c.members) == 7 for c in cs)


def test_top_membership_matches_independent_enumeration(mo2, top_mm):
    f1, u1 = _mo2_sets(mo2)
    naive = naive_top_family(f1, f1, sorted(u1), sorted(u1))
    got = product_family_as_sets(top_mm.space, 4, 4)
    assert got == naive
    assert len(got) == 234


def test_top_implicit_agrees_with_materialized(mo2, top_mm):
    imp = top_product(mo2.space, mo2.space)
    assert not imp.space.is_explicit
    for mask in top_mm.space.masks:
        assert imp.space.contains_mask(mask)
    # spot-check non-members too
    full = (1 << 16) - 1
    import random

    rng = random.Random(7)
    member_set = set(top_mm.space.masks)
    for _ in range(500):
        m = rng.randrange(full + 1)
        assert imp.space.contains_mask(m) == (m in member_set)


def test_top_closure_agrees_with_family(mo2, top_mm):
    imp = top_product(mo2.space, mo2.space)
    import random

    rng = random.Random(11)
    member_set = set(top_mm.space.masks)
    for _ in range(200):
        m = rng.randrange(1 << 16)
        closed = imp.space.closure_mask(m)
        assert closed in member_set
        # the closure is the unique minimal closed superset
        want = min(
            (c for c in member_set if m & ~c == 0),
            key=lambda c: c.bit_count(),
        )
        assert closed == want


def test_star_generators_match_independent_enumeration(mo2, star_mm):
    f1, u1 = _mo2_sets(mo2)
    naive = naive_star_generators(f1, f1, sorted(u1), sorted(u1))
    gens = star_generators(mo2.space, mo2.space)
    got = {
        frozenset(divmod(k, 4) for k in g.members) for g in gens
    }
    assert got == naive
    assert len(got) == 40
    assert {len(g) for g in naive} == {4, 7}


def test_star_family_matches_independent_construction(mo2, star_mm):
    f1, u1 = _mo2_sets(mo2)
    naive = naive_star_family(f1, f1, sorted(u1), sorted(u1))
    got = product_family_as_sets(star_mm.space, 4, 4)
    assert got == naive
    assert len(got) == 138


def test_star_needs_coatomistic_factors():
    # a valid simple closure space that is not coatomistic: a 3-chain with an
    # extra atom joined in
    fam = [[], [0], [1], [0, 1]]
    sp = powerset_space(2)
    chain = [[], [0], [1], [2], [0, 1], [0, 1, 2]]
    bad = [AtomSet.from_members(3, s) for s in chain]
    from qll.closure import ExplicitSpace, is_coatomistic

    bad_space = ExplicitSpace(bad)
    assert validate_simple_closure_space(bad_space.family).valid
    assert not is_coatomistic(bad_space)
    with pytest.raises(ContractViolation):
        star_product(bad_space, sp)


def test_down_equals_star_on_gf3(down_gg, star_mm):
    # the factor lattices are the same height-2 structure, and at this scale
    # the two constructions produce the same family
    assert product_family_as_sets(down_gg.space, 4, 4) == product_family_as_sets(
        star_mm.space, 4, 4
    )
    assert down_gg.notes["subspaces"] == 212
    assert down_gg.notes["distinct_images"] == 138
    assert down_gg.notes["collisions"] == 74


def test_down_coatom_count(down_gg):
    assert len(coatoms(down_gg.space)) == 40


def test_boolean_factors_collapse_everything(boolean2):
    b = boolean2.space
    sep = sep_product(b, b)
    top = materialize_top_product(b, b)
    star = star_product(b, b)
    p4 = powerset_space(4)
    for inst in (sep, top, star):
        assert family_as_sets(inst.space) == family_as_sets(p4)


def test_inclusion_chain(sep_mm, star_mm, top_mm, down_gg):
    sep_sets = set(sep_mm.space.masks)
    star_sets = set(star_mm.space.masks)
    top_sets = set(top_mm.space.masks)
    down_sets = set(down_gg.space.masks)
    assert sep_sets < down_sets <= star_sets < top_sets


def test_axioms_p123_pass_everywhere(sep_mm, star_mm, top_mm, down_gg):
    for inst in (sep_mm, star_mm, top_mm, down_gg):
        report = check_p123(inst)
        assert report.passed, report.to_json()


def test_p123_on_implicit_top(mo2):
    imp = top_product(mo2.space, mo2.space)
    with pytest.raises(UnsupportedRepresentation):
        check_p123(imp)


def test_p2_detects_missing_cross(mo2, sep_mm):
    # remove a cross and re-close: P2 must fail on the damaged instance
    from qll.closure import ExplicitSpace
    from qll.products import ProductInstance

    grid = sep_mm.grid
    cross = grid.cross_mask(0b0001, 0b0001)
    closed = {m for m in sep_mm.space.masks if m != cross}
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                c = a & b
                if c not in closed:
                    closed.add(c)
                    changed = True
    damaged = ProductInstance(
        "sep",
        sep_mm.left,
        sep_mm.right,
        ExplicitSpace(AtomSet(16, m) for m in closed),
        grid,
    )
    report = check_p123(damaged)
    if cross in closed:
        assert report.passed
    else:
        assert not report.check("P2").passed


def test_p4_full_aut_passes_on_sep(mo2, sep_mm):
    group = automorphism_group(mo2.space)
    report = check_p4(sep_mm, group, group)
    assert report.passed
    assert report.check("P4").passed


def _single_row_instance(boolean2, column=False):
    """A family closed under intersection but not under the atom swap of the
    left factor: the single row breaks covariance.  With column=True, a
    single column breaks it for the right factor."""
    from qll.closure import ExplicitSpace
    from qll.products import ProductInstance

    grid = PairGrid(2, 2)
    line = grid.col_full_mask(0) if column else grid.row_full_mask(0)
    masks = {0, line, (1 << 4) - 1}
    for k in range(4):
        masks.add(1 << k)
    return ProductInstance(
        "custom",
        boolean2.space,
        boolean2.space,
        ExplicitSpace(AtomSet(4, m) for m in masks),
        grid,
    )


def test_p4_detects_asymmetric_family(mo2, boolean2):
    inst = _single_row_instance(boolean2)
    swap = automorphism_group(boolean2.space)  # contains the atom swap
    report = check_p4(inst, swap, swap)
    assert not report.check("P4").passed
    assert report.check("P4").witnesses


def test_p4_matches_nested_scan(mo2, boolean2, gf3_2, sep_mm, down_gg):
    aut_m = automorphism_group(mo2.space)
    aut_g = automorphism_group(gf3_2.space)
    sims = similitude_group(gf3_2.model)
    aut_b = automorphism_group(boolean2.space)
    cases = [
        (sep_mm, aut_m, aut_m),
        (down_gg, aut_g, aut_g),
        (down_gg, sims, sims),
        (down_gg, aut_g, sims),
        (_single_row_instance(boolean2), aut_b, aut_b),
    ]
    for inst, t1, t2 in cases:
        check = check_p4(inst, t1, t2).check("P4")
        failing = nested_p4_failures(inst, t1, t2)
        assert check.passed == (not failing)
        # the witnesses are the first failing pairs (v, 1), then (1, w)
        one1, one2 = t1[0].image, t2[0].image
        firsts = [(v.image, one2) for v in t1] + [(one1, w.image) for w in t2]
        expected = [pair for pair in firsts if pair in failing][:3]
        assert [(tuple(w["v1"]), tuple(w["v2"])) for w in check.witnesses] == expected
    check = check_p4(_single_row_instance(boolean2), aut_b, aut_b).check("P4")
    assert check.witnesses == ({"v1": [1, 0], "v2": [0, 1], "unpreserved": [0, 1]},)


def test_p4_on_generators_matches_nested_scan(mo2, boolean2, gf3_2, sep_mm, down_gg):
    # the five cases above and the single column, each factor group also
    # given by generating sets that are not the element list: the chain's
    # generators, and the element list without the identity
    def aut(space):
        return automorphism_group(space), [automorphism_chain(space).generators]

    m, g, b = aut(mo2.space), aut(gf3_2.space), aut(boolean2.space)
    s = (similitude_group(gf3_2.model), [])
    cases = [
        (sep_mm, m, m),
        (down_gg, g, g),
        (down_gg, s, s),
        (down_gg, g, s),
        (_single_row_instance(boolean2), b, b),
        (_single_row_instance(boolean2, column=True), b, b),
    ]
    for inst, (t1, gens1), (t2, gens2) in cases:
        expected = not nested_p4_failures(inst, t1, t2)
        for t in (t1, t2):
            assert t[0] == AtomPermutation.identity(len(t[0].image))
        for s1 in gens1 + [t1[1:]]:
            for s2 in gens2 + [t2[1:]]:
                assert check_p4(inst, s1, s2).check("P4").passed == expected


def test_interval_check_star(star_mm):
    iv = interval_check(star_mm)
    assert iv.contains_sep and iv.inside_top
    assert iv.sep_strict and iv.top_strict
    assert iv.sep_witness is not None and iv.top_witness is not None


def test_interval_check_down(down_gg):
    iv = interval_check(down_gg)
    assert iv.contains_sep and iv.inside_top
    assert iv.sep_strict and iv.top_strict


def test_down_needs_budget(gf3_2):
    with pytest.raises(BudgetExceeded):
        down_product(
            gf3_2.model,
            gf3_2.model,
            DEFAULT_BUDGETS.with_overrides(subspace_cap=5),
        )


@pytest.mark.parametrize("cap", [6, 39])
def test_down_hyperplanes_need_budget(gf3_2, cap):
    # the factor planes have 6 subspaces each, GF(3)^4 has 40 hyperplane
    # normals
    with pytest.raises(BudgetExceeded) as exc:
        down_product(
            gf3_2.model, gf3_2.model, DEFAULT_BUDGETS.with_overrides(subspace_cap=cap)
        )
    assert exc.value.budget_name == "subspace_cap"
    assert exc.traceback[-1].name == "down_product"


def test_star_closure_budget(mo2):
    with pytest.raises(BudgetExceeded) as exc:
        star_product(
            mo2.space, mo2.space, DEFAULT_BUDGETS.with_overrides(family_cap=50)
        )
    assert exc.value.budget_name == "family_cap"
    assert exc.traceback[-1].name == "_close_under_intersections"


def test_materialize_top_budget(mo2):
    with pytest.raises(BudgetExceeded):
        materialize_top_product(
            mo2.space, mo2.space, DEFAULT_BUDGETS.with_overrides(node_cap=100)
        )


def test_sections_accessor(sep_mm):
    grid = sep_mm.grid
    cross = AtomSet(16, grid.cross_mask(0b0001, 0b0010))
    row_sec, col_sec = sep_mm.sections(cross, (0, 0))
    # section through p=(0,0): first coordinates of pairs with second = 0,
    # and second coordinates of pairs with first = 0
    assert col_sec.members == (0, 1, 2, 3)  # row of atom 0 is full
    assert row_sec.members == (0,)  # column through 0: only atom 0 (plus row)


def test_product_json_roundtrip(sep_mm):
    data = sep_mm.to_json()
    assert data["product"] == "sep"
    assert len(data["family"]) == 114
    assert data["pairing"] == [list(divmod(k, 4)) for k in range(16)]
