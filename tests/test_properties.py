from __future__ import annotations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qll.atomset import bit_members, lex_sorted, mask_from_members
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import (
    ExplicitSpace,
    find_covering_violation,
    find_dual_covering_violation,
    powerset_space,
    space_from_masks,
    validate_simple_closure_space,
)
from qll.errors import BudgetExceeded
from qll.geometry import SubspaceModel, similitude_group
from qll.gf import rref
from qll.products import PairGrid, _generated_family, _section_search

from helpers import (
    _canonical,
    _lex,
    grid_set,
    linear_covering_violation,
    linear_dual_covering_violation,
    naive_close_under_intersections,
    pairwise_close_under_intersections,
    pairwise_validate_simple_closure_space,
    rank_filtered_similitude_group,
    transposed_index_walk,
)

UNIVERSE = 5


def _space_from_seed(seed_masks: list[int]) -> ExplicitSpace:
    sets = {frozenset(), frozenset(range(UNIVERSE))}
    sets.update(frozenset([i]) for i in range(UNIVERSE))
    sets.update(
        frozenset(i for i in range(UNIVERSE) if m >> i & 1) for m in seed_masks
    )
    closed = naive_close_under_intersections(sets, frozenset(range(UNIVERSE)))
    return space_from_masks(UNIVERSE, map(mask_from_members, closed))


seeds = st.lists(
    st.integers(min_value=0, max_value=2**UNIVERSE - 1), max_size=6
)
masks5 = st.integers(min_value=0, max_value=2**UNIVERSE - 1)


@given(seeds, masks5)
def test_closure_is_extensive_and_closed(seed_masks, mask):
    space = _space_from_seed(seed_masks)
    c = space.closure_mask(mask)
    assert mask & ~c == 0
    assert space.contains_mask(c)


@given(seeds, masks5)
def test_closure_is_idempotent(seed_masks, mask):
    space = _space_from_seed(seed_masks)
    c = space.closure_mask(mask)
    assert space.closure_mask(c) == c


@given(seeds, masks5, masks5)
def test_closure_is_monotone(seed_masks, m1, m2):
    space = _space_from_seed(seed_masks)
    assert space.closure_mask(m1 & m2) & ~space.closure_mask(m1 | m2) == 0


@given(seeds, masks5)
def test_closure_is_minimal(seed_masks, mask):
    space = _space_from_seed(seed_masks)
    c = space.closure_mask(mask)
    supersets = [s for s in space.masks if mask & ~s == 0]
    assert c == min(supersets, key=int.bit_count)
    assert all(c & ~s == 0 for s in supersets)


masks16 = st.integers(min_value=0, max_value=2**16 - 1)


def _json(violation):
    return None if violation is None else violation.to_json()


@given(seeds)
@example([0b00011, 0b00101, 0b01111])
def test_covering_witnesses_match_linear_scans_on_random_families(seed_masks):
    # several covers of a set can lie inside one join here, so the witness
    # must be the first of them in canonical order
    space = _space_from_seed(seed_masks)
    assert _json(find_covering_violation(space)) == linear_covering_violation(space)
    assert _json(find_dual_covering_violation(space)) == linear_dual_covering_violation(space)


@given(masks16)
def test_top_membership_is_sectionwise(top_mm, mo2, mask):
    cells = grid_set(mask, 4, 4)
    rows_ok = all(
        mo2.space.contains_mask(mask_from_members(j for j in range(4) if (i, j) in cells))
        for i in range(4)
    )
    cols_ok = all(
        mo2.space.contains_mask(mask_from_members(i for i in range(4) if (i, j) in cells))
        for j in range(4)
    )
    assert top_mm.space.contains_mask(mask) == (rows_ok and cols_ok)


@given(masks16)
def test_product_membership_chain(sep_mm, star_mm, top_mm, mask):
    if sep_mm.space.contains_mask(mask):
        assert star_mm.space.contains_mask(mask)
    if star_mm.space.contains_mask(mask):
        assert top_mm.space.contains_mask(mask)


@given(masks16)
def test_implicit_closure_contains_and_is_closed(top_mm, mask):
    from qll.products import top_product

    implicit = top_product(top_mm.left, top_mm.right).space
    c = implicit.closure_mask(mask)
    assert mask & ~c == 0
    assert implicit.contains_mask(c)
    assert top_mm.space.contains_mask(c)


masks9 = st.integers(min_value=0, max_value=2**9 - 1)


@given(st.lists(masks9, max_size=8))
def test_generated_family_is_the_intersection_closure(gens):
    # every row mask of a 3 x 3 grid is allowed, so the walk must find all
    # intersections of the generators, the empty one (the full grid) included
    walked = _generated_family(gens, range(8), 3, 3, DEFAULT_BUDGETS)
    expected = naive_close_under_intersections(
        [grid_set(g, 3, 3) for g in gens], grid_set(2**9 - 1, 3, 3)
    )
    assert len(walked) == len(set(walked))
    assert {grid_set(m, 3, 3) for m in walked} == expected


@st.composite
def walk_inputs(draw):
    """(gens, row options, n1, n2) on a 2 x 4 or 4 x 2 grid: a few
    generators, some of them repeated, and every row mask in a drawn order."""
    n1, n2 = draw(st.sampled_from([(2, 4), (4, 2)]))
    gens = draw(st.lists(st.integers(min_value=0, max_value=2 ** (n1 * n2) - 1), max_size=8))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return gens, draw(st.permutations(range(1 << n2))), n1, n2


@given(walk_inputs())
@example(([], list(range(16)), 2, 4))
@example(([0b10110111, 0b10110111, 0b11101011], list(range(4)), 4, 2))
def test_row_walk_matches_transposed_index_walk_on_other_grids(inputs):
    # with every row allowed, each node is a row prefix of some intersection
    # (the closure of that prefix), so the walks' node count is the number
    # of distinct prefixes of the intersections
    gens, rows, n1, n2 = inputs
    closed = pairwise_close_under_intersections(gens, 2 ** (n1 * n2) - 1)
    nodes = len({(k, m & (2 ** (k * n2) - 1)) for m in closed for k in range(1, n1 + 1)})
    walked = _generated_family(gens, rows, n1, n2, DEFAULT_BUDGETS)
    assert set(walked) == set(closed) and len(walked) == len(closed)
    for walk in (_generated_family, transposed_index_walk):
        passing = DEFAULT_BUDGETS.with_overrides(node_cap=nodes)
        assert walk(gens, rows, n1, n2, passing) == walked
        with pytest.raises(BudgetExceeded) as exc:
            walk(gens, rows, n1, n2, passing.with_overrides(node_cap=nodes - 1))
        assert exc.value.budget_name == "node_cap"


@st.composite
def row_family_walk_inputs(draw):
    """(gens, row options, n1, n2) on a grid of at most 3 x 3: an
    intersection-closed family of rows holding the full row, offered in a
    drawn order, and generators whose every row lies in it."""
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row_all = (1 << n2) - 1
    seeds = draw(st.lists(st.integers(0, row_all), max_size=4))
    family = sorted(pairwise_close_under_intersections(seeds, row_all))
    rows = draw(st.permutations(family))
    gen_rows = st.lists(st.sampled_from(family), min_size=n1, max_size=n1)
    gens = [
        sum(r << (k * n2) for k, r in enumerate(g))
        for g in draw(st.lists(gen_rows, max_size=10))
    ]
    return gens, rows, n1, n2


@given(row_family_walk_inputs())
@example(([0b001, 0b010], [0b000, 0b111, 0b001, 0b010], 1, 3))
@example(([0b101110, 0b011101, 0b111111], [0b11, 0b01, 0b10, 0b00], 3, 2))
def test_row_walk_matches_transposed_index_walk_on_row_families(inputs):
    # every intersection of the generators has its rows in the family, and
    # each node is a row prefix of one, so the transposed-index walk places
    # exactly one row per distinct prefix
    gens, rows, n1, n2 = inputs
    closed = pairwise_close_under_intersections(gens, 2 ** (n1 * n2) - 1)
    nodes = len({(k, m & (2 ** (k * n2) - 1)) for m in closed for k in range(1, n1 + 1)})
    passing = DEFAULT_BUDGETS.with_overrides(node_cap=nodes)
    expected = transposed_index_walk(gens, rows, n1, n2, passing)
    assert _generated_family(gens, rows, n1, n2, passing) == expected
    for walk in (_generated_family, transposed_index_walk):
        with pytest.raises(BudgetExceeded) as exc:
            walk(gens, rows, n1, n2, passing.with_overrides(node_cap=nodes - 1))
        assert exc.value.budget_name == "node_cap"


@st.composite
def search_inputs(draw):
    """(n1, n2, row options, allowed columns, generators) on a 2 x 3, 3 x 2
    or 3 x 3 grid: the option lists drawn without repeats, in drawn order."""
    n1, n2 = draw(st.sampled_from([(2, 3), (3, 2), (3, 3)]))
    rows = draw(st.lists(st.integers(0, 2**n2 - 1), min_size=1, unique=True))
    cols = draw(st.lists(st.integers(0, 2**n1 - 1), min_size=1, unique=True))
    gens = draw(st.lists(st.integers(0, 2 ** (n1 * n2) - 1), max_size=8))
    return n1, n2, rows, cols, gens


@given(search_inputs())
# every row and column allowed: canonical row order would offer {1} before
# {0, 1} and list the leaves out of lex order
@example((2, 3, list(range(8)), list(range(4)), []))
@example((3, 3, [0b110, 0b011, 0b111, 0b001], list(range(8)), [0b110011111, 0b111110011]))
def test_searches_list_lex_order_from_lex_rows(inputs):
    # both searches place rows from the lowest atoms up, so lex-ordered row
    # options give lex-ordered sets, and canonical order is left to a
    # stable sort on cardinality
    n1, n2, rows, cols, gens = inputs
    lex_rows = lex_sorted(rows, n2)
    for found in (
        _section_search(lex_rows, cols, n1, n2, DEFAULT_BUDGETS),
        _generated_family(gens, lex_rows, n1, n2, DEFAULT_BUDGETS),
    ):
        assert found == _lex(found, n1 * n2)
        assert tuple(sorted(found, key=int.bit_count)) == _canonical(found)


@st.composite
def plane_forms(draw):
    """(q, F): a nondegenerate symmetric 2 x 2 form over GF(3), GF(5) or GF(7)."""
    q = draw(st.sampled_from([3, 5, 7]))
    entry = st.integers(min_value=0, max_value=q - 1)
    a, b, d = draw(entry), draw(entry), draw(entry)
    assume((a * d - b * b) % q)
    return q, ((a, b), (b, d))


@given(plane_forms())
@example((3, ((0, 1), (1, 0))))
@example((7, ((0, 3), (3, 0))))
@example((5, ((2, 1), (1, 0))))
def test_similitude_group_matches_rank_filtered_search_on_plane_forms(qf):
    q, form = qf
    model = SubspaceModel.create(q, 2, form)
    assert [u.image for u in similitude_group(model)] == rank_filtered_similitude_group(
        model
    )


matrices = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(matrices)
def test_rref_is_idempotent_and_span_stable(rows):
    r = rref(rows, 3)
    assert rref(r, 3) == r
    # appending spanned combinations must not change the reduced form
    if r:
        doubled = [list(row) for row in rows] + [
            [(2 * x) % 3 for x in r[0]]
        ]
        assert rref(doubled, 3) == r


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_distinct_coordinate_atom_joins_are_pairs(sep_mm, top_mm, star_mm, p, q):
    """Joins of two atoms that differ in both coordinates contain no third atom."""
    grid = PairGrid(4, 4)
    (p1, p2), (q1, q2) = grid.unindex(p), grid.unindex(q)
    if p == q or p1 == q1 or p2 == q2:
        return
    pair = 1 << p | 1 << q
    for inst in (sep_mm, top_mm, star_mm):
        assert inst.space.closure_mask(pair) == pair


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_shared_row_atom_joins_stay_in_the_row(sep_mm, mo2, p, q):
    grid = PairGrid(4, 4)
    (p1, p2), (q1, q2) = grid.unindex(p), grid.unindex(q)
    if p == q or p1 != q1:
        return
    joined = sep_mm.space.closure_mask(1 << p | 1 << q)
    factor_join = mo2.space.closure_mask(1 << p2 | 1 << q2)
    want = frozenset((p1, j) for j in bit_members(factor_join))
    assert grid_set(joined, 4, 4) == want


@given(st.permutations(list(range(4))))
def test_powerset_automorphism_group_is_symmetric(image):
    from qll.automorphisms import AtomPermutation, is_automorphism

    space = powerset_space(4)
    assert is_automorphism(space, AtomPermutation(tuple(image)))


@st.composite
def small_families(draw):
    """A universe of at most 6 atoms and a family of masks on it, repeats
    allowed.  The empty set, the universe and the singletons are each in or
    out, and the family is sometimes closed under intersection and then
    loses one member, so every clause both holds and fails."""
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=10))
    if draw(st.booleans()):
        masks += [0, full]
    if draw(st.booleans()):
        masks += [1 << i for i in range(n)]
    if draw(st.booleans()):
        masks = list(pairwise_close_under_intersections(masks, full))
        if len(masks) > 1 and draw(st.booleans()):
            del masks[draw(st.integers(min_value=0, max_value=len(masks) - 1))]
    return n, masks


@given(small_families())
@example((3, [0, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]))
def test_kernel_validator_agrees_with_pairwise_oracle(family):
    n, masks = family
    got = validate_simple_closure_space(n, masks)
    want = pairwise_validate_simple_closure_space(n, masks)
    assert got.valid == want.valid

    def kinds(report):
        return {v.kind for v in report.violations}

    missing = "intersection_missing"
    assert kinds(got) - {missing} == kinds(want) - {missing}
    # the kernel criterion is exact once the empty set is a member
    if 0 in masks:
        assert (missing in kinds(got)) == (missing in kinds(want))
    for v in got.violations:
        if v.kind == missing:
            a, b, c = map(mask_from_members, v.sets)
            assert a in masks and b in masks and c == a & b and c not in masks
