from __future__ import annotations

import pytest

from qll.automorphisms import (
    AtomPermutation,
    automorphism_chain,
    automorphism_group,
    decompose_automorphism,
    induced_product_automorphism,
    is_automorphism,
    orbits,
)
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import powerset_space, space_from_masks
from qll.errors import (
    BudgetExceeded,
    ContractViolation,
    DecompositionFailed,
    InducedMapNotAutomorphism,
    InputError,
)
from qll.harness import resolve_base
from qll.products import PairGrid, ProductInstance, sep_product, star_product


def test_permutation_basics():
    p = AtomPermutation((1, 0, 2))
    q = AtomPermutation((2, 1, 0))
    assert p(0) == 1
    assert p.compose(q).image == tuple(p(q(i)) for i in range(3))
    assert p.inverse().compose(p).image == (0, 1, 2)
    assert AtomPermutation.identity(3).image == (0, 1, 2)
    assert p.apply_mask(0b001) == 0b010
    with pytest.raises(InputError):
        AtomPermutation((0, 0, 1))


def test_powerset_group_is_symmetric_group():
    group = automorphism_group(powerset_space(3))
    assert len(group) == 6
    assert len(orbits(group, 3)) == 1


def test_mo2_group_order(mo2):
    group = automorphism_group(mo2.space)
    assert len(group) == 24  # every atom permutation preserves the family
    images = {g.image for g in group}
    assert len(images) == 24


def test_group_axioms_hold_post_hoc(mo2):
    group = automorphism_group(mo2.space)
    images = {g.image for g in group}
    for g in group:
        assert g.inverse().image in images
        for h in group[:6]:
            assert g.compose(h).image in images


def test_product_group_orders(sep_mm, star_mm):
    for inst in (sep_mm, star_mm):
        group = automorphism_group(inst.space)
        assert len(group) == 1152


def test_automorphisms_preserve_structure(sep_mm):
    group = automorphism_group(sep_mm.space)
    sp = sep_mm.space
    coatom_masks = set(sp.coatom_masks())
    for g in group[:40]:
        assert is_automorphism(sp, g)
        for c in list(coatom_masks)[:5]:
            assert g.apply_mask(c) in coatom_masks
    # cover relation is preserved on a sample
    g = group[17]
    empty, single = 0, 1 << 3
    assert single in sp.upper_cover_masks(empty)
    assert g.apply_mask(single) in sp.upper_cover_masks(empty)


def test_non_automorphism_detected(mo2, sep_mm):
    # a transposition that mixes a row into a column is not an automorphism
    image = list(range(16))
    image[0], image[1] = image[1], image[0]
    image[4], image[8] = image[8], image[4]
    maybe = AtomPermutation(tuple(image))
    assert not is_automorphism(sep_mm.space, maybe)


def test_swap_decomposes_with_flag(sep_mm):
    grid = sep_mm.grid
    image = tuple(grid.index(j, i) for i, j in (grid.unindex(k) for k in range(16)))
    swap = AtomPermutation(image)
    dec = decompose_automorphism(sep_mm, swap)
    assert dec.swap
    assert dec.v1.image == (0, 1, 2, 3)
    assert dec.v2.image == (0, 1, 2, 3)
    assert grid.pair_image(dec.v1, dec.v2, dec.swap) == swap.image


# decompose_automorphism does not compare its triple with u pointwise: the
# triple reproduces u by construction, which this checks
@pytest.mark.parametrize("build", [sep_product, star_product], ids=["sep", "star"])
@pytest.mark.parametrize("right", ["mo2", "mo3"])
def test_generator_decompositions_reproduce_u(build, right):
    inst = build(resolve_base("mo2").space, resolve_base(right).space)
    for u in automorphism_chain(inst.space).generators:
        dec = decompose_automorphism(inst, u)
        assert inst.grid.pair_image(dec.v1, dec.v2, dec.swap) == u.image


def test_induced_roundtrip(sep_mm, mo2):
    group = automorphism_group(mo2.space)
    v1, v2 = group[5], group[11]
    u = induced_product_automorphism(sep_mm, v1, v2)
    dec = decompose_automorphism(sep_mm, u)
    assert not dec.swap
    assert dec.v1.image == v1.image
    assert dec.v2.image == v2.image


def test_every_product_automorphism_decomposes(star_mm):
    group = automorphism_group(star_mm.space)
    triples = set()
    for u in group:
        dec = decompose_automorphism(star_mm, u)
        triples.add(dec.triple())
    assert len(triples) == len(group) == 1152


def test_decompose_rejects_non_automorphism(sep_mm):
    image = list(range(16))
    image[0], image[1] = image[1], image[0]
    with pytest.raises(ContractViolation):
        decompose_automorphism(sep_mm, AtomPermutation(tuple(image)))


def test_decomposition_failure_carries_witness(boolean2):
    # factors outside the third-atom hypothesis: a product automorphism that
    # scrambles rows exists; decomposition must fail loudly, not wrongly
    b = boolean2.space
    sep = sep_product(b, b)  # the full powerset on 4 atoms
    group = automorphism_group(sep.space)
    assert len(group) == 24  # all of S4: more than 2*2*2 = 8 decomposables
    failures = {}
    for u in group:
        try:
            decompose_automorphism(sep, u)
        except DecompositionFailed as exc:
            failures[u.image] = (str(exc), exc.witness)
    # the 24 - 8 failures, each with the first incoherent line image
    first_row = "image of first row is neither a row nor a column"
    kept = "column image is not a column under a row-preserving map"
    swapped = "column image is not a row under a swapping map"
    a, b = [0, 3], [1, 2]
    assert failures == {
        (0, 1, 3, 2): (kept, {"column": 0, "image": a}),
        (0, 2, 3, 1): (swapped, {"column": 0, "image": a}),
        (0, 3, 1, 2): (first_row, {"image": a}),
        (0, 3, 2, 1): (first_row, {"image": a}),
        (1, 0, 2, 3): (kept, {"column": 0, "image": b}),
        (1, 2, 0, 3): (first_row, {"image": b}),
        (1, 2, 3, 0): (first_row, {"image": b}),
        (1, 3, 2, 0): (swapped, {"column": 0, "image": b}),
        (2, 0, 1, 3): (swapped, {"column": 0, "image": b}),
        (2, 1, 0, 3): (first_row, {"image": b}),
        (2, 1, 3, 0): (first_row, {"image": b}),
        (2, 3, 1, 0): (kept, {"column": 0, "image": b}),
        (3, 0, 1, 2): (first_row, {"image": a}),
        (3, 0, 2, 1): (first_row, {"image": a}),
        (3, 1, 0, 2): (swapped, {"column": 0, "image": a}),
        (3, 2, 0, 1): (kept, {"column": 0, "image": a}),
    }


def test_induced_map_not_automorphism_raises(boolean2):
    grid = PairGrid(2, 2)
    masks = {0, grid.row_full_mask(0), (1 << 4) - 1}
    for k in range(4):
        masks.add(1 << k)
    inst = ProductInstance(
        "custom",
        boolean2.space,
        boolean2.space,
        space_from_masks(4, masks),
        grid,
    )
    flip = AtomPermutation((1, 0))
    ident = AtomPermutation((0, 1))
    with pytest.raises(InducedMapNotAutomorphism):
        induced_product_automorphism(inst, flip, ident)


def test_orbits_partition():
    group = automorphism_group(powerset_space(4))
    assert orbits(group, 4) == ((0, 1, 2, 3),)
    only_id = [AtomPermutation.identity(4)]
    assert orbits(only_id, 4) == ((0,), (1,), (2,), (3,))


def test_node_budget_respected(star_mm):
    with pytest.raises(BudgetExceeded):
        automorphism_group(
            star_mm.space, DEFAULT_BUDGETS.with_overrides(node_cap=10)
        )
