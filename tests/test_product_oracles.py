"""The product constructors against the slow constructors they replaced
(tests/helpers.py): the pairwise intersection closure for sep and star, the
row-assignment enumeration for top, the feasible-column search for the star
generators and the full subspace enumeration for down, on the L0 and L1
factors.  The row walk behind star is also checked against the
one-generator-at-a-time closure that sep and down use, on all three
generator kinds."""

from __future__ import annotations

import hashlib

import pytest

from helpers import (
    cross_masks,
    feasible_column_star_generators,
    full_enumeration_down,
    pairwise_close_under_intersections,
    row_assignment_top_masks,
)
from qll.atomset import canonical_mask_key
from qll.budgets import DEFAULT_BUDGETS
from qll.errors import BudgetExceeded
from qll.geometry import SubspaceModel, build_projective_space, tensor_model
from qll.gf import dot, kron_vec, projective_points
from qll.harness import resolve_base
from qll.products import (
    _close_under_intersections,
    _generated_family,
    down_product,
    materialize_top_product,
    sep_product,
    star_generators,
    star_product,
)

FACTOR_PAIRS = [("mo2", "mo2"), ("mo2", "mo3"), ("mo3", "mo2")]
IDS = [f"{a},{b}" for a, b in FACTOR_PAIRS]


def _factors(a, b):
    return resolve_base(a).space, resolve_base(b).space


def _full(left, right):
    return (1 << (left.universe_size * right.universe_size)) - 1


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=IDS)
def test_sep_matches_pairwise_closure(a, b):
    left, right = _factors(a, b)
    expected = pairwise_close_under_intersections(
        cross_masks(left, right), _full(left, right)
    )
    assert sep_product(left, right).space.masks == expected


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=IDS)
def test_star_matches_pairwise_closure(a, b):
    left, right = _factors(a, b)
    gens = {g.mask for g in star_generators(left, right)}
    expected = pairwise_close_under_intersections(gens, _full(left, right))
    assert star_product(left, right).space.masks == expected


STAR_PAIRS = FACTOR_PAIRS + [("boolean2", "mo2"), ("gf3_2", "gf3_2"), ("mo3", "mo3")]


@pytest.mark.parametrize("a,b", STAR_PAIRS, ids=[f"{a},{b}" for a, b in STAR_PAIRS])
def test_star_generators_match_feasible_column_search(a, b):
    left, right = _factors(a, b)
    got = [g.mask for g in star_generators(left, right)]
    assert got == list(feasible_column_star_generators(left, right))


@pytest.mark.parametrize("a,b", STAR_PAIRS, ids=[f"{a},{b}" for a, b in STAR_PAIRS])
def test_star_walk_matches_generator_closure(a, b):
    left, right = _factors(a, b)
    gens = {g.mask for g in star_generators(left, right)}
    closed = _close_under_intersections(gens, _full(left, right), DEFAULT_BUDGETS)
    expected = tuple(sorted(closed, key=canonical_mask_key))
    assert star_product(left, right).space.masks == expected


def _walk_and_closure(gens, row_options, n1, n2):
    walked = _generated_family(list(gens), row_options, n1, n2, DEFAULT_BUDGETS)
    full = (1 << (n1 * n2)) - 1
    assert len(walked) == len(set(walked))
    return set(walked), _close_under_intersections(gens, full, DEFAULT_BUDGETS)


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=IDS)
def test_walk_matches_closure_on_crosses(a, b):
    # every row of a cross is a closed set of the second factor
    left, right = _factors(a, b)
    walked, closed = _walk_and_closure(
        cross_masks(left, right), right.masks, left.universe_size, right.universe_size
    )
    assert walked == closed


@pytest.mark.parametrize("name", ["gf3_2", "gf5_2"])
def test_walk_matches_closure_on_hyperplane_images(name):
    # the image of the hyperplane w.x = 0; its rows are subspaces of the
    # second factor, so they lie in its family
    model = resolve_base(name).model
    right, _ = build_projective_space(model)
    q, n = model.q, tensor_model(model, model).n
    vectors = [kron_vec(v1, v2, q) for v1 in model.atom_table for v2 in model.atom_table]
    gens = {
        sum(1 << k for k, x in enumerate(vectors) if dot(w, x, q) == 0)
        for w in projective_points(q, n)
    }
    size = right.universe_size
    walked, closed = _walk_and_closure(gens, right.masks, size, size)
    assert walked == closed


def family_digest(masks) -> str:
    """sha256 of the masks in increasing order, 16 little-endian bytes each,
    cut to 16 hex digits (the benchmark's family check)."""
    h = hashlib.sha256()
    for m in sorted(masks):
        h.update(m.to_bytes(16, "little"))
    return h.hexdigest()[:16]


def test_star_mo3_mo3_family_is_pinned():
    masks = star_product(*_factors("mo3", "mo3")).space.masks
    assert len(masks) == 9056
    assert family_digest(masks) == "8d1e323c186bb06f"


def test_star_generators_node_cap():
    left, right = _factors("mo2", "mo2")
    with pytest.raises(BudgetExceeded) as exc:
        star_generators(left, right, DEFAULT_BUDGETS.with_overrides(node_cap=5))
    assert exc.value.budget_name == "node_cap"


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=IDS)
def test_top_matches_row_assignments(a, b):
    left, right = _factors(a, b)
    expected = row_assignment_top_masks(left, right)
    assert materialize_top_product(left, right).space.masks == expected


@pytest.mark.parametrize(
    "q,form", [(3, None), (5, ((1, 0), (0, 2)))], ids=["gf3_2", "gf5_2"]
)
def test_down_matches_full_enumeration(q, form):
    # -1 is a square mod 5, so diag(1, 1) is isotropic there
    model = SubspaceModel.create(q, 2, form)
    masks, notes = full_enumeration_down(model, model)
    inst = down_product(model, model)
    assert inst.space.masks == masks
    assert inst.notes == notes
