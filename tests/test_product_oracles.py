"""The product constructors against the slow constructors they replaced
(tests/helpers.py): the pairwise intersection closure for sep and star, the
row-assignment enumeration for top, the feasible-column search for the star
generators and the full subspace enumeration for down, on the L0 and L1
factors."""

from __future__ import annotations

import pytest

from helpers import (
    cross_masks,
    feasible_column_star_generators,
    full_enumeration_down,
    pairwise_close_under_intersections,
    row_assignment_top_masks,
)
from qll.budgets import DEFAULT_BUDGETS
from qll.errors import BudgetExceeded
from qll.geometry import SubspaceModel
from qll.harness import resolve_base
from qll.products import (
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
