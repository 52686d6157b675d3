from __future__ import annotations

import time
from functools import reduce
from operator import and_

import pytest

from helpers import (
    family_as_sets,
    naive_close_under_intersections,
    naive_closure,
    naive_is_simple_closure_space,
)
from qll.atomset import bit_members, mask_from_members
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import (
    ExplicitSpace,
    ImplicitSpace,
    find_covering_violation,
    find_dual_covering_violation,
    is_atomistic,
    is_coatomistic,
    powerset_space,
    space_from_json,
    space_from_masks,
    space_to_json,
    validate_simple_closure_space,
)
from qll.errors import (
    BudgetExceeded,
    ContractViolation,
    InputError,
    UnsupportedRepresentation,
)
from qll.ortho import OrthoMap


def _space(universe_size, members):
    return space_from_masks(universe_size, map(mask_from_members, members))


@pytest.fixture()
def mo2_space(mo2):
    return mo2.space


def test_powerset_is_valid_and_boolean():
    sp = powerset_space(3)
    assert len(sp.masks) == 8
    report = validate_simple_closure_space(3, sp.masks)
    assert report.valid


def test_validation_flags_missing_singleton():
    sets = [[], [0], [0, 1]]
    report = validate_simple_closure_space(2, map(mask_from_members, sets))
    assert not report.valid
    kinds = {v.kind for v in report.violations}
    assert "missing_singleton" in kinds


def test_validation_flags_open_intersection():
    sets = [[], [0], [1], [2], [3], [0, 1, 2], [1, 2, 3], [0, 1, 2, 3]]
    report = validate_simple_closure_space(4, map(mask_from_members, sets))
    assert not report.valid
    assert any(v.kind == "intersection_missing" for v in report.violations)


def test_validation_names_the_witness_past_a_machine_word():
    # atoms 64 and up: each member's atoms are walked through its numeral
    n = 130
    a, b = mask_from_members([0, 64, 129]), mask_from_members([64, 100, 129])
    masks = [0, (1 << n) - 1, a, b, *(1 << p for p in range(n))]
    [v] = validate_simple_closure_space(n, masks).violations
    assert (v.kind, v.sets) == ("intersection_missing", ((0, 64, 129), (64, 100, 129), (64, 129)))


def test_extent_of_is_linear_in_a_wide_mask():
    # bit_members clears one bit of the whole int per atom, which took about
    # 0.4 s for the full mask of 64,000 atoms
    n = 64000
    full = (1 << n) - 1
    sp = space_from_masks(n, [0, full])
    extent = sp.atom_extents()
    start = time.perf_counter()
    got = sp.extent_of(full)
    assert time.perf_counter() - start < 0.2
    assert got == reduce(and_, extent) == 0b10
    assert sp.extent_of(1 | 1 << (n - 1)) == extent[0] & extent[n - 1] == 0b10


def test_covering_witness_is_linear_in_a_wide_universe():
    # naming the set strictly between lists the 63,998 atoms outside join,
    # which took about 0.2 s when bit_members cleared them one at a time
    n = 64000
    sp = space_from_masks(n, [0, 0b1, 0b11, (1 << n) - 1])
    sp.atom_extents()
    start = time.perf_counter()
    got = find_covering_violation(sp)
    assert time.perf_counter() - start < 0.1
    assert got.to_json() == {"a": [], "atom": 1, "join": [0, 1], "between": [0]}


def test_validation_flags_duplicates_and_universe_mismatch():
    dup = [0, 0, 0b11, 0b1, 0b10]
    assert any(v.kind == "duplicate" for v in validate_simple_closure_space(2, dup).violations)
    with pytest.raises(InputError):
        validate_simple_closure_space(2, [])
    # a mask of a universe of 4 atoms, read in a universe of 2
    mixed = [0, 0b1000]
    with pytest.raises(InputError):
        validate_simple_closure_space(2, mixed)


def test_closure_mask_matches_naive(mo2_space):
    family = family_as_sets(mo2_space)
    for probe in ([0], [0, 1], [2, 3], [0, 1, 2, 3], []):
        got = mo2_space.closure_mask(mask_from_members(probe))
        want = naive_closure(family, probe)
        assert frozenset(bit_members(got)) == want


def test_family_is_canonically_ordered(mo2_space):
    keys = [(m.bit_count(), bit_members(m)) for m in mo2_space.masks]
    assert keys == sorted(keys)


def test_covers_and_coatoms(mo2_space):
    # the atoms cover the empty set, and the universe does not
    assert mo2_space.upper_cover_masks(0) == tuple(1 << i for i in range(4))
    assert {bit_members(c) for c in mo2_space.coatom_masks()} == {(0,), (1,), (2,), (3,)}


def test_atomistic_and_coatomistic(mo2_space):
    assert is_atomistic(mo2_space)
    assert is_coatomistic(mo2_space)
    # a three-chain universe {0,1}: family without {1} is not atomistic, and
    # not a simple closure space either; use a valid non-coatomistic one
    sp = _space(2, [[], [0], [1], [0, 1]])
    assert is_coatomistic(sp)


def test_covering_property(mo2_space):
    assert find_covering_violation(mo2_space) is None
    assert find_covering_violation(powerset_space(4)) is None


def test_covering_needs_intersection_closed_family():
    # {0,1,2} ∩ {0,1,3} = {0,1} is missing, so the cover relation puts
    # cl({0,1}) = {0,1} above {0}, yet no member sits strictly between {0}
    # and {0,1,2}
    sp = _space(4, [[], [0], [1], [2], [3], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]])
    with pytest.raises(ContractViolation):
        find_covering_violation(sp)


def test_cover_relation_needs_intersection_closed_family():
    # the family above: {0,1,2} and {0,1,3} would both be upper covers of
    # {0}, yet they meet in {0,1}, not in {0}; and the coatom {0,1,3} meets
    # {0,1,2} outside the family
    sp = _space(4, [[], [0], [1], [2], [3], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]])
    with pytest.raises(ContractViolation):
        sp.upper_cover_masks(0b1)
    with pytest.raises(ContractViolation):
        find_dual_covering_violation(sp)


def test_dual_covering_and_dac(mo2_space):
    assert find_dual_covering_violation(mo2_space) is None
    assert find_dual_covering_violation(powerset_space(4)) is None


def test_dac_fails_with_witness(star_mm):
    viol = find_dual_covering_violation(star_mm.space)
    assert viol is not None
    data = viol.to_json()
    assert set(data) >= {"a", "coatom", "between"}


def test_json_roundtrip(mo2_space):
    data = space_to_json(mo2_space)
    back = space_from_json(data)
    assert back == mo2_space
    assert back.atom_labels == mo2_space.atom_labels


def test_json_rejects_invalid():
    data = {"universe_size": 2, "family": [[0], [0, 1]], "atom_labels": ["0", "1"]}
    with pytest.raises(InputError):
        space_from_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {"universe": 4, "closed_sets": 5},
        {"universe": 4, "closed_sets": [[], 3]},
        {"universe": 4, "closed_sets": [[], ["a"]]},
        {"atom_image": 3},
        # read as a universe of 2, these sets would form a valid space
        {"universe": 2.7, "closed_sets": [[], [0], [1], [0, 1]]},
        {"universe": 2, "closed_sets": [[], [0], [1], [0, 1]], "atom_labels": 5},
        # a bool is not an integer: read as one, each of these would load
        {"universe": True, "closed_sets": [[], [0]]},
        {"universe": 2, "closed_sets": [[], [True], [False], [0, 1]]},
        {"atom_image": [[True], [False], [3], [2]]},
    ],
    ids=["closed-sets-int", "entry-int", "atom-str", "atom-image-int", "universe-float",
         "labels-int", "universe-bool", "atom-bool", "atom-image-bool"],
)
def test_json_loaders_raise_input_error(mo2_space, data):
    with pytest.raises(InputError):
        if "atom_image" in data:
            OrthoMap.from_json(mo2_space, data)
        else:
            space_from_json(data)


def test_json_error_names_the_clauses_and_the_missing_intersection():
    # {0} is missing, and so is {0,1} ∩ {0,2}; built unchecked, this family
    # would make closure and the cover relation answer wrongly
    data = {"universe": 3, "closed_sets": [[], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]}
    with pytest.raises(InputError) as exc:
        space_from_json(data)
    assert "missing_singleton [[0]]" in str(exc.value)
    assert "intersection_missing [[0, 1], [0, 2], [0]]" in str(exc.value)


def test_json_rejects_too_few_sets_before_building():
    # a simple closure space holds the empty set and every singleton, so one
    # set over 10**6 atoms is rejected on its count; hashing every singleton
    # mask made this take quadratic time in the universe
    start = time.perf_counter()
    with pytest.raises(InputError, match="1 closed_sets cannot hold"):
        space_from_json({"universe": 10**6, "closed_sets": [[]]})
    assert time.perf_counter() - start < 1


def test_family_cap():
    big = powerset_space(5)
    with pytest.raises(BudgetExceeded):
        ExplicitSpace(big.family, budgets=DEFAULT_BUDGETS.with_overrides(family_cap=10))


def test_implicit_space_has_no_family():
    base = powerset_space(3)
    imp = ImplicitSpace(
        3,
        membership=base.contains_mask,
        closure=lambda m: m,
        description="powerset by predicate",
    )
    with pytest.raises(UnsupportedRepresentation):
        _ = imp.family
    assert all(imp.contains_mask(m) for m in base.masks)


def test_intersection_closure_matches_naive():
    seeds = [frozenset({0, 1, 2}), frozenset({1, 2, 3}), frozenset({2, 3, 0})]
    naive = naive_close_under_intersections(
        [set(s) for s in seeds], {0, 1, 2, 3}
    )
    singles = [frozenset([i]) for i in range(4)]
    naive_full = naive_close_under_intersections(
        list(naive) + singles + [frozenset()], {0, 1, 2, 3}
    )
    assert naive_is_simple_closure_space(naive_full, {0, 1, 2, 3})
