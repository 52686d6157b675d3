from __future__ import annotations

import pytest

from helpers import (
    family_as_sets,
    naive_close_under_intersections,
    naive_closure,
    naive_is_simple_closure_space,
)
from qll.atomset import AtomSet
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import (
    ExplicitSpace,
    ImplicitSpace,
    coatoms,
    covers,
    find_covering_violation,
    find_dual_covering_violation,
    is_atomistic,
    is_coatomistic,
    join,
    meet,
    powerset_space,
    space_from_json,
    space_to_json,
    upper_covers,
    validate_simple_closure_space,
)
from qll.errors import (
    BudgetExceeded,
    ContractViolation,
    InputError,
    UnsupportedRepresentation,
)


def _space(universe_size, members):
    return ExplicitSpace(
        AtomSet.from_members(universe_size, m) for m in members
    )


@pytest.fixture()
def mo2_space(mo2):
    return mo2.space


def test_powerset_is_valid_and_boolean():
    sp = powerset_space(3)
    assert len(sp.masks) == 8
    report = validate_simple_closure_space(sp.family)
    assert report.valid


def test_validation_flags_missing_singleton():
    sets = [[], [0], [0, 1]]
    report = validate_simple_closure_space(
        [AtomSet.from_members(2, s) for s in sets]
    )
    assert not report.valid
    kinds = {v.kind for v in report.violations}
    assert "missing_singleton" in kinds


def test_validation_flags_open_intersection():
    sets = [[], [0], [1], [2], [3], [0, 1, 2], [1, 2, 3], [0, 1, 2, 3]]
    report = validate_simple_closure_space(
        [AtomSet.from_members(4, s) for s in sets]
    )
    assert not report.valid
    assert any(v.kind == "intersection_missing" for v in report.violations)


def test_validation_flags_duplicates_and_universe_mismatch():
    dup = [AtomSet.empty(2), AtomSet.empty(2), AtomSet.full(2),
           AtomSet.singleton(2, 0), AtomSet.singleton(2, 1)]
    assert any(v.kind == "duplicate" for v in validate_simple_closure_space(dup).violations)
    with pytest.raises(InputError):
        validate_simple_closure_space([])
    mixed = [AtomSet.empty(2), AtomSet.empty(3)]
    with pytest.raises(InputError):
        validate_simple_closure_space(mixed)


def test_closure_mask_matches_naive(mo2_space):
    family = family_as_sets(mo2_space)
    for probe in ([0], [0, 1], [2, 3], [0, 1, 2, 3], []):
        got = mo2_space.closure(AtomSet.from_members(4, probe))
        want = naive_closure(family, probe)
        assert frozenset(got.members) == want


def test_family_is_canonically_ordered(mo2_space):
    keys = [(m.bit_count(), tuple(a.members)) for m, a in
            zip(mo2_space.masks, mo2_space.family)]
    assert keys == sorted(keys)


def test_join_meet_contract(mo2_space):
    a = AtomSet.singleton(4, 0)
    b = AtomSet.singleton(4, 1)
    assert join(mo2_space, a, b) == AtomSet.full(4)
    assert meet(mo2_space, a, b) == AtomSet.empty(4)
    with pytest.raises(ContractViolation):
        join(mo2_space, AtomSet.from_members(4, [0, 1]), b)


def test_covers_and_coatoms(mo2_space):
    empty = AtomSet.empty(4)
    single = AtomSet.singleton(4, 0)
    assert covers(mo2_space, empty, single)
    assert not covers(mo2_space, empty, AtomSet.full(4))
    assert upper_covers(mo2_space, empty) == tuple(
        AtomSet.singleton(4, i) for i in range(4)
    )
    assert {c.members for c in coatoms(mo2_space)} == {(0,), (1,), (2,), (3,)}


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
    lo = AtomSet.singleton(4, 0)
    with pytest.raises(ContractViolation):
        covers(sp, lo, AtomSet.from_members(4, [0, 1, 2]))
    with pytest.raises(ContractViolation):
        upper_covers(sp, lo)
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
