from __future__ import annotations

import pytest

from helpers import family_as_sets, naive_orthocomplementations
import qll.ortho
from qll.atomset import bit_members, mask_from_members
from qll.budgets import DEFAULT_BUDGETS
from qll.cli import main
from qll.closure import powerset_space, space_from_masks
from qll.errors import BudgetExceeded, ContractViolation, InputError
from qll.geometry import mo_lattice
from qll.harness import verify
from qll.ortho import (
    OrthogonalityRelation,
    OrthoMap,
    find_orthocomplementations,
    find_orthomodularity_violation,
    four_atom_condition,
    ortho_from_atom_orthogonality,
    third_atom_condition,
    verify_orthocomplementation,
)
from qll.products import sep_product


def test_relation_must_be_irreflexive_and_symmetric():
    with pytest.raises(InputError):
        OrthogonalityRelation(2, (0b01, 0b00))
    with pytest.raises(InputError):
        OrthogonalityRelation(2, (0b10, 0b00))
    rel = OrthogonalityRelation.from_pairs(3, [(0, 1)])
    assert rel.are_orthogonal(0, 1) and rel.are_orthogonal(1, 0)
    assert not rel.are_orthogonal(0, 2)
    assert rel.pairs() == ((0, 1),)


def test_mo2_ortho_count_matches_brute_force(mo2):
    res = find_orthocomplementations(mo2.space)
    assert res.exhaustive
    naive = naive_orthocomplementations(family_as_sets(mo2.space), range(4))
    assert len(res.maps) == len(naive) == 3

    got = {
        tuple(frozenset(bit_members(img)) for img in m.atom_image) for m in res.maps
    }
    want = {
        tuple(image[a] for a in range(4)) for image in naive
    }
    assert got == want


def test_mo2_relation_induces_valid_map(mo2):
    cons = ortho_from_atom_orthogonality(mo2.space, mo2.relation)
    assert cons.ok
    assert verify_orthocomplementation(mo2.space, cons.ortho).ok


def test_verifier_rejects_wrong_maps(mo2):
    # identity atom assignment: images are coatoms here (the singletons) but
    # p <= p' fails the meet law
    bad = OrthoMap(mo2.space, tuple(1 << i for i in range(4)))
    verdict = verify_orthocomplementation(mo2.space, bad)
    assert not verdict.ok
    assert verdict.law == "meet_is_bottom"


def test_verifier_rejects_non_coatom_image(mo2):
    with pytest.raises(InputError):
        verify_orthocomplementation(
            mo2.space,
            OrthoMap(mo2.space, (0b1111,) * 4),
        )


def test_ortho_map_images_lie_in_the_universe(mo2):
    with pytest.raises(InputError):
        OrthoMap(mo2.space, (0b1,) * 3)
    for outside in (-1, 1 << 4):
        with pytest.raises(InputError):
            OrthoMap(mo2.space, (0b1, 0b10, 0b100, outside))


def test_boolean_has_unique_ortho():
    sp = powerset_space(3)
    res = find_orthocomplementations(sp)
    assert res.exhaustive and len(res.maps) == 1
    m = res.maps[0]
    for i in range(3):
        assert bit_members(m.atom_image[i]) == tuple(j for j in range(3) if j != i)


def test_sep_has_nine_orthos_including_cross_map(sep_mm, hash_ortho_mm):
    res = find_orthocomplementations(sep_mm.space)
    assert res.exhaustive
    assert len(res.maps) == 9
    assert any(m.atom_image == hash_ortho_mm.atom_image for m in res.maps)


def test_cross_map_images_are_crosses(sep_mm, hash_ortho_mm, mo2):
    # (p1,p2)' must be (p1' x full) union (full x p2'); p' in mo2 is the
    # opposite atom of the orthogonal pair
    grid = sep_mm.grid
    partner = {0: 1, 1: 0, 2: 3, 3: 2}
    for k in range(16):
        p1, p2 = grid.unindex(k)
        want = grid.cross_mask(1 << partner[p1], 1 << partner[p2])
        assert hash_ortho_mm.atom_image[k] == want


def test_top_search_certificate(top_mm):
    res = find_orthocomplementations(top_mm.space)
    assert res.exhaustive and not res.maps
    assert res.certificate["kind"] == "atom_coatom_count_mismatch"
    assert res.certificate["atoms"] == 16
    assert res.certificate["coatoms"] == 40


def test_naive_search_confirms_certificate():
    # 4 atoms, 5 coatoms: the counting certificate says no map exists, and
    # brute force over every injective atom-to-coatom assignment agrees
    pairs = [{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}]
    family = [set(), {0, 1, 2, 3}, *({i} for i in range(4)), *pairs]
    space = space_from_masks(4, map(mask_from_members, family))
    res = find_orthocomplementations(space)
    assert res.exhaustive and not res.maps and res.nodes == 0
    assert res.certificate == {
        "kind": "atom_coatom_count_mismatch",
        "atoms": 4,
        "coatoms": 5,
        "reason": "an orthocomplementation maps atoms bijectively onto coatoms",
    }
    assert naive_orthocomplementations(family_as_sets(space), range(4)) == []


# six atoms and six coatoms ({0,3}, {2,4}, {0,1,5}, {1,2,3}, {1,4,5},
# {2,3,5}); the search reaches one leaf on both families, and adding {2,5}
# (below the one coatom {2,3,5}) makes the space not coatomistic, so that
# leaf is not an orthocomplementation: {2,5}'' = {2,3,5}
SIX_ATOMS = [set(), *({i} for i in range(6)), {0, 3}, {1, 5}, {2, 3}, {2, 4},
             {0, 1, 5}, {1, 2, 3}, {1, 4, 5}, {2, 3, 5}, set(range(6))]


@pytest.mark.parametrize("extra,count", [([], 1), ([{2, 5}], 0)])
def test_search_keeps_leaves_iff_coatomistic(extra, count):
    space = space_from_masks(6, map(mask_from_members, SIX_ATOMS + extra))
    res = find_orthocomplementations(space)
    assert len(space.coatom_masks()) == 6
    assert res.certificate is None and res.nodes == 9
    assert len(res.maps) == count
    assert all(verify_orthocomplementation(space, m).ok for m in res.maps)
    naive = naive_orthocomplementations(family_as_sets(space), range(6))
    assert len(naive) == count
    got = {tuple(frozenset(bit_members(img)) for img in m.atom_image) for m in res.maps}
    assert got == {tuple(image[a] for a in range(6)) for image in naive}


def test_search_checks_no_leaf(monkeypatch, mo2, mo3):
    def refuse(*args):
        raise AssertionError("the search checked a leaf")

    monkeypatch.setattr(qll.ortho, "verify_orthocomplementation", refuse)
    monkeypatch.setattr(qll.ortho, "_first_law_failure", refuse)
    sep = sep_product(mo2.space, mo3.space)
    assert len(find_orthocomplementations(sep.space).maps) == 45


def test_search_node_budget(sep_mm):
    with pytest.raises(BudgetExceeded):
        find_orthocomplementations(
            sep_mm.space, budgets=DEFAULT_BUDGETS.with_overrides(node_cap=3)
        )


def test_construction_failure_is_a_result(mo2):
    rel = OrthogonalityRelation.from_pairs(4, [(0, 1), (0, 2)])
    cons = ortho_from_atom_orthogonality(mo2.space, rel)
    assert not cons.ok
    assert cons.failure["law"] == "image_not_coatom"


def test_mo2_is_orthomodular(mo2):
    cons = ortho_from_atom_orthogonality(mo2.space, mo2.relation)
    assert find_orthomodularity_violation(mo2.space, cons.ortho) is None


def test_sep_is_not_orthomodular(sep_mm, hash_ortho_mm):
    viol = find_orthomodularity_violation(sep_mm.space, hash_ortho_mm)
    assert viol is not None
    data = viol.to_json()
    # the witness satisfies a <= b but b != a v (b ^ a')
    assert set(data) >= {"a", "b", "rejoin"}


def test_orthomodularity_needs_valid_map(mo2):
    bad = OrthoMap(mo2.space, tuple(1 << i for i in range(4)))
    with pytest.raises(ContractViolation):
        find_orthomodularity_violation(mo2.space, bad)


def test_each_ortho_map_is_verified_once(monkeypatch, capsys):
    # the cross map is checked when it is built; the orthomodularity scan
    # and the report take the built map as checked and do not check it again
    checked = []
    check = qll.ortho._first_law_failure

    def counting(sp, candidate):
        checked.append(candidate)
        return check(sp, candidate)

    monkeypatch.setattr(qll.ortho, "_first_law_failure", counting)
    report = verify("thm9.1")
    assert report.verdict == "verified"
    assert len(checked) == 1
    assert main(["check", "--property", "omod", "sep(mo2,mo2)"]) == 1
    capsys.readouterr()
    assert len(checked) == 2
    assert checked[0] is not checked[1]


def test_atom_conditions_frozen_values(mo2):
    assert third_atom_condition(mo2.space)
    assert four_atom_condition(mo2.space)

    # powersets never qualify: the join of two atoms is just the pair
    for n in (2, 4):
        b = powerset_space(n)
        assert not third_atom_condition(b)
        assert not four_atom_condition(b)

    mo3_space, _ = mo_lattice(3)
    assert third_atom_condition(mo3_space)
    assert four_atom_condition(mo3_space)


def test_third_atom_without_four_atoms():
    # {0,1,2} is the join of any two of its atoms and covers all three;
    # atom 3 joins anything to the full set, which does not cover the
    # singletons below {0,1,2}, so no join covers a fourth atom
    family = [set(), *({i} for i in range(4)), {0, 1, 2}, {0, 1, 2, 3}]
    space = space_from_masks(4, map(mask_from_members, family))
    assert third_atom_condition(space)
    assert not four_atom_condition(space)


def test_ortho_map_json_roundtrip(mo2):
    cons = ortho_from_atom_orthogonality(mo2.space, mo2.relation)
    data = cons.ortho.to_json()
    back = OrthoMap.from_json(mo2.space, data)
    assert back.atom_image == cons.ortho.atom_image
