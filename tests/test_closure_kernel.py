"""The closure kernel and the cover relation of ExplicitSpace against the
linear family scans they replaced (tests/helpers.py), its coatoms against
the pairwise oracle and the reversed scan they replaced, is_coatomistic
against the nested coatom scan, and the packed orthocomplementation search
against the per-atom loop it replaced, on the L0 and L1 products and on two
seeded atom relabellings of each, with a sampled spot check of closure and
covers at L2.  The transposed index must match the loop it replaced.  The
two doors into the kernel, ExplicitSpace and space_from_masks, must build
the same space."""

from __future__ import annotations

import random
from functools import cache, partial

import pytest

from helpers import (
    family_as_sets,
    linear_closure_mask,
    linear_covering_violation,
    linear_dual_covering_violation,
    linear_upper_covers,
    loop_orthocomplementations,
    loop_transpose,
    naive_coatoms,
    nested_is_coatomistic,
    reversed_scan_coatom_masks,
)
from qll.atomset import AtomSet, bit_members, mask_from_members
from qll.budgets import DEFAULT_BUDGETS, Budgets
from qll.closure import (
    ExplicitSpace,
    _transpose,
    find_covering_violation,
    find_dual_covering_violation,
    is_coatomistic,
    space_from_masks,
)
from qll.errors import BudgetExceeded, InputError, UniverseMismatch
from qll.export import export_dot
from qll.geometry import SubspaceModel
from qll.harness import resolve_base
from qll.ortho import find_orthocomplementations, verify_orthocomplementation
from qll.products import (
    down_product,
    materialize_top_product,
    sep_product,
    star_product,
)

GF5_FORM = ((1, 0), (0, 2))  # -1 is a square mod 5, so diag(1, 1) is isotropic

BUILDERS = {
    "sep(mo2,mo2)": lambda: sep_product(_base("mo2"), _base("mo2")),
    "top(mo2,mo2)": lambda: materialize_top_product(_base("mo2"), _base("mo2")),
    "star(mo2,mo2)": lambda: star_product(_base("mo2"), _base("mo2")),
    "sep(mo2,mo3)": lambda: sep_product(_base("mo2"), _base("mo3")),
    "top(mo2,mo3)": lambda: materialize_top_product(_base("mo2"), _base("mo3")),
    "star(mo2,mo3)": lambda: star_product(_base("mo2"), _base("mo3")),
    "down(gf3_2,gf3_2)": lambda: down_product(
        resolve_base("gf3_2").model, resolve_base("gf3_2").model
    ),
    "down(gf5_2,gf5_2)": lambda: down_product(
        SubspaceModel.create(5, 2, GF5_FORM), SubspaceModel.create(5, 2, GF5_FORM)
    ),
}
SEEDS = (None, 1, 2)
CASES = [(name, seed) for name in BUILDERS for seed in SEEDS]
IDS = [f"{name}-{'id' if seed is None else f'seed{seed}'}" for name, seed in CASES]


def _base(name):
    return resolve_base(name).space


@cache
def _space(name, seed):
    """The product's space, with its atoms permuted by a seeded shuffle."""
    space = BUILDERS[name]().space
    if seed is None:
        return space
    n = space.universe_size
    image = list(range(n))
    random.Random(seed).shuffle(image)
    return space_from_masks(
        n, (mask_from_members(image[p] for p in bit_members(m)) for m in space.masks)
    )


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_closure_mask_matches_linear_scan(name, seed):
    sp = _space(name, seed)
    masks, full, n = sp.masks, sp.full_mask(), sp.universe_size
    probes = [m | 1 << p for m in masks for p in range(n)]
    rng = random.Random(f"probe:{seed}")
    probes += [rng.getrandbits(n) for _ in range(100)]
    probes += [sum(1 << p for p in rng.sample(range(n), 2)) for _ in range(100)]
    for m in probes:
        assert sp.closure_mask(m) == linear_closure_mask(masks, full, m), m


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_cover_relation_matches_linear_scan(name, seed):
    sp = _space(name, seed)
    for lo in sp.masks:
        assert sp.upper_cover_masks(lo) == linear_upper_covers(sp.masks, lo), lo


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_coatom_masks_match_naive_coatoms(name, seed):
    sp = _space(name, seed)
    got = sp.coatom_masks()
    expected = naive_coatoms(family_as_sets(sp), range(sp.universe_size))
    assert {frozenset(bit_members(m)) for m in got} == expected
    assert list(got) == [m for m in sp.masks if m in set(got)]  # canonical order


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_is_coatomistic_matches_nested_scan(name, seed):
    sp = _space(name, seed)
    assert is_coatomistic(sp) == nested_is_coatomistic(sp)


L2_SPACES = {
    "down(gf7_2,gf7_2)": lambda: down_product(
        resolve_base("gf7_2").model, resolve_base("gf7_2").model
    ).space,
    "sep(mo3,mo3)": lambda: sep_product(_base("mo3"), _base("mo3")).space,
    # their small members' up-sets are long, so they take the per-atom lookups
    "top(mo3,mo3)": lambda: materialize_top_product(_base("mo3"), _base("mo3")).space,
    "star(mo3,mo3)": lambda: star_product(_base("mo3"), _base("mo3")).space,
}


@pytest.mark.parametrize("name", L2_SPACES)
def test_kernel_matches_linear_scan_on_l2_sample(name):
    """A spot check at L2, kept small for suite time: 200 seeded members,
    their upper covers, and the closure of each plus a seeded atom."""
    sp = L2_SPACES[name]()
    masks, full, n = sp.masks, sp.full_mask(), sp.universe_size
    rng = random.Random(f"l2:{name}")
    for lo in rng.sample(masks, 200):
        assert sp.upper_cover_masks(lo) == linear_upper_covers(masks, lo), lo
        probe = lo | 1 << rng.randrange(n)
        assert sp.closure_mask(probe) == linear_closure_mask(masks, full, probe), probe


def test_covering_at_l2():
    # the linear oracle is too slow here, so the witness is pinned
    assert find_covering_violation(L2_SPACES["down(gf7_2,gf7_2)"]()) is None
    got = find_covering_violation(L2_SPACES["top(mo3,mo3)"]()).to_json()
    assert {k: got[k] for k in ("a", "atom", "between")} == {
        "a": [0, 7, 14],
        "atom": 1,
        "between": [0, 7, 14, 21],
    }
    assert got["join"] == list(range(36))


def test_both_cover_candidate_ways_match_linear_scan(monkeypatch):
    """top(mo2,mo3): its small members' up-sets are long against the atoms
    outside them and take the per-atom lookups; its large members take the
    walk.  Each member takes the way the up-set's size names, both ways
    run, and both give the linear scan's covers."""
    sp = _space("top(mo2,mo3)", None)
    n, taken = sp.universe_size, {}
    for way in ("_walk_candidates", "_lookup_candidates"):
        run = getattr(ExplicitSpace, way)

        def spy(self, lo, above, way=way, run=run):
            taken[lo] = way
            return run(self, lo, above)

        monkeypatch.setattr(ExplicitSpace, way, spy)
    sp._upper_covers.clear()
    for lo in sp.masks:
        assert sp.upper_cover_masks(lo) == linear_upper_covers(sp.masks, lo), lo
        long_up_set = sp.extent_of(lo).bit_count() > 2 * (n - lo.bit_count())
        assert taken[lo] == ("_lookup_candidates" if long_up_set else "_walk_candidates")
    assert set(taken.values()) == {"_lookup_candidates", "_walk_candidates"}


NOT_COATOMISTIC = {
    # the chain from test_star_needs_coatomistic_factors
    "chain": lambda: space_from_masks(
        3, map(mask_from_members, [[], [0], [1], [2], [0, 1], [0, 1, 2]])
    ),
    "top(mo3,mo3)": lambda: materialize_top_product(_base("mo3"), _base("mo3")).space,
}


@pytest.mark.parametrize("name", NOT_COATOMISTIC)
def test_is_coatomistic_false_matches_nested_scan(name):
    sp = NOT_COATOMISTIC[name]()
    assert not nested_is_coatomistic(sp)
    assert not is_coatomistic(sp)


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_covering_witnesses_match_linear_scan(name, seed):
    sp = _space(name, seed)
    cov = find_covering_violation(sp)
    assert (cov and cov.to_json()) == linear_covering_violation(sp)
    dual = find_dual_covering_violation(sp)
    assert (dual and dual.to_json()) == linear_dual_covering_violation(sp)


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_dot_edges_match_linear_scan(name, seed):
    sp = _space(name, seed)
    index = {m: i for i, m in enumerate(sp.masks)}
    expected = [
        f"  n{index[lo]} -> n{index[hi]};"
        for lo in sp.masks
        for hi in linear_upper_covers(sp.masks, lo)
    ]
    assert [line for line in export_dot(sp).splitlines() if "->" in line] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_ortho_maps_match_linear_scan(seed, monkeypatch):
    sp = _space("sep(mo2,mo3)", seed)
    fast = find_orthocomplementations(sp)
    assert len(fast.maps) == 45
    # order reversal is not checked by verify_orthocomplementation; check it
    # pairwise on every map found
    pairs = [(a, b) for a in sp.masks for b in sp.masks if a != b and a & ~b == 0]
    for om in fast.maps:
        comp = {m: om.complement_mask(m) for m in sp.masks}
        for a, b in pairs:
            assert comp[b] & ~comp[a] == 0, (om.to_json(), a, b)
    monkeypatch.setattr(
        ExplicitSpace,
        "closure_mask",
        lambda self, m: linear_closure_mask(self.masks, self.full_mask(), m),
    )
    slow = find_orthocomplementations(sp)
    assert [m.atom_image for m in slow.maps] == [m.atom_image for m in fast.maps]
    assert slow.nodes == fast.nodes
    # the search keeps its leaves without a law scan; the scan, on the
    # linear closure, is the oracle
    for om in slow.maps:
        assert verify_orthocomplementation(sp, om).ok, om.to_json()


ORTHO_SPACES = {
    **{i: partial(_space, name, seed) for (name, seed), i in zip(CASES, IDS)},
    "sep(mo3,mo2)": lambda: sep_product(_base("mo3"), _base("mo2")).space,
    "top(mo3,mo2)": lambda: materialize_top_product(_base("mo3"), _base("mo2")).space,
    "star(mo3,mo2)": lambda: star_product(_base("mo3"), _base("mo2")).space,
    "sep(mo3,mo3)": L2_SPACES["sep(mo3,mo3)"],
}


@pytest.mark.parametrize("name", ORTHO_SPACES)
def test_packed_ortho_search_matches_loop(name):
    sp = ORTHO_SPACES[name]()
    packed = find_orthocomplementations(sp)
    loop = loop_orthocomplementations(sp, DEFAULT_BUDGETS)
    assert [m.atom_image for m in packed.maps] == [m.atom_image for m in loop.maps]
    assert packed.nodes == loop.nodes
    if name == "sep(mo3,mo3)":
        assert (len(packed.maps), packed.nodes) == (225, 11500)


@pytest.mark.parametrize("search", [find_orthocomplementations, loop_orthocomplementations])
def test_ortho_node_cap_edge(search):
    sp = _space("sep(mo2,mo3)", None)
    assert search(sp, Budgets(node_cap=1758)).nodes == 1758
    with pytest.raises(BudgetExceeded) as exc:
        search(sp, Budgets(node_cap=1757))
    assert exc.value.budget_name == "node_cap"


FACTORS = ("mo2", "mo3", "boolean2", "boolean3", "gf3_2", "gf5_2", "gf7_2", "gf3_tensor")
COATOM_SPACES = {
    **{name: partial(_base, name) for name in FACTORS},
    **L2_SPACES,
    # no universe: the coatoms are the maximal members, {0, 1} and {2}
    "no universe": lambda: space_from_masks(3, [0, 1, 2, 4, 3]),
}


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_coatom_masks_match_reversed_scan(name, seed):
    sp = _space(name, seed)
    assert sp.coatom_masks() == reversed_scan_coatom_masks(sp)


@pytest.mark.parametrize("name", COATOM_SPACES)
def test_coatom_masks_match_reversed_scan_beyond_products(name):
    sp = COATOM_SPACES[name]()
    assert sp.coatom_masks() == reversed_scan_coatom_masks(sp)
    if name == "no universe":
        assert sp.coatom_masks() == (0b100, 0b011)


NO_UNIVERSE = {
    "no universe": COATOM_SPACES["no universe"],
    # {0} has 16 supersets against 5 atoms outside it, so it takes the
    # per-atom lookups, and no member holds {0, 5}
    "subsets of 0..4, and {5}": lambda: space_from_masks(6, [*range(32), 32]),
}


@pytest.mark.parametrize("name", NO_UNIVERSE)
def test_cover_relation_without_the_universe(name):
    """A closure with no closed superset is the universe, as in closure_mask,
    so the covers are those of the family with the universe added."""
    sp = NO_UNIVERSE[name]()
    with_universe = sp.masks + (sp.full_mask(),)
    for lo in sp.masks:
        assert sp.upper_cover_masks(lo) == linear_upper_covers(with_universe, lo), lo


def _seeded_masks(n):
    rng = random.Random(f"transpose:{n}")
    return tuple(rng.getrandbits(n) if n else 0 for _ in range(40)), n


def _masks_of(build):
    sp = build()
    return sp.masks, sp.universe_size


TRANSPOSE_CASES = {
    **{f"empty family, {n} atoms": lambda n=n: ((), n) for n in (0, 9)},
    **{f"{n} atoms": partial(_seeded_masks, n) for n in (0, 1, 7, 8, 9)},
    **{name: partial(_masks_of, build) for name, build in COATOM_SPACES.items()},
}


@pytest.mark.parametrize("name", TRANSPOSE_CASES)
def test_transpose_matches_loop(name):
    masks, n = TRANSPOSE_CASES[name]()
    assert _transpose(masks, n) == loop_transpose(masks, n)


def test_both_doors_build_the_same_space():
    sp = sep_product(_base("mo2"), _base("mo3")).space
    n, masks = sp.universe_size, sp.masks[::-1] + sp.masks[:5]  # unsorted, repeats
    labels = [f"a{p}" for p in range(n)]
    by_masks = space_from_masks(n, masks, labels)
    by_sets = ExplicitSpace((AtomSet(n, m) for m in masks), labels)
    assert by_masks.masks == by_sets.masks == sp.masks
    assert by_masks.family == by_sets.family
    assert by_masks.atom_labels == by_sets.atom_labels == tuple(labels)
    assert by_masks == by_sets and hash(by_masks) == hash(by_sets)
    cap = Budgets(family_cap=len(sp.masks) - 1)
    for build in (
        lambda: space_from_masks(n, masks, budgets=cap),
        lambda: ExplicitSpace((AtomSet(n, m) for m in masks), budgets=cap),
    ):
        with pytest.raises(BudgetExceeded) as exc:
            build()
        assert exc.value.budget_name == "family_cap"
    with pytest.raises(InputError):
        space_from_masks(n, masks, labels[1:])


def test_atomset_door_rejects_what_a_family_from_outside_can_carry():
    with pytest.raises(InputError):
        ExplicitSpace([])
    with pytest.raises(UniverseMismatch):
        ExplicitSpace([AtomSet(2, 0), AtomSet(3, 7)])
