"""The stabilizer chain behind automorphism_group against the leaf-enumeration
search it replaced (tests/helpers.py), on small spaces and on the L0
products, each as built and under two seeded atom relabellings."""

from __future__ import annotations

import json
import random
from functools import cache

import pytest

from helpers import generated_group, naive_automorphism_group
from qll.atomset import AtomSet
from qll.automorphisms import (
    AtomPermutation,
    automorphism_chain,
    automorphism_group,
    decompose_automorphism,
    is_automorphism,
    orbits,
)
from qll.budgets import DEFAULT_BUDGETS
from qll.cli import main
from qll.closure import ExplicitSpace, powerset_space
from qll.errors import BudgetExceeded, DecompositionFailed
from qll.harness import resolve_base, resolve_instance
from qll.products import sep_product, star_product


def _base(name):
    return resolve_base(name).space


BUILDERS = {
    "powerset(3)": lambda: powerset_space(3),
    "powerset(4)": lambda: powerset_space(4),
    "mo2": lambda: _base("mo2"),
    "boolean2": lambda: _base("boolean2"),
    "sep(mo2,mo2)": lambda: sep_product(_base("mo2"), _base("mo2")).space,
    "star(mo2,mo2)": lambda: star_product(_base("mo2"), _base("mo2")).space,
    "sep(boolean2,mo2)": lambda: sep_product(_base("boolean2"), _base("mo2")).space,
    "star(boolean2,mo2)": lambda: star_product(_base("boolean2"), _base("mo2")).space,
}
SEEDS = (None, 1, 2)
CASES = [(name, seed) for name in BUILDERS for seed in SEEDS]
IDS = [f"{name}-{'id' if seed is None else f'seed{seed}'}" for name, seed in CASES]


@cache
def _space(name, seed):
    """The space, with its atoms permuted by a seeded shuffle."""
    space = BUILDERS[name]()
    if seed is None:
        return space
    n = space.universe_size
    image = list(range(n))
    random.Random(seed).shuffle(image)
    return ExplicitSpace(
        AtomSet.from_members(n, (image[p] for p in s.members)) for s in space.family
    )


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_chain_matches_naive_group(name, seed):
    sp = _space(name, seed)
    n = sp.universe_size
    expected = naive_automorphism_group(sp)
    assert [u.image for u in automorphism_group(sp)] == expected

    chain = automorphism_chain(sp)
    assert chain.order == len(expected)
    assert sorted(chain.elements()) == expected
    naive_perms = [AtomPermutation(img) for img in expected]
    assert orbits(chain.generators, n) == orbits(naive_perms, n)
    group = set(expected)
    assert {g.image for g in chain.generators} <= group
    assert generated_group([g.image for g in chain.generators], n) == expected
    for k, trans in enumerate(chain.transversals):
        # one element per orbit point, each fixing the earlier base points
        assert sorted(t.image[k] for t in trans) == [t.image[k] for t in trans]
        assert all(t.image[:k] == tuple(range(k)) for t in trans)
        assert {t.image for t in trans} <= group


@pytest.mark.parametrize("kind", ["sep", "star"])
def test_mo2_mo3_order_from_chain(kind):
    # from the generators alone: listing the 17,280 elements with the
    # oracle takes seconds
    build = sep_product if kind == "sep" else star_product
    sp = build(_base("mo2"), _base("mo3")).space
    chain = automorphism_chain(sp)
    assert chain.order == 17280 == 24 * 720  # no swap between unequal factors
    assert all(is_automorphism(sp, g) for g in chain.generators)


def test_node_cap_stops_chain_search(star_mm):
    with pytest.raises(BudgetExceeded):
        automorphism_chain(star_mm.space, DEFAULT_BUDGETS.with_overrides(node_cap=10))


def test_node_cap_counts_listed_elements():
    sp = powerset_space(4)
    chain = automorphism_chain(sp)
    cap = chain.nodes + 10  # enough for the search, not for the 24 elements
    budgets = DEFAULT_BUDGETS.with_overrides(node_cap=cap)
    assert automorphism_chain(sp, budgets).order == 24
    with pytest.raises(BudgetExceeded):
        automorphism_group(sp, budgets)
    assert len(automorphism_group(sp, budgets.with_overrides(node_cap=cap + 14))) == 24


def _oracle_aut_payload(name):
    """The aut command's payload, with the order and orbits read from the
    oracle's element list and the decomposition rows built per generator;
    the generators must generate exactly the oracle's group."""
    inst = resolve_instance(name)
    n = inst.space.universe_size
    expected = naive_automorphism_group(inst.space)
    group = [AtomPermutation(img) for img in expected]
    gens = automorphism_chain(inst.space).generators
    assert generated_group([g.image for g in gens], n) == expected
    payload = {
        "instance": inst.name,
        "order": len(group),
        "orbits": [list(o) for o in orbits(group, n)],
        "generators": [{"image": list(u.image)} for u in gens],
    }
    if inst.product is not None:
        table = []
        for u in gens:
            try:
                dec = decompose_automorphism(inst.product, u)
            except DecompositionFailed as exc:
                table.append(
                    {"image": list(u.image), "decomposes": False, "witness": exc.witness}
                )
                continue
            table.append(
                {
                    "image": list(u.image),
                    "swap": dec.swap,
                    "v1": list(dec.v1.image),
                    "v2": list(dec.v2.image),
                }
            )
        payload["decompositions"] = table
    return payload


@pytest.mark.parametrize("name", ["mo2", "sep(boolean2,mo2)"])
def test_aut_payload_matches_oracle(name, capsys):
    assert main(["aut", name]) == 0
    out = capsys.readouterr().out
    expected = _oracle_aut_payload(name)
    assert json.loads(out) == expected
    assert out == json.dumps(expected, indent=2) + "\n"
