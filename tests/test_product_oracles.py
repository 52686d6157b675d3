"""The product constructors against the slow constructors they replaced
(tests/helpers.py): the pairwise intersection closure for sep and star, the
row-assignment enumeration for top, the feasible-column search for the star
generators and the full subspace enumeration for down, on the L0 and L1
factors.  The row walk behind star is also checked against the
one-generator-at-a-time closure that sep uses, on all three generator
kinds, and against the transposed-index walk it replaced, leaf for leaf
and node for node.  down's hyperplane images and flats are checked against
the dot-product images and their closure, and the packed section search
against the prefix-set search it replaced, leaf for leaf and node for node.
top and star, which take canonical order from their searches' lex order,
are checked against the search on canonical rows and the full sort.
cnot's graph, one perp-table read, is checked against the orthocomplement
of the entangled line computed by row reduction."""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from helpers import (
    _canonical,
    _lex,
    cross_masks,
    dot_hyperplane_images,
    feasible_column_star_generators,
    full_enumeration_down,
    pairwise_close_under_intersections,
    prefix_section_search,
    row_assignment_top_masks,
    search_then_sort_star_masks,
    search_then_sort_top_masks,
    subspace_entangling_graph,
    transposed_index_walk,
)
from qll.budgets import DEFAULT_BUDGETS
from qll.closure import _space_from_lex_masks, powerset_space
from qll.errors import BudgetExceeded, InputError
from qll.geometry import SubspaceModel, _flats, build_projective_space
from qll.gf import dot, projective_points, rank
from qll.harness import _entangling_graph, resolve_base
from qll.products import (
    _close_under_intersections,
    _generated_family,
    _hyperplane_images,
    _section_search,
    _star_generator_masks,
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
    gens = set(star_generators(left, right))
    expected = pairwise_close_under_intersections(gens, _full(left, right))
    assert star_product(left, right).space.masks == expected


STAR_PAIRS = FACTOR_PAIRS + [("boolean2", "mo2"), ("gf3_2", "gf3_2"), ("mo3", "mo3")]


@pytest.mark.parametrize("a,b", STAR_PAIRS, ids=[f"{a},{b}" for a, b in STAR_PAIRS])
def test_star_generators_match_feasible_column_search(a, b):
    left, right = _factors(a, b)
    got = star_generators(left, right)
    assert got == list(feasible_column_star_generators(left, right))


@pytest.mark.parametrize("a,b", STAR_PAIRS, ids=[f"{a},{b}" for a, b in STAR_PAIRS])
def test_star_walk_matches_generator_closure(a, b):
    left, right = _factors(a, b)
    gens = set(star_generators(left, right))
    closed = _close_under_intersections(gens, _full(left, right), DEFAULT_BUDGETS)
    expected = _canonical(closed)
    assert star_product(left, right).space.masks == expected


@pytest.mark.parametrize("swap", [False, True], ids=["boolean1,mo2", "mo2,boolean1"])
def test_star_with_a_one_atom_factor_matches_generator_closure(swap):
    # a one-row grid, whose root is the walk's last level, and a one-column
    # grid of four rows
    left, right = powerset_space(1), resolve_base("mo2").space
    if swap:
        left, right = right, left
    gens = star_generators(left, right)
    closed = _close_under_intersections(gens, _full(left, right), DEFAULT_BUDGETS)
    assert star_product(left, right).space.masks == _canonical(closed)


def test_star_with_a_large_right_factor_stops_on_its_budget():
    # the walk's tables grow with the distinct row sections of the
    # generators, not with the 2**31 rows a 31-atom factor could have
    left, right = _factors("boolean2", "gf5_2")
    start = time.perf_counter()
    gens = star_generators(left, right)
    closed = _close_under_intersections(gens, _full(left, right), DEFAULT_BUDGETS)
    assert star_product(left, right).space.masks == _canonical(closed)
    with pytest.raises(BudgetExceeded) as exc:
        star_product(left, right, DEFAULT_BUDGETS.with_overrides(family_cap=10))
    assert exc.value.budget_name == "family_cap"
    assert time.perf_counter() - start < 5


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


# (generator kind, a, b, smallest node_cap both walks pass)
WALK_EDGES = [
    ("star", "mo2", "mo2", 273),
    ("star", "mo2", "mo3", 449),
    ("star", "mo3", "mo2", 636),
    ("star", "boolean2", "mo2", 42),
    ("star", "gf3_2", "gf3_2", 273),
    ("star", "mo3", "mo3", 14558),
    ("cross", "mo2", "mo2", 225),
    ("cross", "mo2", "mo3", 449),
    ("cross", "mo3", "mo2", 636),
]


@pytest.mark.parametrize(
    "kind,a,b,edge", WALK_EDGES, ids=[f"{k}-{a},{b}" for k, a, b, _ in WALK_EDGES]
)
def test_row_walk_matches_transposed_index_walk(kind, a, b, edge):
    left, right = _factors(a, b)
    if kind == "star":
        gens = _star_generator_masks(left, right, DEFAULT_BUDGETS)
    else:
        gens = sorted(cross_masks(left, right))
    args = (gens, right.masks, left.universe_size, right.universe_size)
    got = _generated_family(*args, DEFAULT_BUDGETS)
    assert got == transposed_index_walk(*args, DEFAULT_BUDGETS)
    for walk in (_generated_family, transposed_index_walk):
        passing = DEFAULT_BUDGETS.with_overrides(node_cap=edge)
        assert walk(*args, passing) == got
        with pytest.raises(BudgetExceeded) as exc:
            walk(*args, passing.with_overrides(node_cap=edge - 1))
        assert exc.value.budget_name == "node_cap"


@pytest.mark.parametrize("name", ["gf3_2", "gf5_2"])
def test_walk_matches_closure_on_hyperplane_images(name):
    # the image of the hyperplane w.x = 0; its rows are subspaces of the
    # second factor, so they lie in its family
    model = resolve_base(name).model
    right, _ = build_projective_space(model)
    gens = set(dot_hyperplane_images(model, model))
    size = right.universe_size
    walked, closed = _walk_and_closure(gens, right.masks, size, size)
    assert walked == closed


GF_PLANES = ["gf3_2", "gf5_2", "gf7_2"]


@pytest.mark.parametrize("name", GF_PLANES)
def test_hyperplane_images_match_dot_products(name):
    model = resolve_base(name).model
    assert _hyperplane_images(model, model) == dot_hyperplane_images(model, model)


@pytest.mark.parametrize("name", GF_PLANES)
def test_down_flats_match_generator_closure(name):
    model = resolve_base(name).model
    size = model.atom_count**2
    closed = _close_under_intersections(
        dot_hyperplane_images(model, model), (1 << size) - 1, DEFAULT_BUDGETS
    )
    expected = _canonical(closed)
    assert down_product(model, model).space.masks == expected


@pytest.mark.parametrize("seed", range(8))
def test_flats_match_closure_on_vector_matroids(seed):
    # random points of GF(3)^4 with a loop (the zero vector) and a repeated
    # point, which product vectors never have; odd seeds stay in a
    # hyperplane, so the matroid's rank is below the dimension
    rng = random.Random(seed)
    q, d = 3, 4
    vectors = [
        tuple(rng.randrange(q) for _ in range(d - seed % 2)) + (0,) * (seed % 2)
        for _ in range(10)
    ]
    loop, copy, original = rng.sample(range(10), 3)
    vectors[loop] = (0,) * d
    vectors[copy] = vectors[original]
    gens = [
        sum(1 << k for k, x in enumerate(vectors) if dot(w, x, q) == 0)
        for w in projective_points(q, d)
    ]
    size = len(vectors)
    expected = _close_under_intersections(gens, (1 << size) - 1, DEFAULT_BUDGETS)
    assert _flats(gens, size, rank(vectors, q), DEFAULT_BUDGETS) == expected


@pytest.mark.parametrize("swap", [False, True], ids=["gf3_2,gf3_1", "gf3_1,gf3_2"])
def test_down_unequal_dimensions_match_full_enumeration(swap):
    # a rank-2 matroid on 4 points, and W not square
    m1, m2 = SubspaceModel.create(3, 2), SubspaceModel.create(3, 1)
    if swap:
        m1, m2 = m2, m1
    masks, notes = full_enumeration_down(m1, m2)
    inst = down_product(m1, m2)
    assert _hyperplane_images(m1, m2) == dot_hyperplane_images(m1, m2)
    assert inst.space.masks == masks
    assert inst.notes == notes


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


def test_down_gf7_family_is_pinned():
    model = resolve_base("gf7_2").model
    inst = down_product(model, model)
    assert len(inst.space.masks) == 2050
    assert family_digest(inst.space.masks) == "89ff8f985198393d"
    assert inst.notes == {
        "subspaces": 3652,
        "distinct_images": 2050,
        "collisions": 1602,
    }


@pytest.mark.parametrize("a,b", STAR_PAIRS, ids=[f"{a},{b}" for a, b in STAR_PAIRS])
def test_lex_searches_match_search_then_sort(a, b):
    # top and star take canonical order from their searches' lex order;
    # the reference searches with the rows in canonical order and sorts
    left, right = _factors(a, b)
    top = materialize_top_product(left, right).space.masks
    assert top == search_then_sort_top_masks(left, right)
    star = star_product(left, right).space.masks
    assert star == search_then_sort_star_masks(left, right)


# (build, smallest family_cap it passes)
FAMILY_CAP_EDGES = [(materialize_top_product, 13376), (star_product, 9056)]


@pytest.mark.parametrize("build,edge", FAMILY_CAP_EDGES, ids=["top", "star"])
def test_lex_entrance_family_cap_edge_on_mo3_mo3(build, edge):
    left, right = _factors("mo3", "mo3")
    passing = DEFAULT_BUDGETS.with_overrides(family_cap=edge)
    assert len(build(left, right, passing).space.masks) == edge
    with pytest.raises(BudgetExceeded) as exc:
        build(left, right, passing.with_overrides(family_cap=edge - 1))
    assert exc.value.budget_name == "family_cap"


def test_star_mo3_mo3_node_cap_edge():
    # the generator search and the row walk each draw on their own node_cap;
    # the walk needs more
    left, right = _factors("mo3", "mo3")
    passing = DEFAULT_BUDGETS.with_overrides(node_cap=14558)
    assert len(star_product(left, right, passing).space.masks) == 9056
    with pytest.raises(BudgetExceeded) as exc:
        star_product(left, right, passing.with_overrides(node_cap=14557))
    assert exc.value.budget_name == "node_cap"


def test_lex_entrance_checks_labels_and_cap():
    masks = materialize_top_product(*_factors("mo2", "mo2")).space.masks
    lex = _lex(masks, 16)
    labels = [f"a{p}" for p in range(16)]
    sp = _space_from_lex_masks(16, lex, labels, DEFAULT_BUDGETS)
    assert sp.masks == masks and sp.atom_labels == tuple(labels)
    with pytest.raises(InputError):
        _space_from_lex_masks(16, lex, labels[1:], DEFAULT_BUDGETS)
    cap = DEFAULT_BUDGETS.with_overrides(family_cap=len(masks) - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _space_from_lex_masks(16, lex, labels, cap)
    assert exc.value.budget_name == "family_cap"


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


SECTION_PAIRS = [
    ("mo2", "mo2"),
    ("mo2", "mo3"),
    ("mo3", "mo2"),
    ("boolean3", "mo2"),
    ("gf5_2", "gf3_2"),
    ("mo3", "mo3"),
]


def _section_options(kind, left, right):
    """(row options, allowed columns) of the section search behind top or
    the star generators."""
    if kind == "top":
        return right.masks, left.masks
    n1, n2 = left.universe_size, right.universe_size
    return (*right.coatom_masks(), (1 << n2) - 1), (*left.coatom_masks(), (1 << n1) - 1)


# (a, b, kind, smallest node_cap the search passes)
NODE_CAP_EDGES = [
    (a, b, kind, edge)
    for kind, edges in (
        ("top", (369, 1409, 1980, 258, 1980, 18878)),
        ("star", (112, 226, 166, 27, 166, 2106)),
    )
    for (a, b), edge in zip(SECTION_PAIRS, edges)
]


@pytest.mark.parametrize("n2", [1, 3])
def test_section_search_on_a_zero_row_grid(n2):
    # the root is the one leaf, the empty grid, and no row is placed
    rows = list(range(1 << n2))
    for search in (_section_search, prefix_section_search):
        assert search(rows, [0], 0, n2, DEFAULT_BUDGETS.with_overrides(node_cap=0)) == [0]


@pytest.mark.parametrize(
    "a,b,kind,edge", NODE_CAP_EDGES, ids=[f"{k}-{a},{b}" for a, b, k, _ in NODE_CAP_EDGES]
)
def test_section_search_matches_prefix_search(a, b, kind, edge):
    left, right = _factors(a, b)
    rows, cols = _section_options(kind, left, right)
    n1, n2 = left.universe_size, right.universe_size
    got = _section_search(rows, cols, n1, n2, DEFAULT_BUDGETS)
    assert got == prefix_section_search(rows, cols, n1, n2, DEFAULT_BUDGETS)
    for search in (_section_search, prefix_section_search):
        passing = DEFAULT_BUDGETS.with_overrides(node_cap=edge)
        assert search(rows, cols, n1, n2, passing) == got
        with pytest.raises(BudgetExceeded) as exc:
            search(rows, cols, n1, n2, passing.with_overrides(node_cap=edge - 1))
        assert exc.value.budget_name == "node_cap"


CNOT_MODELS = {
    "gf3_2": (3, 2, None),
    "gf5_2": (5, 2, ((1, 0), (0, 2))),
    "gf7_2": (7, 2, None),
    "gf11_2": (11, 2, None),
    "gf3_3": (3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 2))),
    # W = F1 V F2 has a nonzero entry outside its leading 2 x 2 block only
    # under a form like this one, so only these pairs tell W from its
    # transpose
    "gf3_3b": (3, 3, ((1, 0, 1), (0, 1, 0), (1, 0, 2))),
}
CNOT_PAIRS = [
    ("gf3_2", "gf3_2"),
    ("gf5_2", "gf5_2"),
    ("gf7_2", "gf7_2"),
    ("gf11_2", "gf11_2"),
    ("gf3_2", "gf3_3"),
    ("gf3_3", "gf3_2"),
    ("gf3_2", "gf3_3b"),
    ("gf3_3b", "gf3_2"),
]


@pytest.mark.parametrize("a,b", CNOT_PAIRS, ids=[f"{a},{b}" for a, b in CNOT_PAIRS])
def test_entangling_graph_matches_orthocomplement_image(a, b):
    m1 = SubspaceModel.create(*CNOT_MODELS[a])
    m2 = SubspaceModel.create(*CNOT_MODELS[b])
    assert _entangling_graph(m1, m2) == subspace_entangling_graph(m1, m2)
