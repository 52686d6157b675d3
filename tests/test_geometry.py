from __future__ import annotations

import random
import re
import time

import pytest

from helpers import (
    family_as_sets,
    form_loop_perp_masks,
    full_enumeration_projective_space,
    naive_span,
    orthogonal_complement,
    pair_loop_linear_map_coatom,
    rank_filtered_similitude_group,
    subspace_atom_set,
    subspace_span,
    subspace_whole,
    subspace_zero,
)
from qll.atomset import bit_members
from qll.errors import (
    ContractViolation,
    DegenerateFormError,
    InputError,
    IsotropicAtomError,
)
from qll.geometry import (
    SubspaceModel,
    _pair_perp,
    build_projective_space,
    enumerate_subspaces,
    linear_map_coatom,
    mo_lattice,
    sigma_down,
    similitude_group,
    tensor_model,
)
from qll.automorphisms import orbits
from qll.budgets import DEFAULT_BUDGETS
from qll.errors import BudgetExceeded
from qll.gf import count_subspaces, mat_vec, projective_points


def test_model_creation_validates():
    with pytest.raises(InputError):
        SubspaceModel.create(4, 2)  # not prime
    with pytest.raises(InputError):
        SubspaceModel.create(3, 0)
    with pytest.raises(DegenerateFormError):
        SubspaceModel.create(3, 2, form=((1, 0), (0, 0)))
    with pytest.raises(InputError):
        SubspaceModel.create(3, 2, form=((0, 1), (2, 0)))  # not symmetric


@pytest.mark.parametrize(
    "data",
    [
        {"q": 3.9, "n": 2, "form": [[1, 0], [0, 1]]},
        {"q": 3, "n": "2", "form": [[1, 0], [0, 1]]},
        {"q": True, "n": 2, "form": [[1, 0], [0, 1]]},
        {"q": 3, "n": 2, "form": [[1.7, 0], [0, 1]]},
        {"q": 3, "n": 2, "form": [[1, 0], [0, True]]},
        {"q": 3.9, "n": "2", "form": [[1.7, 0], [0, True]]},
    ],
    ids=["q-float", "n-str", "q-bool", "form-float", "form-bool", "all-three"],
)
def test_model_json_reads_only_integers(data):
    # int() would read each of these as GF(3)^2 with the identity form
    with pytest.raises(InputError, match="is not an integer"):
        SubspaceModel.from_json(data)


def test_gf3_2_atoms_and_orthogonality(gf3_2):
    labels = gf3_2.space.atom_labels
    assert labels == ("(0,1)", "(1,0)", "(1,1)", "(1,2)")
    assert gf3_2.relation.pairs() == ((0, 1), (2, 3))


def test_gf3_2_space_is_mo2(gf3_2):
    space, rel = mo_lattice(2)
    assert family_as_sets(gf3_2.space) == family_as_sets(space)
    assert gf3_2.relation.pairs() == rel.pairs()


def test_gf2_identity_form_is_isotropic():
    model = SubspaceModel.create(2, 2)
    with pytest.raises(IsotropicAtomError):
        build_projective_space(model)
    space, rel = build_projective_space(model, require_anisotropic=False)
    assert rel is None
    assert space.universe_size == 3


def test_subspace_span_and_membership():
    model = SubspaceModel.create(3, 2)
    s = subspace_span(model, [(1, 2)])
    assert s.dim == 1
    assert s.contains((2, 1))  # 2*(1,2) = (2,4) = (2,1)
    assert not s.contains((1, 1))
    assert subspace_zero(model).dim == 0
    assert subspace_whole(model).dim == 2


def test_subspace_atom_set_matches_naive_span(gf3_2):
    model = gf3_2.model
    s = subspace_span(model, [(1, 1)])
    atom_set = subspace_atom_set(s)
    pts = {model.atom_table[i] for i in bit_members(atom_set)}
    span_pts = {v for v in naive_span([(1, 1)], 3) if any(v)}
    normalized = set()
    for v in span_pts:
        lead = next(x for x in v if x)
        inv = 1 if lead == 1 else 2
        normalized.add(tuple(x * inv % 3 for x in v))
    assert pts == normalized


# (q, n, form, anisotropic): the factor shapes, isotropic models among them
PROJECTIVE_MODELS = {
    "gf3_1": (3, 1, None, True),
    "gf2_3": (2, 3, None, False),
    "gf3_2": (3, 2, None, True),
    "gf5_2": (5, 2, ((1, 0), (0, 2)), True),
    "gf7_2": (7, 2, None, True),
    "gf11_2": (11, 2, None, True),
    "gf3_3": (3, 3, None, False),
    "gf5_3": (5, 3, None, False),
    "gf3_tensor": (3, 4, None, False),
}


def _projective_model(name):
    q, n, form, _ = PROJECTIVE_MODELS[name]
    if name == "gf3_tensor":
        base = SubspaceModel.create(3, 2)
        return tensor_model(base, base)
    return SubspaceModel.create(q, n, form)


@pytest.mark.parametrize("name", PROJECTIVE_MODELS)
def test_projective_space_matches_full_enumeration(name):
    model = _projective_model(name)
    space, _ = build_projective_space(model, require_anisotropic=False)
    assert space.masks == full_enumeration_projective_space(model)
    assert len(space.masks) == count_subspaces(model.q, model.n)
    assert space.atom_labels == tuple(
        "(" + ",".join(map(str, v)) + ")" for v in model.atom_table
    )
    with pytest.raises(BudgetExceeded):
        build_projective_space(
            model,
            DEFAULT_BUDGETS.with_overrides(subspace_cap=len(space.masks) - 1),
            require_anisotropic=False,
        )


@pytest.mark.parametrize("name", PROJECTIVE_MODELS)
def test_projective_perp_matches_form_loop(name):
    model = _projective_model(name)
    rows = form_loop_perp_masks(model)
    isotropic = [u for i, u in enumerate(model.atom_table) if rows[i] >> i & 1]
    anisotropic = PROJECTIVE_MODELS[name][3]
    assert anisotropic == (not isotropic)
    if not anisotropic:
        # the error names the first isotropic point
        with pytest.raises(IsotropicAtomError, match=re.escape(str(isotropic[0]))):
            build_projective_space(model)
        return
    _, rel = build_projective_space(model)
    assert rel.perp_masks == rows


@pytest.mark.parametrize(
    "name,point",
    [("gf2_3", "(0, 1, 1)"), ("gf3_3", "(1, 1, 1)"), ("gf3_tensor", "(0, 1, 1, 1)")],
)
def test_isotropic_error_names_first_isotropic_point(name, point):
    q = PROJECTIVE_MODELS[name][0]
    with pytest.raises(IsotropicAtomError) as exc:
        build_projective_space(_projective_model(name))
    assert str(exc.value) == (
        f"point {point} is orthogonal to itself (q={q}); "
        "atom orthogonality cannot be irreflexive"
    )


def test_subspace_cap_is_checked_before_any_point_is_listed():
    # GF(3)^8 has 3,280 points and 127,902,864 > 10^6 subspaces; its identity
    # form is isotropic too, and the budget is what stops the build
    model = SubspaceModel.create(3, 8)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        build_projective_space(model)
    assert time.perf_counter() - start < 0.1
    assert exc.value.budget_name == "subspace_cap"
    assert "atom_table" not in model.__dict__ and "_perp" not in model.__dict__


def test_similitude_group_checks_subspace_cap_before_listing_vectors():
    # its tables list all 3^8 vectors, and GF(3)^8 has 127,902,864 > 10^6
    # subspaces
    model = SubspaceModel.create(3, 8)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        similitude_group(model)
    assert time.perf_counter() - start < 0.1
    assert exc.value.budget_name == "subspace_cap"
    assert "atom_table" not in model.__dict__


@pytest.mark.parametrize("q,form", [(59, None), (5, ((1, 0), (0, 2)))])
def test_factor_build_reads_only_the_perp_rows_it_uses(q, form):
    # one row per point u and one per F u, out of q^2 vectors
    model = SubspaceModel.create(q, 2, form)
    build_projective_space(model)
    atoms = model.atom_table
    used = {mat_vec(model.form, u, q) for u in atoms} | set(atoms)
    assert set(model._perp) == used
    assert len(used) < q**2


def test_orthogonal_complement_involution(gf3_2):
    model = gf3_2.model
    for s in enumerate_subspaces(model):
        c = orthogonal_complement(s)
        assert c.dim == model.n - s.dim
        assert orthogonal_complement(c).basis == s.basis


def test_enumerate_subspaces_counts(gf3_2, gf3_tensor):
    assert sum(1 for _ in enumerate_subspaces(gf3_2.model)) == 6
    assert sum(1 for _ in enumerate_subspaces(gf3_tensor.model)) == 212
    with pytest.raises(BudgetExceeded):
        list(
            enumerate_subspaces(
                gf3_tensor.model,
                DEFAULT_BUDGETS.with_overrides(subspace_cap=10),
            )
        )


def test_mo_lattice_shapes():
    for n in (2, 3, 4):
        space, rel = mo_lattice(n)
        assert space.universe_size == 2 * n
        assert len(space.masks) == 2 * n + 2
        assert rel.pairs() == tuple((2 * k, 2 * k + 1) for k in range(n))
    with pytest.raises(InputError):
        mo_lattice(1)


def test_similitude_group_is_transitive(gf3_2):
    sims = similitude_group(gf3_2.model)
    assert len(sims) == 8
    assert len(orbits(sims, 4)) == 1


SIMILITUDE_MODELS = {
    "gf3_2": (3, 2, None),
    "gf5_2": (5, 2, ((1, 0), (0, 2))),
    "gf7_2": (7, 2, None),
    "gf11_2": (11, 2, None),
    "gf3_3": (3, 3, None),
    # a zero diagonal: column 0 runs over the isotropic points
    "gf3_2-hyperbolic": (3, 2, ((0, 1), (1, 0))),
    "gf5_2-hyperbolic": (5, 2, ((0, 1), (1, 0))),
    "gf5_1": (5, 1, None),
    "gf7_2-full": (7, 2, ((2, 3), (3, 5))),
    "gf3_3-zero-lead": (3, 3, ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
}


@pytest.mark.parametrize("name", SIMILITUDE_MODELS)
def test_similitude_group_matches_rank_filtered_search(name):
    model = SubspaceModel.create(*SIMILITUDE_MODELS[name])
    sims = similitude_group(model)
    assert [u.image for u in sims] == rank_filtered_similitude_group(model)


def test_similitude_node_cap_edge():
    # 8 points for column 0, then the 8 vectors with Q = c for column 1
    model = SubspaceModel.create(7, 2)
    passing = DEFAULT_BUDGETS.with_overrides(node_cap=72)
    assert len(similitude_group(model, passing)) == 16
    with pytest.raises(BudgetExceeded) as exc:
        similitude_group(model, passing.with_overrides(node_cap=71))
    assert exc.value.budget_name == "node_cap"


@pytest.mark.parametrize(
    "name,nodes",
    # the 2 isotropic points of column 0, then the 8 nonzero vectors with
    # Q = 0 for column 1, in each of the 4 multiplier searches
    [("gf5_2-hyperbolic", 4 * (2 + 2 * 8)), ("gf3_3-zero-lead", 288)],
)
def test_similitude_node_cap_edge_on_a_zero_lead(name, nodes):
    model = SubspaceModel.create(*SIMILITUDE_MODELS[name])
    passing = DEFAULT_BUDGETS.with_overrides(node_cap=nodes)
    sims = similitude_group(model, passing)
    assert [u.image for u in sims] == rank_filtered_similitude_group(model)
    with pytest.raises(BudgetExceeded) as exc:
        similitude_group(model, passing.with_overrides(node_cap=nodes - 1))
    assert exc.value.budget_name == "node_cap"


def test_gf3_tensor_similitude_group_is_pgo_plus_4_3(gf3_tensor):
    model = gf3_tensor.model
    start = time.perf_counter()
    sims = similitude_group(model)
    assert time.perf_counter() - start < 10
    # |PGO+(4,3)| = |GO+(4,3)| = 2·3²·(3²-1)²: the two multipliers and the
    # two scalars ±1 cancel
    assert len(sims) == 1152
    images = {u.image for u in sims}
    identity_image = tuple(range(model.atom_count))
    assert identity_image in images
    # grow generators inside the set until they generate all of it: every
    # product met stays in the set, so the set is a group
    group, gens = {identity_image}, []
    for g in sorted(images):
        if g in group:
            continue
        gens.append(g)
        frontier = list(group)
        while frontier:
            x = frontier.pop()
            for t in gens:
                y = tuple(x[i] for i in t)
                if y not in group:
                    assert y in images
                    group.add(y)
                    frontier.append(y)
    assert group == images
    perp = form_loop_perp_masks(model)
    for u in sims:
        assert all(u.apply_mask(perp[i]) == perp[u.image[i]] for i in range(len(perp)))


def test_tensor_model_form_is_kronecker(gf3_2):
    tm = tensor_model(gf3_2.model, gf3_2.model)
    assert tm.q == 3 and tm.n == 4
    assert tm.factors == (gf3_2.model, gf3_2.model)
    # identity (x) identity = identity
    assert tm.form == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    with pytest.raises(InputError):
        tensor_model(gf3_2.model, SubspaceModel.create(2, 2))


def test_product_atoms_embed_into_grid(gf3_2, gf3_tensor):
    tm = gf3_tensor.model
    # product atoms (v1 (x) v2) occupy pair slots i1*n2+i2; entangled lines
    # have empty image
    prod = subspace_span(tm, [(1, 0, 0, 0)])  # (1,0) (x) (1,0)
    img = sigma_down(prod)
    assert bit_members(img) == (1 * 4 + 1,)

    ent = subspace_span(tm, [(1, 0, 0, 1)])  # e00 + e11, entangled
    assert sigma_down(ent) == 0


def test_sigma_down_requires_tensor_model(gf3_2):
    s = subspace_span(gf3_2.model, [(1, 0)])
    with pytest.raises(InputError):
        sigma_down(s)


def test_sigma_down_of_row_subspace(gf3_2, gf3_tensor):
    tm = gf3_tensor.model
    # span of (1,0)(x)(1,0) and (1,0)(x)(0,1) is the whole first row
    row = subspace_span(tm, [(1, 0, 0, 0), (0, 1, 0, 0)])
    img = sigma_down(row)
    assert bit_members(img) == (1 * 4 + 0, 1 * 4 + 1, 1 * 4 + 2, 1 * 4 + 3)


def test_pair_perp_checks_the_shape_of_w():
    m1 = SubspaceModel.create(3, 2)
    m2 = SubspaceModel.create(3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    w = ((1, 0, 2), (0, 1, 1))
    mask = _pair_perp(w, m1, m2)
    assert 0 < mask < 1 << (m1.atom_count * m2.atom_count)
    # the transposed 3 x 2 matrix would zip short against both factors
    with pytest.raises(ContractViolation):
        _pair_perp(tuple(zip(*w)), m1, m2)
    with pytest.raises(ContractViolation):
        _pair_perp((w[0], w[1][:2]), m1, m2)


def test_linear_map_coatom_hand_value(gf3_2):
    model = gf3_2.model
    ident = ((1, 0), (0, 1))
    c = linear_map_coatom(ident, model, model)
    # pairs (p, s) with s orthogonal to p under the identity form
    expected = set()
    table = model.atom_table
    for i, p in enumerate(table):
        for j, s in enumerate(table):
            if (p[0] * s[0] + p[1] * s[1]) % 3 == 0:
                expected.add(i * 4 + j)
    assert set(bit_members(c)) == expected
    with pytest.raises(InputError):
        linear_map_coatom(((0, 0), (0, 0)), model, model)


@pytest.mark.parametrize(
    "q,form", [(3, None), (5, ((1, 0), (0, 2))), (7, None)], ids=["gf3_2", "gf5_2", "gf7_2"]
)
def test_linear_map_coatom_matches_pair_loop(q, form):
    # every nonzero 2 x 2 map up to scale over GF(3); over GF(5) and GF(7) a
    # seeded sample of 40 and a rank-one map, whose kernel row is full
    model = SubspaceModel.create(q, 2, form)
    maps = [(w[:2], w[2:]) for w in projective_points(q, 4)]
    if len(maps) > 40:
        maps = random.Random(q).sample(maps, 40) + [((0, 0), (1, 3))]
    for a in maps:
        got = linear_map_coatom(a, model, model)
        assert got == pair_loop_linear_map_coatom(a, model, model), a
