"""Finite-field stand-ins for Hilbert-space structure.

A SubspaceModel is GF(q)^n equipped with a nondegenerate symmetric bilinear
form.  Its projective points are the atoms of a simple closure space whose
closed sets are the point sets of linear subspaces; the form supplies the
atom orthogonality relation.

Over a prime field every field automorphism is trivial, so "antilinear" maps
are plain linear maps here, and the unitary group is replaced by the group
of similitudes (matrices preserving the form up to a nonzero multiplier).

MO lattices (2n atoms, closed sets: empty, singletons, everything) are the
small non-Boolean test factors; mo_lattice(2) is isomorphic to the projective
space of GF(3)^2 with the identity form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import mul
from typing import Sequence

from .atomset import bit_members, json_int
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import ExplicitSpace, _transpose, space_from_masks
from .errors import (
    BudgetExceeded,
    ContractViolation,
    DegenerateFormError,
    InputError,
    IsotropicAtomError,
)
from .gf import (
    Mat,
    Vec,
    check_prime_field,
    count_subspaces,
    dot,
    identity,
    in_row_space,
    kron,
    kron_vec,
    mat_mul,
    mat_vec,
    projective_points,
    rank,
    rref_matrices,
    transpose,
)
from .ortho import OrthogonalityRelation
from .automorphisms import AtomPermutation


class _PerpTable(dict):
    """Vector u to the mask of the atoms v with u·v = 0, each row computed
    on its first lookup."""

    def __init__(self, q: int, atoms: Sequence[Vec]):
        super().__init__()
        self.q = q
        self.atoms = atoms

    def __missing__(self, u: Vec) -> int:
        q = self.q
        row = sum(1 << j for j, v in enumerate(self.atoms) if dot(u, v, q) == 0)
        self[u] = row
        return row


@dataclass(frozen=True)
class SubspaceModel:
    """GF(q)^n with a symmetric nondegenerate bilinear form."""

    q: int
    n: int
    form: Mat
    factors: "tuple[SubspaceModel, SubspaceModel] | None" = field(
        default=None, compare=False
    )

    @classmethod
    def create(cls, q: int, n: int, form: Mat | None = None) -> "SubspaceModel":
        check_prime_field(q)
        if n < 1:
            raise InputError(f"dimension must be >= 1, got {n}")
        if form is None:
            form = identity(n)
        form = tuple(tuple(x % q for x in row) for row in form)
        if len(form) != n or any(len(row) != n for row in form):
            raise InputError("form must be an n x n matrix")
        if form != tuple(zip(*form)):
            raise InputError("form must be symmetric")
        if rank(form, q) != n:
            raise DegenerateFormError(
                f"form has rank {rank(form, q)} < {n}; orthogonality is degenerate"
            )
        return cls(q=q, n=n, form=form)

    @cached_property
    def atom_table(self) -> tuple[Vec, ...]:
        return projective_points(self.q, self.n)

    @cached_property
    def atom_index(self) -> dict[Vec, int]:
        return {v: i for i, v in enumerate(self.atom_table)}

    @property
    def atom_count(self) -> int:
        return len(self.atom_table)

    @cached_property
    def _perp(self) -> _PerpTable:
        """u in GF(q)^n to the atom mask of {v : u·v = 0} under the plain
        dot product: a hyperplane for u != 0, every atom for u = 0.  Rows
        are filled on first lookup, so a build reads only the rows it uses."""
        return _PerpTable(self.q, self.atom_table)

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "form": [list(r) for r in self.form]}

    @classmethod
    def from_json(cls, data: dict) -> "SubspaceModel":
        try:
            q, n = json_int(data["q"], "q"), json_int(data["n"], "n")
            form = tuple(tuple(json_int(x, "form entry") for x in row) for row in data["form"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed model JSON: {exc}") from exc
        return cls.create(q, n, form)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace in canonical RREF basis (() is the zero subspace)."""

    model: SubspaceModel
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        if self.dim == 0:
            return not any(x % self.model.q for x in v)
        return in_row_space(self.basis, v, self.model.q)


def _check_subspace_cap(model: SubspaceModel, budgets: Budgets) -> None:
    """Refuse a model with more than subspace_cap subspaces before any of
    its points or vectors is listed."""
    if count_subspaces(model.q, model.n) > budgets.subspace_cap:
        raise BudgetExceeded("subspace_cap", budgets.subspace_cap)


def enumerate_subspaces(
    model: SubspaceModel, budgets: Budgets = DEFAULT_BUDGETS
) -> list[Subspace]:
    """All subspaces of the model, every dimension, canonical order."""
    _check_subspace_cap(model, budgets)
    out = []
    for dim in range(model.n + 1):
        for basis in rref_matrices(model.q, model.n, dim):
            out.append(Subspace(model, basis))
    return out


def _flats(gens: Sequence[int], size: int, rank: int, budgets: Budgets) -> set[int]:
    """The flats of a rank-`rank` matroid on `size` points, unordered, given
    gens, every flat of rank rank-1 (other flats among them are allowed).

    Every flat is an intersection of such hyperplanes, so cl(X) = ∧{g : X ⊆ g}.
    A transposed index makes that a lookup: contain[k] marks the generators
    holding point k, and the AND of contain over X marks those holding X.
    The flats of rank r + 1 are cl(f ∪ {p}) for f of rank r and p outside f,
    and the ones above f partition the points outside it, so p is skipped
    once a closure already found from f holds it.  For r >= 1, a flat F of
    rank r + 1 is also reached from a rank-r flat inside it that holds m,
    F's lowest point outside cl(∅), and from there every point of F it
    lacks lies above m; so from f only the points above f's lowest point
    outside cl(∅) are tried.  Going up from cl(∅) that way lists the flats
    of rank up to rank-2; those of rank rank-1 are generators and the only
    one of rank `rank` is the whole set.  family_cap is checked after each
    rank level.
    """
    full = (1 << size) - 1
    everything = (1 << len(gens)) - 1
    contain = _transpose(tuple(gens), size)

    def close(live: int) -> int:
        out = full
        for gi in bit_members(live):
            out &= gens[gi]
        return out

    bottom = close(everything)
    # each flat of the current level with the generators that hold it
    level = {bottom: everything}
    family = {bottom}
    for _ in range(rank - 2):
        above: dict[int, int] = {}
        for f, live in level.items():
            rest = f & ~bottom
            seen = f | (rest & -rest) - 1 if rest else f
            for p in bit_members(full & ~seen):
                if seen >> p & 1:
                    continue
                grown = live & contain[p]
                c = close(grown)
                seen |= c
                above[c] = grown
        level = above
        family.update(level)
        if len(family) > budgets.family_cap:
            raise BudgetExceeded("family_cap", budgets.family_cap)
    family.update(gens)
    family.add(full)
    if len(family) > budgets.family_cap:
        raise BudgetExceeded("family_cap", budgets.family_cap)
    return family


def build_projective_space(
    model: SubspaceModel,
    budgets: Budgets = DEFAULT_BUDGETS,
    require_anisotropic: bool = True,
) -> tuple[ExplicitSpace, OrthogonalityRelation | None]:
    """Closure space of subspace point-sets plus the form's atom orthogonality.

    count_subspaces is checked against subspace_cap before any point is
    listed.  The point sets of the subspaces are the flats of the rank-n
    matroid on the points; _flats lists them from its hyperplanes u^perp,
    one per point u.  The atoms orthogonal to u under the form are
    (F u)^perp.  Both are read off the perp table.

    Atom orthogonality must be irreflexive, so an isotropic point (form(p,p)=0,
    as happens for every identity-form model over GF(2) in dimension >= 2) is
    an error unless require_anisotropic=False, in which case no relation is
    returned and only form-free structure is available.
    """
    _check_subspace_cap(model, budgets)
    q, atoms, perp = model.q, model.atom_table, model._perp
    rows = tuple(perp[mat_vec(model.form, u, q)] for u in atoms)
    isotropic = [u for i, u in enumerate(atoms) if rows[i] >> i & 1]
    if isotropic and require_anisotropic:
        raise IsotropicAtomError(
            f"point {isotropic[0]} is orthogonal to itself (q={q}); "
            "atom orthogonality cannot be irreflexive"
        )
    relation = None if isotropic else OrthogonalityRelation(len(atoms), rows)
    masks = _flats([perp[u] for u in atoms], len(atoms), model.n, budgets)
    labels = ["(" + ",".join(map(str, v)) + ")" for v in atoms]
    return space_from_masks(len(atoms), masks, labels, budgets), relation


def tensor_model(m1: SubspaceModel, m2: SubspaceModel) -> SubspaceModel:
    """GF(q)^{n1 n2} with the Kronecker form, remembering its factors."""
    if m1.q != m2.q:
        raise InputError(f"field mismatch: q={m1.q} vs q={m2.q}")
    q = m1.q
    model = SubspaceModel(
        q=q, n=m1.n * m2.n, form=kron(m1.form, m2.form, q), factors=(m1, m2)
    )
    return model


def sigma_down(v: Subspace) -> int:
    """Mask of the factor atom pairs (p1, p2) whose product vector lies in
    v, pair (i1, i2) at bit i1 * n2 + i2.

    v must live in a tensor model built by tensor_model, so the pairing
    convention is known.
    """
    model = v.model
    if model.factors is None:
        raise InputError("subspace does not live in a tensor model with factors")
    m1, m2 = model.factors
    n2 = m2.atom_count
    mask = 0
    for i1, v1 in enumerate(m1.atom_table):
        for i2, v2 in enumerate(m2.atom_table):
            if v.contains(kron_vec(v1, v2, model.q)):
                mask |= 1 << (i1 * n2 + i2)
    return mask


def mo_lattice(
    n: int, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[ExplicitSpace, OrthogonalityRelation]:
    """MO_n: 2n atoms, closed sets are empty, singletons and the universe;
    atom 2k is orthogonal to atom 2k+1."""
    if n < 2:
        raise InputError("mo_lattice needs n >= 2 (n=1 would be Boolean)")
    size = 2 * n
    masks = [0, (1 << size) - 1, *(1 << i for i in range(size))]
    rel = OrthogonalityRelation.from_pairs(
        size, [(2 * k, 2 * k + 1) for k in range(n)]
    )
    return space_from_masks(size, masks, budgets=budgets), rel


def similitude_group(
    model: SubspaceModel, budgets: Budgets = DEFAULT_BUDGETS
) -> list[AtomPermutation]:
    """Projective action of all g with gᵀFg = cF, c != 0, sorted by image
    tuple.  Each such g is invertible: det(g)² det F = cⁿ det F, and create
    rejects a singular F.

    One search per multiplier c in 1..q-1 solves for g a column at a time.
    Entry (i, j) of gᵀFg is x_iᵀ F x_j for the columns x_i, so column j is
    drawn from the nonzero vectors with Q(x_j) = x_jᵀ F x_j equal to
    c·F[j][j] and kept if x_iᵀ F x_j = c·F[i][j] for every earlier column
    i.  g and λg act alike, so column 0 runs over the normalized points
    only and each projective class is met once, in the search for the
    multiplier of its normalized representative.  Every candidate column
    tried counts against node_cap.  The tables the search reads list all
    qⁿ vectors, so, as in build_projective_space, count_subspaces is checked
    against subspace_cap before any vector is listed.
    """
    _check_subspace_cap(model, budgets)
    q, n, form, atoms = model.q, model.n, model.form, model.atom_table
    nonzero = tuple(product(range(q), repeat=n))[1:]
    # F·x for every x, and column j's candidates bucketed by Q(x) = xᵀFx
    f_of = {x: tuple(sum(map(mul, row, x)) % q for row in form) for x in nonzero}

    def by_q(vectors: Sequence[Vec]) -> dict[int, list[Vec]]:
        out: dict[int, list[Vec]] = {}
        for x in vectors:
            out.setdefault(sum(map(mul, f_of[x], x)) % q, []).append(x)
        return out

    cands_of = [by_q(atoms)] + [by_q(nonzero)] * (n - 1)
    # every nonzero vector to the index of its point
    point_of = {
        tuple(s * x % q for x in p): i
        for i, p in enumerate(atoms)
        for s in range(1, q)
    }
    perms = set()
    nodes = 0

    def extend(cols: tuple[Vec, ...], c: int) -> None:
        nonlocal nodes
        j = len(cols)
        if j == n:
            rows = tuple(zip(*cols))
            perms.add(
                tuple(
                    point_of[tuple(sum(map(mul, r, v)) % q for r in rows)]
                    for v in atoms
                )
            )
            return
        cands = cands_of[j].get(c * form[j][j] % q, ())
        nodes += len(cands)
        if nodes > budgets.node_cap:
            raise BudgetExceeded("node_cap", budgets.node_cap)
        fcols = [f_of[x] for x in cols]
        want = [c * form[i][j] % q for i in range(j)]
        for y in cands:
            for fx, w in zip(fcols, want):
                if sum(map(mul, fx, y)) % q != w:
                    break
            else:
                extend(cols + (y,), c)

    for c in range(1, q):
        extend((), c)
    return [AtomPermutation(img) for img in sorted(perms)]


def _pair_perp(w: Mat, m1: SubspaceModel, m2: SubspaceModel) -> int:
    """{(p1, p2) : v1ᵀ W v2 = 0} as a pair mask, for a d1 x d2 matrix W.

    v1ᵀ W v2 = u·v2 with u = v1ᵀW, so row p1 is u^perp in the second
    model's perp table (the whole row when u = 0).
    """
    if len(w) != m1.n or any(len(row) != m2.n for row in w):
        raise ContractViolation(f"W must be {m1.n} x {m2.n}")
    q, n2, perp = m1.q, m2.atom_count, m2._perp
    cols = tuple(zip(*w))
    mask = 0
    for i1, v1 in enumerate(m1.atom_table):
        mask |= perp[tuple(sum(map(mul, v1, c)) % q for c in cols)] << (i1 * n2)
    return mask


def linear_map_coatom(a: Mat, m1: SubspaceModel, m2: SubspaceModel) -> int:
    """{(p, s) : form2(s, A p) = 0} as a pair mask, for a nonzero
    linear map A from the first model's space to the second's.

    form2(s, A p) = pᵀ W s with W = (F2 A)ᵀ, so _pair_perp reads the set
    row by row from the second model's perp table.  Proportional maps give
    the same set.
    """
    if len(a) != m2.n or any(len(row) != m1.n for row in a):
        raise InputError(f"map must be {m2.n} x {m1.n}")
    if all(x % m1.q == 0 for row in a for x in row):
        raise InputError("zero map does not define a coatom")
    if m1.q != m2.q:
        raise InputError("factor models must share the field")
    w = transpose(mat_mul(m2.form, a, m1.q))
    return _pair_perp(w, m1, m2)
