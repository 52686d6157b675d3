"""Automorphisms of closure spaces and their behaviour on products.

An automorphism is an atom permutation mapping the closed-set family onto
itself.  automorphism_chain builds the group as a stabilizer chain on the
base 0, 1, ..., n-1 (Sims 1970; Seress, Permutation Group Algorithms, 2003):
for each base point k, one element per point of the orbit of k under the
subgroup fixing 0..k-1.  The group order is the product of the orbit
lengths, and the elements the search found generate the group.  Every
consumer reads the order, the orbits or the generators (a group is fixed
by any generating set), so nothing lists a group; automorphism_group
remains for callers that want the sorted element list.

Each chain element comes from a backtracking search over atom images that
starts from a fixed prefix, with two invariant filters computed once per
space:

* atom profile: the multiset of cardinalities of closed sets containing the
  atom (images must share the atom's profile);
* pair profile: the same multiset for pairs of atoms (the image pair must
  match the source pair).

Pair profiles are what make the search practical on product spaces: atoms in
a common row or column of a product share many closed sets, generic pairs
share few, and any assignment mixing the two dies within a couple of levels.
A full family check at each leaf keeps the search sound regardless of how
weak the profiles are on a given space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .atomset import bit_members
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import ClosureSpace, ExplicitSpace, _require_explicit
from .errors import (
    BudgetExceeded,
    ContractViolation,
    DecompositionFailed,
    InducedMapNotAutomorphism,
    InputError,
)

if TYPE_CHECKING:
    from .products import ProductInstance


@dataclass(frozen=True)
class AtomPermutation:
    """Permutation of the atom universe, as the tuple image[i] = u(i)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {self.image}")

    @classmethod
    def identity(cls, n: int) -> "AtomPermutation":
        return cls(tuple(range(n)))

    @property
    def universe_size(self) -> int:
        return len(self.image)

    def __call__(self, atom: int) -> int:
        return self.image[atom]

    def apply_mask(self, mask: int) -> int:
        out = 0
        img = self.image
        m = mask
        while m:
            low = m & -m
            out |= 1 << img[low.bit_length() - 1]
            m ^= low
        return out

    def compose(self, other: "AtomPermutation") -> "AtomPermutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return AtomPermutation(tuple(self.image[o] for o in other.image))

    def inverse(self) -> "AtomPermutation":
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return AtomPermutation(tuple(inv))

    def to_json(self) -> dict:
        return {"image": list(self.image)}


def first_unpreserved(
    image: Sequence[int], src: ExplicitSpace, dst: ExplicitSpace
) -> int | None:
    """The first mask of src, in canonical order, whose image under the atom
    map image[i] is not in dst's family; None when the map sends all of src
    into dst.

    For a permutation and families of equal size, None means the map carries
    src's family onto dst's.
    """
    dst_set = dst._mask_set
    for m in src.masks:
        out = 0
        mm = m
        while mm:
            low = mm & -mm
            out |= 1 << image[low.bit_length() - 1]
            mm ^= low
        if out not in dst_set:
            return m
    return None


def is_automorphism(space: ClosureSpace, perm: AtomPermutation) -> bool:
    sp = _require_explicit(space, "is_automorphism")
    if perm.universe_size != sp.universe_size:
        raise InputError("permutation universe does not match space")
    return first_unpreserved(perm.image, sp, sp) is None


def _pair_profile_ids(sp: ExplicitSpace) -> list[list[int]]:
    """ids[p][q]: a small integer naming the multiset of cardinalities of
    the closed sets that hold both p and q; ids[p][p] names the atom profile.

    Read off the closure kernel's index: the closed sets holding p and q are
    the family indices in extent[p] & extent[q], counted per cardinality.
    """
    extent = sp.atom_extents()
    by_size: dict[int, int] = {}
    for i, m in enumerate(sp.masks):
        size = m.bit_count()
        by_size[size] = by_size.get(size, 0) | 1 << i
    classes = tuple(by_size.values())
    names: dict[tuple[int, ...], int] = {}
    n = sp.universe_size
    ids = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            both = extent[p] & extent[q]
            key = tuple((both & c).bit_count() for c in classes)
            ids[p][q] = ids[q][p] = names.setdefault(key, len(names))
    return ids


def _orbit_reps(
    start: dict[int, tuple[int, ...]], gens: Sequence[tuple[int, ...]]
) -> dict[int, tuple[int, ...]]:
    """Close start (point -> an element taking the level's base point there)
    under gens, giving each new point h(b) the element h after rep(b)."""
    reps = dict(start)
    queue = list(reps)
    while queue:
        b = queue.pop()
        for h in gens:
            c = h[b]
            if c not in reps:
                reps[c] = tuple(h[x] for x in reps[b])
                queue.append(c)
    return reps


@dataclass(frozen=True)
class StabilizerChain:
    """An automorphism group as a stabilizer chain on the base 0, 1, ..., n-1.

    transversals[k] holds one element for each point of the orbit of k under
    G_k, the subgroup fixing 0..k-1 pointwise; each maps k to its point and
    fixes 0..k-1.  Every element of G is uniquely t_0 t_1 ... t_{n-1} with
    t_k from transversals[k], so |G| is the product of the orbit lengths.
    generators are the elements the search found, deepest level first;
    those of levels k and deeper generate G_k, so together they generate G.
    """

    universe_size: int
    transversals: tuple[tuple[AtomPermutation, ...], ...]
    generators: tuple[AtomPermutation, ...]
    nodes: int

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def elements(self) -> list[tuple[int, ...]]:
        """Every element's image tuple, as products of transversal elements;
        only automorphism_group lists them."""
        out = [tuple(range(self.universe_size))]
        for trans in reversed(self.transversals):
            if len(trans) > 1:
                out = [tuple(t.image[x] for x in g) for t in trans for g in out]
        return out


def automorphism_chain(
    space: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> StabilizerChain:
    """The automorphism group of an explicit space as a stabilizer chain.

    Levels run from the deepest base point up, so the generators of G_{k+1}
    are known at level k.  For each point c > k that the generators found
    so far do not already reach from k, a backtracking search looks for the
    first automorphism fixing 0..k-1 with k -> c, through the profile
    filters, with the full family check at every leaf.  When there is none,
    c is outside the orbit of k, and so is every point the generators (all
    in G_k) take c to.  Search nodes draw on node_cap.
    """
    sp = _require_explicit(space, "automorphism_chain")
    n = sp.universe_size
    ids = _pair_profile_ids(sp)
    atoms = range(n)
    image = [-1] * n
    nodes = 0

    def extend(p: int, used: int, cands: Sequence[int]) -> bool:
        """Fill image[p:] from cands at p and any atom after; True at the
        first leaf that maps the family onto itself."""
        nonlocal nodes
        if p == n:
            return first_unpreserved(image, sp, sp) is None
        row = ids[p]
        for cand in cands:
            if used >> cand & 1 or ids[cand][cand] != row[p]:
                continue
            crow = ids[cand]
            if any(row[q] != crow[image[q]] for q in range(p)):
                continue
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            image[p] = cand
            if extend(p + 1, used | 1 << cand, atoms):
                return True
        return False

    identity = tuple(atoms)
    transversals: list[tuple[AtomPermutation, ...]] = [()] * n
    gens: list[tuple[int, ...]] = []  # generators of G_{k+1}, then of G_k
    for k in reversed(atoms):
        reps = {k: identity}
        ruled_out: set[int] = set()
        for c in range(k + 1, n):
            if c in reps or c in ruled_out:
                continue
            image[:k] = atoms[:k]
            if extend(k, (1 << k) - 1, (c,)):
                gens.append(tuple(image))
                reps = _orbit_reps(reps, gens)
            else:
                ruled_out.update(_orbit_reps({c: identity}, gens))
        transversals[k] = tuple(AtomPermutation(reps[c]) for c in sorted(reps))
    return StabilizerChain(
        n, tuple(transversals), tuple(AtomPermutation(g) for g in gens), nodes
    )


def automorphism_group(
    space: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> list[AtomPermutation]:
    """All automorphisms of an explicit space, sorted by image tuple.

    Lists the elements of automorphism_chain as products of its transversal
    elements; the elements count against node_cap with the search nodes.
    Nothing in qll calls it: the pipelines and the CLI read the chain's
    order and generators.  It stays public because perfbench/tracing.py
    counts its elements by this name, so it can go only together with a
    change to the benchmark.
    """
    chain = automorphism_chain(space, budgets)
    if chain.nodes + chain.order > budgets.node_cap:
        raise BudgetExceeded("node_cap", budgets.node_cap)
    return [AtomPermutation(img) for img in sorted(chain.elements())]


def orbits(perms: Sequence[AtomPermutation], universe_size: int) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    out = []
    for start in range(universe_size):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for perm in perms:
                y = perm.image[x]
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    """Product automorphism split into factor data.

    swap=False: u(p1, p2) = (v1 p1, v2 p2) with v1, v2 automorphisms of the
    respective factors.  swap=True: u(p1, p2) = (v2 p2, v1 p1) with v1 an
    isomorphism from the first factor onto the second and v2 its counterpart
    in the other direction.
    """

    swap: bool
    v1: AtomPermutation
    v2: AtomPermutation

    def triple(self) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
        return (self.swap, self.v1.image, self.v2.image)

    def to_json(self) -> dict:
        return {
            "swap": self.swap,
            "v1": list(self.v1.image),
            "v2": list(self.v2.image),
        }


# DecompositionFailed messages per orientation (swap flag): a row image, a
# column image, the first and the second component.
_DECOMPOSITION_MESSAGES = {
    False: (
        "row image is neither a row nor a column",
        "column image is not a column under a row-preserving map",
        "first component is not a factor automorphism",
        "second component is not a factor automorphism",
    ),
    True: (
        "row image is not a column under a swapping map",
        "column image is not a row under a swapping map",
        "swap component does not map the first factor onto the second",
        "swap component does not map the second factor onto the first",
    ),
}


def decompose_automorphism(
    instance: "ProductInstance", u: AtomPermutation
) -> Decomposition:
    """Split an automorphism of a product space into factor isomorphisms.

    Where the first row goes sets the orientation: onto a row means rows go
    to rows and columns to columns, onto a column means the map swaps them.
    Raises DecompositionFailed (with a witness) if u does not send rows and
    columns coherently; for the products built here that would falsify the
    decomposition theorem on the instance.

    The triple reproduces u by construction: u is a bijection, so it maps
    row i ∩ column j = {(i, j)} to u(row i) ∩ u(column j), the pair that
    grid.pair_image(v1, v2, swap) names.
    """
    space = _require_explicit(instance.space, "decompose_automorphism")
    if not is_automorphism(space, u):
        raise ContractViolation("u is not an automorphism of the product space")
    grid = instance.grid
    n1, n2 = grid.n1, grid.n2
    left = _require_explicit(instance.left, "decompose_automorphism")
    right = _require_explicit(instance.right, "decompose_automorphism")

    row_index = {grid.row_full_mask(i): i for i in range(n1)}
    col_index = {grid.col_full_mask(j): j for j in range(n2)}
    img0 = u.apply_mask(grid.row_full_mask(0))
    if img0 in row_index:
        swap = False
    elif img0 in col_index:
        swap = True
    else:
        raise DecompositionFailed(
            "image of first row is neither a row nor a column",
            {"image": list(bit_members(img0))},
        )
    row_msg, col_msg, first_msg, second_msg = _DECOMPOSITION_MESSAGES[swap]
    # where rows and columns must land, and which factor each component
    # must map onto
    row_to, col_to = (col_index, row_index) if swap else (row_index, col_index)
    first_dst, second_dst = (right, left) if swap else (left, right)

    def component(line_mask, count: int, to: dict, key: str, msg: str):
        out = []
        for k in range(count):
            m = u.apply_mask(line_mask(k))
            if m not in to:
                raise DecompositionFailed(
                    msg, {key: k, "image": list(bit_members(m))}
                )
            out.append(to[m])
        return AtomPermutation(tuple(out))

    v1 = component(grid.row_full_mask, n1, row_to, "row", row_msg)
    v2 = component(grid.col_full_mask, n2, col_to, "column", col_msg)
    if first_unpreserved(v1.image, left, first_dst) is not None:
        raise DecompositionFailed(first_msg)
    if first_unpreserved(v2.image, right, second_dst) is not None:
        raise DecompositionFailed(second_msg)
    return Decomposition(swap, v1, v2)


def induced_product_automorphism(
    instance: "ProductInstance",
    v1: AtomPermutation,
    v2: AtomPermutation,
    swap: bool = False,
) -> AtomPermutation:
    """Pair permutation (p1,p2) -> (v1 p1, v2 p2), or the swapped form
    (p1,p2) -> (v2 p2, v1 p1).  Verified against the product family; failure
    raises InducedMapNotAutomorphism with the offending closed set (a P4
    failure witness)."""
    image = instance.grid.pair_image(v1, v2, swap)
    space = _require_explicit(instance.space, "induced_product_automorphism")
    bad = first_unpreserved(image, space, space)
    if bad is not None:
        raise InducedMapNotAutomorphism(
            "induced pair map does not preserve the product family",
            {
                "v1": list(v1.image),
                "v2": list(v2.image),
                "swap": swap,
                "unpreserved": list(bit_members(bad)),
            },
        )
    return AtomPermutation(image)
