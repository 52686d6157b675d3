"""Automorphisms of closure spaces and their behaviour on products.

An automorphism is an atom permutation mapping the closed-set family onto
itself.  The search backtracks over atom images with two invariant filters
computed once per space:

* atom profile: the multiset of cardinalities of closed sets containing the
  atom (images must share the atom's profile);
* pair profile: the same multiset for pairs of atoms (the image pair must
  match the source pair).

Pair profiles are what make the search practical on product spaces: atoms in
a common row or column of a product share many closed sets, generic pairs
share few, and any assignment mixing the two dies within a couple of levels.
A full family check at each leaf keeps the enumeration sound regardless of
how weak the profiles are on a given space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .atomset import AtomSet, bit_members
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import ClosureSpace, ExplicitSpace, _require_explicit
from .errors import (
    BudgetExceeded,
    ContractViolation,
    DecompositionFailed,
    InducedMapNotAutomorphism,
    InputError,
)
from .ortho import OrthoMap, verify_orthocomplementation

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

    def apply(self, a: AtomSet) -> AtomSet:
        return AtomSet(a.universe_size, self.apply_mask(a.mask))

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


def automorphism_group(
    space: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> list[AtomPermutation]:
    """All automorphisms of an explicit space, sorted by image tuple."""
    sp = _require_explicit(space, "automorphism_group")
    n = sp.universe_size
    masks = sp.masks

    sizes = {m: m.bit_count() for m in masks}
    atom_profile: list[tuple[int, ...]] = []
    for p in range(n):
        atom_profile.append(
            tuple(sorted(sizes[m] for m in masks if m >> p & 1))
        )
    pair_profile: dict[tuple[int, int], tuple[int, ...]] = {}
    for p in range(n):
        for q in range(p + 1, n):
            both = (1 << p) | (1 << q)
            pair_profile[(p, q)] = tuple(
                sorted(sizes[m] for m in masks if m & both == both)
            )

    def pp(a: int, b: int) -> tuple[int, ...]:
        return pair_profile[(a, b) if a < b else (b, a)]

    image = [-1] * n
    used = 0
    found: list[AtomPermutation] = []
    nodes = 0

    def assign(p: int) -> None:
        nonlocal used, nodes
        if p == n:
            if first_unpreserved(image, sp, sp) is None:
                found.append(AtomPermutation(tuple(image)))
            return
        for cand in range(n):
            if used >> cand & 1:
                continue
            if atom_profile[cand] != atom_profile[p]:
                continue
            ok = True
            for prev in range(p):
                if pp(prev, p) != pp(image[prev], cand):
                    ok = False
                    break
            if not ok:
                continue
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            image[p] = cand
            used |= 1 << cand
            assign(p + 1)
            used &= ~(1 << cand)
            image[p] = -1

    assign(0)
    found.sort(key=lambda perm: perm.image)
    return found


def is_transitive(perms: Sequence[AtomPermutation], universe_size: int) -> bool:
    """Single orbit on atoms under the given permutations."""
    if universe_size == 0:
        return True
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for perm in perms:
            y = perm.image[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == universe_size


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
# column image, the first and the second component, the pointwise action.
_DECOMPOSITION_MESSAGES = {
    False: (
        "row image is neither a row nor a column",
        "column image is not a column under a row-preserving map",
        "first component is not a factor automorphism",
        "second component is not a factor automorphism",
        "pointwise action disagrees with factor pair",
    ),
    True: (
        "row image is not a column under a swapping map",
        "column image is not a row under a swapping map",
        "swap component does not map the first factor onto the second",
        "swap component does not map the second factor onto the first",
        "pointwise action disagrees with swapped factor pair",
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
    row_msg, col_msg, first_msg, second_msg, pointwise_msg = (
        _DECOMPOSITION_MESSAGES[swap]
    )
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
    image = grid.pair_image(v1, v2, swap)
    if image != u.image:
        k = next(k for k, (a, b) in enumerate(zip(image, u.image)) if a != b)
        raise DecompositionFailed(pointwise_msg, {"pair": list(grid.unindex(k))})
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


def dual_automorphism(
    space: ClosureSpace, ortho: OrthoMap, u: AtomPermutation
) -> tuple[tuple[AtomSet, AtomSet], ...]:
    """The map a -> (u(a'))' on closed sets, as canonical (source, image) pairs.

    Checks it is a join-preserving bijection of the family (it always is when
    u is an automorphism and the ortho map verifies); violations raise.
    """
    sp = _require_explicit(space, "dual_automorphism")
    if not is_automorphism(sp, u):
        raise ContractViolation("u is not an automorphism of the space")
    verdict = verify_orthocomplementation(sp, ortho)
    if not verdict.ok:
        raise ContractViolation(f"ortho map fails law '{verdict.law}'")
    n = sp.universe_size
    mapping: dict[int, int] = {}
    for m in sp.masks:
        mapping[m] = ortho.complement_mask(u.apply_mask(ortho.complement_mask(m)))
    if set(mapping.values()) != set(sp.masks):
        raise ContractViolation("dual map is not a bijection of the family")
    for a in sp.masks:
        for b in sp.masks:
            lhs = mapping[sp.closure_mask(a | b)]
            rhs = sp.closure_mask(mapping[a] | mapping[b])
            if lhs != rhs:
                raise ContractViolation(
                    f"dual map does not preserve the join of {bit_members(a)} and {bit_members(b)}"
                )
    return tuple(
        (AtomSet(n, m), AtomSet(n, mapping[m])) for m in sp.masks
    )
