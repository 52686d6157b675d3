"""Weak tensor products of two simple closure spaces.

Product atoms are pairs (p1, p2) of factor atoms, flattened to the index
p1 * n2 + p2 (rows are contiguous bit slices of the mask, columns are
strided).  Four constructions on that shared universe:

* sep:  every intersection of crosses a1 x S2 ∪ S1 x a2 (closed a_i).
  This is the smallest product family.
* top:  all sets whose sections are closed in the matching factor (the
  largest family).  Kept implicit: membership checks sections, closure
  alternates row-wise and column-wise factor closures to a fixpoint.
  Materialization is the section search over the two factor families.
* down: images of tensor-model subspaces under sigma_down (the pairs whose
  product vector lies in the subspace), for factors given as finite-field
  models.  They are the flats of the matroid on the product vectors, of
  rank n = d1·d2 <= 4, and the hyperplane images are its hyperplanes.
* star: intersections of the generator sets whose rows are coatoms-or-full
  in the second factor and columns coatoms-or-full in the first.

top and the star generators are the sets whose rows and columns lie in
given lists; _section_search finds them row by row and counts each row
placed against node_cap.  Its state is one int with a field per column,
|allowed columns| + 1 bits wide: the allowed columns that agree with the
rows placed so far, under a guard bit.  A row placed is one AND with a
precomputed entry, and a branch dies when some field empties, which one
subtraction over the guarded fields detects; the tree and its node count
are those of the search on column prefixes that it replaced.
sep, star and down are the intersection closures of their generators.
sep has few (the crosses) and is built one generator at a time by
_close_under_intersections, at O(|gens|·|family|) intersections.  star
has many more (756 on mo3 x mo3), so _generated_family lists its closed
sets by a row walk that reads the meet of the generators containing each
row prefix from per-row buckets and tries only the rows in which the keys
of the buckets present meet, with work that grows with the family; on
sep that walk is measured slower, so it keeps the closure.  down takes its
generators and its flats from geometry, which lists the factor lattices
the same way: _pair_perp reads each hyperplane image row by row from a
perp table, and _flats lists the flats rank by rank from a transposed
index of the generators.

_section_search and the row walk both place rows in the order of their
options, starting at the lowest atoms; _section_search places the last in
its parent's loop.  top and star offer the rows in lex order
(atomset.lex_sorted), so their sets come out in lex order and
_space_from_lex_masks puts them into canonical order with one stable sort
on cardinality; sep and down go through space_from_masks's full sort.

All four contain the crosses and have closed sections, so sep <= X <= top
as families; interval_check certifies those inclusions and exhibits
witnesses when they are strict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .atomset import bit_members, lex_sorted
from .automorphisms import AtomPermutation, first_unpreserved
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import (
    ClosureSpace,
    ExplicitSpace,
    ImplicitSpace,
    _require_explicit,
    _space_from_lex_masks,
    is_coatomistic,
    space_from_masks,
    space_to_json,
)
from .errors import BudgetExceeded, ContractViolation, InputError
from .geometry import (
    SubspaceModel,
    _flats,
    _pair_perp,
    build_projective_space,
    tensor_model,
)
from .gf import count_subspaces, projective_points


class PairGrid:
    """Index arithmetic for the flattened pair universe."""

    def __init__(self, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise InputError("factors must have at least one atom each")
        self.n1 = n1
        self.n2 = n2
        self.size = n1 * n2
        self._row_all = (1 << n2) - 1
        self._rows = tuple(self._row_all << (i * n2) for i in range(n1))
        cols = []
        for j in range(n2):
            m = 0
            for i in range(n1):
                m |= 1 << (i * n2 + j)
            cols.append(m)
        self._cols = tuple(cols)

    def index(self, i1: int, i2: int) -> int:
        return i1 * self.n2 + i2

    def unindex(self, k: int) -> tuple[int, int]:
        return divmod(k, self.n2)

    def row_full_mask(self, i1: int) -> int:
        return self._rows[i1]

    def col_full_mask(self, i2: int) -> int:
        return self._cols[i2]

    def row_section(self, mask: int, i1: int) -> int:
        """Second coordinates present in row i1, as a mask over the second factor."""
        return (mask >> (i1 * self.n2)) & self._row_all

    def col_section(self, mask: int, i2: int) -> int:
        """First coordinates present in column i2, as a mask over the first factor."""
        out = 0
        m = mask >> i2
        for i1 in range(self.n1):
            out |= (m & 1) << i1
            m >>= self.n2
        return out

    def from_rows(self, rows: "list[int] | tuple[int, ...]") -> int:
        mask = 0
        for i1, r in enumerate(rows):
            mask |= r << (i1 * self.n2)
        return mask

    def from_col(self, section: int, i2: int) -> int:
        """The pairs (i1, i2) with i1 in section, a first-factor mask."""
        mask = 0
        for i1 in bit_members(section):
            mask |= 1 << (i1 * self.n2 + i2)
        return mask

    def pair_image(
        self, v1: "AtomPermutation", v2: "AtomPermutation", swap: bool = False
    ) -> tuple[int, ...]:
        """Image tuple of the pair map (p1, p2) -> (v1 p1, v2 p2), or with
        swap of (p1, p2) -> (v2 p2, v1 p1); v1 then maps the first factor's
        atoms to the second's and v2 the other way."""
        n1, n2 = self.n1, self.n2
        if swap and n1 != n2:
            raise InputError("swap decomposition needs factors of equal atom count")
        if v1.universe_size != n1 or v2.universe_size != n2:
            raise InputError("component sizes do not match the factors")
        a, b = v1.image, v2.image
        if swap:
            return tuple(b[j] * n2 + a[i] for i in range(n1) for j in range(n2))
        return tuple(a[i] * n2 + b[j] for i in range(n1) for j in range(n2))

    def cross_mask(self, a1_mask: int, a2_mask: int) -> int:
        """a1 x S2 ∪ S1 x a2 as a pair mask."""
        mask = 0
        for i1 in bit_members(a1_mask):
            mask |= self._rows[i1]
        for i2 in bit_members(a2_mask):
            mask |= self._cols[i2]
        return mask


@dataclass
class ProductInstance:
    """A product construction together with its factors and pairing."""

    kind: str
    left: ClosureSpace
    right: ClosureSpace
    space: ClosureSpace
    grid: PairGrid
    models: tuple[SubspaceModel, SubspaceModel] | None = None
    notes: dict = field(default_factory=dict)

    @property
    def pairing(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            self.grid.unindex(k) for k in range(self.grid.size)
        )

    def to_json(self) -> dict:
        out: dict = {
            "product": self.kind,
            "left": space_to_json(_require_explicit(self.left, "to_json")),
            "right": space_to_json(_require_explicit(self.right, "to_json")),
            "pairing": [list(p) for p in self.pairing],
        }
        if self.space.is_explicit:
            out["family"] = [list(bit_members(m)) for m in self.space.masks]
        else:
            out["backend"] = "implicit"
        if self.models is not None:
            out["models"] = [m.to_json() for m in self.models]
        if self.notes:
            out["notes"] = dict(sorted(self.notes.items()))
        return out


def _pair_labels(left: ClosureSpace, right: ClosureSpace) -> list[str]:
    return [
        f"({left.label(i)},{right.label(j)})"
        for i in range(left.universe_size)
        for j in range(right.universe_size)
    ]


def _close_under_intersections(
    gens: "Iterable[int]", full: int, budgets: Budgets
) -> set[int]:
    """Smallest intersection-closed family holding gens and full, unordered
    (space_from_masks sorts it into canonical order).

    Adds one generator at a time: if F is closed under intersection and
    holds full, so is F ∪ {g ∧ m : m in F}, and it holds g.  That costs
    O(|gens|·|F|) intersections, against O(|F|²) for closing pairwise.
    family_cap is checked after each generator.
    """
    family = {full}
    for g in gens:
        if g not in family:
            family |= {g & m for m in family}
            if len(family) > budgets.family_cap:
                raise BudgetExceeded("family_cap", budgets.family_cap)
    return family


def _generated_family(
    gens: Sequence[int],
    row_options: Sequence[int],
    n1: int,
    n2: int,
    budgets: Budgets,
) -> list[int]:
    """The intersections of gens (the full grid, the empty intersection,
    among them), unordered, by a row walk that reads the meet of the live
    generators from per-row buckets.  Every row of every such intersection
    must lie in row_options, listed without repeats.

    A set X is an intersection of generators iff X is the meet of the
    generators that contain it (cl(X) = ∧{g : X ⊆ g}).  The walk places rows
    0..n1-1 one option at a time and carries live, the list of generators
    that contain the rows placed so far.  At row k a node sorts live into
    buckets by their row-k section, keeping each bucket's meet, the set of
    buckets present and, before the last row, each bucket's list.  The
    bucket keys are the distinct row-k sections of all of gens; the present
    buckets whose key contains an option r hold the live generators that
    contain mask | r.  The child mask | r is kept only if the meet of those
    buckets, cut to rows 0..k, is mask | r: every pair left out so far is
    left out by some of them.  Row k of that meet is the meet of their
    keys, so only the options in which those keys meet are tried, a list
    that depends on k and the buckets present alone and is built once per
    pair.  live only shrinks, so a branch that fails has no member below
    it; at a leaf live is exactly {g : X ⊆ g}, so every leaf is a member,
    reached once.  With no live generator only the full row passes.  Each
    row placed counts against node_cap and each leaf against family_cap.

    star is built this way.  Timed directly, the walk is slower than
    _close_under_intersections on sep's crosses and slower than _flats on
    down's hyperplane images.
    """
    row_all = (1 << n2) - 1
    full = (1 << n1 * n2) - 1
    node_cap, family_cap = budgets.node_cap, budgets.family_cap
    # per row k: (shift, the bucket of each generator, rows 0..k, the keys
    # and an always-full slot, per option the buckets whose key holds it,
    # and per set of buckets present the options that can pass)
    levels = []
    for k in range(n1):
        shift = k * n2
        keys = list(dict.fromkeys(g >> shift & row_all for g in gens))
        index = {s: i for i, s in enumerate(keys)}
        bucket = {g: index[g >> shift & row_all] for g in gens}
        above = [sum(1 << i for i, s in enumerate(keys) if not r & ~s) for r in row_options]
        levels.append((shift, bucket, (1 << shift + n2) - 1, keys + [row_all], above, {}))

    def passing(k: int, present: int) -> list[tuple[int, int, tuple[int, ...]]]:
        # (r placed, first bucket, the others) for each option r in which the
        # keys of the present buckets above r meet; the full slot if none
        shift, _, _, keys, above, memo = levels[k]
        out = memo[present] = []
        for r, a in zip(row_options, above):
            buckets = bit_members(a & present) or (len(keys) - 1,)
            meet = row_all
            for i in buckets:
                meet &= keys[i]
            if meet == r:
                out.append((r << shift, buckets[0], buckets[1:]))
        return out

    last = n1 - 1
    keep: list[int] = []
    nodes = 0

    def walk(k: int, mask: int, live: list[int]) -> None:
        nonlocal nodes
        shift, bucket, cut, keys, _, memo = levels[k]
        meets = [full] * len(keys)
        present = 0
        if k == last:
            for g in live:
                i = bucket[g]
                meets[i] &= g
                present |= 1 << i
        else:
            lists: list[list[int]] = [[] for _ in keys]
            for g in live:
                i = bucket[g]
                meets[i] &= g
                lists[i].append(g)
                present |= 1 << i
        for r, first, rest in memo.get(present) or passing(k, present):
            child = mask | r
            m = meets[first]
            for i in rest:
                m &= meets[i]
            if m & cut != child:
                continue
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded("node_cap", node_cap)
            if k == last:
                keep.append(child)
                if len(keep) > family_cap:
                    raise BudgetExceeded("family_cap", family_cap)
            else:
                below = lists[first][:]
                for i in rest:
                    below += lists[i]
                walk(k + 1, child, below)

    walk(0, 0, list(gens))
    return keep


def sep_product(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """Smallest product: the intersection closure of the crosses of closed
    factor sets."""
    l = _require_explicit(left, "sep_product")
    r = _require_explicit(right, "sep_product")
    grid = PairGrid(l.universe_size, r.universe_size)
    crosses = {
        grid.cross_mask(a1, a2) for a1 in l.masks for a2 in r.masks
    }
    masks = _close_under_intersections(crosses, (1 << grid.size) - 1, budgets)
    space = space_from_masks(grid.size, masks, _pair_labels(l, r), budgets)
    return ProductInstance("sep", l, r, space, grid)


def top_product(left: ClosureSpace, right: ClosureSpace) -> ProductInstance:
    """Largest product: every set with closed sections, as an implicit space."""
    n1, n2 = left.universe_size, right.universe_size
    grid = PairGrid(n1, n2)

    def membership(mask: int) -> bool:
        for i1 in range(n1):
            if not right.contains_mask(grid.row_section(mask, i1)):
                return False
        for i2 in range(n2):
            if not left.contains_mask(grid.col_section(mask, i2)):
                return False
        return True

    def closure(mask: int) -> int:
        # Row and column factor closures only ever add pairs, and any
        # section-closed superset survives both steps, so alternating to a
        # fixpoint yields the least section-closed superset.
        cur = mask
        for _ in range(grid.size + 2):
            nxt_rows = [
                right.closure_mask(grid.row_section(cur, i1)) for i1 in range(n1)
            ]
            cur2 = grid.from_rows(nxt_rows)
            for i2 in range(n2):
                col = left.closure_mask(grid.col_section(cur2, i2))
                cur2 |= grid.from_col(col, i2)
            if cur2 == cur:
                return cur
            cur = cur2
        raise ContractViolation("section closure did not reach a fixpoint")

    space = ImplicitSpace(
        grid.size,
        membership,
        closure,
        atom_labels=_pair_labels(left, right),
        description="top product (section-closed sets)",
    )
    return ProductInstance("top", left, right, space, grid)


def _section_search(
    row_options: Sequence[int],
    col_allowed: Collection[int],
    n1: int,
    n2: int,
    budgets: Budgets,
) -> list[int]:
    """Every grid mask whose rows lie in row_options and whose columns lie
    in col_allowed, by a row-by-row backtracking search.

    Row k ranges over row_options (masks over the second factor).  The
    state packs one field per column j, w = |col_allowed| + 1 bits wide:
    its low w - 1 bits mark the allowed columns that agree with column j on
    the rows placed so far, and its top bit is a guard, kept out of the
    state.  sel[k][r] marks, in field j, the allowed columns whose bit k
    equals bit j of r, so placing r as row k is one AND, and a branch lives
    while no field is empty: subtracting 1 from each guarded field clears
    a guard exactly where the field was empty, and no borrow crosses a
    field.  A branch stops at the first row that empties some field, as it
    would once some column prefix extends no allowed column, so the tree,
    its node count and its leaf order are those of a search on the column
    prefixes.  After the last row each field marks the allowed columns
    equal to its column, so the leaves are exactly the wanted masks.  Every
    row placed (each node of the search tree) counts against node_cap and
    every leaf, placed in its parent's loop, against family_cap.
    """
    cols = tuple(dict.fromkeys(col_allowed))
    width = len(cols) + 1
    low = sum(1 << (j * width) for j in range(n2))
    guard = low << (width - 1)
    every = (1 << (width - 1)) - 1
    # sel[k]: (row r shifted into place, sel[k][r]) for each option r
    sel = []
    for k in range(n1):
        ones = sum(1 << t for t, c in enumerate(cols) if c >> k & 1)
        zeros = every ^ ones
        sel.append(
            [
                (
                    r << (k * n2),
                    sum(
                        (ones if r >> j & 1 else zeros) << (j * width)
                        for j in range(n2)
                    ),
                )
                for r in row_options
            ]
        )
    last = n1 - 1
    keep: list[int] = []
    nodes = 0
    if not n1:  # the empty grid is the one leaf
        return [0]

    def rec(k: int, mask: int, state: int) -> None:
        nonlocal nodes
        for row, s in sel[k]:
            t = state & s
            if ((t | guard) - low) & guard != guard:
                continue
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            if k < last:
                rec(k + 1, mask | row, t)
            else:
                keep.append(mask | row)
                if len(keep) > budgets.family_cap:
                    raise BudgetExceeded("family_cap", budgets.family_cap)

    rec(0, 0, every * low)
    return keep


def materialize_top_product(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """Explicit top product: the section search with rows ranging over the
    second factor's family and columns over the first's.  Each row placed
    counts against node_cap and each set found against family_cap.  The
    rows are offered in lex order, so the sets come out in lex order."""
    l = _require_explicit(left, "materialize_top_product")
    r = _require_explicit(right, "materialize_top_product")
    grid = PairGrid(l.universe_size, r.universe_size)
    rows = lex_sorted(r.masks, grid.n2)
    keep = _section_search(rows, l.masks, grid.n1, grid.n2, budgets)
    space = _space_from_lex_masks(grid.size, keep, _pair_labels(l, r), budgets)
    return ProductInstance("top", l, r, space, grid)


def _star_generator_masks(
    l: ExplicitSpace, r: ExplicitSpace, budgets: Budgets
) -> list[int]:
    """The star generators as masks, in lex order: the section search on
    the coatoms-or-full options, rows offered in lex order, less the full
    mask."""
    n1, n2 = l.universe_size, r.universe_size
    # coatoms are proper, so no row option repeats and no leaf is found twice
    rows = lex_sorted((*r.coatom_masks(), (1 << n2) - 1), n2)
    cols = (*l.coatom_masks(), (1 << n1) - 1)
    full = (1 << n1 * n2) - 1
    return [m for m in _section_search(rows, cols, n1, n2, budgets) if m != full]


def star_generators(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> list[int]:
    """Masks of the proper subsets of the pair universe whose every row
    section is a coatom of the second factor or its whole universe, and
    every column section a coatom of the first factor or its whole
    universe, in canonical order: the section search on those options,
    less the full mask, sorted on cardinality from its lex order.  Each row
    placed counts against node_cap and each set found against family_cap."""
    l = _require_explicit(left, "star_generators")
    r = _require_explicit(right, "star_generators")
    return sorted(_star_generator_masks(l, r, budgets), key=int.bit_count)


def star_product(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """The intersection closure of the star generators and the whole
    universe, listed by the row walk of _generated_family, which buckets
    the generators by their row sections and needs them in no particular
    order.  Every row of a generator is a coatom or the whole universe of
    the second factor, so every row of an intersection is closed there: the
    rows range over the second factor's family, offered in lex order, so
    the sets come out in lex order.

    The factors must be coatomistic, otherwise the generators need not
    intersect down to the singletons and the result is not a closure space.
    """
    l = _require_explicit(left, "star_product")
    r = _require_explicit(right, "star_product")
    if not is_coatomistic(l) or not is_coatomistic(r):
        raise ContractViolation("star product requires coatomistic factors")
    grid = PairGrid(l.universe_size, r.universe_size)
    gens = _star_generator_masks(l, r, budgets)
    rows = lex_sorted(r.masks, grid.n2)
    masks = _generated_family(gens, rows, grid.n1, grid.n2, budgets)
    space = _space_from_lex_masks(grid.size, masks, _pair_labels(l, r), budgets)
    return ProductInstance("star", l, r, space, grid)


def _hyperplane_images(m1: SubspaceModel, m2: SubspaceModel) -> list[int]:
    """The pairs whose product vector x has w·x = 0, for every projective
    point w of the tensor model in order.

    Read w as a d1 x d2 matrix W: then w·(v1 ⊗ v2) = v1ᵀ W v2, the set
    _pair_perp reads row by row from the second factor's perp table.
    """
    d2 = m2.n
    return [
        _pair_perp(tuple(w[i : i + d2] for i in range(0, len(w), d2)), m1, m2)
        for w in projective_points(m1.q, m1.n * d2)
    ]


def down_product(
    m1: SubspaceModel, m2: SubspaceModel, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """The sigma_down images of the tensor-model subspaces: the flats of the
    matroid on the product vectors of the factor atom pairs.

    The image of a subspace S is the set of pairs whose product vector lies
    in S, which is a flat, and every flat F is the image of span(F).  The
    product vectors span the tensor model, so the matroid has rank
    n = d1·d2, at most 4 since every anisotropic factor has dimension at
    most 2.  Its hyperplanes are the images of the (q^n - 1)/(q - 1)
    hyperplanes w·x = 0 of the tensor model, which _pair_perp reads row by
    row from the second factor's perp table; _flats lists the rest from
    them, as build_projective_space does for the factors.  No subspace is
    enumerated.

    Distinct subspaces can share an image (every entangled line maps to the
    empty set, for one).  notes counts all subspaces of the tensor model,
    the distinct images and the difference (the collisions).
    """
    left, _ = build_projective_space(m1, budgets)
    right, _ = build_projective_space(m2, budgets)
    grid = PairGrid(left.universe_size, right.universe_size)
    tm = tensor_model(m1, m2)
    q, n = tm.q, tm.n
    if (q**n - 1) // (q - 1) > budgets.subspace_cap:
        raise BudgetExceeded("subspace_cap", budgets.subspace_cap)
    masks = _flats(_hyperplane_images(m1, m2), grid.size, n, budgets)
    total = count_subspaces(q, n)
    space = space_from_masks(grid.size, masks, _pair_labels(left, right), budgets)
    return ProductInstance(
        "down",
        left,
        right,
        space,
        grid,
        models=(m1, m2),
        notes={
            "subspaces": total,
            "distinct_images": len(masks),
            "collisions": total - len(masks),
        },
    )


# ---------------------------------------------------------------------------
# axiom checks


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    witnesses: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def check_p123(instance: ProductInstance) -> AxiomReport:
    """The three structural product axioms, on an explicit instance.

    P1: the universe is the full pair grid (true by construction; checked
        anyway so imported instances are covered).
    P2: every cross of closed factor sets is closed in the product.
    P3: a closed set lying inside one row (column) has its section closed in
        the matching factor.
    """
    left, right = instance.left, instance.right
    space = _require_explicit(instance.space, "check_p123")
    grid = instance.grid
    checks = []

    p1 = (
        space.universe_size == grid.size
        and grid.n1 == left.universe_size
        and grid.n2 == right.universe_size
    )
    checks.append(
        AxiomCheck(
            "P1",
            p1,
            ()
            if p1
            else (
                {
                    "universe": space.universe_size,
                    "expected": grid.size,
                },
            ),
        )
    )

    l = _require_explicit(left, "check_p123")
    r = _require_explicit(right, "check_p123")
    p2_witnesses = []
    for a1 in l.masks:
        for a2 in r.masks:
            cm = grid.cross_mask(a1, a2)
            if not space.contains_mask(cm):
                p2_witnesses.append(
                    {"a1": list(bit_members(a1)), "a2": list(bit_members(a2))}
                )
                if len(p2_witnesses) >= 3:
                    break
        if len(p2_witnesses) >= 3:
            break
    checks.append(AxiomCheck("P2", not p2_witnesses, tuple(p2_witnesses)))

    p3_witnesses = []
    for m in space.masks:
        if m == 0:
            continue
        # the lowest atom's row and column are the only ones m can lie in
        i1, i2 = grid.unindex((m & -m).bit_length() - 1)
        if m & ~grid.row_full_mask(i1) == 0:
            sec = grid.row_section(m, i1)
            if not r.contains_mask(sec):
                p3_witnesses.append(
                    {"set": list(bit_members(m)), "row": i1, "section": list(bit_members(sec))}
                )
        if m & ~grid.col_full_mask(i2) == 0:
            sec = grid.col_section(m, i2)
            if not l.contains_mask(sec):
                p3_witnesses.append(
                    {"set": list(bit_members(m)), "column": i2, "section": list(bit_members(sec))}
                )
    checks.append(AxiomCheck("P3", not p3_witnesses, tuple(p3_witnesses[:3])))
    return AxiomReport(tuple(checks))


def check_p4(
    instance: ProductInstance,
    left_generators: Sequence[AtomPermutation],
    right_generators: Sequence[AtomPermutation],
) -> AxiomReport:
    """Every pair (v1, v2) in <S1> x <S2>, the groups the two lists of factor
    symmetries generate, must induce a product automorphism.  Reports the
    failing pairs (up to three witnesses).

    The pairs whose map preserves the family are closed under composition,
    and the pairs (s, 1) and (1, t) for s in S1 and t in S2 generate
    <S1> x <S2>, so it is enough to test those: |S1| + |S2| scans.  The
    witnesses are the first failing pairs of that scan.  A full element list
    is also a generating set.
    """
    space = _require_explicit(instance.space, "check_p4")
    grid = instance.grid
    one1 = AtomPermutation.identity(grid.n1)
    one2 = AtomPermutation.identity(grid.n2)
    pairs = [(s, one2) for s in left_generators]
    pairs += [(one1, t) for t in right_generators]
    witnesses = []
    for v1, v2 in pairs:
        bad = first_unpreserved(grid.pair_image(v1, v2), space, space)
        if bad is not None:
            witnesses.append(
                {
                    "v1": list(v1.image),
                    "v2": list(v2.image),
                    "unpreserved": list(bit_members(bad)),
                }
            )
            if len(witnesses) == 3:
                break
    check = AxiomCheck("P4", not witnesses, tuple(witnesses))
    return AxiomReport((check,))


@dataclass(frozen=True)
class IntervalReport:
    """Position of a product family between sep and top."""

    contains_sep: bool
    inside_top: bool
    sep_strict: bool | None
    top_strict: bool | None
    sep_witness: tuple[int, ...] | None
    top_witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "contains_sep": self.contains_sep,
            "inside_top": self.inside_top,
            "sep_strict": self.sep_strict,
            "top_strict": self.top_strict,
            "sep_witness": list(self.sep_witness) if self.sep_witness else None,
            "top_witness": list(self.top_witness) if self.top_witness else None,
        }


def interval_check(
    instance: ProductInstance, budgets: Budgets = DEFAULT_BUDGETS
) -> IntervalReport:
    """Certify sep <= instance <= top, with strictness witnesses.

    The witnesses are canonical-first members of the differences: a member of
    the instance outside sep, and a section-closed set outside the instance.
    """
    sep_space = sep_product(instance.left, instance.right, budgets).space
    space = instance.space
    contains_sep = all(space.contains_mask(m) for m in sep_space.masks)
    if not space.is_explicit:
        return IntervalReport(contains_sep, True, None, None, None, None)

    top = materialize_top_product(instance.left, instance.right, budgets).space
    inside_top = all(top.contains_mask(m) for m in space.masks)
    sep_witness = next((m for m in space.masks if not sep_space.contains_mask(m)), None)
    top_witness = next((m for m in top.masks if not space.contains_mask(m)), None)
    return IntervalReport(
        contains_sep,
        inside_top,
        sep_witness is not None,
        top_witness is not None,
        None if sep_witness is None else bit_members(sep_witness),
        None if top_witness is None else bit_members(top_witness),
    )
