"""Weak tensor products of two simple closure spaces.

Product atoms are pairs (p1, p2) of factor atoms, flattened to the index
p1 * n2 + p2 (rows are contiguous bit slices of the mask, columns are
strided).  Four constructions on that shared universe:

* sep:  every intersection of crosses a1 x S2 ∪ S1 x a2 (closed a_i).
  This is the smallest product family.
* top:  all sets whose sections are closed in the matching factor (the
  largest family).  Kept implicit: membership checks sections, closure
  alternates row-wise and column-wise factor closures to a fixpoint.
  Materialization is a row-by-row search over the second factor's family
  that prunes on the column prefixes placed so far.
* down: images of tensor-model subspaces under sigma_down (the pairs whose
  product vector lies in the subspace), for factors given as finite-field
  models.  sigma_down preserves intersections and every subspace is an
  intersection of hyperplanes, so the images of the hyperplanes generate
  the family.
* star: intersections of the generator sets whose rows are coatoms-or-full
  in the second factor and columns coatoms-or-full in the first.

sep, star and down are the intersection closures of their generators,
built one generator at a time by _close_under_intersections.

All four contain the crosses and have closed sections, so sep <= X <= top
as families; interval_check certifies those inclusions and exhibits
witnesses when they are strict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .atomset import AtomSet, bit_members, canonical_mask_key
from .automorphisms import AtomPermutation, first_unpreserved
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import (
    ClosureSpace,
    ExplicitSpace,
    ImplicitSpace,
    _require_explicit,
    is_coatomistic,
    validate_simple_closure_space,
)
from .errors import BudgetExceeded, ContractViolation, InputError

if TYPE_CHECKING:
    from .geometry import SubspaceModel


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


def sections(
    r: AtomSet, p: tuple[int, int], n1: int, n2: int
) -> tuple[AtomSet, AtomSet]:
    """The two sections of r through the pair p = (p1, p2): first the set of
    first coordinates {s : (s, p2) in r}, then {t : (p1, t) in r}."""
    if r.universe_size != n1 * n2:
        raise InputError("set does not live in the pair universe")
    p1, p2 = p
    if not (0 <= p1 < n1 and 0 <= p2 < n2):
        raise InputError(f"pair {p} outside {n1} x {n2}")
    grid = PairGrid(n1, n2)
    return (
        AtomSet(n1, grid.col_section(r.mask, p2)),
        AtomSet(n2, grid.row_section(r.mask, p1)),
    )


@dataclass
class ProductInstance:
    """A product construction together with its factors and pairing."""

    kind: str
    left: ClosureSpace
    right: ClosureSpace
    space: ClosureSpace
    grid: PairGrid
    models: "tuple[SubspaceModel, SubspaceModel] | None" = None
    notes: dict = field(default_factory=dict)

    @property
    def pairing(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            self.grid.unindex(k) for k in range(self.grid.size)
        )

    def sections(self, r: AtomSet, p: tuple[int, int]) -> tuple[AtomSet, AtomSet]:
        return sections(r, p, self.grid.n1, self.grid.n2)

    def to_json(self) -> dict:
        from .closure import space_to_json

        out: dict = {
            "product": self.kind,
            "left": space_to_json(_require_explicit(self.left, "to_json")),
            "right": space_to_json(_require_explicit(self.right, "to_json")),
            "pairing": [list(p) for p in self.pairing],
        }
        if self.space.is_explicit:
            out["family"] = [list(s.members) for s in self.space.family]
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
) -> list[int]:
    """Smallest intersection-closed family holding gens and full, in
    canonical order.

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
    return sorted(family, key=canonical_mask_key)


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
    space = ExplicitSpace(
        (AtomSet(grid.size, m) for m in masks),
        atom_labels=_pair_labels(l, r),
        budgets=budgets,
    )
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


def materialize_top_product(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """Explicit top product via a row-by-row backtracking search.

    Row i1 ranges over the second factor's family.  Once k rows are placed,
    each column holds the first k bits of its section, and that prefix must
    agree with some closed set of the first factor on those k atoms; a
    branch stops at the first row that breaks this for some column.  After
    the last row the prefixes are whole sections, so the leaves are exactly
    the section-closed sets.  Every row placed (each node of the search
    tree) counts against node_cap.
    """
    l = _require_explicit(left, "materialize_top_product")
    r = _require_explicit(right, "materialize_top_product")
    n1, n2 = l.universe_size, r.universe_size
    grid = PairGrid(n1, n2)
    # prefixes[k]: the closed sets of the first factor cut to atoms 0..k-1
    prefixes = [{c & ((1 << k) - 1) for c in l.masks} for k in range(n1 + 1)]
    keep: list[int] = []
    nodes = 0

    def rec(k: int, mask: int, cols: tuple[int, ...]) -> None:
        nonlocal nodes
        if k == n1:
            keep.append(mask)
            if len(keep) > budgets.family_cap:
                raise BudgetExceeded("family_cap", budgets.family_cap)
            return
        ok, bit = prefixes[k + 1], 1 << k
        # columns whose prefix extends only with a 1 (need) or only with a 0
        # (forbid) at row k; every valid prefix extends one way or the other
        need = forbid = 0
        for j, c in enumerate(cols):
            if c not in ok:
                need |= 1 << j
            elif c | bit not in ok:
                forbid |= 1 << j
        for row in r.masks:
            if row & forbid or need & ~row:
                continue
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            rec(
                k + 1,
                mask | row << (k * n2),
                tuple(c | bit if row >> j & 1 else c for j, c in enumerate(cols)),
            )

    rec(0, 0, (0,) * n2)
    space = ExplicitSpace(
        (AtomSet(grid.size, m) for m in keep),
        atom_labels=_pair_labels(l, r),
        budgets=budgets,
    )
    return ProductInstance("top", l, r, space, grid)


def star_generators(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> list[AtomSet]:
    """Proper subsets of the pair universe whose every row section is a
    coatom of the second factor or its whole universe, and every column
    section a coatom of the first factor or its whole universe."""
    l = _require_explicit(left, "star_generators")
    r = _require_explicit(right, "star_generators")
    n1, n2 = l.universe_size, r.universe_size
    grid = PairGrid(n1, n2)
    row_options = sorted(
        set(r.coatom_masks()) | {(1 << n2) - 1}, key=canonical_mask_key
    )
    col_allowed = sorted(
        set(l.coatom_masks()) | {(1 << n1) - 1}, key=canonical_mask_key
    )
    full = (1 << grid.size) - 1
    out: list[int] = []
    nodes = 0

    rows: list[int] = []

    def feasible_columns(depth: int) -> bool:
        # a partial column can still reach an allowed value v iff the bits
        # already placed sit inside v and the missing bits of v lie in rows
        # not yet assigned
        remaining = ((1 << n1) - 1) >> depth << depth
        for j in range(n2):
            partial = 0
            for i in range(depth):
                partial |= ((rows[i] >> j) & 1) << i
            if not any(
                partial & ~v == 0 and v & ~(partial | remaining) == 0
                for v in col_allowed
            ):
                return False
        return True

    def rec(depth: int) -> None:
        nonlocal nodes
        if depth == n1:
            mask = grid.from_rows(rows)
            if mask != full and all(
                grid.col_section(mask, j) in col_allowed for j in range(n2)
            ):
                out.append(mask)
            return
        for opt in row_options:
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            rows.append(opt)
            if feasible_columns(depth + 1):
                rec(depth + 1)
            rows.pop()

    rec(0)
    out.sort(key=canonical_mask_key)
    return [AtomSet(grid.size, m) for m in out]


def star_product(
    left: ClosureSpace, right: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """The intersection closure of the star generators and the whole
    universe.

    The factors must be coatomistic, otherwise the generators need not
    intersect down to the singletons and the result is not a closure space.
    """
    l = _require_explicit(left, "star_product")
    r = _require_explicit(right, "star_product")
    if not is_coatomistic(l) or not is_coatomistic(r):
        raise ContractViolation("star product requires coatomistic factors")
    grid = PairGrid(l.universe_size, r.universe_size)
    gens = {g.mask for g in star_generators(l, r, budgets)}
    masks = _close_under_intersections(gens, (1 << grid.size) - 1, budgets)
    space = ExplicitSpace(
        (AtomSet(grid.size, m) for m in masks),
        atom_labels=_pair_labels(l, r),
        budgets=budgets,
    )
    return ProductInstance("star", l, r, space, grid)


def down_product(
    m1: "SubspaceModel", m2: "SubspaceModel", budgets: Budgets = DEFAULT_BUDGETS
) -> ProductInstance:
    """The sigma_down images of the tensor-model subspaces, generated by the
    images of the hyperplanes.

    sigma_down(S ∩ T) = sigma_down(S) ∩ sigma_down(T), and every subspace is
    an intersection of hyperplanes, so the family is the intersection
    closure of the hyperplane images; no other subspace is enumerated.  The
    hyperplanes are the kernels w·x = 0 of the (q^N - 1)/(q - 1) projective
    points w, so the image of one is the set of pairs whose product vector
    x has w·x = 0.

    Distinct subspaces can share an image (every entangled line maps to the
    empty set, for one).  notes counts all subspaces of the tensor model,
    the distinct images and the difference (the collisions).
    """
    from .geometry import build_projective_space, tensor_model
    from .gf import count_subspaces, dot, kron_vec, projective_points

    left, _ = build_projective_space(m1, budgets)
    right, _ = build_projective_space(m2, budgets)
    grid = PairGrid(left.universe_size, right.universe_size)
    tm = tensor_model(m1, m2)
    q, n = tm.q, tm.n
    if (q**n - 1) // (q - 1) > budgets.subspace_cap:
        raise BudgetExceeded("subspace_cap", budgets.subspace_cap)
    # product vectors in pair order i1 * n2 + i2
    pair_vectors = [
        kron_vec(v1, v2, q) for v1 in m1.atom_table for v2 in m2.atom_table
    ]
    gens = [
        sum(1 << k for k, x in enumerate(pair_vectors) if dot(w, x, q) == 0)
        for w in projective_points(q, n)
    ]
    masks = _close_under_intersections(gens, (1 << grid.size) - 1, budgets)
    total = count_subspaces(q, n)
    space = ExplicitSpace(
        (AtomSet(grid.size, m) for m in masks),
        atom_labels=_pair_labels(left, right),
        budgets=budgets,
    )
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
    for s in space.family:
        m = s.mask
        if m == 0:
            continue
        first_coords = {grid.unindex(k)[0] for k in bit_members(m)}
        if len(first_coords) == 1:
            (i1,) = first_coords
            sec = grid.row_section(m, i1)
            if not r.contains_mask(sec):
                p3_witnesses.append(
                    {"set": list(s.members), "row": i1, "section": list(bit_members(sec))}
                )
        second_coords = {grid.unindex(k)[1] for k in bit_members(m)}
        if len(second_coords) == 1:
            (i2,) = second_coords
            sec = grid.col_section(m, i2)
            if not l.contains_mask(sec):
                p3_witnesses.append(
                    {"set": list(s.members), "column": i2, "section": list(bit_members(sec))}
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
    sepi = sep_product(instance.left, instance.right, budgets)
    sep_space = sepi.space
    space = instance.space

    contains_sep = all(space.contains_mask(m) for m in sep_space.masks)

    topi = top_product(instance.left, instance.right)
    inside_top = True
    sep_strict: bool | None = None
    sep_witness = None
    top_strict: bool | None = None
    top_witness = None

    if space.is_explicit:
        for m in space.masks:
            if not topi.space.contains_mask(m):
                inside_top = False
                break
        sep_strict = False
        for m in space.masks:
            if not sep_space.contains_mask(m):
                sep_strict = True
                sep_witness = bit_members(m)
                break
        top_explicit = materialize_top_product(instance.left, instance.right, budgets)
        top_strict = False
        for m in top_explicit.space.masks:
            if not space.contains_mask(m):
                top_strict = True
                top_witness = bit_members(m)
                break
    return IntervalReport(
        contains_sep, inside_top, sep_strict, top_strict, sep_witness, top_witness
    )


def validate_instance(instance: ProductInstance) -> None:
    """Constructed products must be simple closure spaces; raise if not."""
    space = instance.space
    if space.is_explicit:
        report = validate_simple_closure_space(space.family)
        if not report.valid:
            raise ContractViolation(
                f"{instance.kind} product family violates the closure axioms: "
                + "; ".join(v.kind for v in report.violations[:5])
            )
