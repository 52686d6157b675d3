"""Simple closure spaces over a finite atom universe.

A family of subsets of {0..n-1} is a simple closure space when it is closed
under arbitrary intersections and contains the empty set, the full universe,
and every singleton.  Such a family, ordered by inclusion, is a complete
atomistic lattice: meet is intersection, join is the closure of the union,
and the atoms are the singletons.

Sets are masks (see atomset), in arguments and results alike.  Every
space answers contains_mask and closure_mask, so meet is a & b and join
is closure_mask(a | b); an explicit space also lists upper_cover_masks
and coatom_masks.  AtomSet appears only at the ExplicitSpace(family) door
and in the family view.  validate_simple_closure_space(universe_size,
masks) checks the axioms on the closure kernel; of the ways in, only
space_from_json runs it (see ExplicitSpace).

Two backends share one interface:

* ExplicitSpace holds the sorted family (canonical order: cardinality, then
  lexicographic member list) and supports every operation.
* ImplicitSpace holds a membership predicate and a closure procedure; it
  has no family, and asking for one raises UnsupportedRepresentation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .atomset import AtomSet, bit_members, canonical_sorted, json_int, members_mask
from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import (
    BudgetExceeded,
    ContractViolation,
    InputError,
    UniverseMismatch,
    UnsupportedRepresentation,
)

# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    """One failed axiom clause, with the sets that witness it."""

    kind: str
    sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    universe_size: int
    violations: tuple[Violation, ...]


def validate_simple_closure_space(universe_size: int, masks: Iterable[int]) -> ValidationReport:
    """Check the defining axioms clause by clause.  valid is exact, and one
    missing intersection is named (see _validation_report).  An empty family
    or a mask outside the universe is an input error, not a verdict."""
    masks = list(masks)
    if not masks or universe_size < 0 or any(m < 0 or m >> universe_size for m in masks):
        raise InputError(f"expected a nonempty family of masks on {universe_size} atoms")
    return _validation_report(space_from_masks(universe_size, masks), masks)


def _validation_report(sp: ExplicitSpace, masks: list[int]) -> ValidationReport:
    """The report on the masks, repeats allowed, that built sp.

    A family holding the empty set is closed under intersection iff, for
    every member m and atom p outside m, the first member c above m ∪ {p}
    lies inside all the others (Ganter & Wille 1999).  On the kernel that
    is idx = E(m) & extent[p] == E(c), E being extent_of; E(c) lies inside
    idx, so comparing bit counts suffices, and only the counts are kept,
    not |F|² bits.  At the first failure, d, the first member in idx
    outside E(c), gives the witness c ∩ d: it holds m ∪ {p} and is smaller
    than c, so it is no member.
    """
    n, has = sp.universe_size, sp.contains_mask
    violations = [
        Violation("duplicate", (bit_members(m),)) for m, k in Counter(masks).items() if k > 1
    ]
    if not has(0):
        violations.append(Violation("missing_empty", ()))
    if not has(sp.full_mask()):
        violations.append(Violation("missing_universe", ()))
    members, extent, extent_of = sp.masks, sp.atom_extents(), sp.extent_of
    singletons = {m.bit_length() - 1 for m in members if m.bit_count() == 1}
    violations += [Violation("missing_singleton", ((i,),)) for i in range(n) if i not in singletons]
    sizes = [extent_of(m).bit_count() for m in members]
    for m in members:
        e = extent_of(m)
        for p in bit_members(sp.full_mask() & ~m):
            idx = e & extent[p]
            c = (idx & -idx).bit_length() - 1
            if idx and idx.bit_count() != sizes[c]:
                rest = idx & ~extent_of(members[c])
                a, b = members[c], members[(rest & -rest).bit_length() - 1]
                triple = (bit_members(a), bit_members(b), bit_members(a & b))
                violations.append(Violation("intersection_missing", triple))
                return ValidationReport(False, n, tuple(violations))
    return ValidationReport(not violations, n, tuple(violations))


# ---------------------------------------------------------------------------
# spaces


# _DIGITS[k] maps a byte to b"1" when its bit k is set and to b"0" otherwise
_DIGITS = tuple(bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8))


def _transpose(masks: tuple[int, ...], universe_size: int) -> tuple[int, ...]:
    """For every atom p, the bitset over indices i of the masks holding p.

    The masks, last first, are joined as width-byte little-endian records,
    so atom p's byte in each record is every width-th byte from p >> 3: the
    slice, with each byte turned into the digit of its bit p & 7, is p's
    column as a binary numeral whose first digit is the last mask's.
    """
    if not masks:
        return (0,) * universe_size
    width = (universe_size + 7) // 8
    blob = b"".join(m.to_bytes(width, "little") for m in reversed(masks))
    return tuple(
        int(blob[p >> 3 :: width].translate(_DIGITS[p & 7]), 2) for p in range(universe_size)
    )


class ClosureSpace:
    """Interface shared by both backends."""

    universe_size: int
    atom_labels: tuple[str, ...] | None

    @property
    def is_explicit(self) -> bool:
        raise NotImplementedError

    @property
    def family(self) -> tuple[AtomSet, ...]:
        raise NotImplementedError

    def contains_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def closure_mask(self, mask: int) -> int:
        raise NotImplementedError

    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def label(self, atom: int) -> str:
        if self.atom_labels is not None:
            return self.atom_labels[atom]
        return str(atom)


class ExplicitSpace(ClosureSpace):
    """Closure space given by its full family of closed sets.

    Two public doors lead to one construction body, which takes the masks
    distinct and in canonical order and applies family_cap.  Each door
    deduplicates and sorts with canonical_sorted on the way in:
    ExplicitSpace(family) takes AtomSets and rejects an empty family or
    mixed universes, and space_from_masks takes the masks a builder holds,
    a family closed by construction.  top and star, whose searches list
    their sets in lex order, come in by _space_from_lex_masks, which only
    sorts on cardinality.  Closure reads the first closed superset in
    canonical order, and the cover relation and the coatoms are built on
    it, so all three assume the family is closed under intersection.
    Neither door checks that: validate_simple_closure_space takes about
    19 ms on a down(gf5_2,gf5_2) family and 4 ms on a sep(mo2,mo3) one
    (Python 3.11, 2 vCPUs), so checking the two of the first and one of the
    second that a deciders-l1 benchmark pass builds would cost about as much
    as the whole pass, about 0.03 s.  The AtomSet view (family) is built on
    request.
    """

    def __init__(
        self,
        family: Iterable[AtomSet],
        atom_labels: Iterable[str] | None = None,
        budgets: Budgets = DEFAULT_BUDGETS,
    ):
        sets = list(family)
        sizes = {s.universe_size for s in sets}
        if len(sizes) != 1:
            raise UniverseMismatch(f"expected one universe size, got {sorted(sizes)}")
        n = sizes.pop()
        self._set_masks(n, canonical_sorted({s.mask for s in sets}, n), atom_labels, budgets)

    def _set_masks(self, n: int, ordered: list[int], atom_labels, budgets) -> None:
        """The construction body behind every door: ordered lists distinct
        masks in canonical order."""
        if len(ordered) > budgets.family_cap:
            raise BudgetExceeded("family_cap", budgets.family_cap)
        self.universe_size = n
        self.atom_labels = tuple(atom_labels) if atom_labels is not None else None
        if self.atom_labels is not None and len(self.atom_labels) != n:
            raise InputError("atom_labels length does not match universe size")
        self._masks = tuple(ordered)
        self._mask_set = frozenset(self._masks)
        self._family = None  # the family view, built on request
        self._coatom_masks: tuple[int, ...] | None = None
        # closure kernel, built on first use (see closure_mask)
        self._extent: tuple[int, ...] | None = None
        self._upper_covers: dict[int, tuple[int, ...]] = {}

    @property
    def is_explicit(self) -> bool:
        return True

    @property
    def family(self) -> tuple[AtomSet, ...]:
        if self._family is None:
            self._family = tuple(AtomSet(self.universe_size, m) for m in self._masks)
        return self._family

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks

    def contains_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    def closure_mask(self, mask: int) -> int:
        """Smallest closed superset of mask (the universe if there is none).

        Works on the transposed context: extent[p] is a bitset over family
        indices marking the closed sets that contain atom p, so extent_of
        marks the closed supersets of mask.  In a family closed under
        intersection their intersection is one of them, the smallest, and
        canonical order (cardinality first) puts it first: the closure is
        the member at the lowest set bit.  In a family that is not closed
        under intersection this lookup answers wrongly, as the cover relation
        does.  The index is built on the first call that needs it, so spaces
        that are only constructed never pay for it.
        """
        if mask in self._mask_set:
            return mask
        idx = self.extent_of(mask)
        if not idx:
            return self.full_mask()
        return self._masks[(idx & -idx).bit_length() - 1]

    def extent_of(self, mask: int) -> int:
        """Bitset over family indices of the closed supersets of mask: the
        AND of extent[p] over the atoms p of mask, every index for the empty
        mask."""
        extent = self._extent or self.atom_extents()
        atoms = bit_members(mask)
        if not atoms:
            return (1 << len(self._masks)) - 1
        idx = extent[atoms[0]]
        for p in atoms[1:]:
            idx &= extent[p]
        return idx

    def atom_extents(self) -> tuple[int, ...]:
        """extent[p] for every atom p: the closure kernel's index, built once."""
        if self._extent is None:
            self._extent = _transpose(self._masks, self.universe_size)
        return self._extent

    def upper_cover_masks(self, lo: int) -> tuple[int, ...]:
        """Upper covers of lo in canonical order, memoised per lo.

        Every closed set strictly above lo contains cl(lo ∪ {p}) for some
        atom p outside lo, so the upper covers are the minimal sets among
        those closures.  cl(lo ∪ {p}) is the first member of the up-set
        E = extent_of(lo) that holds p, and two ways list the family indices
        of these candidates, ascending: a walk over E (_walk_candidates),
        and one lookup per atom (_lookup_candidates).  The walk may read all
        of E, so it is taken unless E holds more than twice as many members
        as there are atoms outside lo.  Timed on covering (Python 3.11.7),
        the walk alone was 7.7 and 4.3 times slower on top(mo3,mo3) and
        star(mo3,mo3) and 1.3 times on top(mo2,mo3); factors from 1.5 to 3
        were within 2% of the best on every L0–L2 space, 1 lost up to 21%
        and 4 lost 2.8 times on star(mo3,mo3).  len(masks) stands for the
        universe when a candidate has no closed superset.  A smaller
        candidate comes first, so a candidate is minimal iff it contains no
        cover found before it.  lo ⋖ hi iff hi is in the result.  For a
        closed hi above lo that does not cover it, the first cover inside hi
        is the first closed set strictly between the two (see _cover_inside).

        This assumes the family is closed under intersection, as closure
        does; every product and space_from_json guarantee that.  Two distinct
        upper covers of lo then meet in lo, and a pair that does not raises
        ContractViolation.
        """
        ups = self._upper_covers.get(lo)
        if ups is None:
            masks, full, size = self._masks, self.full_mask(), len(self._masks)
            above = self.extent_of(lo)
            if above.bit_count() > 2 * (self.universe_size - lo.bit_count()):
                candidates = self._lookup_candidates(lo, above)
            else:
                candidates = self._walk_candidates(lo, above)
            covers: list[int] = []
            reached = lo  # union of the covers found so far
            for i in candidates:
                c = masks[i] if i < size else full
                if c & reached == lo:
                    covers.append(c)
                    reached |= c
                elif all(d & ~c for d in covers):
                    raise ContractViolation("the family is not closed under intersection")
            ups = tuple(covers)
            self._upper_covers[lo] = ups
        return ups

    def _walk_candidates(self, lo: int, above: int) -> list[int]:
        """The indices of the members of the up-set above, walked in
        canonical order, that hold an atom no member walked before them holds
        (lo itself holds none), then len(masks) if some atom is in none.

        The walk stops once the members walked hold every atom.  Where
        covering holds at lo, as in a geometric lattice, the covers of lo
        split the atoms outside it into blocks (Oxley 2011, §1.4), and no
        member before a cover holds one of its atoms, so the walk stops at
        the last cover."""
        masks, full = self._masks, self.full_mask()
        found, seen = [], lo  # seen: the atoms of lo and of every member walked
        while above and seen != full:
            low = above & -above
            above ^= low
            i = low.bit_length() - 1
            m = masks[i]
            if m & ~seen:
                found.append(i)
                seen |= m
        if seen != full:
            found.append(len(masks))
        return found

    def _lookup_candidates(self, lo: int, above: int) -> list[int]:
        """For each atom p outside lo, the lowest index in above & extent[p]
        (len(masks) if there is none), each index once, ascending."""
        extent, size = self._extent, len(self._masks)
        return sorted({
            (idx & -idx).bit_length() - 1 if (idx := above & extent[p]) else size
            for p in range(self.universe_size)
            if not lo >> p & 1
        })

    def coatom_masks(self) -> tuple[int, ...]:
        """Maximal proper closed sets in canonical order, cached.

        Read off the closure kernel: extent_of(m) marks the closed supersets
        of m, so a proper member m is a coatom iff they are m itself and the
        universe.  extent_of(full) marks the universe, or nothing in a
        family without it, where the coatoms found are the maximal members.
        """
        if self._coatom_masks is None:
            full = self.full_mask()
            top = self.extent_of(full)
            self._coatom_masks = tuple(
                m
                for i, m in enumerate(self._masks)
                if m != full and self.extent_of(m) & ~top == 1 << i
            )
        return self._coatom_masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitSpace):
            return NotImplemented
        return (
            self.universe_size == other.universe_size and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self._masks))

    def __repr__(self) -> str:
        return f"ExplicitSpace(n={self.universe_size}, |family|={len(self._masks)})"


class ImplicitSpace(ClosureSpace):
    """Closure space given by a membership predicate and closure procedure."""

    def __init__(
        self,
        universe_size: int,
        membership: Callable[[int], bool],
        closure: Callable[[int], int],
        atom_labels: Iterable[str] | None = None,
        description: str = "",
    ):
        self.universe_size = universe_size
        self.atom_labels = tuple(atom_labels) if atom_labels is not None else None
        self._membership = membership
        self._closure = closure
        self.description = description

    @property
    def is_explicit(self) -> bool:
        return False

    @property
    def family(self) -> tuple[AtomSet, ...]:
        raise UnsupportedRepresentation(
            "implicit space has no materialized family"
        )

    def contains_mask(self, mask: int) -> bool:
        return self._membership(mask)

    def closure_mask(self, mask: int) -> int:
        return self._closure(mask)

    def __repr__(self) -> str:
        tag = f" {self.description}" if self.description else ""
        return f"ImplicitSpace(n={self.universe_size}{tag})"


def space_from_masks(
    universe_size: int,
    masks: Iterable[int],
    atom_labels: Iterable[str] | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExplicitSpace:
    """Explicit space on the given masks: the door the product builders use.

    It runs the same construction body as ExplicitSpace(family), with no
    AtomSet built on the way in.  The masks must lie in the universe and,
    as for every explicit space, be closed under intersection; neither is
    checked, since the builders' families are closed by construction.
    """
    sp = ExplicitSpace.__new__(ExplicitSpace)
    sp._set_masks(universe_size, canonical_sorted(set(masks), universe_size), atom_labels, budgets)
    return sp


def _space_from_lex_masks(
    universe_size: int,
    masks: list[int],
    atom_labels: Iterable[str] | None,
    budgets: Budgets,
) -> ExplicitSpace:
    """Explicit space on distinct masks listed in lex order (see
    atomset.lex_sorted): the entrance for the builders whose searches list
    their sets that way.  Canonical order is then one stable sort on
    cardinality; no per-mask key is computed.
    """
    sp = ExplicitSpace.__new__(ExplicitSpace)
    sp._set_masks(universe_size, sorted(masks, key=int.bit_count), atom_labels, budgets)
    return sp


def powerset_space(universe_size: int, budgets: Budgets = DEFAULT_BUDGETS) -> ExplicitSpace:
    """The Boolean lattice of all subsets of the universe.  Its 2**n sets are
    checked against family_cap before any is listed: 2**n > family_cap iff
    n >= family_cap.bit_length(), which builds no n-bit int."""
    if universe_size < 1:
        raise InputError("universe must have at least one atom")
    if universe_size >= budgets.family_cap.bit_length():
        raise BudgetExceeded("family_cap", budgets.family_cap)
    return space_from_masks(universe_size, range(1 << universe_size), budgets=budgets)


def _require_explicit(space: ClosureSpace, op: str) -> ExplicitSpace:
    if not isinstance(space, ExplicitSpace):
        raise UnsupportedRepresentation(f"{op} requires an explicit family")
    return space


def _cover_inside(sp: ExplicitSpace, lo: int, hi: int) -> int:
    """First upper cover of lo inside hi, for a closed hi strictly above lo
    that does not cover it.  The first closed set strictly between lo and hi
    in canonical order has the fewest atoms of any, so nothing closed lies
    strictly between it and lo: it is this cover.  No cover lies inside hi
    only when the family is not closed under intersection."""
    for c in sp.upper_cover_masks(lo):
        if not c & ~hi:
            return c
    raise ContractViolation("the family is not closed under intersection")


# ---------------------------------------------------------------------------
# structural predicates


@dataclass(frozen=True)
class CoveringViolation:
    """Witness that join(a, p) fails to cover a: c sits strictly between."""

    a: tuple[int, ...]
    atom: int
    joined: tuple[int, ...]
    between: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "atom": self.atom,
            "join": list(self.joined),
            "between": list(self.between),
        }


def find_covering_violation(space: ClosureSpace) -> CoveringViolation | None:
    """First (canonical order) failure of the covering property, if any.

    Covering property: for every closed a and atom p outside a, the join
    a ∨ p covers a.  Two upper covers of a meet in a, and an atom p inside
    an upper cover u has a ∨ p = u, so the property holds at a iff the upper
    covers of a together hold every atom; the first atom they miss is the
    first violation.  The set named between is the first upper cover of a
    inside a ∨ p, which is the first closed set strictly between the two in
    canonical order.  Like the cover relation, this assumes the family is
    closed under intersection.
    """
    sp = _require_explicit(space, "covering property")
    full = sp.full_mask()
    for lo in sp.masks:
        covered = lo
        for hi in sp.upper_cover_masks(lo):
            covered |= hi
        missing = full & ~covered
        if missing:
            p = (missing & -missing).bit_length() - 1
            hi = sp.closure_mask(lo | 1 << p)
            between = _cover_inside(sp, lo, hi)
            return CoveringViolation(
                bit_members(lo), p, bit_members(hi), bit_members(between)
            )
    return None


def is_atomistic(space: ClosureSpace) -> bool:
    """Every closed set is the join of the atoms below it.

    Always True for an explicit space: each member is a set of atoms and,
    being one of the closed sets it is intersected over, its own closure.
    Kept so reports and `qll check --property dac` can name the property.
    """
    _require_explicit(space, "is_atomistic")
    return True


def is_coatomistic(space: ClosureSpace) -> bool:
    """Every closed set is an intersection of coatoms (the universe being the
    empty intersection).

    The coatoms and the universe are not closed under intersection, so the
    closure kernel's first-superset lookup cannot answer this; the test keeps
    its own coatom index.  cext[q] is a bitset over coatom indices marking
    the coatoms that contain atom q, so the AND of cext[p] over the atoms of
    m marks the coatoms above m.  They are met one at a time until their
    meet is m; a member other than the universe that is never reached is
    not an intersection of coatoms.
    """
    sp = _require_explicit(space, "is_coatomistic")
    cms, full = sp.coatom_masks(), sp.full_mask()
    cext = _transpose(cms, sp.universe_size)
    for m in sp.masks:
        idx, meet = (1 << len(cms)) - 1, full
        for p in bit_members(m):
            idx &= cext[p]
        while meet != m and idx:
            low = idx & -idx
            meet &= cms[low.bit_length() - 1]
            idx ^= low
        if meet != m:
            return False
    return True


@dataclass(frozen=True)
class DualCoveringViolation:
    """Witness that the order dual fails covering: coatom x with
    join(a, x) = universe, yet a ∩ x is not a lower cover of a."""

    a: tuple[int, ...]
    coatom: tuple[int, ...]
    met: tuple[int, ...]
    between: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "coatom": list(self.coatom),
            "meet": list(self.met),
            "between": list(self.between),
        }


def find_dual_covering_violation(space: ClosureSpace) -> DualCoveringViolation | None:
    """Covering property of the order dual, computed on the reversed order.

    Dual atoms are the coatoms, dual join is intersection, dual bottom is the
    universe.  The dual covering property therefore reads: for every closed a
    and coatom x with a ∨ x = universe, a ∩ x is covered by a (in the primal
    order, nothing sits strictly between a ∩ x and a).

    The only closed sets containing a coatom x are x and the universe, so
    a ∨ x = universe iff a ⊄ x.  a covers a ∩ x iff it is among the upper
    covers of a ∩ x; if not, the set named between is the first of those
    covers inside a, the first closed set strictly between in canonical
    order.  Like the cover relation, this assumes the family is closed under
    intersection; an a ∩ x outside the family raises ContractViolation.
    """
    sp = _require_explicit(space, "dual covering property")
    for a in sp.masks:
        for x in sp.coatom_masks():
            if a & ~x == 0:
                continue
            lo = a & x
            if lo not in sp._mask_set:
                raise ContractViolation("the family is not closed under intersection")
            if a not in sp.upper_cover_masks(lo):
                return DualCoveringViolation(
                    bit_members(a),
                    bit_members(x),
                    bit_members(lo),
                    bit_members(_cover_inside(sp, lo, a)),
                )
    return None


def _dac_checks(space: ClosureSpace) -> tuple:
    """Atomistic, coatomistic, the covering and dual covering violations
    (None when the property holds) and dac, the conjunction of the four."""
    atomistic, coatomistic = is_atomistic(space), is_coatomistic(space)
    cov, dual = find_covering_violation(space), find_dual_covering_violation(space)
    dac = atomistic and coatomistic and cov is None and dual is None
    return atomistic, coatomistic, cov, dual, dac


# ---------------------------------------------------------------------------
# JSON


def space_to_json(space: ClosureSpace) -> dict:
    sp = _require_explicit(space, "space_to_json")
    out: dict = {
        "universe": sp.universe_size,
        "closed_sets": [list(bit_members(m)) for m in sp.masks],
    }
    if sp.atom_labels is not None:
        out["atom_labels"] = list(sp.atom_labels)
    return out


def space_from_json(data: dict, budgets: Budgets = DEFAULT_BUDGETS) -> ExplicitSpace:
    """Parse and validate a closure space; invalid families are input errors."""
    try:
        n = data["universe"]
        closed = list(data["closed_sets"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed closure-space JSON: {exc}") from exc
    if json_int(n, "universe") < 0:
        raise InputError(f"universe must be nonnegative, got {n}")
    labels = data.get("atom_labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise InputError(f"atom_labels must be a list of strings, got {labels!r}")
    masks = [members_mask(n, entry) for entry in closed]
    if len(masks) < n + 1:  # checked before any per-atom work
        raise InputError(f"{len(masks)} closed_sets cannot hold the empty set and {n} singletons")
    sp = space_from_masks(n, masks, labels, budgets)
    report = _validation_report(sp, masks)
    if not report.valid:
        raise InputError(
            "closed_sets do not form a simple closure space: "
            + "; ".join(f"{v.kind} {[list(s) for s in v.sets]}" for v in report.violations[:5])
        )
    return sp
