"""Orthocomplementations on simple closure spaces.

An orthocomplementation is an order-reversing involution a -> a' with
a ∧ a' = 0 and a ∨ a' = 1.  On an atomistic lattice it is determined by its
restriction to atoms, which it maps bijectively onto the coatoms; OrthoMap
stores exactly that restriction (one coatom per atom) and derives the
complement of any closed set as the intersection of the images of its atoms.

The search for all orthocomplementations is a backtracking enumeration of
injective atom -> coatom assignments.  Two facts prune it:

* counting certificate: an orthocomplementation forces |atoms| = |coatoms|,
  so unequal counts prove there are none before any search;
* symmetry: q <= p' iff p <= q', so fixing p' splits every other atom's
  candidate list by whether it contains p.

Every atom's candidate list lives in one int, a bit field per atom, so
placing a coatom narrows all of them with one AND, and one subtraction
finds an emptied list (see find_orthocomplementations).

Every completed assignment φ is irreflexive (p ∉ φ(p)), symmetric
(q ∈ φ(p) iff p ∈ φ(q)) and, being injective with as many coatoms as atoms,
a bijection onto the coatoms.  On a family closed under intersection such a
φ is an orthocomplementation exactly when the space is coatomistic, so one
is_coatomistic call decides every leaf and no leaf is checked on its own:

* a' is an intersection of coatoms, so it is closed;
* a ∧ a' = 0, because x ∈ a ∩ a' would give x ∈ φ(x);
* q ∈ a' iff a ⊆ φ(q), by symmetry, so by surjectivity a'' is the
  intersection of all the coatoms containing a, and a'' = a for every
  closed a exactly when the space is coatomistic;
* a ⊆ b gives b' ⊆ a', so an involutive ' is a dual automorphism and
  a ∨ a' = (a' ∧ a)' = 0' = 1.

verify_orthocomplementation remains for maps from outside the search.  Each
map is checked once: thm9.1 and `qll check --property omod` scan the map
ortho_from_atom_orthogonality has checked, find_orthomodularity_violation
any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomset import bit_members, members_mask
from .budgets import DEFAULT_BUDGETS, Budgets
from .closure import ClosureSpace, ExplicitSpace, _require_explicit, _transpose, is_coatomistic
from .errors import BudgetExceeded, ContractViolation, InputError


@dataclass(frozen=True)
class OrthogonalityRelation:
    """Symmetric irreflexive relation on atoms; perp_masks[p] is the mask of
    atoms orthogonal to p."""

    universe_size: int
    perp_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.universe_size
        if len(self.perp_masks) != n:
            raise InputError("perp_masks length does not match universe size")
        for p, m in enumerate(self.perp_masks):
            if m >> p & 1:
                raise InputError(f"orthogonality is not irreflexive: {p} ⊥ {p}")
            if m < 0 or m >> n:
                raise InputError(f"perp mask of atom {p} leaves the universe")
        for p in range(n):
            for q in bit_members(self.perp_masks[p]):
                if not self.perp_masks[q] >> p & 1:
                    raise InputError(
                        f"orthogonality is not symmetric: {p} ⊥ {q} but not {q} ⊥ {p}"
                    )

    @classmethod
    def from_pairs(
        cls, universe_size: int, pairs: "list[tuple[int, int]] | tuple"
    ) -> "OrthogonalityRelation":
        masks = [0] * universe_size
        for p, q in pairs:
            if not (0 <= p < universe_size and 0 <= q < universe_size):
                raise InputError(f"pair ({p},{q}) outside universe")
            masks[p] |= 1 << q
            masks[q] |= 1 << p
        return cls(universe_size, tuple(masks))

    def are_orthogonal(self, p: int, q: int) -> bool:
        return bool(self.perp_masks[p] >> q & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for p in range(self.universe_size):
            for q in bit_members(self.perp_masks[p]):
                if p < q:
                    out.append((p, q))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "universe": self.universe_size,
            "pairs": [list(pq) for pq in self.pairs()],
        }


@dataclass(frozen=True)
class OrthoMap:
    """Candidate orthocomplementation, given by the image of each atom as a
    mask."""

    space: ClosureSpace
    atom_image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.space.universe_size
        if len(self.atom_image) != n:
            raise InputError("atom_image length does not match universe size")
        for img in self.atom_image:
            if img < 0 or img >> n:
                raise InputError(f"atom_image entry {img:#x} leaves the universe")

    def complement_mask(self, mask: int) -> int:
        """Intersection of the images of the atoms of mask (universe if empty)."""
        acc = (1 << self.space.universe_size) - 1
        for p in bit_members(mask):
            acc &= self.atom_image[p]
        return acc

    def to_json(self) -> dict:
        return {"atom_image": [list(bit_members(img)) for img in self.atom_image]}

    @classmethod
    def from_json(cls, space: ClosureSpace, data: dict) -> "OrthoMap":
        try:
            images = list(data["atom_image"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed ortho-map JSON: {exc}") from exc
        return cls(space, tuple(members_mask(space.universe_size, ms) for ms in images))


@dataclass(frozen=True)
class OrthoVerification:
    ok: bool
    law: str | None = None
    counterexample: dict | None = None


def verify_orthocomplementation(
    space: ClosureSpace, candidate: OrthoMap
) -> OrthoVerification:
    """Check the laws over every closed set; report the first failure.

    The candidate's atom images must be coatoms (that much is an input error,
    not a verdict: a non-coatom image is not even a candidate).  Order
    reversal needs no check: a' is the intersection of the images of a's
    atoms, so a ⊆ b gives b' ⊆ a' by construction.
    """
    sp = _require_explicit(space, "verify_orthocomplementation")
    coatom_set = set(sp.coatom_masks())
    for p, img in enumerate(candidate.atom_image):
        if img not in coatom_set:
            raise InputError(f"image of atom {p} is not a coatom: {bit_members(img)}")
    return _first_law_failure(sp, candidate)


def _first_law_failure(sp: ExplicitSpace, candidate: OrthoMap) -> OrthoVerification:
    """verify_orthocomplementation on a candidate whose images are coatoms."""
    full = sp.full_mask()
    for m in sp.masks:
        c = candidate.complement_mask(m)
        if c not in sp._mask_set:
            law = "complement_closed"
        elif m & c:
            law = "meet_is_bottom"
        elif sp.closure_mask(m | c) != full:
            law = "join_is_top"
        elif candidate.complement_mask(c) != m:
            law = "involution"
        else:
            continue
        witness = {"a": list(bit_members(m)), "a_prime": list(bit_members(c))}
        if law == "involution":
            witness["a_double_prime"] = list(bit_members(candidate.complement_mask(c)))
        return OrthoVerification(False, law, witness)
    return OrthoVerification(True)


@dataclass(frozen=True)
class OrthoSearchResult:
    """Outcome of an exhaustive orthocomplementation search.

    Every returned search ran to completion (a budget overrun raises), so
    exhaustive is always True; it stays for the reports that state it.
    certificate records a counting proof when one settles the question
    without search.
    """

    maps: tuple[OrthoMap, ...]
    exhaustive: bool
    nodes: int
    certificate: dict | None = None

    def to_json(self) -> dict:
        out: dict = {
            "count": len(self.maps),
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
            "maps": [m.to_json() for m in self.maps],
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def find_orthocomplementations(
    space: ClosureSpace, budgets: Budgets = DEFAULT_BUDGETS
) -> OrthoSearchResult:
    """Enumerate every orthocomplementation of an explicit space.

    Returns all maps in a deterministic order.  An empty result is a proof
    there are none (via the counting certificate or via completed search).
    Hitting the node budget raises BudgetExceeded.  The family must be
    closed under intersection, as for closure; then the search keeps every
    leaf or none, as is_coatomistic says (see the module docstring).

    The atoms are placed in descending degree, each trying its open
    coatoms in ascending index.  The state packs one field per atom q,
    k + 1 bits wide for k coatoms: the low k bits mark the coatoms still
    open to q, and the top bit is a guard, kept out of the state.  Placing
    coatom ci at atom p is one AND with a word built on first use within
    the call: field q keeps the coatoms holding p if q lies in coatom ci
    and those missing p otherwise, every field loses ci, and p's becomes
    {ci}.  A branch lives while no field is empty: subtracting 1 from each
    guarded field clears a guard exactly where the field was empty, and no
    borrow crosses a field.  A placed atom's field never empties: if q
    holds cj, placing cj narrowed p's options to the coatoms c with
    q ∈ c iff p ∈ cj, and that is exactly the condition for cj to survive
    placing c at p.  So the test on every field prunes as one on the
    unplaced atoms alone, and the tree, its node count (every option tried
    counts, live or not) and its leaves are those of a per-atom search.  At
    a leaf each field holds its atom's coatom.
    """
    sp = _require_explicit(space, "find_orthocomplementations")
    n = sp.universe_size
    cms = sp.coatom_masks()
    k = len(cms)
    if n != k:
        certificate = {
            "kind": "atom_coatom_count_mismatch",
            "atoms": n,
            "coatoms": k,
            "reason": "an orthocomplementation maps atoms bijectively onto coatoms",
        }
        return OrthoSearchResult((), exhaustive=True, nodes=0, certificate=certificate)
    coatomistic = is_coatomistic(sp)

    # contains[p]: the coatoms holding atom p, indexed as is_coatomistic does
    contains = _transpose(cms, n)
    all_coatoms = (1 << k) - 1

    # process atoms in descending degree (ties by id) for earlier conflicts
    degree = [contains[p].bit_count() for p in range(n)]
    order = sorted(range(n), key=lambda p: (-degree[p], p))

    w = k + 1  # field width: k coatom bits and the guard
    low1 = sum(1 << (q * w) for q in range(n))
    guard = low1 << k
    # base[p]: every field but p's keeps the coatoms missing atom p;
    # spread[ci] turns that into the coatoms holding p on the atoms of
    # coatom ci (symmetry: q ∈ p' iff p ∈ q'), k zero digits after each
    # atom's digit moving it to its field
    spacer = "0" * k
    spread = [int(spacer.join(format(cm, f"0{n}b")), 2) * all_coatoms for cm in cms]
    base = [(all_coatoms ^ contains[p]) * low1 & ~(all_coatoms << (p * w)) for p in range(n)]
    # update[p][ci]: the word placing coatom ci at atom p, built on first use
    update: list[list[int | None]] = [[None] * k for _ in range(n)]
    found: list[OrthoMap] = []
    nodes = 0

    def assign(pos: int, state: int) -> None:
        nonlocal nodes
        if pos == n:
            if coatomistic:
                image = (state >> (q * w) & all_coatoms for q in range(n))
                found.append(OrthoMap(sp, tuple(cms[c.bit_length() - 1] for c in image)))
            return
        p = order[pos]
        row = update[p]
        options = state >> (p * w) & all_coatoms
        while options:
            low = options & -options
            options ^= low
            ci = low.bit_length() - 1
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            u = row[ci]
            if u is None:
                # spread[ci] is clear at p, as ci is open to p; every field
                # loses ci, so the assignment stays injective, and p's is {ci}
                u = row[ci] = (base[p] ^ spread[ci]) & ~(low1 << ci) | 1 << (p * w + ci)
            t = state & u
            if ((t | guard) - low1) & guard == guard:
                assign(pos + 1, t)

    assign(0, sum((all_coatoms ^ contains[p]) << (p * w) for p in range(n)))  # p ∉ p'
    found.sort(key=lambda om: om.atom_image)
    return OrthoSearchResult(tuple(found), exhaustive=True, nodes=nodes)


@dataclass(frozen=True)
class OrthoConstruction:
    """Result of inducing an orthocomplementation from atom orthogonality."""

    ortho: OrthoMap | None
    failure: dict | None = None

    @property
    def ok(self) -> bool:
        return self.ortho is not None


def ortho_from_atom_orthogonality(
    space: ClosureSpace, relation: OrthogonalityRelation
) -> OrthoConstruction:
    """Try p' := {q : q ⊥ p}; succeed iff every image is a coatom and the
    induced map satisfies all four laws.  Failure is a result, not an error."""
    sp = _require_explicit(space, "ortho_from_atom_orthogonality")
    if relation.universe_size != sp.universe_size:
        raise InputError("relation universe does not match space")
    coatom_set = set(sp.coatom_masks())
    for p, m in enumerate(relation.perp_masks):
        if m not in coatom_set:
            return OrthoConstruction(
                None,
                {
                    "law": "image_not_coatom",
                    "atom": p,
                    "image": list(bit_members(m)),
                },
            )
    candidate = OrthoMap(sp, tuple(relation.perp_masks))
    verdict = _first_law_failure(sp, candidate)  # its images are coatoms
    if not verdict.ok:
        return OrthoConstruction(
            None, {"law": verdict.law, "counterexample": verdict.counterexample}
        )
    return OrthoConstruction(candidate)


@dataclass(frozen=True)
class OrthomodularityViolation:
    a: tuple[int, ...]
    b: tuple[int, ...]
    rejoined: tuple[int, ...]

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "rejoin": list(self.rejoined)}


def find_orthomodularity_violation(
    space: ClosureSpace, ortho: OrthoMap
) -> OrthomodularityViolation | None:
    """First pair a <= b with b != a ∨ (b ∧ a'), or None.

    The ortho map must verify; feeding an unverified candidate is a contract
    violation because the law only makes sense for a genuine complement.
    """
    sp = _require_explicit(space, "orthomodularity")
    verdict = verify_orthocomplementation(sp, ortho)
    if not verdict.ok:
        raise ContractViolation(
            f"ortho map fails law '{verdict.law}'; orthomodularity is undefined"
        )
    return _orthomodularity_violation(sp, ortho)


def _orthomodularity_violation(
    sp: ExplicitSpace, ortho: OrthoMap
) -> OrthomodularityViolation | None:
    """find_orthomodularity_violation on a verified map: for each a, b ranges
    over a's closed supersets (extent_of), in canonical order."""
    masks = sp.masks
    for a in masks:
        ca = ortho.complement_mask(a)
        for i in bit_members(sp.extent_of(a)):
            b = masks[i]
            rejoined = sp.closure_mask(a | (b & ca))
            if rejoined != b:
                return OrthomodularityViolation(
                    bit_members(a), bit_members(b), bit_members(rejoined)
                )
    return None


# ---------------------------------------------------------------------------
# atom-configuration conditions used as theorem hypotheses


def _pair_join_covers(space: ClosureSpace, caller: str, others: int) -> bool:
    """Two atoms p < q whose join covers p, q and at least `others` further
    atoms."""
    sp = _require_explicit(space, caller)
    # j covers the atom a iff j is an upper cover of {a}
    covers = sp.upper_cover_masks
    for p in range(sp.universe_size):
        for q in range(p + 1, sp.universe_size):
            pq = (1 << p) | (1 << q)
            j = sp.closure_mask(pq)
            rest = j & ~pq
            if rest.bit_count() < others:
                continue
            if j not in covers(1 << p) or j not in covers(1 << q):
                continue
            if sum(j in covers(1 << r) for r in bit_members(rest)) >= others:
                return True
    return False


def third_atom_condition(space: ClosureSpace) -> bool:
    """Two atoms p, q whose join contains a third atom r and covers all of
    p, q, r."""
    return _pair_join_covers(space, "third_atom_condition", 1)


def four_atom_condition(space: ClosureSpace) -> bool:
    """Four distinct atoms p, q, r, s with p ∨ q covering every one of them."""
    return _pair_join_covers(space, "four_atom_condition", 2)

