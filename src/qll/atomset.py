"""Bitmask-backed subsets of a finite atom universe.

Atoms are integers 0..universe_size-1 and a subset is an int whose bit i is
set iff atom i is a member.  All set algebra is plain integer arithmetic,
and every function and method of qll takes and returns masks.
members_mask and json_int are the checked ways in from JSON input.

AtomSet remains only as the value type of ExplicitSpace(family) and of the
family view, the door the benchmark workloads still call; it has no set
algebra of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError

# what qll re-exports; the mask helpers are imported from qll.atomset by name
__all__ = ["AtomSet"]


# Clearing a mask's lowest bit reads the whole int, so clearing all k bits
# of a w-bit mask takes time k·w, while reading its binary numeral once
# takes time w.  Timed on masks of 36 to 16,384 bits (Python 3.11.7, one
# CPU), clearing bits was faster up to 20 atoms at every width, and the
# numeral was faster from 28 atoms on at 4,096 bits and up and from 40 on
# at 1,024 bits; below 1,024 bits the two were within 12% of each other
# from 24 atoms to the full mask.
_FEW = 32


def bit_members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending.  A mask of more than
    _FEW atoms is read off its binary numeral, in time linear in its bit
    length."""
    if mask.bit_count() > _FEW:
        digits = bin(mask)[:1:-1]  # digits[p] is bit p
        found = []
        p = digits.find("1")
        while p >= 0:
            found.append(p)
            p = digits.find("1", p + 1)
        return tuple(found)
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def mask_from_members(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


# _REVERSED_BYTES[b] is the byte b with its eight bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def lex_sorted(masks: Iterable[int], n: int) -> list[int]:
    """The masks, subsets of a universe of n atoms, in lex order: A comes
    before B iff the lowest atom of A ^ B lies in A.  Between two sets of
    one cardinality this is the lexicographic order on sorted member lists.

    A comes first iff the bit reversal of A is the larger, so the key is
    one int: the complement of the reversal, reversed a byte at a time
    through a table over the ceil(n/8)-byte big-endian form of the mask.
    """
    size = (n + 7) // 8
    everything = (1 << 8 * size) - 1
    table = _REVERSED_BYTES

    def key(m: int) -> int:
        rev = int.from_bytes(m.to_bytes(size, "big").translate(table), "little")
        return everything ^ rev

    return sorted(masks, key=key)


def canonical_sorted(masks: Iterable[int], n: int) -> list[int]:
    """The masks, subsets of a universe of n atoms, in canonical family
    order: cardinality first, then lexicographic on the sorted member list.

    That is lex order followed by a stable sort on cardinality, which runs
    at C speed with int.bit_count as its key.  A search that lists its
    sets in lex order needs only the second sort.
    """
    return sorted(lex_sorted(masks, n), key=int.bit_count)


def json_int(value: object, what: str) -> int:
    """value if it is an integer (a bool is not), else an InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} {value!r} is not an integer")
    return value


def members_mask(universe_size: int, members: Iterable[int]) -> int:
    """The mask of members, a collection of atoms of a universe of the given
    size.  Input that is not such a collection is an InputError: members
    that are not iterable, an atom that is not an integer, or an atom
    outside the universe."""
    try:
        atoms = list(members)
    except TypeError:
        raise InputError(f"expected a list of atoms, got {members!r}") from None
    m = 0
    for i in atoms:
        if not 0 <= json_int(i, "atom") < universe_size:
            raise InputError(f"atom {i} outside universe of size {universe_size}")
        m |= 1 << i
    return m


@dataclass(frozen=True)
class AtomSet:
    """A subset of the atom universe as a hashable value: the element type
    of the ExplicitSpace(family) door and of the family view."""

    universe_size: int
    mask: int

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise InputError(f"negative universe size {self.universe_size}")
        if self.mask < 0 or self.mask >> self.universe_size:
            raise InputError(
                f"mask {self.mask:#x} does not fit universe of size {self.universe_size}"
            )

    @classmethod
    def from_members(cls, universe_size: int, members: Iterable[int]) -> "AtomSet":
        return cls(universe_size, members_mask(universe_size, members))

    @property
    def members(self) -> tuple[int, ...]:
        return bit_members(self.mask)

    def __repr__(self) -> str:
        return f"AtomSet({self.universe_size}, {{{', '.join(map(str, self.members))}}})"
