"""Bitmask-backed subsets of a finite atom universe.

Atoms are integers 0..universe_size-1 and a subset is an int whose bit i is
set iff atom i is a member.  All set algebra is plain integer arithmetic,
which keeps the closure / search inner loops cheap.  AtomSet is the hashable
value type used at API boundaries; hot loops work on raw masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, UniverseMismatch


def bit_members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending."""
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


@dataclass(frozen=True)
class AtomSet:
    universe_size: int
    mask: int

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise InputError(f"negative universe size {self.universe_size}")
        if self.mask < 0 or self.mask >> self.universe_size:
            raise InputError(
                f"mask {self.mask:#x} does not fit universe of size {self.universe_size}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_members(cls, universe_size: int, members: Iterable[int]) -> "AtomSet":
        m = 0
        for i in members:
            if not 0 <= i < universe_size:
                raise InputError(f"atom {i} outside universe of size {universe_size}")
            m |= 1 << i
        return cls(universe_size, m)

    @classmethod
    def empty(cls, universe_size: int) -> "AtomSet":
        return cls(universe_size, 0)

    @classmethod
    def full(cls, universe_size: int) -> "AtomSet":
        return cls(universe_size, (1 << universe_size) - 1)

    @classmethod
    def singleton(cls, universe_size: int, atom: int) -> "AtomSet":
        if not 0 <= atom < universe_size:
            raise InputError(f"atom {atom} outside universe of size {universe_size}")
        return cls(universe_size, 1 << atom)

    # -- queries -----------------------------------------------------------

    @property
    def members(self) -> tuple[int, ...]:
        return bit_members(self.mask)

    def __contains__(self, atom: int) -> bool:
        return 0 <= atom < self.universe_size and bool(self.mask >> atom & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __bool__(self) -> bool:
        return self.mask != 0

    def issubset(self, other: "AtomSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def issuperset(self, other: "AtomSet") -> bool:
        self._check(other)
        return other.mask & ~self.mask == 0

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "AtomSet") -> None:
        if self.universe_size != other.universe_size:
            raise UniverseMismatch(
                f"universe sizes differ: {self.universe_size} vs {other.universe_size}"
            )

    def __and__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.universe_size, self.mask & other.mask)

    def __or__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.universe_size, self.mask | other.mask)

    def __sub__(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.universe_size, self.mask & ~other.mask)

    def __repr__(self) -> str:
        return f"AtomSet({self.universe_size}, {{{', '.join(map(str, self.members))}}})"
