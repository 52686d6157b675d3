from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qll.atomset import (
    AtomSet,
    bit_members,
    canonical_sorted,
    lex_sorted,
    mask_from_members,
    members_mask,
)
from qll.errors import InputError

from helpers import _canonical, _lex


def test_bit_members_roundtrip():
    # a mask of more than 32 atoms is read off its numeral
    dense = ((1 << 33) - 1, (1 << 5000) - 1, sum(1 << p for p in range(0, 5000, 97)))
    for mask in (0, 1, 0b1010, 0b11111, 1 << 30, (1 << 32) - 1, *dense):
        atoms = bit_members(mask)
        assert list(atoms) == sorted(set(atoms)) and mask_from_members(atoms) == mask


def test_members_sorted():
    a = AtomSet.from_members(5, [3, 0, 4])
    assert a.members == (0, 3, 4)
    assert a.mask == members_mask(5, [3, 0, 4]) == 0b11001


def test_constructors():
    assert AtomSet.from_members(4, []).mask == 0
    assert AtomSet.from_members(4, range(4)).mask == 0b1111
    assert AtomSet(4, members_mask(4, [2])).mask == 0b100


def test_out_of_range_rejected():
    with pytest.raises(InputError):
        AtomSet(3, 1 << 3)
    with pytest.raises(InputError):
        AtomSet.from_members(3, [3])
    with pytest.raises(InputError):
        AtomSet(-1, 0)


def test_bool_and_repr():
    assert not AtomSet.from_members(3, []).mask
    assert AtomSet.from_members(3, [0]).mask
    assert "AtomSet" in repr(AtomSet.from_members(3, [1]))


def test_canonical_key_orders_by_size_then_members():
    masks = [0b11, 0b100, 0b1, 0b110]
    assert canonical_sorted(masks, 3) == [0b1, 0b100, 0b11, 0b110]


@st.composite
def _universe_and_masks(draw):
    n = draw(st.sampled_from([1, 7, 8, 9, 36, 64, 65]))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=40))
    return n, masks + [0, full]


@given(_universe_and_masks())
def test_canonical_sorted_matches_member_lists(case):
    n, masks = case
    assert canonical_sorted(masks, n) == list(_canonical(masks))


def test_lex_key_puts_the_lowest_differing_atom_first():
    # {0, 1} before {1}: they differ first at atom 0
    masks = [0b10, 0b11, 0b100, 0b1, 0b0]
    assert lex_sorted(masks, 3) == [0b11, 0b1, 0b10, 0b100, 0b0]


@given(_universe_and_masks())
def test_lex_sorted_matches_missing_atom_lists(case):
    n, masks = case
    assert lex_sorted(masks, n) == _lex(masks, n)
