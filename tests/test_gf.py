from __future__ import annotations

import time

import pytest

from helpers import kernel_basis, naive_span, normalize_and_sort_projective_points
from qll.errors import InputError
from qll.gf import (
    count_subspaces,
    dot,
    in_row_space,
    inv_mod,
    is_prime,
    identity,
    kron,
    kron_vec,
    mat_mul,
    mat_vec,
    normalize_point,
    projective_points,
    rank,
    rref,
    rref_matrices,
    transpose,
)


def test_is_prime():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_inv_mod():
    for q in (2, 3, 5, 7):
        for a in range(1, q):
            assert (a * inv_mod(a, q)) % q == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 3)


def test_rref_is_canonical_and_idempotent():
    rows = [(1, 2, 0), (2, 1, 1), (0, 0, 2)]
    r = rref(rows, 3)
    assert rref(r, 3) == r
    # any reordering or rescaling spans the same row space, same rref
    assert rref([(2, 1, 1), (2, 4, 0), (0, 0, 1)], 3) == r


def test_rref_matches_naive_span():
    rows = [(1, 2, 0), (0, 1, 1)]
    r = rref(rows, 3)
    assert naive_span(r, 3) == naive_span(rows, 3)
    for v in naive_span(rows, 3):
        assert in_row_space(r, v, 3)
    assert not in_row_space(r, (0, 0, 1), 3)


def test_rank_and_kernel():
    m = ((1, 0, 1), (0, 1, 1))
    assert rank(m, 3) == 2
    k = kernel_basis(m, 3)
    assert len(k) == 1
    for row in m:
        assert dot(row, k[0], 3) == 0


def test_kron_index_convention():
    a = ((1, 2), (0, 1))
    b = ((2, 0), (1, 1))
    big = kron(a, b, 3)
    # entry ((i1,i2),(j1,j2)) lives at (i1*2+i2, j1*2+j2)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert big[i1 * 2 + i2][j1 * 2 + j2] == (a[i1][j1] * b[i2][j2]) % 3
    u, v = (1, 2), (2, 1)
    kv = kron_vec(u, v, 3)
    for i in range(2):
        for j in range(2):
            assert kv[i * 2 + j] == (u[i] * v[j]) % 3


def test_matrix_helpers():
    m = ((1, 2), (0, 1))
    assert transpose(m) == ((1, 0), (2, 1))
    assert mat_vec(m, (1, 1), 3) == (0, 1)
    assert mat_mul(m, identity(2), 3) == m


def test_normalize_point():
    assert normalize_point((0, 2, 1), 3) == (0, 1, 2)
    assert normalize_point((2, 0, 0), 3) == (1, 0, 0)
    with pytest.raises(InputError):
        normalize_point((0, 0, 0), 3)


def test_projective_point_counts():
    assert len(projective_points(3, 2)) == 4
    assert len(projective_points(3, 4)) == 40
    assert len(projective_points(2, 3)) == 7
    pts = projective_points(3, 2)
    assert pts == tuple(sorted(pts))
    assert all(p[next(i for i, x in enumerate(p) if x)] == 1 for p in pts)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_points_match_normalize_and_sort(q, n):
    assert projective_points(q, n) == normalize_and_sort_projective_points(q, n)


def test_subspace_enumeration_counts():
    # Gaussian binomials over GF(3): dimension-by-dimension counts
    assert [len(rref_matrices(3, 2, d)) for d in range(3)] == [1, 4, 1]
    assert count_subspaces(3, 2) == 6
    assert count_subspaces(3, 4) == sum(
        len(rref_matrices(3, 4, d)) for d in range(5)
    ) == 212
    # the closed form against every canonical basis listed
    for q in (2, 3, 5, 7):
        for n in range(6):
            listed = sum(len(rref_matrices(q, n, d)) for d in range(n + 1))
            assert count_subspaces(q, n) == listed, (q, n)
    assert count_subspaces(7, 4) == 3652
    start = time.perf_counter()
    count_subspaces(3, 40)
    assert time.perf_counter() - start < 0.01


def test_rref_matrices_are_distinct_row_spaces():
    mats = rref_matrices(3, 2, 1)
    spans = [frozenset(naive_span(m, 3)) for m in mats]
    assert len(set(spans)) == len(mats)
