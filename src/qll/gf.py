"""Linear algebra over prime fields GF(p), on tuples of ints.

Everything is tiny here (dimension <= 4 or so in practice), so vectors are
tuples, matrices are tuples of row tuples, and reduction is plain row
echelon arithmetic mod p.  Matrices in reduced row echelon form give every
subspace a unique canonical, hashable representation.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import InputError

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_prime_field(q: int) -> None:
    if not is_prime(q):
        raise InputError(f"q={q} is not prime; only prime fields are supported")


def inv_mod(a: int, q: int) -> int:
    a %= q
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, q - 2, q)


def vec_mod(v: Vec, q: int) -> Vec:
    return tuple(x % q for x in v)


def vec_scale(c: int, v: Vec, q: int) -> Vec:
    return tuple(c * x % q for x in v)


def dot(u: Vec, v: Vec, q: int) -> int:
    return sum(a * b for a, b in zip(u, v)) % q


def mat_vec(m: Mat, v: Vec, q: int) -> Vec:
    return tuple(dot(row, v, q) for row in m)


def mat_mul(a: Mat, b: Mat, q: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col, q) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def kron(a: Mat, b: Mat, q: int) -> Mat:
    """Kronecker product; block (i,k) is a[i][k] * b."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = []
    for i in range(ra):
        for j in range(rb):
            out.append(
                tuple(a[i][k] * b[j][l] % q for k in range(ca) for l in range(cb))
            )
    return tuple(out)


def kron_vec(u: Vec, v: Vec, q: int) -> Vec:
    """Product vector u ⊗ v with index i*len(v)+j."""
    return tuple(a * b % q for a in u for b in v)


def rref(rows: "list[Vec] | tuple[Vec, ...]", q: int) -> Mat:
    """Reduced row echelon form with zero rows dropped; canonical per subspace."""
    m = [list(vec_mod(r, q)) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(m)):
            if m[r][col] % q:
                sel = r
                break
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        inv = inv_mod(m[pivot_row][col], q)
        m[pivot_row] = [x * inv % q for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col]:
                c = m[r][col]
                m[r] = [(x - c * y) % q for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return tuple(tuple(r) for r in m[:pivot_row] if any(r))


def rank(rows: "list[Vec] | tuple[Vec, ...]", q: int) -> int:
    return len(rref(rows, q))


def in_row_space(basis: Mat, v: Vec, q: int) -> bool:
    """Membership of v in the span of RREF rows, by elimination against pivots."""
    w = list(vec_mod(v, q))
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x)
        if w[piv]:
            c = w[piv]
            w = [(x - c * y) % q for x, y in zip(w, row)]
    return not any(w)


def normalize_point(v: Vec, q: int) -> Vec:
    """Canonical projective representative: first nonzero coordinate is 1."""
    v = vec_mod(v, q)
    for x in v:
        if x:
            return vec_scale(inv_mod(x, q), v, q)
    raise InputError("zero vector has no projective representative")


def projective_points(q: int, n: int) -> tuple[Vec, ...]:
    """All normalized points of GF(q)^n, lexicographically sorted.

    A normalized point is zeros, then a leading 1 at some position i, then
    any tail; a later leading 1 sorts first, and tails run in lexicographic
    order, so the points come out sorted without normalizing or sorting.
    """
    return tuple(
        (0,) * i + (1,) + tail
        for i in reversed(range(n))
        for tail in product(range(q), repeat=n - 1 - i)
    )


def rref_matrices(q: int, n: int, dim: int) -> "list[Mat]":
    """Every dim-dimensional subspace of GF(q)^n as its canonical RREF basis.

    Enumerates pivot-column patterns and fills the free entries, so each
    subspace appears exactly once.
    """
    out: list[Mat] = []
    for pivots in combinations(range(n), dim):
        free_slots = [
            (r, c)
            for r in range(dim)
            for c in range(n)
            if c > pivots[r] and c not in pivots
        ]
        for values in product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), val in zip(free_slots, values):
                rows[r][c] = val
            out.append(tuple(tuple(r) for r in rows))
    return out


def count_subspaces(q: int, n: int) -> int:
    """Total number of subspaces of GF(q)^n (all dimensions): the sum of
    the Gaussian binomials [n k]_q over k, each read off the one before as
    [n k]_q = [n k-1]_q · (q^(n-k+1) - 1) / (q^k - 1), an exact division."""
    total = term = 1
    for k in range(1, n + 1):
        term = term * (q ** (n - k + 1) - 1) // (q**k - 1)
        total += term
    return total
