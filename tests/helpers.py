"""Independent oracles used to freeze expected values.

Everything here works on frozensets of points (product points are (i, j)
tuples), never on the library's bitmask representation, so agreement between
the two is meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def naive_close_under_intersections(seeds, universe):
    """Close a collection of sets under pairwise intersection, plus the
    universe itself."""
    family = {frozenset(universe)}
    family.update(frozenset(s) for s in seeds)
    changed = True
    while changed:
        changed = False
        current = list(family)
        for a, b in combinations(current, 2):
            c = a & b
            if c not in family:
                family.add(c)
                changed = True
    return family


def naive_closure(family, subset):
    subset = frozenset(subset)
    best = None
    for member in family:
        if subset <= member and (best is None or len(member) < len(best)):
            best = member
    return best


def naive_is_simple_closure_space(family, universe):
    universe = frozenset(universe)
    if frozenset() not in family or universe not in family:
        return False
    for x in universe:
        if frozenset([x]) not in family:
            return False
    for a, b in combinations(family, 2):
        if a & b not in family:
            return False
    return True


def cross(a1, a2, u1, u2):
    return frozenset((x, y) for x in a1 for y in u2) | frozenset(
        (x, y) for x in u1 for y in a2
    )


def naive_sep_family(f1, f2, u1, u2):
    seeds = [cross(a1, a2, u1, u2) for a1 in f1 for a2 in f2]
    return naive_close_under_intersections(seeds, set(product(u1, u2)))


def naive_top_family(f1, f2, u1, u2):
    """All subsets of the grid with every section closed; exponential, only
    for tiny factors."""
    points = sorted(product(u1, u2))
    family = set()
    for code in range(1 << len(points)):
        r = frozenset(p for i, p in enumerate(points) if code >> i & 1)
        ok = True
        for x in u1:
            if frozenset(y for (a, y) in r if a == x) not in f2:
                ok = False
                break
        if ok:
            for y in u2:
                if frozenset(x for (x, b) in r if b == y) not in f1:
                    ok = False
                    break
        if ok:
            family.add(r)
    return family


def naive_star_generators(f1, f2, u1, u2):
    """Proper subsets whose row sections are coatoms-or-full of the second
    factor and column sections coatoms-or-full of the first; exponential."""
    co1 = naive_coatoms(f1, u1) | {frozenset(u1)}
    co2 = naive_coatoms(f2, u2) | {frozenset(u2)}
    points = sorted(product(u1, u2))
    full = frozenset(points)
    gens = set()
    for code in range(1 << len(points)):
        r = frozenset(p for i, p in enumerate(points) if code >> i & 1)
        if r == full:
            continue
        ok = all(
            frozenset(y for (a, y) in r if a == x) in co2 for x in u1
        ) and all(frozenset(x for (x, b) in r if b == y) in co1 for y in u2)
        if ok:
            gens.add(r)
    return gens


def naive_star_family(f1, f2, u1, u2):
    gens = naive_star_generators(f1, f2, u1, u2)
    return naive_close_under_intersections(gens, set(product(u1, u2)))


def naive_coatoms(family, universe):
    universe = frozenset(universe)
    proper = [m for m in family if m != universe]
    return {
        m
        for m in proper
        if not any(m < other for other in proper)
    }


def naive_atom_check(family, universe):
    """Every member is the closure of its points (atomistic)."""
    for member in family:
        if naive_closure(family, member) != member:
            return False
    return True


def naive_orthocomplementations(family, universe):
    """Brute force over all injective atom-to-coatom assignments, checking
    the four laws on the induced map directly.  Exponential; tiny inputs only.
    No counting shortcut: unequal atom and coatom counts are left to the laws.
    """
    universe = frozenset(universe)
    atoms = sorted(universe)
    coatoms = sorted(naive_coatoms(family, universe), key=sorted)

    def comp(member, image):
        out = universe
        for x in member:
            out = out & image[x]
        return out

    found = []
    for perm in permutations(range(len(coatoms)), len(atoms)):
        image = {atoms[i]: coatoms[perm[i]] for i in range(len(atoms))}
        ok = True
        for member in family:
            c = comp(member, image) if member else universe
            if c not in family:
                ok = False
                break
            if member & c:
                ok = False
                break
            if naive_closure(family, member | c) != universe:
                ok = False
                break
            back = comp(c, image) if c else universe
            if back != member:
                ok = False
                break
        if ok:
            for a, b in combinations(family, 2):
                ca = comp(a, image) if a else universe
                cb = comp(b, image) if b else universe
                if (a <= b and not cb <= ca) or (b <= a and not ca <= cb):
                    ok = False
                    break
        if ok:
            found.append(image)
    return found


def naive_span(vectors, q):
    """All linear combinations, by closing under addition and scaling."""
    vecs = {tuple(v) for v in vectors}
    n = len(next(iter(vecs))) if vecs else 0
    span = {tuple([0] * n)} | vecs
    changed = True
    while changed:
        changed = False
        current = list(span)
        for u in current:
            for v in current:
                w = tuple((a + b) % q for a, b in zip(u, v))
                if w not in span:
                    span.add(w)
                    changed = True
            for c in range(2, q):
                w = tuple((c * a) % q for a in u)
                if w not in span:
                    span.add(w)
                    changed = True
    return span


def grid_set(space_masks_or_mask, n1, n2):
    """Bitmask over an n1*n2 grid to a frozenset of (i, j) pairs."""
    mask = space_masks_or_mask
    out = set()
    k = 0
    while mask:
        if mask & 1:
            out.add((k // n2, k % n2))
        mask >>= 1
        k += 1
    return frozenset(out)


def family_as_sets(space):
    """Explicit space to a set of frozensets of atom indices."""
    return {frozenset(_members(m)) for m in space.masks}


def product_family_as_sets(space, n1, n2):
    return {grid_set(m, n1, n2) for m in space.masks}


# ---------------------------------------------------------------------------
# Slow paths: the linear family scans that ExplicitSpace's closure kernel and
# cover relation replaced.  Unlike the oracles above they work on raw masks in
# the library's canonical family order, so their first witnesses are the
# ones the fast path must reproduce exactly.


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def linear_closure_mask(masks, full, mask):
    """Intersection of the members of masks that contain mask (full if none)."""
    acc = full
    for m in masks:
        if mask & ~m == 0:
            acc &= m
            if acc == mask:
                return acc
    return acc


def linear_first_between(masks, lo, hi):
    """First member of masks strictly between lo and hi, or None."""
    for m in masks:
        if m != lo and m != hi and lo & ~m == 0 and m & ~hi == 0:
            return m
    return None


def linear_upper_covers(masks, lo):
    """Members strictly above lo with no member strictly between, in order."""
    above = [m for m in masks if m != lo and lo & ~m == 0]
    return tuple(m for m in above if linear_first_between(above, lo, m) is None)


def linear_covering_violation(space):
    """JSON witness of the first covering failure by linear scans, or None."""
    masks, full = space.masks, space.full_mask()
    for lo in masks:
        for p in range(space.universe_size):
            if lo >> p & 1:
                continue
            hi = linear_closure_mask(masks, full, lo | 1 << p)
            m = linear_first_between(masks, lo, hi)
            if m is not None:
                return {
                    "a": _members(lo),
                    "atom": p,
                    "join": _members(hi),
                    "between": _members(m),
                }
    return None


def linear_dual_covering_violation(space):
    """JSON witness of the first dual covering failure by linear scans, or
    None."""
    masks, full = space.masks, space.full_mask()
    for a in masks:
        for x in space.coatom_masks():
            if linear_closure_mask(masks, full, a | x) != full:
                continue
            lo = a & x
            m = linear_first_between(masks, lo, a)
            if m is not None:
                return {
                    "a": _members(a),
                    "coatom": _members(x),
                    "meet": _members(lo),
                    "between": _members(m),
                }
    return None


# ---------------------------------------------------------------------------
# Slow constructors: the product builders that the generator-at-a-time
# intersection closure, the section search (for top and for the star
# generators), its packed column state, the hyperplane generators, the
# perp-table row lookups and the flats of the factor lattices replaced; and
# the pairwise validator that the closure-kernel check replaced.
# Unless noted they return mask tuples in canonical family order.


def _canonical(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), _members(m))))


def _lex(masks, n):
    """The masks in lex order, the set holding the lowest differing atom
    first: compare the lists of atoms missing, atom 0 first."""
    return sorted(masks, key=lambda m: [not m >> i & 1 for i in range(n)])


def pairwise_close_under_intersections(seeds, full):
    """Smallest intersection-closed superset of seeds and full, by
    intersecting every new set with the whole family."""
    family = set(seeds)
    family.add(full)
    queue = list(family)
    while queue:
        m = queue.pop()
        for other in list(family):
            x = m & other
            if x not in family:
                family.add(x)
                queue.append(x)
    return _canonical(family)


def pairwise_validate_simple_closure_space(universe_size, masks):
    """The validator the closure-kernel check replaced: every clause, with
    intersection closure checked on every pair of distinct members."""
    from qll.atomset import bit_members
    from qll.closure import ValidationReport, Violation

    masks = list(masks)
    mask_set = set(masks)
    violations = []
    seen = set()
    for m in masks:
        if m in seen:
            violations.append(Violation("duplicate", (bit_members(m),)))
        seen.add(m)
    if 0 not in mask_set:
        violations.append(Violation("missing_empty", ()))
    if (1 << universe_size) - 1 not in mask_set:
        violations.append(Violation("missing_universe", ()))
    for i in range(universe_size):
        if 1 << i not in mask_set:
            violations.append(Violation("missing_singleton", ((i,),)))
    uniq = sorted(mask_set)
    for i, a in enumerate(uniq):
        for b in uniq[i + 1 :]:
            if a & b not in mask_set:
                triple = (bit_members(a), bit_members(b), bit_members(a & b))
                violations.append(Violation("intersection_missing", triple))
    return ValidationReport(not violations, universe_size, tuple(violations))


def cross_masks(left, right):
    """a1 x S2 ∪ S1 x a2 for every pair of closed factor sets, as pair masks."""
    n1, n2 = left.universe_size, right.universe_size
    rows = [((1 << n2) - 1) << (i1 * n2) for i1 in range(n1)]
    cols = [sum(1 << (i1 * n2 + i2) for i1 in range(n1)) for i2 in range(n2)]
    return {
        sum(rows[i] for i in _members(a1)) | sum(cols[j] for j in _members(a2))
        for a1 in left.masks
        for a2 in right.masks
    }


def row_assignment_top_masks(left, right):
    """Every assignment of second-factor closed sets to the n1 rows, kept when
    every column section is closed in the first factor."""
    n1, n2 = left.universe_size, right.universe_size
    keep = []
    for rows in product(right.masks, repeat=n1):
        mask = 0
        for i1, r in enumerate(rows):
            mask |= r << (i1 * n2)
        cols = [
            sum((mask >> (i1 * n2 + i2) & 1) << i1 for i1 in range(n1))
            for i2 in range(n2)
        ]
        if all(left.contains_mask(c) for c in cols):
            keep.append(mask)
    return _canonical(keep)


def feasible_column_star_generators(left, right):
    """The star generators by the search the section search replaced: rows
    range over the second factor's coatoms and universe, every node rebuilds
    each partial column and keeps the branch while each can still reach an
    allowed value, and each leaf checks its columns again."""
    n1, n2 = left.universe_size, right.universe_size
    row_options = _canonical(set(right.coatom_masks()) | {(1 << n2) - 1})
    col_allowed = _canonical(set(left.coatom_masks()) | {(1 << n1) - 1})
    full = (1 << (n1 * n2)) - 1
    out, rows = [], []

    def column(depth, j):
        return sum((rows[i] >> j & 1) << i for i in range(depth))

    def feasible_columns(depth):
        # a partial column can still reach an allowed value v iff the bits
        # already placed sit inside v and the missing bits of v lie in rows
        # not yet assigned
        remaining = ((1 << n1) - 1) >> depth << depth
        return all(
            any(p & ~v == 0 and v & ~(p | remaining) == 0 for v in col_allowed)
            for p in (column(depth, j) for j in range(n2))
        )

    def rec(depth):
        if depth == n1:
            mask = sum(r << (i * n2) for i, r in enumerate(rows))
            if mask != full and all(column(n1, j) in col_allowed for j in range(n2)):
                out.append(mask)
            return
        for opt in row_options:
            rows.append(opt)
            if feasible_columns(depth + 1):
                rec(depth + 1)
            rows.pop()

    rec(0)
    return _canonical(out)


def search_then_sort_top_masks(left, right):
    """The materialized top before it took canonical order from its search:
    the section search with the second factor's family as row options, in
    canonical order, then space_from_masks's sort."""
    from qll.budgets import DEFAULT_BUDGETS
    from qll.closure import space_from_masks
    from qll.products import _section_search

    n1, n2 = left.universe_size, right.universe_size
    keep = _section_search(right.masks, left.masks, n1, n2, DEFAULT_BUDGETS)
    return space_from_masks(n1 * n2, keep).masks


def search_then_sort_star_masks(left, right):
    """star before it took canonical order from its search: the generators
    from the section search on the coatoms-or-full options, in canonical
    order, the row walk with the second factor's family as row options, in
    canonical order, then space_from_masks's sort."""
    from qll.budgets import DEFAULT_BUDGETS
    from qll.closure import space_from_masks
    from qll.products import _generated_family, _section_search

    n1, n2 = left.universe_size, right.universe_size
    full = (1 << n1 * n2) - 1
    rows = (*right.coatom_masks(), (1 << n2) - 1)
    cols = (*left.coatom_masks(), (1 << n1) - 1)
    found = _section_search(rows, cols, n1, n2, DEFAULT_BUDGETS)
    gens = [m for m in found if m != full]
    masks = _generated_family(gens, right.masks, n1, n2, DEFAULT_BUDGETS)
    return space_from_masks(n1 * n2, masks).masks


def prefix_section_search(row_options, col_allowed, n1, n2, budgets):
    """The section search before its column state was packed: each node
    keeps the column prefixes as a tuple and tests every one against the
    sets of allowed-column prefixes.  Leaves come in search order, and every
    row placed counts against node_cap, every leaf against family_cap."""
    from qll.errors import BudgetExceeded

    # prefixes[k]: the allowed columns cut to atoms 0..k-1
    prefixes = [{c & ((1 << k) - 1) for c in col_allowed} for k in range(n1 + 1)]
    keep = []
    nodes = 0

    def rec(k, mask, cols):
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
        for row in row_options:
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
    return keep


def transposed_index_walk(gens, row_options, n1, n2, budgets):
    """The row walk behind star before it read its meets from per-row
    buckets: live is a bitset over gens, and each child ANDs it with one
    "generators leaving it out" set per pair left out so far, from a
    transposed index of gens.  Leaves come in walk order, and every row
    placed counts against node_cap, every leaf against family_cap."""
    from qll.closure import _transpose
    from qll.errors import BudgetExceeded

    everything = (1 << len(gens)) - 1
    # contain[k]: the generators holding pair k
    contain = _transpose(tuple(gens), n1 * n2)
    # per row i1 and option r: (r placed, generators whose row i1 contains
    # r, one "generators leaving it out" set per pair of row i1 outside r)
    steps = []
    for i1 in range(n1):
        row = contain[i1 * n2 : (i1 + 1) * n2]
        options = []
        for r in row_options:
            within = everything
            miss = []
            for i2, c in enumerate(row):
                if r >> i2 & 1:
                    within &= c
                else:
                    miss.append(everything & ~c)
            options.append((r << (i1 * n2), within, tuple(miss)))
        steps.append(options)
    keep = []
    nodes = 0

    def walk(k, mask, live, pending):
        nonlocal nodes
        if k == n1:
            keep.append(mask)
            if len(keep) > budgets.family_cap:
                raise BudgetExceeded("family_cap", budgets.family_cap)
            return
        for r, within, miss in steps[k]:
            e = live & within
            # the parent kept this node with live, so pending can only fail
            # where e is smaller
            if not all(map(e.__and__, miss)) or (
                e != live and not all(map(e.__and__, pending))
            ):
                continue
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            walk(k + 1, mask | r, e, pending + miss)

    walk(0, 0, everything, ())
    return keep


def subspace_atom_set(s):
    """Projective points lying in the subspace s, as a mask over the atoms
    of its model, by one in_row_space test per point."""
    mask = 0
    for i, v in enumerate(s.model.atom_table):
        if s.contains(v):
            mask |= 1 << i
    return mask


def full_enumeration_projective_space(model):
    """The point sets of every subspace of the model: the factor lattice
    that build_projective_space now lists as flats."""
    from qll.geometry import enumerate_subspaces

    return _canonical(subspace_atom_set(s) for s in enumerate_subspaces(model))


def form_value(model, u, v):
    """uᵀ F v under the model's form."""
    from qll.gf import dot, mat_vec

    return dot(u, mat_vec(model.form, v, model.q), model.q)


def form_loop_perp_masks(model):
    """For every atom u, the atoms v with form(u, v) = 0, one form
    evaluation per pair: the relation build_projective_space now reads
    off the perp table."""
    atoms = model.atom_table
    return tuple(
        sum(1 << j for j, v in enumerate(atoms) if form_value(model, u, v) == 0)
        for u in atoms
    )


def full_enumeration_down(m1, m2):
    """sigma_down of every tensor-model subspace, deduplicated, with the
    notes down_product reports."""
    from qll.geometry import enumerate_subspaces, sigma_down, tensor_model

    images = [sigma_down(s) for s in enumerate_subspaces(tensor_model(m1, m2))]
    distinct = set(images)
    notes = {
        "subspaces": len(images),
        "distinct_images": len(distinct),
        "collisions": len(images) - len(distinct),
    }
    return _canonical(distinct), notes


def dot_hyperplane_images(m1, m2):
    """For every projective point w of the tensor model, in order, the pairs
    whose product vector x has w.x = 0, by one tuple dot product per pair:
    the generators down_product now reads row by row from a perp table."""
    from qll.gf import dot, kron_vec, projective_points

    q = m1.q
    vectors = [kron_vec(v1, v2, q) for v1 in m1.atom_table for v2 in m2.atom_table]
    return [
        sum(1 << k for k, x in enumerate(vectors) if dot(w, x, q) == 0)
        for w in projective_points(q, m1.n * m2.n)
    ]


def pair_loop_linear_map_coatom(a, m1, m2):
    """{(p, s) : form2(s, A p) = 0} as a pair mask, one form evaluation per
    pair of factor atoms."""
    from qll.gf import mat_vec

    n2 = m2.atom_count
    mask = 0
    for i1, v1 in enumerate(m1.atom_table):
        w = mat_vec(a, v1, m1.q)
        for i2, v2 in enumerate(m2.atom_table):
            if form_value(m2, v2, w) == 0:
                mask |= 1 << (i1 * n2 + i2)
    return mask


def normalize_and_sort_projective_points(q, n):
    """Every nonzero vector of GF(q)^n normalized to a leading 1, without
    repeats, sorted."""
    from qll.gf import normalize_point

    return tuple(
        sorted({normalize_point(v, q) for v in product(range(q), repeat=n) if any(v)})
    )


# ---------------------------------------------------------------------------
# The row-reduction subspace layer that the perp-table reads replaced: spans,
# kernels and orthogonal complements in canonical RREF bases, the cnot graph
# computed through them, and the similitude search with its rank test.


def subspace_span(model, vectors):
    """The subspace of model spanned by vectors."""
    from qll.geometry import Subspace
    from qll.gf import rref

    return Subspace(model, rref(vectors, model.q))


def subspace_zero(model):
    from qll.geometry import Subspace

    return Subspace(model, ())


def subspace_whole(model):
    from qll.geometry import Subspace
    from qll.gf import identity

    return Subspace(model, identity(model.n))


def kernel_basis(m, q):
    """RREF basis of {x : m x = 0}: one free column per basis vector, with
    the pivot entries read off the RREF of m."""
    from qll.gf import rref

    ncols = len(m[0])
    r = rref(m, q)
    pivots = [next(i for i, x in enumerate(row) if x) for row in r]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(r, pivots):
            v[p] = (-row[f]) % q
        basis.append(tuple(v))
    return rref(basis, q)


def orthogonal_complement(s):
    """{x : form(b, x) = 0 for every basis vector b of s}."""
    from qll.geometry import Subspace
    from qll.gf import mat_vec

    model = s.model
    if s.dim == 0:
        return subspace_whole(model)
    pairing = tuple(mat_vec(model.form, b, model.q) for b in s.basis)
    return Subspace(model, kernel_basis(pairing, model.q))


def subspace_entangling_graph(m1, m2):
    """sigma_down of the orthocomplement of the line through e0⊗f0 + e1⊗f1
    in the tensor model, as a pair mask."""
    from qll.geometry import sigma_down, tensor_model

    vec = [0] * (m1.n * m2.n)
    vec[0] = vec[m2.n + 1] = 1  # coordinates (0, 0) and (1, 1)
    line = subspace_span(tensor_model(m1, m2), [tuple(vec)])
    return sigma_down(orthogonal_complement(line))


def rank_filtered_similitude_group(model):
    """Image tuples, sorted, of the projective action of every g of full
    rank with gᵀFg = cF for some c != 0, one matrix at a time."""
    from qll.gf import mat_mul, mat_vec, normalize_point, rank, transpose

    q, n, form, index = model.q, model.n, model.form, model.atom_index
    perms = set()
    for entries in product(range(q), repeat=n * n):
        g = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if rank(g, q) != n:
            continue
        m = mat_mul(transpose(g), mat_mul(form, g, q), q)
        if not any(
            all(m[i][j] == c * form[i][j] % q for i in range(n) for j in range(n))
            for c in range(1, q)
        ):
            continue
        perms.add(
            tuple(index[normalize_point(mat_vec(g, v, q), q)] for v in model.atom_table)
        )
    return sorted(perms)


# ---------------------------------------------------------------------------
# The coatomistic test that the closure kernel replaced.


def nested_is_coatomistic(space):
    """Every member equals the intersection of the coatoms above it, by
    intersecting each member's coatoms one at a time."""
    coatoms, full = space.coatom_masks(), space.full_mask()
    for m in space.masks:
        acc = full
        for c in coatoms:
            if m & ~c == 0:
                acc &= c
        if acc != m:
            return False
    return True


# ---------------------------------------------------------------------------
# Slow symmetry checks: the leaf-enumeration automorphism search that the
# stabilizer chain replaced, and the P4 scan over every pair of symmetries.


def _maps_family_into(image, masks, mask_set):
    for m in masks:
        if sum(1 << image[p] for p in _members(m)) not in mask_set:
            return False
    return True


def naive_automorphism_group(space):
    """Every automorphism's image tuple, sorted: a backtracking search over
    atom images, filtered by the sorted-size atom and pair profiles, with a
    full family check at every leaf."""
    n, masks = space.universe_size, space.masks
    mask_set = set(masks)

    def profile(both):
        return tuple(sorted(m.bit_count() for m in masks if m & both == both))

    atom = [profile(1 << p) for p in range(n)]
    pair = {(p, q): profile(1 << p | 1 << q) for p in range(n) for q in range(n) if p != q}
    image, found = [], []

    def assign(p, used):
        if p == n:
            if _maps_family_into(image, masks, mask_set):
                found.append(tuple(image))
            return
        for cand in range(n):
            if cand in used or atom[cand] != atom[p]:
                continue
            if all(pair[(q, p)] == pair[(image[q], cand)] for q in range(p)):
                image.append(cand)
                assign(p + 1, used | {cand})
                image.pop()

    assign(0, frozenset())
    return sorted(found)


def generated_group(generators, n):
    """Every element of the group the image tuples generate on 0..n-1,
    sorted: the identity closed under composition with each generator."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(g[x] for x in h)
            if gh not in elements:
                elements.add(gh)
                frontier.append(gh)
    return sorted(elements)


def nested_p4_failures(instance, left_symmetries, right_symmetries):
    """(v1, v2) image pairs, in nested order, whose pair map
    (p1, p2) -> (v1 p1, v2 p2) does not preserve the product family."""
    grid, masks = instance.grid, instance.space.masks
    mask_set = set(masks)
    bad = []
    for v1 in left_symmetries:
        for v2 in right_symmetries:
            image = [
                grid.index(v1.image[i], v2.image[j])
                for i, j in (grid.unindex(k) for k in range(grid.n1 * grid.n2))
            ]
            if not _maps_family_into(image, masks, mask_set):
                bad.append((v1.image, v2.image))
    return bad


# ---------------------------------------------------------------------------
# The scans that the kernel's coatoms, the cross-mask pair relation and the
# mask test for P3 replaced.


def reversed_scan_coatom_masks(space):
    """Proper members below no larger proper member, found largest first:
    each member is compared with every coatom found so far."""
    full, found = space.full_mask(), []
    for m in reversed(space.masks):
        if m != full and not any(m & ~c == 0 for c in found):
            found.append(m)
    return tuple(reversed(found))


def pair_loop_perp_masks(n1, n2, rel1, rel2):
    """Product-atom perp masks from a loop over every pair of product atoms:
    orthogonal when either coordinate pair is."""
    size = n1 * n2
    perps = [0] * size
    for k in range(size):
        p1, p2 = divmod(k, n2)
        for j in range(k + 1, size):
            q1, q2 = divmod(j, n2)
            if rel1.are_orthogonal(p1, q1) or rel2.are_orthogonal(p2, q2):
                perps[k] |= 1 << j
                perps[j] |= 1 << k
    return tuple(perps)


def coordinate_set_p3_witnesses(instance):
    """Every P3 failure in family order, from the sets of first and second
    coordinates of each member: a member whose points share one row (column)
    fails when its section is not closed in the matching factor."""
    n2 = instance.grid.n2
    out = []
    for m in instance.space.masks:
        points = [divmod(k, n2) for k in _members(m)]
        rows = {i for i, _ in points}
        cols = {j for _, j in points}
        if len(rows) == 1:
            sec = sum(1 << j for _, j in points)
            if not instance.right.contains_mask(sec):
                out.append({"set": _members(m), "row": rows.pop(), "section": _members(sec)})
        if len(cols) == 1:
            sec = sum(1 << i for i, _ in points)
            if not instance.left.contains_mask(sec):
                out.append({"set": _members(m), "column": cols.pop(), "section": _members(sec)})
    return out


def count_dot_elements(dot):
    """(nodes, edges) of a digraph produced by export_dot."""
    nodes = sum(1 for line in dot.splitlines() if "[label=" in line)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    return nodes, edges


def implicit_inside_top(instance):
    """Every member of the product family has closed sections, tested
    through top_product's implicit membership: the scan interval_check ran
    before it read inside_top off the materialized top."""
    from qll.products import top_product

    top = top_product(instance.left, instance.right).space
    return all(top.contains_mask(m) for m in instance.space.masks)


# ---------------------------------------------------------------------------
# The transposed index and the orthocomplementation search before they were
# packed.


def loop_transpose(masks, universe_size):
    """For every atom p, the bitset over indices i of the masks holding p,
    one '0'/'1' digit string per atom filled a member at a time."""
    size = len(masks)
    # index i at digit size-1-i
    cols = [bytearray(b"0" * size) for _ in range(universe_size)]
    for i, m in enumerate(masks):
        for p in _members(m):
            cols[p][size - 1 - i] = ord("1")
    return tuple(int(c, 2) if size else 0 for c in cols)


def loop_orthocomplementations(space, budgets):
    """find_orthocomplementations with one list entry per atom: placing a
    coatom loops over every other atom to narrow its options, and an empty
    list entry kills the branch unless its atom is already placed.  Atom
    order, option order, node counting and leaves are the library's."""
    from qll.closure import is_coatomistic
    from qll.errors import BudgetExceeded
    from qll.ortho import OrthoMap, OrthoSearchResult

    n = space.universe_size
    cms = space.coatom_masks()
    k = len(cms)
    if n != k:
        return OrthoSearchResult((), exhaustive=True, nodes=0)
    coatomistic = is_coatomistic(space)
    contains = loop_transpose(cms, n)
    all_coatoms = (1 << k) - 1
    degree = [contains[p].bit_count() for p in range(n)]
    order = sorted(range(n), key=lambda p: (-degree[p], p))
    initial = [all_coatoms & ~contains[p] for p in range(n)]
    image = [-1] * n
    found = []
    nodes = 0

    def assign(pos, allowed):
        nonlocal nodes
        if pos == n:
            if coatomistic:
                found.append(OrthoMap(space, tuple(cms[ci] for ci in image)))
            return
        p = order[pos]
        options = allowed[p]
        while options:
            low = options & -options
            options ^= low
            ci = low.bit_length() - 1
            nodes += 1
            if nodes > budgets.node_cap:
                raise BudgetExceeded("node_cap", budgets.node_cap)
            cm = cms[ci]
            image[p] = ci
            nxt = list(allowed)
            nxt[p] = low
            ok = True
            for q in range(n):
                if q == p:
                    continue
                if cm >> q & 1:
                    nxt[q] &= contains[p]
                else:
                    nxt[q] &= ~contains[p]
                nxt[q] &= ~low
                if nxt[q] == 0 and image[q] < 0:
                    ok = False
                    break
            if ok:
                assign(pos + 1, nxt)
            image[p] = -1

    assign(0, initial)
    found.sort(key=lambda om: om.atom_image)
    return OrthoSearchResult(tuple(found), exhaustive=True, nodes=nodes)
