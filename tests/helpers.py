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
    return {frozenset(a.members) for a in space.family}


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
# intersection closure, the pruned top search and the hyperplane generators
# replaced.  They return mask tuples in canonical family order.


def _canonical(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), _members(m))))


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


def full_enumeration_down(m1, m2):
    """sigma_down of every tensor-model subspace, deduplicated, with the
    notes down_product reports."""
    from qll.geometry import enumerate_subspaces, sigma_down, tensor_model

    images = [sigma_down(s).mask for s in enumerate_subspaces(tensor_model(m1, m2))]
    distinct = set(images)
    notes = {
        "subspaces": len(images),
        "distinct_images": len(distinct),
        "collisions": len(images) - len(distinct),
    }
    return _canonical(distinct), notes


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
