"""The benchmark's workloads: generated inputs, op lists and expected answers.

Importing this module imports qll, so the import belongs to the timed
set-up.  ``setup(name, seed)`` builds a workload's inputs and returns its
fixed op list.  Each op runs one call into qll and checks the answer outside
the timed region; a check returns None when the answer is right, or a
one-line reason.

The seed relabels the atoms of every space the benchmark hands straight to
a decider.  The relabelled space is isomorphic, so the expected answers
stay the same.  How far a scan runs before it stops depends on the
labelling, so each pass takes the next of RELABELLINGS labellings drawn from
the seed, and a run's median covers several of them.  Spaces built inside a
claim pipeline or a constructor are not relabelled, so their digests are
fixed.  Search node counts are never pinned: later changes may lower them
legitimately.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from qll import (
    AtomSet,
    ExplicitSpace,
    SubspaceModel,
    down_product,
    find_covering_violation,
    find_dual_covering_violation,
    find_orthocomplementations,
    materialize_top_product,
    sep_product,
    star_product,
    verify,
)
from qll.atomset import mask_from_members
from qll.harness import resolve_base

Check = Callable[[Any], "str | None"]


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Check


# ---------------------------------------------------------------------------
# expected answers

_TOP_COVERING = ("four_atom_condition_left", "four_atom_condition_right", "top_covering_fails")
_SEP_NOT_OM = ("cross_relation_is_ortho", "orthomodularity_fails", "covering_fails")

# Claim id -> (verdict, checks that pass, checks that fail) at the default
# instances.  thm10.4 reports analog-divergence by design: only its
# axiom_p4_full_aut_fails probe fails (see the README).
CLAIMS_L0 = {
    "thm8.6": ("verified", (
        "sep_cross_relation_is_ortho", "sep_admits_ortho", "cross_map_found_by_search",
        "top_admits_none", "star_admits_none"), ()),
    "thm9.1": ("verified", _SEP_NOT_OM, ()),
    "thm9.4": ("verified", _TOP_COVERING, ()),
    "thm5.x": ("verified", (
        "hypothesis_left", "hypothesis_right", "bottom_equals_top_iff_boolean_factor",
        "bijection_graph_separates"), ()),
    "thm7.5": ("verified", (
        "hypothesis_third_atom_left", "hypothesis_third_atom_right",
        "sep_all_decompose", "sep_roundtrip", "sep_triples_distinct",
        "sep_order_is_twice_factor_product", "star_all_decompose", "star_roundtrip",
        "star_triples_distinct", "star_order_is_twice_factor_product"), ()),
    "thm10.4": ("analog-divergence", (
        "axiom_p1", "axiom_p2", "axiom_p3", "axiom_p4_similitude_pairs", "atomistic",
        "coatomistic", "covering_holds", "dual_covering_fails", "not_dac",
        "coatom_count_is_projective_map_count", "coatoms_are_linear_map_duals",
        "no_orthocomplementation", "strictly_between_bottom_and_top",
        "atom_count_is_pair_count"), ("axiom_p4_full_aut_fails",)),
    "cnot": ("verified", (
        "graph_matches_expected_pairs", "graph_in_down", "graph_in_top",
        "graph_not_in_sep"), ()),
}

# (claim, left, right) -> (verdict, passing checks, failing checks)
CLAIMS_L1 = {
    ("thm9.4", "mo2", "mo3"): ("verified", _TOP_COVERING, ()),
    ("thm9.4", "mo3", "mo2"): ("verified", _TOP_COVERING, ()),
    ("thm5.x", "mo3", "mo2"): ("verified", (
        "hypothesis_left", "hypothesis_right", "bottom_equals_top_iff_boolean_factor"), ()),
    ("thm9.1", "mo2", "mo3"): ("verified", _SEP_NOT_OM, ()),
}

# Construction -> (family size, digest of the sorted masks, extra notes).
FAMILIES = {
    "sep_product(mo3,mo3)": (536, "fe177aab255a0f1f", {}),
    "materialize_top_product(mo3,mo3)": (13376, "b2987e8e3b6b3f1f", {}),
    "star_product(mo3,mo3)": (9056, "8d1e323c186bb06f", {}),
    "down_product(gf7_2,gf7_2)": (2050, "89ff8f985198393d", {"subspaces": 3652}),
    "down_product(gf5_2,gf5_2)": (656, "cf4259bf132ae567", {"subspaces": 1120}),
}

ORTHO_MAPS_SEP_MO2_MO3 = 45

RELABELLINGS = 8

# -1 is a square mod 5, so the identity form is isotropic there.
GF5_FORM = ((1, 0), (0, 2))


# ---------------------------------------------------------------------------
# answer checks


def family_digest(masks) -> str:
    h = hashlib.sha256()
    for m in sorted(masks):
        h.update(m.to_bytes(16, "little"))
    return h.hexdigest()[:16]


def _check_family(key: str) -> Check:
    size, digest, notes = FAMILIES[key]

    def check(inst) -> str | None:
        masks = inst.space.masks
        if len(masks) != size:
            return f"{key}: {len(masks)} sets, expected {size}"
        for note, value in notes.items():
            if inst.notes.get(note) != value:
                return f"{key}: notes[{note}]={inst.notes.get(note)}, expected {value}"
        got = family_digest(masks)
        if got != digest:
            return f"{key}: digest {got}, expected {digest}"
        return None

    return check


def recheck_covering(space, witness: dict) -> str | None:
    """``atom`` must lie outside ``a``, ``join`` must be the closure of
    ``a`` plus ``atom``, and ``between`` must be closed and lie strictly
    between ``a`` and ``join``."""
    a, hi, mid = (mask_from_members(witness[k]) for k in ("a", "join", "between"))
    atom = 1 << witness["atom"]
    if not all(space.contains_mask(m) for m in (a, hi, mid)):
        return "covering witness names a set that is not closed"
    if a & atom:
        return "covering witness: atom lies in a"
    if hi != space.closure_mask(a | atom):
        return "covering witness: join is not the closure of a and atom"
    if not (a & ~mid == 0 and mid & ~hi == 0 and a != mid != hi):
        return "covering witness: between is not strictly between a and join"
    return None


def recheck_dual_covering(space, witness: dict) -> str | None:
    """``coatom`` must be a coatom whose join with ``a`` is the full set,
    and ``between`` must be closed and lie strictly between ``meet`` and
    ``a``, where meet = a ∩ coatom."""
    a, x, lo, mid = (mask_from_members(witness[k]) for k in ("a", "coatom", "meet", "between"))
    if lo != a & x:
        return "dual covering witness: meet is not a ∩ coatom"
    if not all(space.contains_mask(m) for m in (a, lo, mid)):
        return "dual covering witness names a set that is not closed"
    if x not in space.coatom_masks():
        return "dual covering witness: coatom is not a coatom"
    if space.closure_mask(a | x) != space.full_mask():
        return "dual covering witness: a and coatom do not join to the full set"
    if not (lo & ~mid == 0 and mid & ~a == 0 and lo != mid != a):
        return "dual covering witness: between is not strictly between meet and a"
    return None


def _artifact_space(report, name: str) -> ExplicitSpace:
    data = report.artifacts[name]
    n = len(data["pairing"])
    return ExplicitSpace(AtomSet.from_members(n, s) for s in data["family"])


def _check_claim(expected) -> Check:
    verdict, passing, failing = expected

    def check(report) -> str | None:
        tag = f"{report.theorem} on {','.join(report.instances)}"
        if report.verdict != verdict:
            return f"{tag}: verdict {report.verdict}, expected {verdict}"
        got_pass = {c.name for c in report.checks if c.passed}
        got_fail = {c.name for c in report.checks if not c.passed}
        if got_pass != set(passing) or got_fail != set(failing):
            return f"{tag}: passed {sorted(got_pass)}, failed {sorted(got_fail)}"
        certs = report.certificates
        if "covering_witness" in certs:
            (name,) = report.instances
            why = recheck_covering(_artifact_space(report, name), certs["covering_witness"])
            if why:
                return f"{tag}: {why}"
        if "dual_covering_witness" in certs:
            (name,) = report.instances
            why = recheck_dual_covering(
                _artifact_space(report, name), certs["dual_covering_witness"]
            )
            if why:
                return f"{tag}: {why}"
        return None

    return check


# ---------------------------------------------------------------------------
# inputs


def relabel(family, rng: random.Random) -> list[AtomSet]:
    """The family under a random permutation of its atoms."""
    n = family[0].universe_size
    image = list(range(n))
    rng.shuffle(image)
    out = []
    for a in family:
        m = 0
        for p in a.members:
            m |= 1 << image[p]
        out.append(AtomSet(n, m))
    return out


def relabellings(family, rng: random.Random) -> list[list[AtomSet]]:
    return [relabel(family, rng) for _ in range(RELABELLINGS)]


def _claims_l0(rng: random.Random) -> list[Op]:
    return [
        Op(f"verify {tid}", (lambda tid=tid: verify(tid)), _check_claim(exp))
        for tid, exp in CLAIMS_L0.items()
    ]


def _deciders_l1(rng: random.Random) -> list[Op]:
    mo2 = resolve_base("mo2").space
    mo3 = resolve_base("mo3").space
    gf5 = SubspaceModel.create(5, 2, GF5_FORM)
    # each op that takes a relabelled space moves to the next labelling per
    # call, and every op runs once per pass
    seps = itertools.cycle(relabellings(sep_product(mo2, mo3).space.family, rng))
    downs = relabellings(down_product(gf5, gf5).space.family, rng)
    downs_cov, downs_dual = itertools.cycle(downs), itertools.cycle(downs)

    ops = [
        Op(f"verify {tid} {l} {r}", (lambda a=(tid, l, r): verify(*a)), _check_claim(exp))
        for (tid, l, r), exp in CLAIMS_L1.items()
    ]

    def check_ortho(res) -> str | None:
        if not res.exhaustive or len(res.maps) != ORTHO_MAPS_SEP_MO2_MO3:
            return (f"ortho search: {len(res.maps)} maps, exhaustive={res.exhaustive}, "
                    f"expected {ORTHO_MAPS_SEP_MO2_MO3}")
        return None

    def covering():
        space = ExplicitSpace(next(downs_cov))
        return space, find_covering_violation(space)

    def check_covering(out) -> str | None:
        return None if out[1] is None else "covering fails on down(gf5_2,gf5_2)"

    def dual_covering():
        space = ExplicitSpace(next(downs_dual))
        return space, find_dual_covering_violation(space)

    def check_dual(out) -> str | None:
        space, viol = out
        if viol is None:
            return "dual covering holds on down(gf5_2,gf5_2)"
        return recheck_dual_covering(space, viol.to_json())

    ops += [
        Op("find_orthocomplementations sep(mo2,mo3)",
           lambda: find_orthocomplementations(ExplicitSpace(next(seps))), check_ortho),
        Op("down_product(gf5_2,gf5_2)", lambda: down_product(gf5, gf5),
           _check_family("down_product(gf5_2,gf5_2)")),
        Op("find_covering_violation down(gf5_2,gf5_2)", covering, check_covering),
        Op("find_dual_covering_violation down(gf5_2,gf5_2)", dual_covering, check_dual),
    ]
    return ops


def _construct_l2(rng: random.Random) -> list[Op]:
    mo3 = resolve_base("mo3").space
    gf7 = SubspaceModel.create(7, 2)
    builds = {
        "sep_product(mo3,mo3)": lambda: sep_product(mo3, mo3),
        "materialize_top_product(mo3,mo3)": lambda: materialize_top_product(mo3, mo3),
        "star_product(mo3,mo3)": lambda: star_product(mo3, mo3),
        "down_product(gf7_2,gf7_2)": lambda: down_product(gf7, gf7),
    }
    return [Op(key, fn, _check_family(key)) for key, fn in builds.items()]


WORKLOADS = {
    "claims-l0": _claims_l0,
    "deciders-l1": _deciders_l1,
    "construct-l2": _construct_l2,
}


def setup(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(f"relabel:{seed}"))
