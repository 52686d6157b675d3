from __future__ import annotations

import hashlib
import json

import pytest

from helpers import pair_loop_perp_masks
from qll import harness
from qll.cli import main

from qll.budgets import DEFAULT_BUDGETS
from qll.errors import InputError
from qll.products import check_p4
from qll.automorphisms import automorphism_chain
from qll.harness import (
    THEOREMS,
    NamedInstance,
    TheoremReport,
    _p4_check,
    build_product,
    list_instances,
    list_theorems,
    pair_relation,
    resolve_base,
    resolve_instance,
    verify,
)


def test_boolean_is_read_off_the_family():
    # a factor is boolean iff its family is the powerset of its atoms
    for name in harness.BASE_BUILDERS:
        assert resolve_base(name).boolean == name.startswith("boolean"), name
    assert resolve_instance("sep(boolean2,boolean2)").boolean
    assert not resolve_instance("sep(mo2,boolean2)").boolean


def test_registry_lists_expected_names():
    names = list_instances()
    assert set(names["base"]) == {
        "mo2",
        "mo3",
        "boolean2",
        "boolean3",
        "gf3_2",
        "gf5_2",
        "gf7_2",
        "gf3_tensor",
    }
    assert set(list_theorems()) == set(THEOREMS)


@pytest.mark.parametrize(
    "left,right", [("mo2", "mo3"), ("gf3_2", "mo2"), ("boolean2", "mo3")]
)
def test_pair_relation_matches_pair_loop(left, right):
    l, r = resolve_base(left), resolve_base(right)
    n1, n2 = l.space.universe_size, r.space.universe_size
    rel = pair_relation(n1, n2, l.relation, r.relation)
    assert rel.perp_masks == pair_loop_perp_masks(n1, n2, l.relation, r.relation)


def test_resolve_base_unknown():
    with pytest.raises(InputError):
        resolve_base("mo17")


def test_resolve_product_expression():
    inst = resolve_instance("sep(mo2,mo2)")
    assert inst.name == "sep(mo2,mo2)"
    assert inst.product.kind == "sep"
    assert len(inst.space.masks) == 114
    inst2 = resolve_instance("star( mo2 , mo2 )")
    assert inst2.name == "star(mo2,mo2)"


def test_resolve_down_needs_models():
    with pytest.raises(InputError):
        resolve_instance("down(mo2,mo2)")
    inst = resolve_instance("down(gf3_2,gf3_2)")
    assert len(inst.space.masks) == 138


def test_resolve_top_materializes_by_default():
    inst = resolve_instance("top(mo2,mo2)")
    assert inst.space.is_explicit


def test_base_instance_json_carries_model(capfd):
    inst = resolve_instance("gf3_2")
    data = inst.to_json()
    assert data["model"]["q"] == 3
    assert "orthogonality" in data
    json.dumps(data)  # serializable


def test_resolve_base_name_is_the_registry_record():
    inst = resolve_instance("gf3_2")
    assert isinstance(inst, NamedInstance)
    assert inst.boolean is False
    assert inst.relation is not None and inst.model is not None
    assert inst.product is None and inst.left is None and inst.right is None
    assert resolve_instance("boolean2").boolean is True


def test_resolve_product_carries_its_factors():
    inst = resolve_instance("star(mo2,gf3_2)")
    assert isinstance(inst.left, NamedInstance) and isinstance(inst.right, NamedInstance)
    assert (inst.left.name, inst.right.name) == ("mo2", "gf3_2")
    assert inst.right.model is not None
    assert inst.relation is None and inst.model is None
    assert inst.space is inst.product.space
    assert inst.to_json()["factors"] == ["mo2", "gf3_2"]


def test_p4_check_matches_thm10_4():
    gf = resolve_base("gf3_2")
    down = build_product("down", gf, gf)
    checks = {c.name: c for c in verify("thm10.4").checks}

    sims, pairs = _p4_check(down, gf, gf, "similitudes", DEFAULT_BUDGETS)
    reported = checks["axiom_p4_similitude_pairs"]
    assert pairs == reported.details["pairs"] == 64
    assert sims.passed is reported.passed is True

    full, pairs = _p4_check(down, gf, gf, "aut", DEFAULT_BUDGETS)
    reported = checks["axiom_p4_full_aut_fails"]
    assert pairs == reported.details["pairs"] == 576
    assert full.passed is not reported.passed
    assert list(full.check("P4").witnesses) == reported.details["witnesses"]


def test_p4_check_matches_cli_on_sep_mo2_mo3(capsys):
    inst = resolve_instance("sep(mo2,mo3)")
    report, pairs = _p4_check(inst.product, inst.left, inst.right, "aut", DEFAULT_BUDGETS)
    assert pairs == 24 * 720 == 17_280
    # the factor order matters: mo2's automorphisms act on the rows, mo3's
    # on the columns
    c1 = automorphism_chain(inst.left.space)
    c2 = automorphism_chain(inst.right.space)
    assert report == check_p4(inst.product, c1.generators, c2.generators)
    assert report.passed

    assert main(["check", "--property", "p4", "sep(mo2,mo3)"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "instance": "sep(mo2,mo3)",
        "property": "p4",
        "symmetries": "aut",
        "pairs": pairs,
        **report.to_json(),
    }


def _factor(name):
    if name == "gf5_2-diag-1-3":
        # gf5_2's lattice under another anisotropic form: equal spaces,
        # unequal models
        return harness._build_gf_plane(5, ((1, 0), (0, 3)))(DEFAULT_BUDGETS)
    return resolve_base(name)


@pytest.mark.parametrize(
    "kind,left,right,symmetries,calls,pairs,passed",
    [
        ("down", "gf3_2", "gf3_2", "similitudes", 1, 8 * 8, True),
        ("down", "gf5_2", "gf5_2-diag-1-3", "similitudes", 2, 12 * 12, True),
        ("down", "gf5_2", "gf5_2-diag-1-3", "aut", 1, 720 * 720, False),
        ("sep", "mo2", "mo2", "aut", 1, 24 * 24, True),
        ("sep", "mo2", "mo3", "aut", 2, 24 * 720, True),
    ],
)
def test_p4_check_builds_one_symmetry_list_for_equal_factors(
    monkeypatch, kind, left, right, symmetries, calls, pairs, passed
):
    l, r = _factor(left), _factor(right)
    product = build_product(kind, l, r)
    name = "similitude_group" if symmetries == "similitudes" else "automorphism_chain"
    real, seen = getattr(harness, name), []

    def counted(*args):
        seen.append(args[0])
        return real(*args)

    monkeypatch.setattr(harness, name, counted)
    report, got = _p4_check(product, l, r, symmetries, DEFAULT_BUDGETS)
    assert (len(seen), got, report.passed) == (calls, pairs, passed)
    monkeypatch.undo()
    assert (report, got) == _p4_check(product, l, r, symmetries, DEFAULT_BUDGETS)


def test_verify_unknown_theorem():
    with pytest.raises(InputError):
        verify("thm0.0")


def test_verify_rejects_bad_factors():
    with pytest.raises(InputError):
        verify("thm9.1", "boolean2", "mo2")
    with pytest.raises(InputError):
        verify("thm10.4", "mo2", "mo2")
    with pytest.raises(InputError):
        verify("thm7.5", "boolean2", "boolean2")
    with pytest.raises(InputError, match="field mismatch: q=3 vs q=5"):
        verify("cnot", "gf3_2", "gf5_2")
    # gf3_tensor carries no atom orthogonality; both claims must refuse it
    # before they build a product
    for tid in ("thm8.6", "thm9.1"):
        with pytest.raises(InputError):
            verify(tid, "gf3_tensor", "mo2")


_SEP_TOP_STAR = ["sep_cross_relation_is_ortho", "sep_admits_ortho",
                 "cross_map_found_by_search", "top_admits_none", "star_admits_none"]
_SEP_TOP_STAR_CERTS = ["sep_cross_ortho", "sep_search", "top_search", "star_search"]

# (claim, left, right, node_cap) -> (check names, certificate keys, instances),
# each in report order
REPORT_CONTRACT = {
    ("thm8.6", None, None, None): (
        _SEP_TOP_STAR,
        _SEP_TOP_STAR_CERTS,
        ["sep(mo2,mo2)", "top(mo2,mo2)", "star(mo2,mo2)"],
    ),
    ("thm9.1", None, None, None): (
        ["cross_relation_is_ortho", "orthomodularity_fails", "covering_fails"],
        ["ortho", "orthomodularity_witness", "covering_witness"],
        ["sep(mo2,mo2)"],
    ),
    ("thm9.4", None, None, None): (
        ["four_atom_condition_left", "four_atom_condition_right", "top_covering_fails"],
        ["covering_witness"],
        ["top(mo2,mo2)"],
    ),
    ("thm5.x", None, None, None): (
        ["hypothesis_left", "hypothesis_right", "bottom_equals_top_iff_boolean_factor",
         "bijection_graph_separates"],
        ["bijection_graph"],
        ["sep(mo2,mo2)", "top(mo2,mo2)"],
    ),
    ("thm7.5", None, None, None): (
        ["hypothesis_third_atom_left", "hypothesis_third_atom_right"]
        + [f"{kind}_{check}" for kind in ("sep", "star")
           for check in ("all_decompose", "roundtrip", "triples_distinct",
                         "order_is_twice_factor_product")],
        ["factor_group_orders", "sep_group_order", "star_group_order"],
        ["sep(mo2,mo2)", "star(mo2,mo2)"],
    ),
    ("thm10.4", None, None, None): (
        ["axiom_p1", "axiom_p2", "axiom_p3", "axiom_p4_similitude_pairs",
         "axiom_p4_full_aut_fails", "atomistic", "coatomistic", "covering_holds",
         "dual_covering_fails", "not_dac", "coatom_count_is_projective_map_count",
         "coatoms_are_linear_map_duals", "no_orthocomplementation",
         "strictly_between_bottom_and_top", "atom_count_is_pair_count"],
        ["notes", "dual_covering_witness", "ortho_search"],
        ["down(gf3_2,gf3_2)"],
    ),
    ("cnot", None, None, None): (
        ["graph_matches_expected_pairs", "graph_in_down", "graph_in_top",
         "graph_not_in_sep"],
        ["graph_pairs", "graph_labels"],
        ["down(gf3_2,gf3_2)"],
    ),
    # finite-field factors add the down product to thm8.6
    ("thm8.6", "gf3_2", "gf3_2", None): (
        _SEP_TOP_STAR + ["down_admits_none"],
        _SEP_TOP_STAR_CERTS + ["down_search"],
        ["sep(gf3_2,gf3_2)", "top(gf3_2,gf3_2)", "star(gf3_2,gf3_2)",
         "down(gf3_2,gf3_2)"],
    ),
    # falsified: the report keeps the same shape
    ("thm8.6", "mo2", "mo3", None): (
        _SEP_TOP_STAR,
        _SEP_TOP_STAR_CERTS,
        ["sep(mo2,mo3)", "top(mo2,mo3)", "star(mo2,mo3)"],
    ),
    # budget: the finished checks, the budget certificate, the factor names
    ("thm8.6", None, None, 3): (
        ["sep_cross_relation_is_ortho"],
        ["budget", "cap"],
        ["mo2", "mo2"],
    ),
}


@pytest.mark.parametrize(
    "case", list(REPORT_CONTRACT), ids=lambda c: "-".join(map(str, c))
)
def test_report_contract(case):
    tid, left, right, node_cap = case
    budgets = DEFAULT_BUDGETS
    if node_cap is not None:
        budgets = budgets.with_overrides(node_cap=node_cap)
    data = verify(tid, left, right, budgets).to_json()
    checks, certs, instances = REPORT_CONTRACT[case]
    assert [c["name"] for c in data["checks"]] == checks
    assert list(data["certificates"]) == certs
    assert data["instances"] == instances
    # every product a report names is embedded, in the same order
    assert list(data["artifacts"]) == ([] if node_cap is not None else instances)


@pytest.mark.parametrize(
    "tid,left,right,verdict",
    [
        ("thm8.6", None, None, "verified"),
        ("thm9.1", None, None, "verified"),
        ("thm9.4", None, None, "verified"),
        ("thm5.x", None, None, "verified"),
        ("thm5.x", "boolean2", "mo2", "verified"),
        ("thm5.x", "mo2", "boolean2", "verified"),
        ("thm5.x", "boolean2", "boolean2", "verified"),
        ("thm7.5", None, None, "verified"),
        ("cnot", None, None, "verified"),
    ],
)
def test_pipeline_verdicts(tid, left, right, verdict):
    report = verify(tid, left, right)
    assert report.verdict == verdict
    assert report.exit_code == 0
    assert all(c.passed for c in report.checks)


def test_thm104_reports_the_one_divergence():
    report = verify("thm10.4")
    assert report.verdict == "analog-divergence"
    assert report.exit_code == 1
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["axiom_p4_full_aut_fails"]
    assert failing[0].details["observed"] == "all pairs covariant"
    # everything the claim otherwise states holds
    passing = {c.name for c in report.checks if c.passed}
    assert {
        "axiom_p1",
        "axiom_p2",
        "axiom_p3",
        "axiom_p4_similitude_pairs",
        "coatomistic",
        "covering_holds",
        "dual_covering_fails",
        "not_dac",
        "coatom_count_is_projective_map_count",
        "coatoms_are_linear_map_duals",
        "no_orthocomplementation",
        "strictly_between_bottom_and_top",
    } <= passing


def test_budget_verdict():
    report = verify("thm8.6", budgets=DEFAULT_BUDGETS.with_overrides(node_cap=3))
    assert report.verdict == "inconclusive-budget"
    assert report.exit_code == 2
    assert report.certificates["budget"] == "node_cap"
    # the check finished before the ortho search ran out stays in the report
    assert [(c.name, c.passed) for c in report.checks] == [
        ("sep_cross_relation_is_ortho", True)
    ]


def test_report_json_is_self_contained():
    report = verify("thm9.1")
    data = report.to_json()
    json.dumps(data)
    assert data["verdict"] == "verified"
    assert data["theorem"] == "thm9.1"
    # the exact instance family is embedded
    name = "sep(mo2,mo2)"
    assert name in data["artifacts"]
    assert len(data["artifacts"][name]["family"]) == 114
    assert "orthomodularity_witness" in data["certificates"]
    assert "covering_witness" in data["certificates"]


def test_thm86_certificates():
    report = verify("thm8.6")
    certs = report.certificates
    assert certs["sep_search"]["count"] == 9
    assert certs["top_search"]["count"] == 0
    assert certs["top_search"]["certificate"]["coatoms"] == 40
    assert certs["star_search"]["count"] == 0
    assert certs["star_search"]["certificate"]["kind"] == "atom_coatom_count_mismatch"


@pytest.mark.parametrize("left,right", [("mo2", "mo3"), ("mo3", "mo2")])
def test_thm86_star_equals_sep_on_mixed_mo_factors(left, right):
    # the coatoms of an MO factor are its singletons, so a star generator
    # with no full row or column would pair the 4 rows with the 6 columns
    # one to one, which cannot be: only the 24 crosses qualify, star is sep,
    # and it admits sep's 45 maps
    report = verify("thm8.6", left, right)
    assert report.verdict == "falsified"
    assert [c.name for c in report.checks if not c.passed] == ["star_admits_none"]
    assert report.certificates["star_search"]["count"] == 45
    sep, star = (
        report.artifacts[f"{kind}({left},{right})"]["family"] for kind in ("sep", "star")
    )
    assert sep == star and len(sep) == 240


def test_thm86_over_gf_factors_includes_down():
    report = verify("thm8.6", "gf3_2", "gf3_2")
    assert report.verdict == "verified"
    assert "down_search" in report.certificates
    assert report.certificates["down_search"]["count"] == 0


def test_thm75_counts():
    report = verify("thm7.5")
    certs = report.certificates
    assert certs["factor_group_orders"] == {"left": 24, "right": 24}
    assert certs["sep_group_order"] == 1152
    assert certs["star_group_order"] == 1152


def test_thm75_on_mo3_factors():
    # 2 * 720**2 elements per product: the pipeline reads generators only
    report = verify("thm7.5", "mo3", "mo3")
    assert report.verdict == "verified"
    certs = report.certificates
    assert certs["factor_group_orders"] == {"left": 720, "right": 720}
    assert certs["sep_group_order"] == certs["star_group_order"] == 1036800 == 2 * 720**2


def test_thm5x_witness_structure():
    report = verify("thm5.x", "mo2", "mo2")
    graph = report.certificates["bijection_graph"]
    assert len(graph) == 4
    assert sorted(p[0] for p in graph) == [0, 1, 2, 3]
    assert sorted(p[1] for p in graph) == [0, 1, 2, 3]


def test_cnot_graph_values():
    report = verify("cnot")
    assert report.certificates["graph_pairs"] == [[0, 1], [1, 0], [2, 3], [3, 2]]
    labels = report.certificates["graph_labels"]
    assert ["(0,1)", "(1,0)"] in labels
    assert ["(1,1)", "(1,2)"] in labels


def test_reports_reproducible():
    a = verify("thm9.4").to_json()
    b = verify("thm9.4").to_json()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


# sha256 of each default-claim report (elapsed_seconds removed, keys sorted)
# and of the `qll check --property ortho` stdout, pinned so that a change
# meant to keep every answer shows that it does
REPORT_DIGESTS = {
    "cnot": "4b2b7138c817a64beef5ce60e7724d40bf2d3a32ae39c99b337960c2b8a24ec0",
    "thm10.4": "24ac49c8c507a9c46a74cc14e66725b0d1501117c1faf6f0ce2fb9d7ae8c31dc",
    "thm5.x": "de7a8cd70795cb5c7ea0a5ae3b2675048ac008ae48f9506fd869b699b8a87d51",
    "thm7.5": "34198c65ab366d90e28ab9f54f8b34d982558edb372c3d9253ae0ffa45606ac8",
    "thm8.6": "112364215e001851cd2659e236f8e6fb991bfff389a355e65e81ef3dfa9fb175",
    "thm9.1": "33b7b8379f4bc19d91961ad0c46f01206b6953f2f473f01d859d347d3b55ec95",
    "thm9.4": "3b9b2fb61cc65570ed978f5fbc4563a31b774543ecd3d2cf670b3ee1215904e0",
}
ORTHO_STDOUT_DIGESTS = {
    "sep(mo2,mo2)": "ea03596fa680e06a6eb9ddaf60727ed277d04abdb0214f16344b19dfb4e377a7",
    "sep(mo2,mo3)": "496d465e9a61c78531718dd2b4b42e96b242f29a273cee69617e2eaea398b4e1",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_reports_are_unchanged(capsys):
    assert set(REPORT_DIGESTS) == set(THEOREMS)
    for tid, digest in REPORT_DIGESTS.items():
        data = verify(tid).to_json()
        data.pop("elapsed_seconds")
        assert _sha256(json.dumps(data, sort_keys=True)) == digest, tid
    capsys.readouterr()
    for name, digest in ORTHO_STDOUT_DIGESTS.items():
        assert main(["check", "--property", "ortho", name]) == 0
        assert _sha256(capsys.readouterr().out) == digest, name
