from __future__ import annotations

import json

import pytest

from qll.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_emits_instance_json(capsys):
    code, out, _ = _run(capsys, "build", "mo2")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "mo2"
    assert len(data["closed_sets"]) == 6


def test_build_unknown_name(capsys):
    code, _, err = _run(capsys, "build", "mo99")
    assert code == 3
    assert "mo99" in err


def test_construct_matches_build_expression(capsys):
    code, out, _ = _run(capsys, "construct", "--product", "sep",
                        "--left", "mo2", "--right", "mo2")
    assert code == 0
    via_flag = json.loads(out)
    code, out, _ = _run(capsys, "build", "sep(mo2,mo2)")
    assert code == 0
    assert via_flag == json.loads(out)
    assert len(via_flag["family"]) == 114


def test_check_ortho_exit_codes(capsys):
    code, out, _ = _run(capsys, "check", "--property", "ortho", "mo2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3

    code, out, _ = _run(capsys, "check", "--property", "ortho", "top(mo2,mo2)")
    assert code == 1
    data = json.loads(out)
    assert data["count"] == 0
    assert data["certificate"]["coatoms"] == 40


def test_check_omod(capsys):
    code, out, _ = _run(capsys, "check", "--property", "omod", "mo2")
    assert code == 0
    assert json.loads(out)["orthomodular"] is True

    code, out, _ = _run(capsys, "check", "--property", "omod", "sep(mo2,mo2)")
    assert code == 1
    data = json.loads(out)
    assert data["orthomodular"] is False
    assert set(data["witness"]) == {"a", "b", "rejoin"}


def test_check_omod_needs_a_relation(capsys):
    code, _, err = _run(capsys, "check", "--property", "omod", "top(mo2,mo2)")
    assert code == 3
    assert "no orthocomplementation" in err


def test_check_covering_and_dac(capsys):
    code, out, _ = _run(capsys, "check", "--property", "covering", "top(mo2,mo2)")
    assert code == 1
    assert json.loads(out)["holds"] is False

    code, out, _ = _run(capsys, "check", "--property", "dac", "mo2")
    assert code == 0
    assert json.loads(out)["dac"] is True

    code, out, _ = _run(capsys, "check", "--property", "dac", "down(gf3_2,gf3_2)")
    assert code == 1
    data = json.loads(out)
    assert data["covering"] is True
    assert data["dual_covering"] is False


def test_check_p123_requires_product(capsys):
    code, _, err = _run(capsys, "check", "--property", "p123", "mo2")
    assert code == 3
    assert "product" in err

    code, out, _ = _run(capsys, "check", "--property", "p123", "star(mo2,mo2)")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_p4_symmetry_choices(capsys):
    code, out, _ = _run(capsys, "check", "--property", "p4", "sep(mo2,mo2)")
    assert code == 0
    data = json.loads(out)
    assert data["symmetries"] == "aut"
    assert data["pairs"] == 576

    code, out, _ = _run(capsys, "check", "--property", "p4",
                        "--symmetries", "similitudes", "down(gf3_2,gf3_2)")
    assert code == 0
    assert json.loads(out)["pairs"] == 64

    code, _, err = _run(capsys, "check", "--property", "p4",
                        "--symmetries", "similitudes", "sep(mo2,mo2)")
    assert code == 3
    assert "finite-field" in err


def test_aut_payload(capsys):
    code, out, _ = _run(capsys, "aut", "mo2")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["instance", "order", "orbits", "generators"]
    assert data["order"] == 24
    assert data["orbits"] == [[0, 1, 2, 3]]
    assert 0 < len(data["generators"]) < 24
    assert all(sorted(g["image"]) == [0, 1, 2, 3] for g in data["generators"])


def test_aut_decomposition_table(capsys):
    code, out, _ = _run(capsys, "aut", "sep(boolean2,boolean2)")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24
    table = data["decompositions"]
    # one row per generator, in generator order
    assert [row["image"] for row in table] == [g["image"] for g in data["generators"]]
    failed = [row for row in table if row.get("decomposes") is False]
    # the 8 of 24 elements that decompose form a proper subgroup, so some
    # generator lies outside it
    assert failed
    assert all("witness" in row for row in failed)
    assert all(set(row) == {"image", "swap", "v1", "v2"} for row in table if row not in failed)


def test_aut_on_mo3_product(capsys):
    # order 2 * 720 * 720 from the chain; listing the elements would not fit
    # in memory
    code, out, _ = _run(capsys, "aut", "sep(mo3,mo3)")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1_036_800
    table = data["decompositions"]
    assert len(table) == len(data["generators"])
    assert all(row.get("decomposes") is not False for row in table)
    assert any(row["swap"] for row in table)


def test_verify_exit_codes(capsys):
    code, out, err = _run(capsys, "verify", "thm9.1")
    assert code == 0
    assert json.loads(out)["verdict"] == "verified"
    assert "verified" in err

    code, out, _ = _run(capsys, "verify", "thm10.4")
    assert code == 1
    assert json.loads(out)["verdict"] == "analog-divergence"


def test_verify_unknown_theorem(capsys):
    code, _, err = _run(capsys, "verify", "thm99")
    assert code == 3
    assert "thm99" in err


def test_verify_budget_exhaustion(capsys):
    code, out, _ = _run(capsys, "verify", "thm8.6", "--budget-nodes", "3")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive-budget"


def test_budget_flag_on_build(capsys):
    code, out, _ = _run(capsys, "build", "top(mo2,mo2)", "--budget-family", "50")
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "inconclusive-budget"
    assert data["budget"] == "family_cap"


def test_export_dot_and_json(capsys, tmp_path):
    code, out, _ = _run(capsys, "export", "--dot", "mo2")
    assert code == 0
    assert out.startswith("digraph")

    path = tmp_path / "mo2.dot"
    code, out, err = _run(capsys, "export", "--dot", "mo2", "--out", str(path))
    assert code == 0
    assert out == ""
    assert str(path) in err
    assert path.read_text().startswith("digraph")

    code, out, _ = _run(capsys, "export", "--json", "mo2")
    assert code == 0
    assert json.loads(out)["name"] == "mo2"


def test_list_command(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    data = json.loads(out)
    assert "mo2" in data["instances"]["base"]
    assert "thm8.6" in data["theorems"]


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--property", "nonsense", "mo2"])
    assert exc.value.code == 3

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
