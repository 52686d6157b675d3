from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qll.cli import build_parser, main
from qll.closure import find_dual_covering_violation


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


def test_check_covering_and_dac(capsys, star_mm):
    code, out, _ = _run(capsys, "check", "--property", "covering", "top(mo2,mo2)")
    assert code == 1
    assert json.loads(out)["holds"] is False

    for name in ("mo2", "boolean3"):
        code, out, _ = _run(capsys, "check", "--property", "dac", name)
        assert code == 0
        data = json.loads(out)
        assert data["dac"] is True
        assert data["witness"] is None

    code, out, _ = _run(capsys, "check", "--property", "dac", "down(gf3_2,gf3_2)")
    assert code == 1
    data = json.loads(out)
    assert data["covering"] is True
    assert data["dual_covering"] is False

    code, out, _ = _run(capsys, "check", "--property", "dac", "star(mo2,mo2)")
    assert code == 1
    data = json.loads(out)
    assert data["dac"] is False
    assert data["dual_covering"] is False
    viol = find_dual_covering_violation(star_mm.space)
    assert data["witness"] == viol.to_json()


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


@pytest.mark.parametrize("name", ["boolean3", "mo3"])
def test_budget_family_on_base_builds(capsys, name):
    # both bases have 8 closed sets: a cap of 7 runs out and 8 builds them
    code, out, _ = _run(capsys, "build", name, "--budget-family", "7")
    assert code == 2
    assert json.loads(out) == {"verdict": "inconclusive-budget", "budget": "family_cap", "cap": 7}
    code, out, _ = _run(capsys, "build", name, "--budget-family", "8")
    assert code == 0
    assert len(json.loads(out)["closed_sets"]) == 8


@pytest.mark.parametrize("flag", ["--budget-family", "--budget-nodes", "--budget-subspaces"])
def test_negative_budget_is_a_usage_error(capsys, flag):
    # a negative cap is bad input, not a budget that ran out
    with pytest.raises(SystemExit) as exc:
        main(["build", "star(mo2,mo2)", flag, "-1"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f"argument {flag}: must be 0 or more, got -1" in captured.err
    # 0 is a cap like any other
    args = build_parser().parse_args(["build", "star(mo2,mo2)", flag, "0"])
    assert getattr(args, flag[2:].replace("-", "_")) == 0


def test_budget_payload_honours_out(capsys, tmp_path):
    path = tmp_path / "x.json"
    code, out, err = _run(capsys, "build", "top(mo3,mo3)", "--budget-family", "10",
                          "--out", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err and "family_cap" in err
    assert json.loads(path.read_text()) == {
        "verdict": "inconclusive-budget", "budget": "family_cap", "cap": 10
    }



@pytest.mark.parametrize(
    "argv",
    [["build", "mo2"], ["build", "top(mo3,mo3)", "--budget-family", "10"]],
    ids=["result", "budget"],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    # exit 1 means falsified, so a path that cannot be written is bad input:
    # one error line, whether the result or the budget payload was written
    path = tmp_path / target
    code, out, err = _run(capsys, *argv, "--out", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()

def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_budget_payload_to_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the payload write meets a closed pipe
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qll.cli", "build", "top(mo3,mo3)",
             "--budget-family", "10"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    err = err.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


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


def test_gf5_and_gf7_planes_are_registered(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    base = json.loads(out)["instances"]["base"]
    assert "gf5_2" in base and "gf7_2" in base

    code, out, _ = _run(capsys, "check", "--property", "covering", "down(gf5_2,gf5_2)")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["witness"] is None


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--property", "nonsense", "mo2"])
    assert exc.value.code == 3

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_closed_stdout_ends_quietly():
    # about 97 KB of JSON, more than a pipe buffer holds, so the write
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "qll.cli", "build", "down(gf7_2,gf7_2)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.read(10) == b'{\n  "produ'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
