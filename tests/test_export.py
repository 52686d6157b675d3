from __future__ import annotations

import pytest

from helpers import count_dot_elements
from qll.closure import powerset_space
from qll.errors import BudgetExceeded
from qll.export import export_dot


def test_mo2_dot_counts(mo2):
    dot = export_dot(mo2.space, name="mo2")
    nodes, edges = count_dot_elements(dot)
    assert nodes == 6
    assert edges == 8  # four up from the bottom, four up to the top


def test_dot_is_deterministic(mo2):
    assert export_dot(mo2.space) == export_dot(mo2.space)


def test_dot_mentions_labels(gf3_2):
    dot = export_dot(gf3_2.space)
    assert "(1,2)" in dot


def test_sep_dot_node_count(sep_mm):
    nodes, _ = count_dot_elements(export_dot(sep_mm.space))
    assert nodes == 114


def test_powerset_edges_count():
    # the 3-cube: 8 nodes, 12 cover edges
    nodes, edges = count_dot_elements(export_dot(powerset_space(3)))
    assert nodes == 8
    assert edges == 12


def test_dot_structure_has_single_sink(mo2):
    dot = export_dot(mo2.space)
    lines = [l for l in dot.splitlines() if "->" in l]
    heads = {l.split("->")[1].strip(" ;") for l in lines}
    tails = {l.split("->")[0].strip() for l in lines}
    sinks = heads - tails
    sources = tails - heads
    assert len(sinks) == 1  # the whole universe
    assert len(sources) == 1  # the empty set


def test_node_cap(sep_mm, monkeypatch):
    monkeypatch.setattr("qll.export._DOT_NODE_CAP", 10)
    with pytest.raises(BudgetExceeded) as exc:
        export_dot(sep_mm.space)
    assert exc.value.budget_name == "dot_node_cap"
