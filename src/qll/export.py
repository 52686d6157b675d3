"""DOT rendering of the cover relation of an explicit closure space."""

from __future__ import annotations

from .atomset import bit_members
from .closure import ClosureSpace, _require_explicit
from .errors import BudgetExceeded

_DOT_NODE_CAP = 5000  # largest family rendered to DOT


def _node_label(space, mask_members: tuple[int, ...]) -> str:
    if not mask_members:
        return "{}"
    return "{" + ",".join(space.label(i) for i in mask_members) + "}"


def export_dot(space: ClosureSpace, name: str = "closure_space") -> str:
    """Hasse diagram as a DOT digraph: one node per closed set, one edge per
    cover pair (lower -> upper), atoms grouped on one rank.  Node order and
    edge order follow the canonical family order, so output is reproducible.
    """
    sp = _require_explicit(space, "export_dot")
    if len(sp.masks) > _DOT_NODE_CAP:
        raise BudgetExceeded("dot_node_cap", _DOT_NODE_CAP)
    masks = sp.masks
    idx = {m: i for i, m in enumerate(masks)}

    edges = [
        (i, idx[hi]) for i, lo in enumerate(masks) for hi in sp.upper_cover_masks(lo)
    ]

    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
    for i, m in enumerate(masks):
        lines.append(f'  n{i} [label="{_node_label(sp, bit_members(m))}"];')
    atom_nodes = [idx[1 << a] for a in range(sp.universe_size) if (1 << a) in idx]
    if atom_nodes:
        lines.append("  { rank=same; " + " ".join(f"n{i};" for i in atom_nodes) + " }")
    for lo, hi in edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
