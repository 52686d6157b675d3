#!/usr/bin/env python3
"""Write Hasse-diagram DOT files for a handful of instances.

The big product lattices render poorly at full size, so the default list
sticks to the factor spaces; pass explicit names to override."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qll.export import export_dot  # noqa: E402
from qll.harness import resolve_instance  # noqa: E402

DEFAULTS = ["mo2", "mo3", "boolean3", "gf3_2", "sep(mo2,mo2)"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instances", nargs="*", default=DEFAULTS)
    parser.add_argument("--out-dir", default="diagrams")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in args.instances or DEFAULTS:
        inst = resolve_instance(name)
        safe = "".join(c if c.isalnum() else "_" for c in name)
        dot = export_dot(inst.space, name=safe)
        path = out / f"{safe}.dot"
        path.write_text(dot)
        print(f"{name}: {len(inst.space.masks)} nodes -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
