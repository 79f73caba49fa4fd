#!/usr/bin/env python3
"""Print the axiom profile (validity verdict per registry formula) of a frame.

Usage:
    python scripts/profile_axioms.py --frame path/to/frame.json
    python scripts/profile_axioms.py --family tack --kind 1 -m 3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kripkebench import constructions as C
from kripkebench.checks import axiom_profile
from kripkebench.frames import load_frame


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--frame", help="frame JSON path")
    ap.add_argument("--family", choices=list(C.FAMILIES))
    ap.add_argument("--kind", default="both")
    ap.add_argument("--axis", type=int, default=1)
    ap.add_argument("-m", type=int, default=2)
    ap.add_argument("-a", type=int, default=2)
    ap.add_argument("-b", type=int, default=2)
    ap.add_argument("--budget", type=int, default=1 << 22)
    args = ap.parse_args()

    if args.frame:
        frame = load_frame(Path(args.frame).read_bytes())
    elif args.family:
        frame = C.FAMILIES[args.family](args)
    else:
        ap.error("need --frame or --family")

    for row in axiom_profile(frame, budget=args.budget):
        print(f"{row.label:<14} {row.status:<16} {row.formula[:90]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
