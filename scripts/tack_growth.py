#!/usr/bin/env python3
"""Exploratory experiment: growth of one-generator formula counts on frame
families as their cluster size grows.

Usage: python scripts/tack_growth.py [--max-m 4] [--family tack|match|univchain]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kripkebench import constructions as C
from kripkebench.algebra import free_algebra_count


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", default="tack",
                    choices=["tack", "match", "univchain"])
    ap.add_argument("--kind", default="both", choices=["both", "1", "2"])
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--budget", type=int, default=1 << 22)
    args = ap.parse_args()

    prev = None
    for m in range(1, args.max_m + 1):
        family_args = argparse.Namespace(kind=args.kind, axis=1, m=m)
        frame = C.FAMILIES[args.family](family_args)
        t0 = time.monotonic()
        count = free_algebra_count([frame], 1, cap=1 << 4096, budget=args.budget)
        note = "" if prev is None else ("  (grew)" if count > prev else "  (did not grow)")
        print(f"m={m}: n={frame.n:>3}  count=2^{int(math.log2(count))}"
              f"  [{time.monotonic() - t0:.2f}s]{note}")
        prev = count
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
