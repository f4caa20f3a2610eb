#!/usr/bin/env python3
"""Dimension lower bound on square boxes.

For the n x n box in the plane lattice, |sigma|/|E| is exactly 2/n, so the
per-edge star+diamond dimension average must reach 1 - 2/n as the score
radius grows. Prints the margin at score radius = 4n for growing n.
"""

from __future__ import annotations

import argparse
import time

from hodgedim import induced_window, lemma3_check, make_family


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,5,9")
    ap.add_argument("--slack", type=float, default=0.05)
    ns = ap.parse_args()

    fam = make_family("z2")
    print(f"{'n':>3} {'lhs':>10} {'rhs':>10} {'margin':>10} {'holds':>6}")
    for n in (int(s) for s in ns.sizes.split(",")):
        box = induced_window(fam, [(i, j) for i in range(n) for j in range(n)])
        t0 = time.time()
        res = lemma3_check(fam, box, 4 * n, slack=ns.slack)
        print(f"{n:>3} {res.lhs:>10.6f} {res.rhs:>10.6f} "
              f"{res.lhs - res.rhs:>10.6f} {str(res.holds):>6} "
              f"({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
