#!/usr/bin/env python3
"""Run the quasi-isometry check battery for every built-in map.

Each row reports the estimated distortion, image density gap, displacement,
and the two energy comparison ratios against their a priori constants. A
ratio above its bound would be printed with a FAIL marker. The rows of one
family run on one family object, whose `graph` caches the neighbour lists
of all their searches, and share per radius one source ball and its
distance table, as the rows of one `hodgedim qicheck` command do.
"""

from __future__ import annotations

import argparse

from hodgedim import builtin_maps, make_family, suite_row

FAMILIES = ("z1", "z2", "z3", "diag_lattice", "ladder", "comb",
            "tree3", "tree4")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", default=",".join(FAMILIES))
    ap.add_argument("--radii", default="2,3")
    ns = ap.parse_args()

    radii = tuple(int(r) for r in ns.radii.split(","))
    header = (f"{'family':<13} {'map':<12} {'r':>2} {'k':>2} {'gap':>3} "
              f"{'wob':>4} {'l5_ratio':>9} {'l5_bound':>10} "
              f"{'l6_ratio':>9} {'l6_bound':>10}")
    print(header)
    print("-" * len(header))
    failures = 0
    for name in ns.families.split(","):
        fam = make_family(name.strip())
        shared = {}  # one ball and table per radius
        for m in builtin_maps(fam):
            for r in radii:
                row = suite_row(m, r, shared)
                ok5 = row.lemma5_ratio <= row.lemma5_bound
                ok6 = row.lemma6_ratio < 0 or row.lemma6_ratio <= row.lemma6_bound
                mark = "" if ok5 and ok6 else "  FAIL"
                failures += 0 if ok5 and ok6 else 1
                print(f"{fam.name:<13} {row.map_name:<12} {r:>2} "
                      f"{row.k_est:>2} {row.density_gap:>3} {row.wobble:>4} "
                      f"{row.lemma5_ratio:>9.4f} {row.lemma5_bound:>10.3g} "
                      f"{row.lemma6_ratio:>9.4f} {row.lemma6_bound:>10.3g}"
                      f"{mark}")
    print(f"\n{failures} bound violations.")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
