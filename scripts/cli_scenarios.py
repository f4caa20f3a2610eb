#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed set of scenarios.

Runs each scenario through `hodgedim.cli.main` in process, writing to a
temporary `--out` file, and prints one `sha256  scenario` line per run. The
hash covers the exit code and the output bytes. hodgedim is imported from
wherever `PYTHONPATH` points, so two source trees can be compared;
`scripts/same_bytes.sh REF` does that for a git revision and the working
tree. No diff means every reported value is byte-identical.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from hodgedim import (BUILTIN_FAMILY_NAMES, EdgeFunction, ball,
                      edge_function_to_csv, make_family, window_to_json)
from hodgedim.cli import main as cli_main

COR4_FAMILIES = ("z1", "z2", "z3", "ladder", "comb", "diag_lattice", "tree3")
# deep tree balls, of 10^4 to 10^5 vertices at the largest radii
DEEP_TREE_RADII = {"tree3": 14, "tree4": 9}
QI_FAMILIES = ("z1", "z2", "z3", "ladder", "comb", "diag_lattice", "tree3")


def scenarios(tmp: Path):
    """(name, argv) pairs; writes the decompose inputs into `tmp`."""
    for fam in BUILTIN_FAMILY_NAMES:
        yield f"scores {fam}", ["scores", "--family", fam, "--radii", "1..8"]
        yield f"folner {fam}", ["folner", "--family", fam, "--radii", "1..10"]
    for fam, r in DEEP_TREE_RADII.items():
        yield f"scores {fam} deep", ["scores", "--family", fam,
                                     "--radii", f"1..{r}"]
        yield f"folner {fam} deep", ["folner", "--family", fam,
                                     "--radii", f"1..{r}"]
    for fam in COR4_FAMILIES:
        yield f"cor4 {fam}", ["cor4", "--family", fam, "--window-radii",
                              "1,2,3", "--factor", "4"]
    yield "cor4 tree4", ["cor4", "--family", "tree4", "--window-radii", "1,2",
                         "--factor", "4"]
    for fam in QI_FAMILIES:
        yield f"qicheck {fam}", ["qicheck", "--family", fam,
                                 "--window-radii", "1..4"]

    w = ball(make_family("diag_lattice"), (0, 0), 6)
    u = EdgeFunction(w, np.random.default_rng(7).normal(size=w.n_edges))
    (tmp / "window.json").write_text(window_to_json(w), encoding="utf-8")
    (tmp / "edges.csv").write_text(edge_function_to_csv(u), encoding="utf-8")
    yield "decompose diag_lattice r=6 seed=7", [
        "decompose", "--window", str(tmp / "window.json"),
        "--edges", str(tmp / "edges.csv")]


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        out = tmp / "out"
        for label, argv in scenarios(tmp):
            for fmt in ("csv", "json"):
                out.write_bytes(b"")
                code = cli_main([*argv, "--format", fmt, "--out", str(out)])
                digest = hashlib.sha256(b"exit %d\n" % code
                                        + out.read_bytes()).hexdigest()
                print(f"{digest}  {label} --format {fmt}")


if __name__ == "__main__":
    main()
