#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed set of scenarios.

Runs each scenario through `hodgedim.cli.main` in process, writing to a
temporary `--out` file unless the scenario names its own `--out`, and prints
one `sha256  scenario` line per run. The hash covers the exit code, the
output file's bytes, and what the run wrote to stdout and stderr, so error
messages are gated as well as tables. hodgedim is imported from
wherever `PYTHONPATH` points, so two source trees can be compared;
`scripts/same_bytes.sh REF` does that for a git revision and the working
tree. No diff means every reported value is byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from hodgedim import (BUILTIN_FAMILY_NAMES, EdgeFunction, ball, edge_ball,
                      edge_function_to_csv, encode_vertex, make_family,
                      origin_edge, window_to_json)
from hodgedim.cli import main as cli_main

COR4_FAMILIES = ("z1", "z2", "z3", "ladder", "comb", "diag_lattice", "tree3")
# deep tree balls, of 10^4 to 10^5 vertices at the largest radii
DEEP_TREE_RADII = {"tree3": 14, "tree4": 9}
QI_FAMILIES = ("z1", "z2", "z3", "ladder", "comb", "diag_lattice", "tree3",
               "tree4")
# wide non-tree balls, of about 10^3 to 10^4 vertices at the largest radii
WIDE_FOLNER_RADII = {"z2": 40, "ladder": 40, "comb": 40, "diag_lattice": 40,
                     "z3": 12}
# (family, --map, --window-radii): coarsen and the maps between z2 and
# diag_lattice check at cutoff 4(r+2)+4, identity and translation at
# 2(r+2)+4; each order puts a larger-cutoff map first, and every map reads
# the radius's one source distance table
QI_MAP_ORDERS = (("z2", "z2_to_diag,coarsen,translation,identity", "1..6"),
                 ("diag_lattice", "diag_to_z2,translation,identity", "1..4"),
                 ("z1", "coarsen,translation,identity", "1..6"),
                 ("z3", "coarsen,identity", "1..3"))


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
    for fam, r in WIDE_FOLNER_RADII.items():
        yield f"folner {fam} wide", ["folner", "--family", fam,
                                     "--radii", f"1..{r}"]
    for fam in COR4_FAMILIES:
        yield f"cor4 {fam}", ["cor4", "--family", fam, "--window-radii",
                              "1,2,3", "--factor", "4"]
    yield "cor4 tree4", ["cor4", "--family", "tree4", "--window-radii", "1,2",
                         "--factor", "4"]
    # the lattice_window_dim benchmark workload's command
    yield "cor4 z2 radii 2,4,6", ["cor4", "--family", "z2", "--window-radii",
                                  "2,4,6", "--factor", "4", "--tol", "1e-10",
                                  "--jobs", "2"]
    # z1 balls at many radii on the id search, and z3 edge balls on the kernel
    yield "folner z1 radii 1..200", ["folner", "--family", "z1",
                                     "--radii", "1..200"]
    yield "scores z3 radii 1..10", ["scores", "--family", "z3",
                                    "--radii", "1..10"]
    # large edge balls: a tree ball of 262,142 vertices, and z2 balls of up
    # to 18,818 vertices on which both modes solve
    yield "scores tree3 radii 16", ["scores", "--family", "tree3",
                                    "--radii", "16"]
    yield "scores z2 radii 64,96", ["scores", "--family", "z2",
                                    "--radii", "64,96"]
    # balls past the size cap, on a tree and on a lattice
    yield "folner tree3 radii 25", ["folner", "--family", "tree3",
                                    "--radii", "25"]
    yield "folner z2 radii 10000000", ["folner", "--family", "z2",
                                       "--radii", "10000000"]
    # and on the other closed-form counts: z1 just past the cap, z3, and the
    # triangular lattice at a radius whose count needs more than int32
    for fam, r in (("z1", 1000000), ("z3", 10000000),
                   ("diag_lattice", 3000000000)):
        yield f"folner {fam} radii {r}", ["folner", "--family", fam,
                                          "--radii", str(r)]
    for fam in QI_FAMILIES:
        yield f"qicheck {fam}", ["qicheck", "--family", fam,
                                 "--window-radii", "1..4"]
    # the largest windows of the qi_battery benchmark workload
    yield "qicheck z2 radii 5,6", ["qicheck", "--family", "z2",
                                   "--window-radii", "5,6"]
    for fam in ("comb", "z3", "diag_lattice"):
        yield f"qicheck {fam} radii 2..6", ["qicheck", "--family", fam,
                                            "--window-radii", "2..6"]
    # distance tables by translation orbit, past the benchmark's radii
    yield "qicheck z1 radii 1..10", ["qicheck", "--family", "z1",
                                     "--window-radii", "1..10"]
    # deep tree distance tables, of 10^3 to 10^4 words at the largest radii
    for fam, radii in (("tree3", "1..6"), ("tree4", "1..4")):
        yield f"qicheck {fam} radii {radii}", ["qicheck", "--family", fam,
                                               "--window-radii", radii]
    # maps in orders that put a larger cutoff first
    for fam, maps, radii in QI_MAP_ORDERS:
        yield f"qicheck {fam} --map {maps}", ["qicheck", "--family", fam,
                                              "--map", maps,
                                              "--window-radii", radii]
    # flags that select nothing: --jobs, and --tol where nothing is solved
    yield "scores z2 --jobs 3", ["scores", "--family", "z2", "--radii", "1..8",
                                 "--jobs", "3"]
    yield "cor4 z2 --jobs 3", ["cor4", "--family", "z2", "--window-radii",
                               "1,2,3", "--factor", "4", "--jobs", "3"]
    yield "qicheck z2 --tol --jobs 2", ["qicheck", "--family", "z2",
                                        "--window-radii", "1..4",
                                        "--tol", "1e-6", "--jobs", "2"]

    # z1 labels such as (5) need no csv quoting; tree3 words vary in length
    # and the root is ()
    for fam, r, seed in (("diag_lattice", 6, 7), ("z1", 9, 8), ("tree3", 4, 9)):
        w = ball(make_family(fam), make_family(fam).origin, r)
        u = EdgeFunction(w, np.random.default_rng(seed).normal(size=w.n_edges))
        name = f"{fam} r={r} seed={seed}"
        argv = _decompose(tmp, name, w, edge_function_to_csv(u))
        yield f"decompose {name}", argv
        if fam == "diag_lattice":
            yield f"decompose {name} stdout", [*argv, "--out", "-"]
    # a tree ball about two sources, whose vertex tuples are built only when
    # the window JSON and the edge CSV ask for them
    tree4 = make_family("tree4")
    w = edge_ball(tree4, origin_edge(tree4), 5)
    u = EdgeFunction(w, np.random.default_rng(10).normal(size=w.n_edges))
    yield "decompose tree4 edge ball r=5 seed=10", _decompose(
        tmp, "tree4 edge ball", w, edge_function_to_csv(u))

    z2 = make_family("z2")
    w = ball(z2, (0, 0), 3)
    yield "decompose z2 r=3 reversed omitted spaced", _decompose(
        tmp, "z2 rows", w, _edited_rows(w))
    w = ball(z2, (0, 0), 2)
    for label, text in BAD_EDGE_CSVS:
        yield f"decompose error: {label}", _decompose(tmp, label, w, text)
    w = ball(z2, (0, 0), 8)
    blob, edges_csv = window_to_json(w), edge_function_to_csv(
        EdgeFunction(w, np.ones(w.n_edges)))
    for label, edits in BAD_WINDOW_JSONS:
        yield f"decompose error: {label}", _decompose(
            tmp, label, _edited_blob(blob, edits), edges_csv)

    # edge CSVs longer than one 8 KiB read: an undecodable byte in a later
    # read, the same after a bad header, and CRLF line ends with a CR as the
    # last byte of the first read
    w = ball(z2, (0, 0), 20)
    text = edge_function_to_csv(
        EdgeFunction(w, np.random.default_rng(12).normal(size=w.n_edges)))
    for label, raw in (("", text.encode()),
                       ("bad header, ", b"tail,head,val" + text[15:].encode())):
        yield f"decompose error: {label}0xff at byte 20000", _decompose(
            tmp, f"{label}0xff", w, raw[:20000] + b"\xff" + raw[20001:])
    yield "decompose z2 r=20 CRLF", _decompose(tmp, "crlf", w,
                                               _crlf_split(text, 8191))
    # 8,464 rows: the output goes out in three chunks of rows
    w = ball(z2, (0, 0), 46)
    yield "decompose z2 r=46 seed=13", _decompose(
        tmp, "z2 r=46", w, edge_function_to_csv(EdgeFunction(
            w, np.random.default_rng(13).normal(size=w.n_edges))))


_HEAD = "tail,head,value\n"
# Edge CSVs that decompose rejects on the z2 ball of radius 2; where rows
# break several rules, the first offending row is the one reported.
BAD_EDGE_CSVS = (
    ("empty", ""),
    ("bad header", 'tail,head,val\n"(0,0)","(0,1)",1.0\n'),
    ("two columns", _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)","(1,0)"\n'),
    ("four columns", _HEAD + '"(0,0)","(0,1)",1.0,2.0\n'),
    ("unknown vertex", _HEAD + '"(0,0)","(9,9)",1.0\n'),
    ("not an edge", _HEAD + '"(0,0)","(1,1)",1.0\n'),
    ("tail is head", _HEAD + '"(0,1)","(0,1)",1.0\n'),
    ("duplicate", _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)","(0,1)",2.0\n'),
    ("duplicate reversed",
     _HEAD + '"(0,0)","(0,1)",1.0\n"(0,1)","(0,0)",2.0\n'),
    ("not a number", _HEAD + '"(0,0)","(0,1)",abc\n'),
    ("not a label", _HEAD + '"(0,0)","(0,a)",1.0\n'),
    ("not finite", _HEAD + '"(0,0)","(0,1)",inf\n'),
    ("non-edge then bad number",
     _HEAD + '"(0,0)","(1,1)",1.0\n"(0,0)","(0,1)",abc\n'),
    ("bad number then non-edge",
     _HEAD + '"(0,0)","(0,1)",abc\n"(0,0)","(1,1)",1.0\n'),
    ("non-edge then oversized field",
     _HEAD + '"(0,0)","(1,1)",1.0\n"(0,0)","(0,1)",' + "1" * 200_000 + "\n"),
    ("duplicate then short row",
     _HEAD + '"(0,0)","(0,1)",1.0\n"(1,0)","(0,0)",1.0\n"(0,1)","(0,0)",1\n'
     '"(0,0)"\n'),
)

# Window JSON edits that decompose rejects on the z2 ball of radius 8 (145
# vertices, 256 edges): (label, edits), each edit (field, index, value) with
# index None for the whole field. Where several items are bad, the first in
# file order is the one reported.
BAD_WINDOW_JSONS = (
    ("edges null", (("edges", None, None),)),
    ("edges dict", (("edges", None, {"0": [0, 1]}),)),
    ("edges empty", (("edges", None, []),)),
    ("edge [1]", (("edges", 0, [1]),)),
    ("edge [0, 1, 2]", (("edges", 0, [0, 1, 2]),)),
    ("edge [0.5, 2]", (("edges", 0, [0.5, 2]),)),
    ("edge [True, 1]", (("edges", 0, [True, 1]),)),
    ("edge [0, 999]", (("edges", 0, [0, 999]),)),
    ("edge [-1, 0]", (("edges", 0, [-1, 0]),)),
    ("edge dict", (("edges", 0, {"0": 1}),)),
    ("edge index n", (("edges", 0, [0, 145]),)),
    ("edge past int64", (("edges", 0, [0, 2 ** 70]),)),
    ("edge 100 [-1, 0]", (("edges", 100, [-1, 0]),)),
    ("edge 100 [0, True]", (("edges", 100, [0, True]),)),
    ("edge out of range before edge of floats",
     (("edges", 50, [0, 145]), ("edges", 60, [0.5, 2]))),
    ("full_degree [4, 4]", (("full_degree", None, [4, 4]),)),
    ("full_degree null", (("full_degree", None, None),)),
    ("vertex [-2.7, 0.2]", (("vertices", 0, [-2.7, 0.2]),)),
    ("vertex [-2, False]", (("vertices", 0, [-2, False]),)),
    ("vertex ['-2', '0']", (("vertices", 0, ["-2", "0"]),)),
    ("vertex 100 [3, True]", (("vertices", 100, [3, True]),)),
    ("degree 4.9", (("full_degree", 0, 4.9),)),
    ("degree True", (("full_degree", 0, True),)),
    ("degree '4'", (("full_degree", 0, "4"),)),
    ("degree past int64", (("full_degree", 0, 2 ** 70),)),
    ("sigma 0.0", (("sigma", 0, 0.0),)),
    ("sigma False", (("sigma", 0, False),)),
    ("sigma '0'", (("sigma", 0, "0"),)),
    # well-typed arrays that break the window's own rules; the edge list
    # begins [0, 2], [1, 2], and vertex 2, (-7, 0), has 4 edges
    ("vertices 0 and 1 swapped",
     (("vertices", 0, [-7, -1]), ("vertices", 1, [-8, 0]))),
    ("vertex 0 repeated", (("vertices", 1, [-8, 0]),)),
    ("edges 0 and 1 swapped", (("edges", 0, [1, 2]), ("edges", 1, [0, 2]))),
    ("edge 0 repeated", (("edges", 1, [0, 2]),)),
    ("edge 0 reversed", (("edges", 0, [2, 0]),)),
    ("degree 3 below 4 edges", (("full_degree", 2, 3),)),
    ("edges in pieces", (("edges", None, [[0, 2], [1, 2]]),)),
)


def _edited_blob(text: str, edits) -> str:
    """Window JSON `text` with the (field, index, value) edits made."""
    blob = json.loads(text)
    for field, index, value in edits:
        if index is None:
            blob[field] = value
        else:
            blob[field][index] = value
    return json.dumps(blob)


def _decompose(tmp: Path, name: str, window, edges_csv) -> list:
    """decompose argv on `window` (a FiniteWindow or its JSON) and
    `edges_csv` (text, or bytes written as they are), both written into
    tmp."""
    if not isinstance(window, str):
        window = window_to_json(window)
    stem = tmp / "".join(c if c.isalnum() else "_" for c in name)
    wpath, epath = stem.with_suffix(".json"), stem.with_suffix(".csv")
    wpath.write_text(window, encoding="utf-8")
    if isinstance(edges_csv, bytes):
        epath.write_bytes(edges_csv)
    else:
        epath.write_text(edges_csv, encoding="utf-8")
    return ["decompose", "--window", str(wpath), "--edges", str(epath)]


def _crlf_split(text: str, at: int) -> bytes:
    """ASCII `text` with CRLF line ends, and spaces before one row's value
    so that a CR is byte `at` and its LF the byte after."""
    crlf = text.replace("\n", "\r\n")
    cr = crlf.rindex("\r", 0, at)
    value = crlf.rindex(",", 0, cr) + 1
    return (crlf[:value] + " " * (at - cr) + crlf[value:]).encode()


def _edited_rows(window) -> str:
    """Seeded values on every third edge omitted, every other edge written
    reversed with its value negated, and every fifth label spaced out."""
    rng = np.random.default_rng(11)
    lines = ["tail,head,value"]
    for k, (a, b) in enumerate(zip(window.edge_tails.tolist(),
                                   window.edge_heads.tolist())):
        value = float(rng.normal())
        if k % 3 == 2:
            continue
        x, y = window.vertices[a], window.vertices[b]
        if k % 2:
            x, y, value = y, x, -value
        tail, head = encode_vertex(x), encode_vertex(y)
        if k % 5 == 0:
            tail = " " + tail.replace(",", ", ")
        lines.append(f'"{tail}","{head}",{value!r}')
    return "\n".join(lines) + "\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        out = tmp / "out"
        for label, argv in scenarios(tmp):
            if "--out" not in argv:
                argv = [*argv, "--out", str(out)]
            for fmt in ("csv", "json"):
                out.write_bytes(b"")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli_main([*argv, "--format", fmt])
                digest = hashlib.sha256(
                    b"exit %d\n" % code + out.read_bytes()
                    + b"\nstdout\n" + stdout.getvalue().encode()
                    + b"\nstderr\n" + stderr.getvalue().encode()).hexdigest()
                print(f"{digest}  {label} --format {fmt}")


if __name__ == "__main__":
    main()
