"""Command line front end.

Subcommands:
    scores     monotone per-edge scores for the origin edge of a family
    folner     boundary-to-bulk ratios of growing balls
    qicheck    distortion and energy-comparison battery for built-in maps
    cor4       hd dimension estimates along a ball sequence
    decompose  finite Hodge split of an edge function given as window JSON
               plus edge CSV

Output is CSV (default) or JSON (--format json, validating against
schemas/output.schema.json). Identical flags give byte-identical output.
OpenBLAS splits dot products of over 10,000 entries across its threads,
which moves the last bits of the star, diamond and residual columns on
large balls, so every solve runs numpy's bundled OpenBLAS on one thread.
On a numpy build without that library the thread count is left as it is,
and the bytes hold only under a fixed count. --tol, the relative
residual every solve must reach, must lie in (0, 1); folner and qicheck
solve nothing and ignore it. --jobs must be >= 1 but is passed to nothing:
hodgedim starts no thread of its own, so it never changes the output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields
from itertools import repeat

import numpy as np

from .dimension import corollary4_table, folner_profile, score_report
from .edgespace import edge_function_from_csv
from .errors import (CutoffExceededError, HodgedimError,
                     IncompatibleRhsError, SolverFailureError)
from .families import encode_vertex, make_family
from .quasi import QiRow, builtin_maps, suite_row
from .solver import hodge_decompose_finite
from .windows import origin_edge, window_from_json

# `main` catches _NUMERIC_ERRORS first: every other HodgedimError is a
# configuration error
_CONFIG_ERRORS = (HodgedimError, ValueError, OSError, csv.Error)
_NUMERIC_ERRORS = (SolverFailureError, IncompatibleRhsError,
                   CutoffExceededError)


def _parse_radii(text: str):
    out = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = map(int, token.split("..", 1))
            if lo > hi:
                raise ValueError(f"radius range {token!r} runs backwards")
            out.extend(range(lo, hi + 1))
        elif token:
            out.append(int(token))
    if not out:
        raise ValueError(f"no radii in {text!r}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgedim",
        description="Dimension traces and Hodge splits on graph families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        if family:
            p.add_argument("--family", required=True,
                           help="z<d>, tree<d>, ladder, comb, diag_lattice, "
                                "or lattice/tree with --d")
            p.add_argument("--d", type=int, default=None,
                           help="degree parameter for lattice/tree")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="solver tolerance, in (0, 1) (default 1e-10)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility, must be >= 1; "
                            "work runs in one thread and output is identical "
                            "for any value")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-",
                       help="output path, '-' for stdout (default)")

    p = sub.add_parser("scores", help="per-edge scores along a radius schedule")
    p.add_argument("--radii", required=True, help="e.g. 2,4,8 or 1..8")
    common(p)

    p = sub.add_parser("folner", help="boundary ratios of balls")
    p.add_argument("--radii", required=True)
    common(p)

    p = sub.add_parser("qicheck", help="quasi-isometry check battery")
    p.add_argument("--window-radii", required=True, dest="window_radii")
    p.add_argument("--map", default=None,
                   help="comma-separated built-in map names (default: all)")
    common(p)

    p = sub.add_parser("cor4", help="hd dimension along growing windows")
    p.add_argument("--window-radii", required=True, dest="window_radii")
    p.add_argument("--factor", type=int, default=4,
                   help="score radius = factor * window radius")
    common(p)

    p = sub.add_parser("decompose", help="finite Hodge split of an edge function")
    p.add_argument("--window", required=True, help="window JSON path")
    p.add_argument("--edges", required=True, help="edge function CSV path")
    common(p, family=False)

    return parser


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Quoted(dict):
    """CSV cells as csv.writer writes them with QUOTE_MINIMAL and "\\n"
    line ends, each worked out once: a cell that holds a comma, a quote or a
    newline goes in quotes, with its quotes doubled."""

    def __missing__(self, cell):
        self[cell] = out = ('"%s"' % cell.replace('"', '""') if "," in cell
                            or '"' in cell or "\n" in cell else cell)
        return out


_SEQUENCES = (list, tuple, np.ndarray)
# rows formatted per write: bounds the cell strings alive at once
_CHUNK_ROWS = 4096


def _cells(part, quoted: _Quoted):
    """Quoted CSV cells of a slice of one column; strings go straight in."""
    values = part.tolist() if isinstance(part, np.ndarray) else part
    if not set(map(type, values)) <= {str}:
        values = map(_cell, values)
    return map(quoted.__getitem__, values)


def _emit(command: str, header, columns, fmt: str, out_path: str) -> None:
    """Write a table given by columns. A column is a list, tuple or array
    with one value per row, or a single value that every row repeats. CSV
    goes out in chunks of rows, one %-format per row with the repeated cells
    formatted into it once and float arrays by %r. JSON goes out in the
    same chunks, one json.dumps per chunk, as the bytes json.dumps gives
    for the whole object."""
    n = max((len(c) for c in columns if isinstance(c, _SEQUENCES)), default=0)
    with (nullcontext(sys.stdout) if out_path == "-" else
          open(out_path, "w", encoding="utf-8", newline="")) as fh:
        if fmt == "json":
            fh.write('{"command":%s,"rows":[' % json.dumps(command))
            for start in range(0, n, _CHUNK_ROWS):
                part = slice(start, start + _CHUNK_ROWS)
                rows = json.dumps([dict(zip(header, r)) for r in zip(*[
                    c[part].tolist() if isinstance(c, np.ndarray) else
                    c[part] if isinstance(c, _SEQUENCES) else repeat(c)
                    for c in columns])], sort_keys=True, separators=(",", ":"))
                fh.write(rows[1:-1] if start == 0 else "," + rows[1:-1])
            fh.write("]}\n")
            return
        quoted = _Quoted()
        fh.write(",".join(map(quoted.__getitem__, header)) + "\n")
        floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f"
                  for c in columns]
        row = ",".join("%r" if f else "%s" if isinstance(c, _SEQUENCES) else
                       quoted[_cell(c)].replace("%", "%%")
                       for c, f in zip(columns, floats)) + "\n"
        varying = [(c, f) for c, f in zip(columns, floats)
                   if isinstance(c, _SEQUENCES)]
        for start in range(0, n, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            fh.write("".join(map(row.__mod__, zip(*[
                c[start:stop].tolist() if f else _cells(c[start:stop], quoted)
                for c, f in varying]))))


def _family(ns):
    return make_family(ns.family, ns.d)


def _cmd_scores(ns):
    fam = _family(ns)
    rep = score_report(fam, origin_edge(fam), _parse_radii(ns.radii),
                       tol=ns.tol)
    return ("family", "edge_tail", "edge_head", "R", "star", "diamond", "hd",
            "cg_iters", "residual"), [
        rep.family, encode_vertex(rep.edge.tail), encode_vertex(rep.edge.head),
        rep.radii, rep.star, rep.diamond, rep.hd, rep.cg_iterations,
        rep.residuals]


def _cmd_folner(ns):
    fam = _family(ns)
    radii = _parse_radii(ns.radii)
    rows = [(fam.name, row.radius, row.n_vertices, row.n_edges,
             row.sigma_size, row.ratio_v, row.ratio_e)
            for row in folner_profile(fam, fam.origin, radii)]
    return ("family", "radius", "V", "E", "sigma", "ratio_v",
            "ratio_e"), list(zip(*rows))


def _cmd_qicheck(ns):
    fam = _family(ns)
    radii = _parse_radii(ns.window_radii)
    available = {m.name: m for m in builtin_maps(fam)}
    if ns.map is None:
        chosen = list(available.values())
    else:
        chosen = []
        for name in ns.map.split(","):
            name = name.strip()
            if name not in available:
                raise ValueError(
                    f"unknown map {name!r} for family {fam.name}; "
                    f"available: {', '.join(sorted(available))}")
            chosen.append(available[name])
    shared = {}  # what the rows compute once, see suite_row
    rows = [astuple(suite_row(m, r, shared)) for m in chosen for r in radii]
    return tuple(f.name for f in fields(QiRow)), list(zip(*rows))


def _cmd_cor4(ns):
    fam = _family(ns)
    radii = _parse_radii(ns.window_radii)
    table = corollary4_table(fam, fam.origin, radii, ns.factor, tol=ns.tol)
    rows = [(fam.name, row.window_radius, row.score_radius,
             row.hd_dim_estimate, row.sigma_over_e) for row in table]
    return ("family", "window_radius", "score_radius", "hd_dim_estimate",
            "sigma_over_E"), list(zip(*rows))


def _cmd_decompose(ns):
    with open(ns.window, "r", encoding="utf-8") as fh:
        window = window_from_json(fh.read())
    with open(ns.edges, "r", encoding="utf-8") as fh:
        try:
            u = edge_function_from_csv(window, fh)
        except (csv.Error, HodgedimError, ValueError):
            # an undecodable byte is reported by its position in the whole
            # file, and before any parse error: read the file whole once
            fh.seek(0)
            fh.read()
            raise
    parts = hodge_decompose_finite(window, u, tol=ns.tol)
    rep = parts.report
    labels = np.array(window.labels, dtype=object)
    return ("tail", "head", "value", "star", "diamond", "iterations",
            "residual", "converged"), [
        labels[window.edge_tails], labels[window.edge_heads], u.values,
        parts.star.values, parts.diamond.values, rep.iterations,
        rep.residual, rep.converged]


_HANDLERS = {"scores": _cmd_scores, "folner": _cmd_folner,
             "qicheck": _cmd_qicheck, "cor4": _cmd_cor4,
             "decompose": _cmd_decompose}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if ns.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        if not 0 < ns.tol < 1:
            raise ValueError("--tol must be in (0, 1)")
        header, columns = _HANDLERS[ns.command](ns)
        _emit(ns.command, header, columns, ns.format, ns.out)
    except _NUMERIC_ERRORS as exc:
        print(f"hodgedim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"hodgedim: configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
