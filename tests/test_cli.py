from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from importlib.resources import files

import pytest

from hodgedim import (SolverFailureError, ball, differential, edge_function_to_csv,
                      VertexFunction, make_family, window_to_json)
from hodgedim import dimension
from hodgedim.cli import _emit, main
from conftest import BAD_EDGE_CSVS, REPO_ROOT, source_env

import numpy as np


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_scores_csv_values(capsys):
    code, out, err = run_cli(capsys, "scores", "--family", "z1",
                             "--radii", "1,2")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["family", "edge_tail", "edge_head", "R", "star",
                      "diamond", "hd", "cg_iters", "residual"]
    assert len(rows) == 2
    for row, r in zip(rows, (1, 2)):
        assert row[0] == "z1"
        assert int(row[3]) == r
        assert float(row[4]) == pytest.approx(float(Fraction(2 * r + 2, 2 * r + 3)),
                                              abs=1e-9)
        assert float(row[5]) == 0.0


def test_scores_range_radii(capsys):
    code, out, _ = run_cli(capsys, "scores", "--family", "z1",
                           "--radii", "1..3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r[3]) for r in rows] == [1, 2, 3]


def _json_payload(capsys, *argv):
    """The JSON a command prints, validated against the output schema."""
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["command"] == argv[0]
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (files("hodgedim") / "schemas" / "output.schema.json").read_text())
    jsonschema.validate(payload, schema)
    return payload


def test_scores_json_matches_schema(capsys):
    _json_payload(capsys, "scores", "--family", "z1", "--radii", "1")


@pytest.mark.parametrize("argv", [
    ("folner", "--family", "z2", "--radii", "1..3"),
    ("cor4", "--family", "z2", "--window-radii", "1,2", "--factor", "2"),
    ("qicheck", "--family", "z2", "--window-radii", "1,2"),
], ids=lambda argv: argv[0])
def test_json_matches_schema(capsys, argv):
    rows = _json_payload(capsys, *argv)["rows"]
    assert rows
    if argv[0] == "qicheck":
        # z2_to_diag is no endomap: its rows carry the -1 sentinels
        diag = [row for row in rows if row["map_name"] == "z2_to_diag"]
        assert diag and all(row["wobble"] == -1 and row["lemma6_ratio"] == -1.0
                            for row in diag)


def test_decompose_json_matches_schema(tmp_path, capsys):
    w = ball(make_family("z2"), (0, 0), 1)
    u = differential(VertexFunction(w, np.arange(w.n_vertices, dtype=float)))
    wpath, epath = tmp_path / "window.json", tmp_path / "edges.csv"
    wpath.write_text(window_to_json(w))
    epath.write_text(edge_function_to_csv(u))
    rows = _json_payload(capsys, "decompose", "--window", str(wpath),
                         "--edges", str(epath))["rows"]
    assert len(rows) == w.n_edges


@pytest.mark.parametrize("radii", ["0..3", "0", "2,-1"])
def test_folner_rejects_radii_below_one(capsys, radii):
    code, out, err = run_cli(capsys, "folner", "--family", "z2",
                             "--radii", radii)
    assert code == 2 and out == ""
    assert err == "hodgedim: configuration error: radii must be >= 1\n"


def test_folner(capsys):
    code, out, _ = run_cli(capsys, "folner", "--family", "z2",
                           "--radii", "1,2,4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "radius", "V", "E", "sigma", "ratio_v",
                      "ratio_e"]
    assert [int(r[1]) for r in rows] == [1, 2, 4]
    assert int(rows[0][2]) == 5  # z2 ball r=1
    ratios = [float(r[5]) for r in rows]
    assert ratios == sorted(ratios, reverse=True)


def test_qicheck_identity(capsys):
    code, out, _ = run_cli(capsys, "qicheck", "--family", "z2",
                           "--window-radii", "2", "--map", "identity")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["map_name", "window_radius", "k_est", "density_gap",
                      "wobble", "lemma5_ratio", "lemma5_bound", "lemma6_ratio",
                      "lemma6_bound"]
    (row,) = rows
    assert row[0] == "identity"
    assert int(row[2]) == 1 and int(row[3]) == 0 and int(row[4]) == 0
    assert float(row[5]) == 1.0
    assert float(row[7]) == 0.0


def test_qicheck_unknown_map(capsys):
    code, out, err = run_cli(capsys, "qicheck", "--family", "z2",
                             "--window-radii", "2", "--map", "banana")
    assert code == 2
    assert "unknown map" in err
    assert out == ""


def test_qicheck_map_unavailable_for_family(capsys):
    code, _, err = run_cli(capsys, "qicheck", "--family", "tree3",
                           "--window-radii", "2", "--map", "coarsen")
    assert code == 2
    assert "coarsen" in err


def test_cor4(capsys):
    code, out, _ = run_cli(capsys, "cor4", "--family", "z2",
                           "--window-radii", "1,2", "--factor", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "window_radius", "score_radius",
                      "hd_dim_estimate", "sigma_over_E"]
    assert [int(r[2]) for r in rows] == [2, 4]


def test_cor4_checks_every_window_radius_first(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(dimension, "ball",
                        lambda *args: built.append(args) or ball(*args))
    code, out, err = run_cli(capsys, "cor4", "--family", "tree3",
                             "--window-radii", "3,0", "--factor", "4")
    assert code == 2 and out == ""
    assert err == "hodgedim: configuration error: window radii must be >= 1\n"
    assert built == []


def test_decompose_roundtrip(tmp_path, capsys):
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    vals = np.array([1.0 if x == (0, 0) else 0.0 for x in w.vertices])
    u = differential(VertexFunction(w, vals))
    wpath = tmp_path / "window.json"
    epath = tmp_path / "edges.csv"
    wpath.write_text(window_to_json(w))
    epath.write_text(edge_function_to_csv(u))

    code, out, err = run_cli(capsys, "decompose", "--window", str(wpath),
                             "--edges", str(epath))
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["tail", "head", "value", "star", "diamond",
                      "iterations", "residual", "converged"]
    assert len(rows) == w.n_edges
    for row in rows:
        assert float(row[2]) == pytest.approx(float(row[3]) + float(row[4]),
                                              abs=1e-9)
        assert row[7] == "true"
    # an exact gradient: diamond column vanishes
    assert max(abs(float(r[4])) for r in rows) < 1e-8


def test_decompose_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", "--window",
                           str(tmp_path / "nope.json"), "--edges",
                           str(tmp_path / "nope.csv"))
    assert code == 2
    assert "configuration error" in err


def test_decompose_malformed_window(tmp_path, capsys):
    w = ball(make_family("z2"), (0, 0), 2)
    blob = json.loads(window_to_json(w))
    blob["edges"][0] = [1]
    wpath = tmp_path / "window.json"
    epath = tmp_path / "edges.csv"
    wpath.write_text(json.dumps(blob))
    epath.write_text("tail,head,value\n")
    code, out, err = run_cli(capsys, "decompose", "--window", str(wpath),
                             "--edges", str(epath))
    assert code == 2
    assert out == ""
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label, text, error, message", BAD_EDGE_CSVS,
                         ids=[case[0] for case in BAD_EDGE_CSVS])
def test_decompose_bad_edge_csv(tmp_path, capsys, label, text, error, message):
    wpath = tmp_path / "window.json"
    epath = tmp_path / "edges.csv"
    wpath.write_text(window_to_json(ball(make_family("z2"), (0, 0), 2)))
    epath.write_text(text)
    code, out, err = run_cli(capsys, "decompose", "--window", str(wpath),
                             "--edges", str(epath))
    assert code == 2
    assert out == ""
    assert err == f"hodgedim: configuration error: {message}\n"


_CELLS = [",", '"', "\r", "\n", "%", "%s", "", " lead", "(0,1)", "(5)"]


def _emit_columns(n):
    """Columns of n rows, of every kind `_emit` formats, and constant
    columns of every type."""
    cells = (_CELLS * n)[:n]
    floats = ([-0.0, 5e-324, 1e16, 0.1, -2.5, float("inf")] * n)[:n]
    return {
        "str": cells,
        "labels": np.array(cells[::-1], dtype=object),
        "bool": [k % 3 == 0 for k in range(n)],
        "bool array": np.arange(n) % 2 == 0,
        "int": list(range(-3, n - 3)),
        "int array": np.arange(n, dtype=np.int64) * 7,
        "float array": np.array(floats),
        "float list": floats[::-1],
        "wobble": ([-1, 0.5, -1, 2.0, 1e-300] * n)[:n],
        "tuple": tuple(cells),
        "const str": 'a,"%s"',
        "const pct": "%",
        "const bool": False,
        "const int": -7,
        "const float": -0.0,
        "const tiny": 5e-324,
    }


@pytest.mark.parametrize("n", [0, 1, 13, 9000])
def test_emit_csv_bytes_match_csv_writer(tmp_path, n):
    """`_emit` writes a table byte for byte as csv.writer does, with bools
    as true/false and floats by repr, across the 4096-row chunks."""
    columns = _emit_columns(n)
    header = list(columns)
    header[0] = "str,%s"  # header cells are quoted too

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    full = [c.tolist() if isinstance(c, np.ndarray) else
            list(c) if isinstance(c, (list, tuple)) else [c] * n
            for c in columns.values()]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([map(cell, row) for row in zip(*full)])
    out = tmp_path / "out.csv"
    _emit("test", header, list(columns.values()), "csv", str(out))
    assert out.read_bytes() == want.getvalue().encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_emit_json_bytes_match_json_dumps(tmp_path, n):
    """`_emit` writes JSON in chunks of rows, byte for byte as json.dumps
    writes the whole object."""
    columns = _emit_columns(n)
    header = list(columns)
    full = [c.tolist() if isinstance(c, np.ndarray) else
            list(c) if isinstance(c, (list, tuple)) else [c] * n
            for c in columns.values()]
    want = json.dumps({"command": "test",
                       "rows": [dict(zip(header, r)) for r in zip(*full)]},
                      sort_keys=True, separators=(",", ":")) + "\n"
    out = tmp_path / "out.json"
    _emit("test", header, list(columns.values()), "json", str(out))
    assert out.read_bytes() == want.encode("utf-8")


def test_decompose_names_a_bad_byte_by_its_place_in_the_file(tmp_path,
                                                             capsys):
    """The edge CSV is read row by row, yet an undecodable byte is named by
    its position in the whole file, and before a bad header: the errors of
    a read of the whole file before the parse."""
    w = ball(make_family("z2"), (0, 0), 20)
    text = edge_function_to_csv(differential(VertexFunction(
        w, np.arange(w.n_vertices, dtype=float))))
    wpath, epath = tmp_path / "window.json", tmp_path / "edges.csv"
    wpath.write_text(window_to_json(w))
    for raw in (text.encode(), b"tail,head,val" + text[15:].encode()):
        raw = raw[:20000] + b"\xff" + raw[20001:]
        epath.write_bytes(raw)
        code, out, err = run_cli(capsys, "decompose", "--window", str(wpath),
                                 "--edges", str(epath))
        with pytest.raises(UnicodeDecodeError) as info:
            raw.decode("utf-8")
        assert "position 20000" in str(info.value)
        assert (code, out) == (2, "")
        assert err == f"hodgedim: configuration error: {info.value}\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "scores.csv"
    code, out, _ = run_cli(capsys, "scores", "--family", "z1", "--radii", "1",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("family,edge_tail,edge_head,R,")


def test_deterministic_output(capsys):
    args = ("scores", "--family", "z2", "--radii", "1,2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_jobs_do_not_change_bytes(capsys):
    base = ("scores", "--family", "z2", "--radii", "1,2")
    _, a, _ = run_cli(capsys, *base, "--jobs", "1")
    _, b, _ = run_cli(capsys, *base, "--jobs", "4")
    assert a == b


def test_bad_family(capsys):
    code, _, err = run_cli(capsys, "scores", "--family", "petersen",
                           "--radii", "1")
    assert code == 2
    assert "configuration error" in err


def test_bad_radii(capsys):
    code, _, err = run_cli(capsys, "scores", "--family", "z1",
                           "--radii", "0")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    ("scores", "the following arguments are required: --radii, --family"),
    ("scores --family z1 --radii ,",
     "hodgedim: configuration error: no radii in ','"),
], ids=["no arguments", "no radii"])
def test_unusable_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("family, d, message", [
    ("z2", "3", "family 'z2' has d = 2, not 3"),
    ("tree3", "5", "family 'tree3' has d = 3, not 5"),
    ("ladder", "3", "family 'ladder' takes no degree parameter"),
])
def test_d_that_disagrees_with_family(capsys, family, d, message):
    got = run_cli(capsys, "folner", "--family", family, "--d", d,
                  "--radii", "1")
    assert got == (2, "", f"hodgedim: configuration error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("scores", "--family", "z1", "--radii", "3..1,2"),
    ("qicheck", "--family", "z1", "--window-radii", "2,3..1"),
])
def test_reversed_radius_range(capsys, argv):
    assert run_cli(capsys, *argv) == (
        2, "", "hodgedim: configuration error: radius range '3..1' runs "
        "backwards\n")


def test_bad_jobs(capsys):
    code, _, _ = run_cli(capsys, "scores", "--family", "z1", "--radii", "1",
                         "--jobs", "0")
    assert code == 2


@pytest.mark.parametrize("tol", ["0", "1", "2", "inf", "nan"])
@pytest.mark.parametrize("argv", [
    ("scores", "--family", "z2", "--radii", "1,2"),
    ("folner", "--family", "z2", "--radii", "1,2"),
    ("qicheck", "--family", "z2", "--window-radii", "1"),
    ("cor4", "--family", "z2", "--window-radii", "1"),
    ("decompose", "--window", "w.json", "--edges", "u.csv"),
], ids=lambda argv: argv[0])
def test_tol_outside_unit_interval(capsys, argv, tol):
    """At --tol >= 1 the zero start vector passes CG at once, so no command
    accepts it, even one that solves nothing."""
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == "hodgedim: configuration error: --tol must be in (0, 1)\n"


def test_loose_tol_bounds_star_only(capsys):
    """A CG iterate started at zero undershoots each score it solves for. At
    a loose --tol star stays below its tight value, while diamond, which is
    1 minus an undershooting free score, can rise above it."""
    scores = {}
    for tol in ("0.1", "1e-10"):
        code, out, _ = run_cli(capsys, "scores", "--family", "z2",
                               "--radii", "1,2,4", "--tol", tol)
        assert code == 0
        scores[tol] = [(float(row[4]), float(row[5]))
                       for row in parse_csv(out)[1]]
    for (star, diamond), (star_tight, diamond_tight) in zip(
            scores["0.1"], scores["1e-10"]):
        assert star <= star_tight
        assert diamond >= diamond_tight
    # the overshoot README quotes, at r=4
    assert scores["0.1"][2][1] == pytest.approx(0.5139, abs=5e-5)
    assert scores["1e-10"][2][1] == pytest.approx(0.4869, abs=5e-5)


def test_numeric_failure_exit_code(monkeypatch, capsys):
    import hodgedim.cli as cli_mod

    def boom(*args, **kwargs):
        raise SolverFailureError("stalled")

    monkeypatch.setattr(cli_mod, "score_report", boom)
    code, _, err = run_cli(capsys, "scores", "--family", "z1", "--radii", "1")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    "folner --family tree3 --radii 40", "scores --family tree4 --radii 40",
    "folner --family z3 --radii 10000000",
    "folner --family diag_lattice --radii 3000000000",
    "folner --family z1 --radii 1000000"])
def test_oversized_windows_fail_before_they_are_built(capsys, argv):
    # each ball would pass the size cap: the command fails on the ball's
    # size instead of after searching two million vertices
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "hodgedim: configuration error: "
                                "window would exceed 2000000 vertices\n")


def test_console_entry_point(tmp_path):
    """The `hodgedim` script declared in pyproject.toml starts the CLI."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["hodgedim"]
    # Load the target the way an installed console script does.
    launcher = ("from importlib.metadata import EntryPoint; "
                f"EntryPoint('hodgedim', {target!r}, 'console_scripts')"
                ".load()()")
    proc = subprocess.run(
        [sys.executable, "-c", launcher,
         "scores", "--family", "z1", "--radii", "1"],
        capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env=source_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,edge_tail,edge_head,R,")


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """A bare `np.unique` imports `numpy.ma` on its first call, which costs
    a process 12 to 18 ms; the window, score and qi paths call none."""
    script = "\n".join([
        "import os, sys",
        "from hodgedim.cli import main",
        "for argv in (['cor4', '--family', 'z2', '--window-radii', '2,4',",
        "              '--factor', '4'],",
        "             ['scores', '--family', 'tree3', '--radii', '1..6'],",
        "             ['qicheck', '--family', 'z2', '--window-radii', '1..3']):",
        "    assert main([*argv, '--out', os.devnull]) == 0",
        "    print(argv[0], 'numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["cor4 False", "scores False",
                                       "qicheck False", ""]
