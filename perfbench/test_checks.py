"""Tests of the benchmark's own checks and trace.

    python3 -m pytest -q perfbench

Each check must pass the CLI's real output and fail a row whose value is
moved by 1e-6. The CLI runs in process here on the workloads' own commands
(finite_split on a smaller generated window).
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from hodgedim import cli  # noqa: E402


def run_cli(argv) -> str:
    out = Path(argv[argv.index("--out") + 1])
    assert cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


def edit(text: str, row: int, **changes) -> str:
    """Rewrite CSV `text` with cells of data row `row` replaced; a callable
    value receives the row dict and returns the new cell."""
    rows = checks.parse_csv(text)
    for key, value in changes.items():
        rows[row][key] = value(rows[row]) if callable(value) else value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def shifted(key, by):
    return lambda row: repr(float(row[key]) + by)


def partition_hd(row):
    return repr(1.0 - float(row["star"]) - float(row["diamond"]))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("out")
    texts = {}
    for cls in (workloads.TreeProfile, workloads.LatticeWindowDim,
                workloads.QiBattery):
        wl = cls()
        texts[wl.name] = (wl, run_cli(wl.argv(tmp / f"{wl.name}.csv")))
    wl = workloads.FiniteSplit()
    wl.n_vertices = 400
    wl.prepare(tmp, seed=7)
    texts[wl.name] = (wl, run_cli(wl.argv(tmp / "split.csv")))
    return texts


@pytest.mark.parametrize("name", ["tree_profile", "lattice_window_dim",
                                  "qi_battery", "finite_split"])
def test_real_output_passes(outputs, name):
    wl, text = outputs[name]
    verdict = wl.check(text)
    assert len(verdict) == wl.expected_rows and all(verdict)


@pytest.mark.parametrize("name,row,changes", [
    # hd alone: the exact partition breaks
    ("tree_profile", 6, {"hd": shifted("hd", 1e-6)}),
    # star moved with hd following it: only the closed form catches it
    ("tree_profile", 14, {"star": shifted("star", -1e-6), "hd": partition_hd}),
    ("tree_profile", 9, {"diamond": shifted("diamond", 1e-6),
                         "hd": partition_hd}),
    ("lattice_window_dim", 1, {"hd_dim_estimate":
                               shifted("hd_dim_estimate", 1e-6)}),
    ("lattice_window_dim", 2, {"sigma_over_E": shifted("sigma_over_E", 1e-6)}),
    ("qi_battery", 0, {"lemma5_ratio": shifted("lemma5_ratio", 1e-6)}),
    ("qi_battery", 7, {"lemma6_bound": shifted("lemma6_bound", 1e-6)}),
    ("qi_battery", 13, {"wobble": "2"}),
    ("qi_battery", 16, {"k_est": "3"}),
    ("finite_split", 10, {"star": shifted("star", 1e-6),
                          "diamond": shifted("diamond", -1e-6)}),
    ("finite_split", 20, {"value": shifted("value", 1e-6)}),
])
def test_perturbed_row_fails(outputs, name, row, changes):
    wl, text = outputs[name]
    verdict = wl.check(edit(text, row, **changes))
    assert verdict[row] is False


def test_diamond_divergence_fails_the_split(outputs):
    wl, text = outputs["finite_split"]
    verdict = wl.check(edit(text, 3, diamond=shifted("diamond", 1e-6)))
    assert not any(verdict)


def test_missing_row_fails(outputs):
    wl, text = outputs["tree_profile"]
    verdict = wl.check("\n".join(text.splitlines()[:-1]) + "\n")
    assert verdict == [True] * 14 + [False]


@pytest.mark.parametrize("name", ["tree_profile", "lattice_window_dim",
                                  "qi_battery", "finite_split"])
def test_unparsable_output_fails_every_row(outputs, name):
    wl, text = outputs[name]
    first = checks.parse_csv(text)[0]
    broken = edit(text, 0, **{key: "x" for key in first})
    assert checks.guarded(wl.check, broken, wl.expected_rows) == \
        [False] * wl.expected_rows


def test_jobs_byte_check_flags_the_changed_row(outputs):
    wl, text = outputs["lattice_window_dim"]
    other = edit(text, 1, hd_dim_estimate=shifted("hd_dim_estimate", 1e-6))
    assert checks.same_rows(text, text, 3) == [True] * 3
    assert checks.same_rows(text, other, 3) == [True, False, True]


def test_covered_is_the_union_length():
    assert layertrace.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert layertrace.covered([]) == 0


def test_trace_keeps_bytes_and_counts(tmp_path):
    argv = ["scores", "--family", "z2", "--radii", "2,4", "--out"]
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    results = []
    for trace in (None, tmp_path / "trace.json"):
        out = tmp_path / f"{trace is None}.csv"
        spec = {"commands": [argv + [str(out)]], "edge_scores": 2}
        if trace is not None:
            spec["trace_path"] = str(trace)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, check=True)
        results.append((json.loads(proc.stdout), out.read_text()))
    (plain, plain_text), (traced, traced_text) = results
    assert plain_text == traced_text
    layers = traced["layers"]
    assert layers["windows.ball_calls"] == 2
    assert layers["solver.solves"] == 4
    assert layers["dimension.balls_per_edge_score"] == 1.0
    assert layers["families.neighbor_calls"] > 0
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {s["name"] for s in spans} >= {"cli.main", "score_report", "ball",
                                          "project_star", "solve_laplacian"}
