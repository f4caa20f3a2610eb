"""Shared fixtures and the dense linear-algebra oracles.

Every solver-facing assertion in this suite is checked against plain dense
numpy on the incidence matrix, built independently of the package's edge
bookkeeping. Keep these helpers free of hodgedim internals beyond the public
window API.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from hodgedim import (FiniteWindow, IncompatibleDomainError, InvalidWindowError,
                      MissingEdgeError, ball, induced_window, make_family)

REPO_ROOT = Path(__file__).resolve().parents[1]

# Edge CSV bodies that `edge_function_from_csv` must reject on the z2 ball of
# radius 2 about the origin: (label, text, error type, message). When rows
# break several rules, the first offending row in file order is reported.
_HEAD = "tail,head,value\n"
BAD_EDGE_CSVS = [
    ("empty", "", InvalidWindowError,
     "edge CSV must start with tail,head,value"),
    ("bad header", 'tail,head,val\n"(0,0)","(0,1)",1.0\n', InvalidWindowError,
     "edge CSV must start with tail,head,value"),
    ("two columns", _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)","(1,0)"\n',
     InvalidWindowError, "bad edge CSV row: ['(0,0)', '(1,0)']"),
    ("four columns", _HEAD + '"(0,0)","(0,1)",1.0,2.0\n', InvalidWindowError,
     "bad edge CSV row: ['(0,0)', '(0,1)', '1.0', '2.0']"),
    ("unknown vertex", _HEAD + '"(0,0)","(9,9)",1.0\n', MissingEdgeError,
     "edge OrientedEdge(tail=(0, 0), head=(9, 9)) has an endpoint outside "
     "the window"),
    ("not an edge", _HEAD + '"(0,0)","(1,1)",1.0\n', MissingEdgeError,
     "OrientedEdge(tail=(0, 0), head=(1, 1)) is not an edge of the window"),
    ("tail is head", _HEAD + '"(0,1)","(0,1)",1.0\n', MissingEdgeError,
     "degenerate edge OrientedEdge(tail=(0, 1), head=(0, 1))"),
    ("duplicate", _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)","(0,1)",2.0\n',
     MissingEdgeError,
     "duplicate edge row for OrientedEdge(tail=(0, 0), head=(0, 1))"),
    ("duplicate reversed", _HEAD + '"(0,0)","(0,1)",1.0\n"(0,1)","(0,0)",2.0\n',
     MissingEdgeError,
     "duplicate edge row for OrientedEdge(tail=(0, 1), head=(0, 0))"),
    ("not a number", _HEAD + '"(0,0)","(0,1)",abc\n', ValueError,
     "could not convert string to float: 'abc'"),
    ("not a label", _HEAD + '"(0,0)","(0,a)",1.0\n', ValueError,
     "invalid literal for int() with base 10: 'a'"),
    ("not finite", _HEAD + '"(0,0)","(0,1)",nan\n', IncompatibleDomainError,
     "values must be finite"),
    ("oversized field", _HEAD + '"(0,0)","(0,1)",' + "1" * 200_000 + "\n",
     csv.Error, "field larger than field limit (131072)"),
    # ordering: the earlier row wins, and within a row the pair is checked
    # before the value
    ("non-edge before bad number",
     _HEAD + '"(0,0)","(1,1)",1.0\n"(0,0)","(0,1)",abc\n', MissingEdgeError,
     "OrientedEdge(tail=(0, 0), head=(1, 1)) is not an edge of the window"),
    ("bad number before non-edge",
     _HEAD + '"(0,0)","(0,1)",abc\n"(0,0)","(1,1)",1.0\n', ValueError,
     "could not convert string to float: 'abc'"),
    ("non-edge with a bad number", _HEAD + '"(0,0)","(1,1)",abc\n',
     MissingEdgeError,
     "OrientedEdge(tail=(0, 0), head=(1, 1)) is not an edge of the window"),
    ("duplicate with a bad number",
     _HEAD + '"(0,0)","(0,1)",1.0\n"(0,1)","(0,0)",abc\n', MissingEdgeError,
     "duplicate edge row for OrientedEdge(tail=(0, 1), head=(0, 0))"),
    ("duplicate before short row",
     _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)","(0,1)",1.0\n"(0,0)"\n',
     MissingEdgeError,
     "duplicate edge row for OrientedEdge(tail=(0, 0), head=(0, 1))"),
    ("short row before duplicate",
     _HEAD + '"(0,0)","(0,1)",1.0\n"(0,0)"\n"(0,0)","(0,1)",1.0\n',
     InvalidWindowError, "bad edge CSV row: ['(0,0)']"),
    ("non-edge before unknown vertex",
     _HEAD + '"(0,0)","(1,1)",1.0\n"(0,0)","(9,9)",1.0\n', MissingEdgeError,
     "OrientedEdge(tail=(0, 0), head=(1, 1)) is not an edge of the window"),
    ("non-edge before oversized field",
     _HEAD + '"(0,0)","(1,1)",1.0\n"(0,0)","(0,1)",' + "1" * 200_000 + "\n",
     MissingEdgeError,
     "OrientedEdge(tail=(0, 0), head=(1, 1)) is not an edge of the window"),
    ("unknown vertex before bad label",
     _HEAD + '"(9,9)","(0,0)",1.0\n"(0,0)","(0,a)",1.0\n', MissingEdgeError,
     "edge OrientedEdge(tail=(9, 9), head=(0, 0)) has an endpoint outside "
     "the window"),
]


def source_env() -> dict[str, str]:
    """Environment for a child interpreter that imports hodgedim from the
    checkout's `src`, ahead of any PYTHONPATH already set, with no install."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def incidence(window: FiniteWindow) -> np.ndarray:
    """n x m signed incidence matrix over the canonical edge list."""
    n, m = window.n_vertices, window.n_edges
    b = np.zeros((n, m))
    for j, (t, h) in enumerate(zip(window.edge_tails, window.edge_heads)):
        b[t, j] = -1.0
        b[h, j] = 1.0
    return b


def dense_star_projection(window: FiniteWindow, u: np.ndarray,
                          embedded: bool) -> np.ndarray:
    """Least-squares projection of u onto the gradient subspace.

    embedded adds the exterior-degree grounding term, which is what makes
    the system nonsingular on windows with boundary.
    """
    b = incidence(window)
    lap = b @ b.T
    if embedded:
        lap = lap + np.diag(window.full_degree - window.internal_degree)
        v = np.linalg.solve(lap, b @ u)
    else:
        v = np.linalg.lstsq(lap, b @ u, rcond=None)[0]
    return b.T @ v


def cycle_space_dim(window: FiniteWindow) -> int:
    b = incidence(window)
    return window.n_edges - np.linalg.matrix_rank(b)


def random_window(family, rng: np.random.Generator, n_target: int,
                  spread: int = 6) -> FiniteWindow:
    """Random connected induced window grown by biased BFS from a random
    start vertex. Deterministic given the generator state."""
    origin = family.origin
    start = origin
    for _ in range(rng.integers(0, spread)):
        nbrs = family.neighbors(start)
        start = nbrs[rng.integers(0, len(nbrs))]
    chosen = {start}
    fringe = list(family.neighbors(start))
    while len(chosen) < n_target and fringe:
        i = int(rng.integers(0, len(fringe)))
        x = fringe.pop(i)
        if x in chosen:
            continue
        chosen.add(x)
        fringe.extend(y for y in family.neighbors(x) if y not in chosen)
    if len(chosen) < 2:
        chosen.update(family.neighbors(start)[:1])
    return induced_window(family, chosen)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)


@pytest.fixture(scope="session")
def z1():
    return make_family("z1")


@pytest.fixture(scope="session")
def z2():
    return make_family("z2")


@pytest.fixture(scope="session")
def tree3():
    return make_family("tree3")


@pytest.fixture(scope="session")
def small_z2_window(z2):
    return ball(z2, (0, 0), 2)
