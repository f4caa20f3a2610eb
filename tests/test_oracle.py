"""Edge scores against direct sparse solves, on balls of 10^3 to 10^5 vertices.

Each score is an effective resistance between the edge's endpoints:
star(e, r) in the ball with its exterior wired to one grounded vertex, and
1 - diamond(e, r) in the free ball. Here both Laplacians are built from the
window's edge list with scipy.sparse and solved by sparse LU, with no use of
the package's CG, so this checks the estimator at sizes the dense oracle of
conftest cannot reach. Only the window itself comes from the package.
"""

from __future__ import annotations

import numpy as np
import pytest

from hodgedim import OrientedEdge, edge_ball, make_family
from hodgedim.dimension import _edge_scores

sp = pytest.importorskip("scipy.sparse")
spla = pytest.importorskip("scipy.sparse.linalg")


def _resistance(lap, a: int, b: int, ground: int | None = None) -> float:
    """x[b] - x[a] for lap x = 1_b - 1_a. With `ground`, that vertex is held
    at potential 0, which makes a free (singular) Laplacian solvable."""
    n = lap.shape[0]
    rhs = np.zeros(n)
    rhs[a], rhs[b] = -1.0, 1.0
    keep = np.ones(n, dtype=bool)
    if ground is not None:
        keep[ground] = False
    x = np.zeros(n)
    x[keep] = spla.spsolve(lap[keep][:, keep].tocsc(), rhs[keep])
    return float(x[b] - x[a])


def direct_scores(window, e: OrientedEdge):
    """(star, diamond, hd) of the canonical edge e on its ball."""
    n, m = window.n_vertices, window.n_edges
    t, h = window.edge_tails, window.edge_heads
    cols = np.concatenate([np.arange(m), np.arange(m)])
    inc = sp.csr_matrix((np.concatenate([-np.ones(m), np.ones(m)]),
                         (np.concatenate([t, h]), cols)), shape=(n, m))
    free = (inc @ inc.T).tocsr()
    # wired: every ambient edge leaving the window ends at the ground, so
    # each vertex keeps its full degree on the diagonal
    adjacency = sp.csr_matrix((np.ones(2 * m), (np.concatenate([t, h]),
                                                np.concatenate([h, t]))),
                              shape=(n, n))
    wired = (sp.diags(window.full_degree.astype(float)) - adjacency).tocsr()
    a, b = window.vertices.index(e.tail), window.vertices.index(e.head)
    star = _resistance(wired, a, b)
    diamond = 1.0 - _resistance(free, a, b, ground=0)
    return star, diamond, 1.0 - star - diamond


CASES = {
    "z2-horizontal-r16": ("z2", ((0, 0), (1, 0)), 16),
    "z2-vertical-r32": ("z2", ((0, 0), (0, 1)), 32),
    "comb-spine-r24": ("comb", ((0, 0), (1, 0)), 24),
    "comb-tooth-r24": ("comb", ((0, 2), (0, 3)), 24),
    "diag_lattice-diagonal-r20": ("diag_lattice", ((0, 0), (1, 1)), 20),
    "ladder-rung-r300": ("ladder", ((0, 0), (0, 1)), 300),
    "z3-r8": ("z3", ((0, 0, 0), (0, 0, 1)), 8),
    "tree3-r16": ("tree3", ((), (0,)), 16),
}


@pytest.mark.parametrize("name, edge, r", CASES.values(), ids=CASES.keys())
def test_scores_match_direct_solve(name, edge, r):
    fam = make_family(name)
    e = OrientedEdge(*edge)
    window = edge_ball(fam, e, r)
    assert window.n_vertices >= 500
    got = _edge_scores(fam, e, r)
    for value, expect in zip((got.star, got.diamond, got.hd),
                             direct_scores(window, e)):
        assert abs(value - expect) <= 1e-9
