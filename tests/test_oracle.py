"""Edge scores against two oracles that do not use the package's CG.

Each score is an effective resistance between the edge's endpoints:
star(e, r) in the ball with its exterior wired to one grounded vertex, and
1 - diamond(e, r) in the free ball. By Kirchhoff's theorem that resistance
is also the chance that the edge lies in a uniform spanning tree of the
wired or the free ball.

The first oracle builds both Laplacians from the window's edge list with
scipy.sparse and solves them by sparse LU, on balls of 10^3 to 10^5
vertices, which the dense oracle of conftest cannot reach. The second
samples spanning trees by Wilson's algorithm (random walks, no linear
algebra) and checks the scores to within 5 binomial standard deviations.
Only the window itself comes from the package. The third, for the ladder's
rung, is exact: series and parallel rules in rational arithmetic. The
fourth needs no solve at all: Rayleigh monotonicity and Foster's theorem
bracket the scores at every radius.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgedim import (OrientedEdge, edge_ball, make_family, origin_edge,
                      score_report)
from hodgedim.dimension import _edge_scores

try:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
except ImportError:  # the walk oracle below needs no scipy
    sp = spla = None


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
    if sp is None:
        pytest.skip("scipy is not installed")
    fam = make_family(name)
    e = OrientedEdge(*edge)
    window = edge_ball(fam, e, r)
    assert window.n_vertices >= 500
    got = _edge_scores(fam, e, r)
    for value, expect in zip((got.star, got.diamond, got.hd),
                             direct_scores(window, e)):
        assert abs(value - expect) <= 1e-9


def _neighbor_lists(window, wired: bool) -> list:
    """Each vertex's neighbor indices, one entry per edge. Wired, vertex n
    stands for the exterior, joined to each vertex v by full_degree(v) -
    internal_degree(v) parallel edges."""
    n = window.n_vertices
    nbrs = [[] for _ in range(n + wired)]
    for a, b in zip(window.edge_tails.tolist(), window.edge_heads.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    if wired:
        for v, d in enumerate(window.full_degree.tolist()):
            missing = d - len(nbrs[v])
            nbrs[v] += [n] * missing
            nbrs[n] += [v] * missing
    return nbrs


def _first_entry_share(nbrs, tail: int, head: int, walks: int,
                       rng: random.Random) -> float:
    """Share of simple random walks from `head` whose first step into `tail`
    comes from `head`. Wilson's algorithm rooted at `tail` starts its tree
    with the loop erasure of such a walk, which ends with the step that
    entered `tail`; so the share estimates P[tail-head edge in the tree]."""
    rand = rng.random
    hits = 0
    for _ in range(walks):
        x = head
        while True:
            nb = nbrs[x]
            y = nb[int(rand() * len(nb))]
            if y == tail:
                break
            x = y
        hits += x == head
    return hits / walks


WALKS = 20_000
WILSON_CASES = {
    "z2-r4": ("z2", ((0, 0), (1, 0)), 4),
    "z2-r8": ("z2", ((0, 0), (0, 1)), 8),
    "ladder-r6": ("ladder", ((0, 0), (1, 0)), 6),
    "comb-r6": ("comb", ((0, 0), (0, 1)), 6),
    "tree3-r5": ("tree3", ((), (0,)), 5),
}


@pytest.mark.parametrize("name, edge, r", WILSON_CASES.values(),
                         ids=WILSON_CASES.keys())
def test_scores_match_wilson_sampling(name, edge, r):
    fam = make_family(name)
    e = OrientedEdge(*edge)
    window = edge_ball(fam, e, r)
    got = _edge_scores(fam, e, r)
    tail, head = window.vertices.index(e.tail), window.vertices.index(e.head)
    rng = random.Random(1996)
    for wired, score in ((True, got.star), (False, 1.0 - got.diamond)):
        est = _first_entry_share(_neighbor_lists(window, wired), tail, head,
                                 WALKS, rng)
        if score in (0.0, 1.0):
            assert est == score
        else:
            sigma = math.sqrt(score * (1.0 - score) / WALKS)
            assert abs(est - score) <= 5 * sigma, (wired, est, score)


def _ladder_rung_resistance(r: int, wired: bool) -> Fraction:
    """The exact resistance across the rung (0, 0)-(0, 1) in its radius-r
    ball, columns -r..r of the ladder. S is the resistance between the rails
    at a column c of one half, through columns c+1 on: the two rail edges
    in series with rung c+1, which is in parallel with the next S. At column
    r the wired exterior joins the rails through two edges (S = 2); free,
    nothing lies past column r, so the first step gives 2 + 1. The two
    halves (S/2) are in parallel with the rung itself."""
    s = Fraction(2) if wired else Fraction(3)
    for _ in range(r if wired else r - 1):
        s = 2 + s / (1 + s)
    return (s / 2) / (1 + s / 2)


def test_ladder_rung_scores_are_the_exact_resistances():
    """star is the wired and 1 - diamond the free resistance across the
    rung, to 2 ulp, up to r = 1100 (4,402 vertices, past the size from
    which the solve applies its neighbour tables)."""
    radii = (1, 2, 5, 20, 80, 300, 1100)
    rep = score_report(make_family("ladder"), OrientedEdge((0, 0), (0, 1)),
                       radii)
    for r, star, diamond in zip(radii, rep.star, rep.diamond):
        for got, wired in ((star, True), (1.0 - diamond, False)):
            exact = float(_ladder_rung_resistance(r, wired))
            assert abs(got - exact) <= 2 * math.ulp(exact), (r, wired, got)


BRACKET_CASES = {
    "z1-edge-r200": ("z1", 200, False),
    "z2-edge-r128": ("z2", 128, False),
    "z3-edge-r24": ("z3", 24, False),
    "diag_lattice-edge-r64": ("diag_lattice", 64, False),
    "tree3-edge-r16": ("tree3", 16, False),
    "tree4-edge-r10": ("tree4", 10, False),
    "ladder-vertex-r1000": ("ladder", 1000, True),
    "diag_lattice-vertex-r64": ("diag_lattice", 64, True),
}


@pytest.mark.parametrize("name, r, at_vertex", BRACKET_CASES.values(),
                         ids=BRACKET_CASES.keys())
def test_scores_lie_in_the_rayleigh_foster_brackets(name, r, at_vertex):
    """Wired resistances rise and free ones fall to their limits as r grows
    (Rayleigh), and on an amenable vertex-transitive graph the two limits
    agree and sum to 2 over the edges at a vertex (Foster); on the d-regular
    tree they are 2/d wired and 1 free. So at every r, on an edge-transitive
    D-regular family, star(e, r) <= 2/D <= 1 - diamond(e, r), and on a
    vertex-transitive one the sums of both over the edges at the origin
    bracket 2. Both sides get the contract's slack of 10 tol: the ladder's
    free sum reads 2 - 4.4e-16 at r = 1000."""
    fam = make_family(name)
    nbrs = fam.neighbors(fam.origin)
    edges = ([OrientedEdge(fam.origin, v) for v in nbrs] if at_vertex
             else [origin_edge(fam)])
    scores = [_edge_scores(fam, e, r) for e in edges]
    limit = 2.0 if at_vertex else 2.0 / len(nbrs)
    wired = math.fsum(s.star for s in scores)
    free = math.fsum(1.0 - s.diamond for s in scores)
    slack = 10 * 1e-10
    assert wired <= limit + slack and limit - slack <= free, (wired, free)
