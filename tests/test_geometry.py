"""Balls, Følner counts and distances against the closed-form geometry of
the built-in families.

The metrics and edge generators below are written from the definitions in
`families.py`, and the counts from the coordination sequences of the
lattices (Conway & Sloane, "Low-dimensional lattices VII: coordination
sequences", Proc. R. Soc. A 453, 1997). Nothing here calls a search, a
neighbour rule or a window builder of the package except the one under
test, so a wrong neighbour rule or a search that drops a layer fails it.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from hodgedim import ball, folner_profile, make_family, sigma
from hodgedim.quasi import lex_min_path
from hodgedim.windows import bfs, distance_rows


def _l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def _triangular(a, b):
    # Z^2 plus the diagonal (1, 1): a step along it moves both coordinates
    # when they move the same way
    da, db = b[0] - a[0], b[1] - a[1]
    if da * db >= 0:
        return max(abs(da), abs(db))
    return abs(da) + abs(db)


def _unit_steps(k):
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


# name -> (dimension, metric, edge generators with a positive first nonzero
# coordinate, ambient degree)
GEOMETRY = {
    "z1": (1, _l1, _unit_steps(1), 2),
    "z2": (2, _l1, _unit_steps(2), 4),
    "z3": (3, _l1, _unit_steps(3), 6),
    "diag_lattice": (2, _triangular, [(0, 1), (1, 0), (1, 1)], 6),
}


def _lattice_ball_size(d, r):
    return sum(2 ** k * comb(d, k) * comb(r, k) for k in range(d + 1))


def _lattice_sphere_size(d, r):
    return sum(2 ** k * comb(d, k) * comb(r - 1, k - 1)
               for k in range(1, d + 1))


def _closed_ball(name, sources, r):
    """The sorted vertices within r of the sources, by the metric, and the
    set of those at distance exactly r."""
    k, metric, _, _ = GEOMETRY[name]
    near = set()
    for c in sources:
        near.update(itertools.product(*[range(a - r, a + r + 1) for a in c]))
    dist = {x: min(metric(c, x) for c in sources) for x in near}
    inside = sorted(x for x, t in dist.items() if t <= r)
    return inside, {x for x in inside if dist[x] == r}


def _closed_edges(name, inside):
    _, _, steps, _ = GEOMETRY[name]
    present = set(inside)
    return {(x, y) for x in inside for v in steps
            for y in [tuple(a + b for a, b in zip(x, v))] if y in present}


@pytest.mark.parametrize("name", sorted(GEOMETRY))
def test_balls_are_metric_balls(name):
    k, _, steps, degree = GEOMETRY[name]
    rng = np.random.default_rng(12)
    fam = make_family(name)
    for r in range(1, 9):
        c = tuple(rng.integers(-30, 31, k).tolist())
        edge = [c, tuple(a + b for a, b in zip(c, steps[-1]))]
        for sources in ([c], edge):
            w = ball(fam, sources, r)
            inside, sphere = _closed_ball(name, sources, r)
            assert list(w.vertices) == inside
            got = {(w.vertices[t], w.vertices[h]) for t, h in
                   zip(w.edge_tails.tolist(), w.edge_heads.tolist())}
            assert got == _closed_edges(name, inside)
            assert set(sigma(w)) == sphere
            assert (w.full_degree == degree).all()


@pytest.mark.parametrize("name, radii", [
    ("z1", (1, 7, 50_000)),         # 100,001 vertices at r=50,000
    ("z2", (1, 2, 250)),            # 125,501 vertices at r=250
    ("z3", (1, 5, 40, 52)),         # 88,641 at r=40, 193,025 at r=52
    ("diag_lattice", (1, 3, 200)),  # 120,601 at r=200
])
def test_folner_counts_are_coordination_sums(name, radii):
    k = GEOMETRY[name][0]
    for row in folner_profile(make_family(name), (0,) * k, radii):
        r = row.radius
        if name == "diag_lattice":
            n, s = 3 * r * (r + 1) + 1, 6 * r
        else:
            n, s = _lattice_ball_size(k, r), _lattice_sphere_size(k, r)
        assert (row.n_vertices, row.sigma_size) == (n, s)
    assert n >= 10 ** 5  # at the largest radius


# -- distances ----------------------------------------------------------------

def _comb(a, b):
    # columns meet only on the spine b = 0
    if a[0] == b[0]:
        return abs(a[1] - b[1])
    return abs(a[1]) + abs(a[0] - b[0]) + abs(b[1])


def _tree(x, y):
    common = 0
    for p, q in zip(x, y):
        if p != q:
            break
        common += 1
    return len(x) + len(y) - 2 * common


METRICS = {"z1": _l1, "z2": _l1, "z3": _l1, "ladder": _l1, "comb": _comb,
           "diag_lattice": _triangular, "tree3": _tree}


def _sample(name, rng):
    """Every vertex near the origin (within 3 on each axis, or the words of
    at most 4 letters), so that a wrong edge among them shows, and two
    seeded vertices far apart from them."""
    if name == "tree3":
        def word(k):
            return tuple(rng.integers(3, size=min(k, 1)).tolist()
                         + rng.integers(2, size=max(k - 1, 0)).tolist())
        return _words(4), [word(12), word(40)]
    k = len(make_family(name).origin)
    axes = [range(-3, 4)] * k
    if name == "ladder":
        axes[1] = (0, 1)
    far = [tuple(c + int(rng.integers(-3, 4)) for c in p) for p in
           ((10 ** 6,) + (1,) * (k - 1), (-2 ** 40,) + (0,) * (k - 1))]
    if name == "ladder":
        far = [(a, b % 2) for a, b in far]
    return list(itertools.product(*axes)), far


def _words(longest, d=3):
    """The words of tree<d> of at most `longest` letters."""
    return [()] + [(a,) + rest for n in range(1, longest + 1) for a in range(d)
                   for rest in itertools.product(range(d - 1), repeat=n - 1)]


def _metric_ball(name, sources, r):
    """{x: distance from the sources} over the vertices within r, by the
    metric alone: the ball lies in the L1 box about each source (every
    metric here is at least L1), or, on a tree, among the words at most r
    letters longer than the longest source."""
    metric = METRICS.get(name, _tree)
    if name.startswith("tree"):
        near = _words(max(map(len, sources)) + r, int(name[4:]))
    else:
        near = set()
        for c in sources:
            axes = [range(a - r, a + r + 1) for a in c]
            if name == "ladder":
                axes[1] = (0, 1)
            near.update(itertools.product(*axes))
    dist = {x: min(metric(c, x) for c in sources) for x in near}
    return {x: t for x, t in dist.items() if t <= r}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_distance_rows_are_the_metric(name):
    metric = METRICS[name]
    near, far = _sample(name, np.random.default_rng(13))
    sources, targets = near + far[:1], near + far
    # a row that misses a far target searches to the depth, and tree3's
    # ball of radius 14 (49,150 words) stays inside the size cap
    for depth in (0, 3, 14):
        want = [[t if t <= depth else -1 for t in (metric(s, y)
                                                    for y in targets)]
                for s in sources]
        rows = distance_rows(make_family(name), sources, targets, depth)
        assert rows.tolist() == want


@pytest.mark.parametrize("name", sorted(METRICS))
def test_bfs_tables_are_metric_balls(name):
    metric, rng = METRICS[name], np.random.default_rng(14)
    near, far = _sample(name, rng)
    fam = make_family(name)
    for r in (0, 1, 4):
        pick = [near[i] for i in rng.choice(len(near), 6, replace=False)]
        for sources in (pick[:1], pick[1:3], far[:1]):
            assert bfs(fam, sources, r) == _metric_ball(name, sources, r)
        # with targets, the search stops after the layer of the last one
        c, targets = pick[3], pick[4:]
        stop = min(r, max(metric(c, t) for t in targets))
        assert bfs(fam, [c], r, targets) == _metric_ball(name, [c], stop)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_lex_min_paths_are_shortest(name):
    metric = METRICS[name]
    near, _ = _sample(name, np.random.default_rng(15))
    fam = make_family(name)
    for a, b in zip(near, near[::-1]):
        path = lex_min_path(fam, a, b, metric(a, b))
        assert (path[0], path[-1]) == (a, b)
        assert len(path) == metric(a, b) + 1
        assert all(metric(x, y) == 1 for x, y in zip(path, path[1:]))


# -- balls and Følner counts of comb, ladder and the trees -------------------

# name -> (centres, an edge from a centre, the degree of a vertex)
OTHER_GEOMETRY = {
    "comb": ([(0, 0), (3, 5), (-4, -2)], lambda c: (c[0], c[1] + 1),
             lambda x: 4 if x[1] == 0 else 2),
    "ladder": ([(0, 0), (7, 1)], lambda c: (c[0], 1 - c[1]), lambda x: 3),
    "tree3": ([(), (1,), (2, 0, 1)], lambda c: c + (0,), lambda x: 3),
    "tree4": ([(), (1,), (2, 0, 1)], lambda c: c + (0,), lambda x: 4),
}


@pytest.mark.parametrize("name", sorted(OTHER_GEOMETRY))
def test_balls_of_the_other_families_are_metric_balls(name):
    centres, edge, degree = OTHER_GEOMETRY[name]
    fam = make_family(name)
    for c in centres:
        for sources in ([c], [c, edge(c)]):
            for r in range(1, 6):
                want = _metric_ball(name, sources, r)
                w = ball(fam, sources, r)
                assert list(w.vertices) == sorted(want)
                assert set(sigma(w)) == {x for x, t in want.items() if t == r}
                assert w.full_degree.tolist() == list(map(degree, w.vertices))


def _comb_ball(r):
    return [(a, b) for a in range(-r, r + 1)
            for b in range(abs(a) - r, r - abs(a) + 1)]


def _ladder_ball(r):
    return [(a, b) for a in range(-r, r + 1) for b in (0, 1)
            if abs(a) + b <= r]


@pytest.mark.parametrize("name, radii", [
    ("comb", (1, 2, 7, 224)),       # 100,801 vertices at r=224
    ("ladder", (1, 2, 9, 25_000)),  # 100,000 vertices at r=25,000
    ("tree3", (1, 2, 16)),          # 196,606 vertices at r=16
    ("tree4", (1, 2, 9)),           # 39,365 vertices at r=9
])
def test_folner_counts_of_the_other_families(name, radii):
    fam = make_family(name)
    for row in folner_profile(fam, fam.origin, radii):
        r = row.radius
        if name == "comb":
            n, s = 2 * r * r + 2 * r + 1, 4 * r
        elif name == "ladder":
            n, s = 4 * r, 3 if r == 1 else 4
        else:  # Lyons & Peres, Probability on Trees and Networks
            d = int(name[4:])
            n = 1 + d * ((d - 1) ** r - 1) // (d - 2)
            s = d * (d - 1) ** (r - 1)
        assert (row.n_vertices, row.sigma_size) == (n, s)
    if name in ("comb", "ladder"):  # the vertex set at the largest radius
        closed = _comb_ball if name == "comb" else _ladder_ball
        assert list(ball(fam, fam.origin, r).vertices) == closed(r)
    assert n >= 10 ** 5 or name == "tree4"
