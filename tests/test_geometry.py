"""Balls and Følner counts against the closed-form geometry of the
translation families.

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
