"""Per-edge score estimators against closed-form and dense oracles.

The two exactly solvable families:

  * the line: the grounded ground problem behind the star score is a series
    chain of 2(r+1) unit resistors, giving score (2r+2)/(2r+3);
  * the regular tree: the branch impedance seen from the root edge obeys
    T_r = 1/(d-1), T_j = (1 + T_{j+1})/(d-1), score 2 T_0 / (1 + 2 T_0).
"""

from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from hodgedim import (BUILTIN_FAMILY_NAMES, InvalidWindowError,
                      LaplacianMode, MissingEdgeError, OrientedEdge,
                      SolverFailureError,
                      Subspace, ball, corollary4_table, cycle_rank,
                      edge_indicator, project_star,
                      diamond_score, dim_window, edge_ball, family_from_window,
                      family_edge, folner_profile, hd_score, induced_window,
                      lemma3_check, make_family, origin_edge, score_report,
                      sigma, star_score, window_edge_ids)
from hodgedim import dimension
from conftest import dense_star_projection


def line_star_oracle(r: int) -> float:
    return float(Fraction(2 * r + 2, 2 * r + 3))


def tree_star_oracle(d: int, r: int) -> float:
    t = Fraction(1, d - 1)
    for _ in range(r):
        t = (1 + t) / (d - 1)
    return float(2 * t / (1 + 2 * t))


TOL = 1e-10


def test_line_star_scores(z1):
    e = origin_edge(z1)
    for r in (1, 2, 3, 4, 8):
        assert star_score(z1, e, r) == approx(line_star_oracle(r), abs=1e-10)


def test_line_diamond_zero(z1):
    e = origin_edge(z1)
    for r in (1, 2, 4):
        assert diamond_score(z1, e, r) == 0.0


def test_line_hd(z1):
    e = origin_edge(z1)
    assert hd_score(z1, e, 1) == approx(1 / 5, abs=1e-10)


@pytest.mark.parametrize("d", [3, 4])
def test_tree_star_scores(d):
    fam = make_family("tree", d)
    e = origin_edge(fam)
    for r in (1, 2, 4, 6):
        assert star_score(fam, e, r) == approx(tree_star_oracle(d, r), abs=1e-9)


def test_tree_diamond_exactly_zero(tree3):
    # cycle rank 0 windows shortcut the solve entirely
    e = origin_edge(tree3)
    assert diamond_score(tree3, e, 5) == 0.0


def test_z2_star_against_dense(z2):
    e = origin_edge(z2)
    for r in (1, 2):
        w = edge_ball(z2, e, r)
        k, sign = w.edge_lookup(e)
        u = np.zeros(w.n_edges)
        u[k] = sign
        expect = float(u @ dense_star_projection(w, u, embedded=True))
        assert star_score(z2, e, r) == approx(expect, abs=1e-9)


def test_z2_diamond_against_dense(z2):
    e = origin_edge(z2)
    w = edge_ball(z2, e, 1)
    k, sign = w.edge_lookup(e)
    u = np.zeros(w.n_edges)
    u[k] = sign
    free = float(u @ dense_star_projection(w, u, embedded=False))
    assert diamond_score(z2, e, 1) == approx(1.0 - free, abs=1e-9)
    assert diamond_score(z2, e, 1) == approx(0.4, abs=1e-9)


def test_edge_ball_contains_both_endpoint_balls(z2):
    e = family_edge(z2, (0, 0), (1, 0))
    w = edge_ball(z2, e, 2)
    assert set(ball(z2, (0, 0), 2).vertices) <= set(w.vertices)
    assert set(ball(z2, (1, 0), 2).vertices) <= set(w.vertices)


def test_scores_partition(z2):
    e = origin_edge(z2)
    for r in (1, 3):
        s = star_score(z2, e, r)
        d = diamond_score(z2, e, r)
        h = hd_score(z2, e, r)
        assert s + d + h == approx(1.0, abs=1e-12)
        assert 0.0 <= min(s, d, h) and max(s, d, h) <= 1.0


def test_score_report_monotone(z2):
    e = origin_edge(z2)
    rep = score_report(z2, e, (1, 2, 4, 8))
    rep.validate()
    assert list(rep.star) == sorted(rep.star)
    assert list(rep.diamond) == sorted(rep.diamond)
    assert list(rep.hd) == sorted(rep.hd, reverse=True)


def test_score_report_needs_increasing_radii(z2):
    with pytest.raises(Exception):
        score_report(z2, origin_edge(z2), (4, 2))


@pytest.mark.parametrize("star, diamond, hd, message", [
    ((0.5, 0.4), (0.1, 0.1), (0.4, 0.5),
     "star score decreased along the schedule (0.5 -> 0.4)"),
    ((0.4, 0.5), (0.2, 0.1), (0.4, 0.4),
     "diamond score decreased along the schedule (0.2 -> 0.1)"),
    ((0.5, 0.5), (0.25, 0.25), (0.25, 0.5),
     "hd score increased along the schedule (0.25 -> 0.5)"),
    ((1.5,), (0.0,), (-0.5,), "score 1.5 outside [0, 1]"),
    ((0.5,), (0.25,), (0.5,), "score partition broken"),
], ids=["star falls", "diamond falls", "hd rises", "outside", "partition"])
def test_score_report_validate_names_the_broken_rule(star, diamond, hd,
                                                     message):
    n = len(star)
    report = dimension.ScoreReport(
        family="z2", edge=OrientedEdge((0, 0), (0, 1)),
        radii=tuple(range(1, n + 1)), star=star, diamond=diamond, hd=hd,
        cg_iterations=(0,) * n, residuals=(0.0,) * n, tol=1e-10)
    with pytest.raises(SolverFailureError, match=re.escape(message)):
        report.validate()


@pytest.mark.parametrize("call, message", [
    (lambda z2: star_score(z2, origin_edge(z2), 0),
     "score radius must be >= 1"),
    (lambda z2: corollary4_table(z2, (0, 0), (1, 2), 0),
     "score radius factor must be >= 1"),
], ids=["star score", "cor4 factor"])
def test_score_radii_below_one_raise(z2, call, message):
    with pytest.raises(InvalidWindowError, match=message):
        call(z2)


def test_score_report_rejects_pairs_off_the_tree(tree3):
    for e in (OrientedEdge((5,), ()), OrientedEdge((0, 5), (0,))):
        with pytest.raises(MissingEdgeError):
            score_report(tree3, e, (1, 2))


def test_orientation_invariance(z2):
    e = family_edge(z2, (1, 0), (0, 0))
    assert star_score(z2, e, 1) == star_score(z2, e.canonical(), 1)


def test_translation_invariance(z2):
    a = star_score(z2, family_edge(z2, (0, 0), (1, 0)), 2)
    b = star_score(z2, family_edge(z2, (7, -3), (8, -3)), 2)
    assert a == approx(b, abs=1e-10)


def test_dim_window_full_is_one(z2):
    w = ball(z2, (0, 0), 2)
    assert dim_window(z2, w, Subspace.FULL, 3) == 1.0


def test_dim_window_additive(z2):
    w = ball(z2, (0, 0), 1)
    r = 2
    s = dim_window(z2, w, Subspace.STAR, r)
    d = dim_window(z2, w, Subspace.DIAMOND, r)
    h = dim_window(z2, w, Subspace.HD, r)
    assert s + d + h == approx(1.0, abs=1e-10)


# an off-origin centre for each family: negative coordinates on the
# translated ones, a word of length 2 or 3 on the trees
OFF_ORIGIN = {"z1": (-3,), "z2": (-3, -2), "z3": (-2, -1, -1),
              "ladder": (-3, 1), "comb": (-3, -1), "diag_lattice": (-3, -2),
              "tree3": (1, 0, 1), "tree4": (2, 1)}


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES)
def test_dim_window_orbit_reuse_is_bitwise(name):
    """Reusing one score per translation orbit, or one for all the edges of
    a tree, changes no bit of the average at this radius: compare with
    every edge scored on its own ball."""
    fam = make_family(name)
    r = 3
    for center, radius in ((fam.origin, 2), (OFF_ORIGIN[name], 1)):
        w = ball(fam, center, radius)
        each = [dimension._edge_scores(fam, e, r)
                for e in window_edge_ids(w)]
        for space in (Subspace.STAR, Subspace.DIAMOND, Subspace.HD):
            expect = math.fsum(getattr(s, space.value) for s in each)
            assert dim_window(fam, w, space, r) == expect / w.n_edges


def _project_star_scores(family, e, r, tol):
    """(star, diamond, iterations, residual) of one edge from project_star
    on the edge indicator, skipping the FREE solve on a cycle-free ball."""
    e = family_edge(family, *e).canonical()
    w = edge_ball(family, e, r)
    u = edge_indicator(w, e)
    sp = project_star(w, u, LaplacianMode.EMBEDDED, tol=tol)
    diamond, iters, residual = 0.0, sp.report.iterations, sp.report.residual
    if cycle_rank(w):
        fp = project_star(w, u, LaplacianMode.FREE, tol=tol)
        diamond = 1.0 - fp.score
        iters += fp.report.iterations
        residual = max(residual, fp.report.residual)
    return sp.score, diamond, iters, residual


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES)
def test_edge_scores_are_project_star_on_the_indicator(name):
    """Star, diamond, iterations and residual equal, bit for bit, those of
    project_star on chi_e; on z1 and the trees the FREE solve is skipped."""
    fam = make_family(name)
    e = origin_edge(fam)
    for edge in (e, e.reversed()):
        for r, tol in ((1, 1e-10), (4, 1e-3), (6, 1e-10)):
            s = dimension._edge_scores(fam, edge, r, tol)
            got = (s.star.hex(), s.diamond.hex(), s.cg_iterations,
                   s.residual.hex())
            star, diamond, iters, residual = _project_star_scores(
                fam, edge, r, tol)
            assert got == (star.hex(), diamond.hex(), iters,
                           residual.hex()), (edge, r, tol)


def test_edge_score_peak_memory_in_vertex_vectors(tree3):
    """One tree3 edge score at r=12 (16,382 vertices) peaks, by tracemalloc,
    below 14 float vectors of the ball's length: the ball's five integer
    arrays, the right-hand side, the solver's x, r, z, p and Ap, the
    gathered edge values and one bincount sum. Float copies of the degrees,
    a loop temporary beside z, the edge key and a one-hot chi_e would add
    five more."""
    e = origin_edge(tree3)
    n = edge_ball(tree3, e, 12).n_vertices
    dimension._edge_scores(tree3, e, 12)  # fills the family's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dimension._edge_scores(tree3, e, 12)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) < 14


def _count_edge_scores(monkeypatch):
    calls = []
    inner = dimension._edge_scores

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)
    monkeypatch.setattr(dimension, "_edge_scores", counted)
    return calls


def _shifted(e, axes):
    return tuple(tuple(a - b for a, b in zip(x, e.tail[:axes])) + x[axes:]
                 for x in e)


def test_z2_window_solves_two_edge_types(monkeypatch, z2):
    calls = _count_edge_scores(monkeypatch)
    dim_window(z2, ball(z2, (0, 0), 4), Subspace.HD, 2)
    assert calls == [((-4, 0), (-3, 0)), ((-3, -1), (-3, 0))]


@pytest.mark.parametrize("name, keys", [("ladder", 3), ("comb", 9)])
def test_one_edge_score_per_orbit(monkeypatch, name, keys):
    fam = make_family(name)
    w = ball(fam, (-2, 0), 4)
    calls = _count_edge_scores(monkeypatch)
    dim_window(fam, w, Subspace.HD, 2)
    # ladder: both rails and the rungs; comb: the spine, and the tooth
    # edges with their lower end at each height -4..3
    assert len({_shifted(e, 1) for e in window_edge_ids(w)}) == keys
    assert len(calls) == keys
    assert len({_shifted(e, 1) for e in calls}) == keys


def test_tree_orbit_reuse_moves_at_most_the_last_bit(tree3):
    """On tree3 at window radius 3 and score radius 4 the per-edge star
    scores take two values, 2**-53 apart, as the tree automorphisms do not
    keep the vertex order: the reused average may then differ from the
    per-edge one, by no more than that."""
    w = ball(tree3, (), 3)
    each = [dimension._edge_scores(tree3, e, 4) for e in window_edge_ids(w)]
    for space in (Subspace.STAR, Subspace.DIAMOND, Subspace.HD):
        expect = math.fsum(getattr(s, space.value) for s in each) / w.n_edges
        assert abs(dim_window(tree3, w, space, 4) - expect) <= 2.0 ** -53


def test_no_orbit_reuse_without_translations(monkeypatch, tree3):
    """A tree window solves one edge ball, which every other edge's ball
    equals up to a tree automorphism; a wrapped finite window, which
    declares neither translations nor a tree, solves every edge."""
    wrapped = family_from_window(ball(make_family("z2"), (0, 0), 2))
    tree4 = make_family("tree4")
    for family, window in ((tree3, ball(tree3, (), 3)),
                           (tree4, ball(tree4, (1,), 2)),
                           (wrapped, ball(wrapped, (0, 0), 1))):
        calls = _count_edge_scores(monkeypatch)
        dim_window(family, window, Subspace.STAR, 2)
        edges = window_edge_ids(window)
        assert calls == (edges[:1] if family.tree_degree else edges)


def test_tree_orbit_holds_tree_edges_only(tree3):
    # the first edge, ((), (0,)), is a tree3 edge; ((), (3,)) is not
    with pytest.raises(MissingEdgeError):
        dim_window(tree3, ball(make_family("tree4"), (), 1), Subspace.STAR, 2)


def test_triangle_diamond_third():
    """One independent cycle across three edges: diamond dimension 1/3 per
    edge, exactly."""
    z2 = make_family("diag_lattice")
    w = induced_window(z2, [(0, 0), (1, 0), (1, 1)])
    fam = family_from_window(w)
    assert dim_window(fam, w, Subspace.DIAMOND, 1) == approx(1 / 3, abs=1e-9)


def test_folner_profile(z2, tree3):
    rows = folner_profile(z2, (0, 0), (1, 2, 4, 8))
    ratios = [r.ratio_v for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert rows[-1].ratio_v < 0.25
    # the tree's boundary never thins out
    trows = folner_profile(tree3, (), (2, 4, 6))
    assert min(r.ratio_v for r in trows) > 0.4


def test_folner_profile_rejects_radii_below_one(monkeypatch, z2):
    built = []
    monkeypatch.setattr(dimension, "ball",
                        lambda *args: built.append(args) or ball(*args))
    for radii in ((0,), (1, 2, 0), (3, -1)):
        with pytest.raises(InvalidWindowError, match="radii must be >= 1"):
            folner_profile(z2, (0, 0), radii)
    # every radius is checked before the first ball
    assert built == []


def test_lemma3_small_box(z2):
    box = induced_window(z2, [(i, j) for i in range(3) for j in range(3)])
    res = lemma3_check(z2, box, 12)
    assert res.holds
    assert res.lhs == approx(1.0 - dim_window(z2, box, Subspace.HD, 12),
                             abs=1e-9)
    assert res.rhs == approx(1.0 - len(sigma(box)) / box.n_edges)
    assert res.lhs >= res.rhs - 0.05


def test_cor4_columns(z2):
    rows = corollary4_table(z2, (0, 0), (1, 2), 2)
    assert [r.window_radius for r in rows] == [1, 2]
    assert [r.score_radius for r in rows] == [2, 4]
    for r in rows:
        assert 0.0 <= r.hd_dim_estimate <= 1.0
        assert 0.0 < r.sigma_over_e <= 1.0


def test_window_edge_ids(z2):
    w = ball(z2, (0, 0), 1)
    ids = window_edge_ids(w)
    assert len(ids) == w.n_edges
    for e in ids:
        assert e == e.canonical()
