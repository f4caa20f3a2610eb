"""Per-edge dimension traces and their window averages.

For an edge e of an infinite family, three nonnegative numbers summing to 1
measure how the unit edge indicator chi_e splits across the orthogonal
decomposition of the edge space:

    star(e, r)     <P u, u> for the space of differentials of potentials
                   supported in the radius-r neighborhood of e (EMBEDDED
                   mode: the ambient differential of a window-supported
                   potential). Nondecreasing in r.
    diamond(e, r)  <P u, u> for the cycle space of the induced ball, equal to
                   1 minus the FREE-mode star score on that ball.
                   Nondecreasing in r.
    hd(e, r)       1 - star - diamond: the part not yet explained by either
                   exhaustion, an upper bound for the harmonic-Dirichlet
                   contribution. Nonincreasing in r.

Solves stop at relative residual `tol`. The star score is read from a
conjugate-gradient iterate started at zero, which only undershoots the
exact projection score, so star is a lower bound at any `tol`. Diamond is 1
minus a FREE score that undershoots in the same way, so at a loose `tol`
diamond can overshoot its exact value and hd undershoot it.

Averaging any of these over the edges of a finite window gives the window's
normalized dimension trace for that subspace; the average of 1 is 1, which is
the full-space row of the accounting. The Folner profile and the corollary
table quantify the vanishing of the hd column along boundary-negligible
window sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

from .errors import InvalidWindowError, SolverFailureError
from .families import GraphFamily, VertexId
from .solver import LaplacianMode, cycle_rank, project_star
from .windows import FiniteWindow, OrientedEdge, ball, family_edge, sigma


class Subspace(Enum):
    STAR = "star"
    DIAMOND = "diamond"
    HD = "hd"
    FULL = "full"


def edge_ball(family: GraphFamily, e: OrientedEdge, r: int) -> FiniteWindow:
    """Radius-r neighborhood of the edge (both endpoints are centers).

    Centering on the endpoint pair rather than the tail alone makes every
    score orientation-symmetric and matches the exact line-graph values
    (2r+2)/(2r+3).
    """
    if r < 1:
        raise InvalidWindowError("score radius must be >= 1")
    return ball(family, (e.tail, e.head), r)


@dataclass(frozen=True)
class EdgeScores:
    star: float
    diamond: float
    hd: float
    cg_iterations: int
    residual: float


def _edge_scores(family: GraphFamily, e: OrientedEdge, r: int,
                 tol: float = 1e-10, need_star: bool = True,
                 need_diamond: bool = True) -> EdgeScores:
    e = family_edge(family, *e).canonical()
    window = edge_ball(family, e, r)
    star, diamond, iters, residual = 0.0, 0.0, 0, 0.0
    if need_star:
        sp = project_star(window, e, LaplacianMode.EMBEDDED, tol=tol)
        star = sp.score
        iters += sp.report.iterations
        residual = max(residual, sp.report.residual)
    if need_diamond and cycle_rank(window) > 0:  # else no cycles: 0.0 exactly
        fp = project_star(window, e, LaplacianMode.FREE, tol=tol)
        diamond = 1.0 - fp.score
        iters += fp.report.iterations
        residual = max(residual, fp.report.residual)
    return EdgeScores(star, diamond, 1.0 - star - diamond, iters, residual)


def star_score(family: GraphFamily, e: OrientedEdge, r: int,
               tol: float = 1e-10) -> float:
    return _edge_scores(family, e, r, tol, need_diamond=False).star


def diamond_score(family: GraphFamily, e: OrientedEdge, r: int,
                  tol: float = 1e-10) -> float:
    return _edge_scores(family, e, r, tol, need_star=False).diamond


def hd_score(family: GraphFamily, e: OrientedEdge, r: int,
             tol: float = 1e-10) -> float:
    return _edge_scores(family, e, r, tol).hd


@dataclass(frozen=True)
class ScoreReport:
    """Monotone exhaustion scores for one edge along a radius schedule."""

    family: str
    edge: OrientedEdge
    radii: Tuple[int, ...]
    star: Tuple[float, ...]
    diamond: Tuple[float, ...]
    hd: Tuple[float, ...]
    cg_iterations: Tuple[int, ...]
    residuals: Tuple[float, ...]
    tol: float

    def validate(self):
        slack = 10.0 * self.tol
        for name, seq in (("star", self.star), ("diamond", self.diamond)):
            for a, b in zip(seq, seq[1:]):
                if b < a - slack:
                    raise SolverFailureError(
                        f"{name} score decreased along the schedule "
                        f"({a} -> {b})")
        for a, b in zip(self.hd, self.hd[1:]):
            if b > a + slack:
                raise SolverFailureError(
                    f"hd score increased along the schedule ({a} -> {b})")
        for seq in (self.star, self.diamond, self.hd):
            for val in seq:
                if not (-slack <= val <= 1.0 + slack):
                    raise SolverFailureError(f"score {val} outside [0, 1]")
        for s, d, h in zip(self.star, self.diamond, self.hd):
            if h != 1.0 - s - d:
                raise SolverFailureError("score partition broken")


def score_report(family: GraphFamily, e: OrientedEdge, radii: Sequence[int],
                 tol: float = 1e-10) -> ScoreReport:
    """Scores of one edge at each radius of an increasing schedule."""
    radii = _radius_schedule(radii)
    entries = [_edge_scores(family, e, r, tol) for r in radii]
    rep = ScoreReport(
        family=family.name, edge=family_edge(family, *e).canonical(),
        radii=radii,
        star=tuple(s.star for s in entries),
        diamond=tuple(s.diamond for s in entries),
        hd=tuple(s.hd for s in entries),
        cg_iterations=tuple(s.cg_iterations for s in entries),
        residuals=tuple(s.residual for s in entries),
        tol=tol)
    rep.validate()
    return rep


def _radius_schedule(radii: Sequence[int]) -> Tuple[int, ...]:
    """The radii as a tuple, checked to be nonempty, all >= 1 and increasing."""
    radii = tuple(radii)
    if not radii or any(r < 1 for r in radii):
        raise InvalidWindowError("radius schedule must be nonempty, all >= 1")
    if list(radii) != sorted(radii):
        raise InvalidWindowError("radius schedule must be increasing")
    return radii


def window_edge_ids(window: FiniteWindow):
    verts = window.vertices
    return [OrientedEdge(verts[a], verts[b]) for a, b in
            zip(window.edge_tails.tolist(), window.edge_heads.tolist())]


def dim_window(family: GraphFamily, window: FiniteWindow, space: Subspace,
               r: int, tol: float = 1e-10) -> float:
    """Average per-edge score over the window's edges.

    FULL needs no solve and is exactly 1: the per-edge traces of the whole
    edge space sum to the edge count. The other spaces average the radius-r
    estimator over every window edge; additivity of the three columns to 1
    is inherited from the per-edge partition. One score is computed per
    translation orbit (`GraphFamily.translation_axes`), or once for all the
    edges of a tree (`GraphFamily.tree_degree`), whose automorphisms act
    transitively on its edges, and reused bit for bit.
    """
    if space is Subspace.FULL:
        return 1.0
    need_star = space in (Subspace.STAR, Subspace.HD)
    need_diamond = space in (Subspace.DIAMOND, Subspace.HD)
    axes = family.translation_axes
    by_orbit = {}
    scores = []
    for e in window_edge_ids(window):
        if family.tree_degree:
            family_edge(family, *e)  # a foreign window may hold non-edges
            key = ()
        else:
            # the edge shifted so its tail is 0 on the translation axes
            key = tuple(tuple(a - b for a, b in zip(x, e.tail[:axes]))
                        + x[axes:] for x in e)
        if key not in by_orbit:
            by_orbit[key] = getattr(_edge_scores(
                family, e, r, tol, need_star, need_diamond), space.value)
        scores.append(by_orbit[key])
    return math.fsum(scores) / window.n_edges


@dataclass(frozen=True)
class FolnerRow:
    radius: int
    n_vertices: int
    n_edges: int
    sigma_size: int
    ratio_v: float
    ratio_e: float


def folner_profile(family: GraphFamily, center: VertexId,
                   radii: Sequence[int]):
    """Boundary-to-bulk ratios of balls; the certificate of amenability is
    ratio_v tending to 0 along some window sequence. Every radius is
    checked before any ball is built: a radius-0 ball has no edges."""
    if any(r < 1 for r in radii):
        raise InvalidWindowError("radii must be >= 1")
    rows = []
    for r in radii:
        w = ball(family, center, r)
        s = int(w.boundary.sum())
        rows.append(FolnerRow(radius=r, n_vertices=w.n_vertices,
                              n_edges=w.n_edges, sigma_size=s,
                              ratio_v=s / w.n_vertices,
                              ratio_e=s / w.n_edges))
    return rows


@dataclass(frozen=True)
class Lemma3Result:
    lhs: float
    rhs: float
    holds: bool


def lemma3_check(family: GraphFamily, window: FiniteWindow, r: int,
                 tol: float = 1e-10, slack: float = 0.05) -> Lemma3Result:
    """Check dim(star) + dim(diamond) >= 1 - |sigma| / |E| on a window.

    The left side uses radius-r estimators, which approach the true trace
    from below; `slack` absorbs that finite-radius truncation, so `holds`
    means the bound is verified up to slack at this radius.
    """
    lhs = (dim_window(family, window, Subspace.STAR, r, tol)
           + dim_window(family, window, Subspace.DIAMOND, r, tol))
    rhs = 1.0 - len(sigma(window)) / window.n_edges
    return Lemma3Result(lhs=lhs, rhs=rhs, holds=lhs >= rhs - slack)


@dataclass(frozen=True)
class Cor4Row:
    window_radius: int
    score_radius: int
    hd_dim_estimate: float
    sigma_over_e: float


def corollary4_table(family: GraphFamily, center: VertexId,
                     window_radii: Sequence[int], score_radius_factor: int,
                     tol: float = 1e-10):
    """hd dimension estimates along a growing ball sequence.

    score_radius = factor * window_radius keeps the estimator honest as the
    windows grow; on boundary-negligible families the hd column must sink
    toward 0, bounded by the sigma_over_e column in the limit. Each row
    solves one edge ball per translation orbit of its window's edges (see
    `dim_window`): two on z2 and one on a tree, however large the window.
    Every window radius is checked before any ball is built.
    """
    if score_radius_factor < 1:
        raise InvalidWindowError("score radius factor must be >= 1")
    if any(wr < 1 for wr in window_radii):
        raise InvalidWindowError("window radii must be >= 1")
    rows = []
    for wr in window_radii:
        w = ball(family, center, wr)
        r = score_radius_factor * wr
        est = dim_window(family, w, Subspace.HD, r, tol)
        rows.append(Cor4Row(window_radius=wr, score_radius=r,
                            hd_dim_estimate=est,
                            sigma_over_e=len(sigma(w)) / w.n_edges))
    return rows
