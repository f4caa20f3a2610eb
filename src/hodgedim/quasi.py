"""Quasi-isometries between families and their effect on Dirichlet energy.

A QuasiMap is a vertex map f between two families together with a claimed
distortion k: for all x, y

    (1/k) d(x,y) - 1 <= d(f x, f y) <= k d(x,y)

and the image is coarsely dense. The checks in this module are finite-window
estimators for that contract and for the two energy comparison inequalities
used to transport Dirichlet functions across such maps:

  * pulling back along f multiplies energy by at most c(k, D)^2, where the
    constant comes from routing each source edge through a fixed shortest
    path of length <= k and counting how many such paths can share one edge
    (all endpoints involved sit within distance 2k^2, so a degree bound D
    caps the count);
  * for a bounded-displacement endomap (max d(x, f x) = s), the pointwise
    difference f*v - v has squared norm at most K(s, D) times the energy,
    by routing each x -> f(x) along a fixed path of length <= s.

Estimated distortion is reported as the smallest integer k >= 1 satisfying
both inequalities for every window pair (the lower bound is compared
non-strictly: the set of admissible real k is open, so no real minimum
exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .dimension import _radius_schedule
from .edgespace import (EdgeFunction, VertexFunction, chi, differential,
                        inner, support_vertices, transfer_edge_function)
from .errors import (CutoffExceededError, IncompatibleDomainError,
                     InsufficientWindowError, InvalidWindowError)
from .families import GraphFamily, VertexId, _tree_ball_bound, make_family
from .solver import LaplacianMode, project_star
from .windows import (FiniteWindow, ball, bfs, distance_rows, id_bfs,
                      neighborhood)


@dataclass(frozen=True)
class QuasiMap:
    name: str
    source: GraphFamily
    target: GraphFamily
    mapping: Callable[[VertexId], VertexId] = field(repr=False)
    claimed_distortion: float = 1.0

    def __call__(self, x: VertexId) -> VertexId:
        return self.mapping(x)

    @property
    def is_endomap(self) -> bool:
        return self.source.name == self.target.name


# -- distances and deterministic paths ---------------------------------------

def lex_min_path(family: GraphFamily, a: VertexId, b: VertexId,
                 cutoff: int) -> Tuple[VertexId, ...]:
    """One deterministic shortest path from a to b: walk back from b, always
    through the smallest predecessor vertex.

    The search and the walk back run on `family.graph`, so the paths of one
    density probe fetch each neighbour list once for all of them.
    """
    graph, dist = id_bfs(family, [a], cutoff, [b])
    vertices, adjacent = graph.vertices, graph.adjacent
    cur = graph.index[b]
    if cur not in dist:
        raise CutoffExceededError(f"no path within {cutoff} between {a} and {b}")
    path = [b]
    while dist[cur] > 0:
        # the search stops before expanding b's layer, so only b's
        # neighbours can be missing
        nb = adjacent[cur]
        if nb is None:
            nb = graph.fetch(cur)
        cur = min((y for y in nb if dist.get(y) == dist[cur] - 1),
                  key=vertices.__getitem__)
        path.append(vertices[cur])
    path.reverse()
    return tuple(path)


# -- distortion ---------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    k_est: int
    density_gap: int
    violations: Tuple[tuple, ...]
    inconclusive: Tuple[tuple, ...]


def distortion_estimate(f: QuasiMap, window: FiniteWindow, cutoff: int,
                        table: Optional[np.ndarray] = None) -> DistortionReport:
    """Exhaustive pair check of the distortion inequalities on a window.

    violations lists the pairs (x, y, d, d') that break the *claimed*
    distortion; pairs whose distance query passes `cutoff` land in
    `inconclusive` instead of being silently dropped, with None for each
    distance not found. Both list the pairs x < y in vertex order.

    `table` is the window's source table, `distance_rows(f.source, verts,
    verts, cutoff)`, when the caller already has it (`suite_row` passes
    the one table of its ball, see `_source`).

    An endomap whose images all lie in the window reads its image distances
    from the source table: the family and the cutoff are the same, an entry
    is d(x, y) when that is <= cutoff and -1 otherwise whatever the targets,
    and each image row's search, with fewer targets, stops no later than
    the source row that already passed `DEFAULT_SIZE_CAP`.
    """
    verts = window.vertices
    dist = table
    if dist is None:
        dist = distance_rows(f.source, verts, verts, cutoff)
    images = [f(x) for x in verts]
    index = window.index
    if f.target == f.source and all(y in index for y in images):
        image_dist = dist
        pos = np.array([index[y] for y in images], dtype=np.int64)
    else:
        distinct = list(dict.fromkeys(images))
        where = {y: j for j, y in enumerate(distinct)}
        pos = np.array([where[y] for y in images], dtype=np.int64)
        image_dist = distance_rows(f.target, distinct, distinct, cutoff)

    xs, ys = np.triu_indices(len(verts), 1)
    d = dist[xs, ys]
    dp = image_dist[pos[xs], pos[ys]]
    known = (d >= 0) & (dp >= 0)
    dk, dpk = d[known], dp[known]
    # smallest integer k with d' <= k d and (1/k) d - 1 <= d'; d >= 1, as
    # the pair's vertices differ
    k_pair = np.maximum(-(-dpk // dk), -(-dk // (dpk + 1)))
    k_needed = int(k_pair.max(initial=1))
    kc = f.claimed_distortion
    broken = np.zeros_like(known)
    broken[known] = (dpk > kc * dk) | (dk / kc - 1 > dpk)

    def pairs(mask):
        k = np.flatnonzero(mask)
        return tuple((verts[i], verts[j], None if a < 0 else a,
                      None if b < 0 else b)
                     for i, j, a, b in zip(xs[k].tolist(), ys[k].tolist(),
                                           d[k].tolist(), dp[k].tolist()))

    return DistortionReport(k_est=k_needed,
                            density_gap=_density_gap(f, window, cutoff),
                            violations=pairs(broken),
                            inconclusive=pairs(~known))


def _density_gap(f: QuasiMap, window: FiniteWindow, cutoff: int) -> int:
    """Covering radius of the image over the connecting-path skeleton.

    For every window edge (x, y) take the deterministic shortest target path
    between f(x) and f(y); the probe is the union of those paths. This stays
    inside the image's footprint (a free-floating ball probe would report
    spurious gaps at its own fringe) while catching images that skip over
    intermediate target vertices.

    A shift keeps distances and the vertex order, so on a target with
    translations on every coordinate each distinct step fb - fa is searched
    once, from its first edge (which any error names), and shifted after.
    """
    verts = window.vertices
    image = {f(x) for x in verts}
    probe = set()
    orbit = f.target.geometry.steps is not None
    paths = {}  # step fb - fa -> the path less fa
    for a, b in zip(window.edge_tails.tolist(), window.edge_heads.tolist()):
        fa, fb = f(verts[a]), f(verts[b])
        if fa == fb:
            probe.add(fa)
        elif not orbit or len(fa) != len(fb):  # no path joins two lengths
            probe.update(lex_min_path(f.target, fa, fb, cutoff))
        else:
            step = tuple(map(sub, fb, fa))
            if step not in paths:
                paths[step] = [tuple(map(sub, y, fa)) for y in
                               lex_min_path(f.target, fa, fb, cutoff)]
            probe.update(tuple(map(add, y, fa)) for y in paths[step])
    dist = bfs(f.target, image, cutoff, targets=probe)
    if not probe <= dist.keys():
        raise CutoffExceededError("density probe ran past the cutoff")
    return max(dist[y] for y in probe)


def wobbling_displacement(f: QuasiMap, window: FiniteWindow,
                          cutoff: int = 64) -> int:
    """max over window vertices of d(x, f x); endomaps only.

    `suite_row` computes this once per row and hands it to `lemma6_check`.
    With translations on every coordinate, d(x, f x) depends on f x - x
    alone: one search per distinct f x - x, from the first x with it (which
    any error names).
    """
    if not f.is_endomap:
        raise IncompatibleDomainError(
            "displacement needs source and target to coincide")
    orbit = f.source.geometry.steps is not None
    first = {}  # f x - x, or (x, f x) where no shift applies -> (x, f x)
    for x, fx in zip(window.vertices, map(f, window.vertices)):
        if fx != x:
            first.setdefault(tuple(map(sub, fx, x)) if orbit
                             and len(fx) == len(x) else (x, fx), (x, fx))
    worst = 0
    for x, fx in first.values():
        graph, dist = id_bfs(f.source, [x], cutoff, [fx])
        d = dist.get(graph.index[fx], -1)
        if d < 0:
            raise CutoffExceededError(
                f"displacement of {x} exceeds cutoff {cutoff}")
        worst = max(worst, d)
    return worst


# -- pullback and the energy inequalities ------------------------------------

def pullback(f: QuasiMap, v: VertexFunction,
             source_window: FiniteWindow) -> VertexFunction:
    """(f* v)(x) = v(f x) on the source window, zero where f leaves v's
    window."""
    idx = v.window.index
    vals = np.zeros(source_window.n_vertices)
    for i, x in enumerate(source_window.vertices):
        j = idx.get(f(x))
        if j is not None:
            vals[i] = v.values[j]
    return VertexFunction(source_window, vals)


def lemma5_constant(k: float, degree_bound: int) -> float:
    """Energy comparison constant c(k, D): sqrt(k * M) with M the count of
    oriented source edges whose endpoints fit in a radius-ceil(2k^2) ball."""
    kk = math.ceil(k)
    radius = math.ceil(2 * k * k)
    m = degree_bound * _tree_ball_bound(degree_bound, radius)
    return math.sqrt(kk * m)


def lemma6_constant(displacement: int, degree_bound: int) -> float:
    """Difference-vs-energy constant K(s, D): s paths of length <= s, each
    edge shared by at most the vertices within distance s of it."""
    if displacement == 0:
        return 0.0
    return displacement * 2.0 * _tree_ball_bound(degree_bound, displacement)


@dataclass(frozen=True)
class Lemma5Result:
    lhs: float
    rhs: float
    ratio: float
    bound: float
    holds: bool


def lemma5_check(f: QuasiMap, v: VertexFunction, source_window: FiniteWindow,
                 a: Optional[Iterable[VertexId]] = None) -> Lemma5Result:
    """Compare |d(f* v) . chi_A| against |dv . chi_B|, B = C_k(f(A)).

    v must live on a target window containing C_k of the full image of the
    source window; anything smaller raises InsufficientWindowError rather
    than silently truncating B.
    """
    k = math.ceil(f.claimed_distortion)
    tw = v.window
    for x in source_window.vertices:
        if not tw.has_vertex(f(x)):
            raise InsufficientWindowError(
                f"target window misses f({x}) = {f(x)}")
    if a is None:
        a_verts = tuple(source_window.vertices)
    else:
        a_verts = tuple(a)
        for x in a_verts:
            if not source_window.has_vertex(x):
                raise IncompatibleDomainError(
                    f"localization vertex {x} is outside the source window")
    image_a = {f(x) for x in a_verts}
    b = neighborhood(f.target, sorted(image_a), k)
    for y in b:
        if not tw.has_vertex(y):
            raise InsufficientWindowError(
                f"target window misses {y} in the k-neighborhood of the image")

    fv = pullback(f, v, source_window)
    lhs_vals = differential(fv).values * chi(source_window, a_verts)
    lhs = math.sqrt(math.fsum((lhs_vals * lhs_vals).tolist()))
    rhs_vals = differential(v).values * chi(tw, b)
    rhs = math.sqrt(math.fsum((rhs_vals * rhs_vals).tolist()))

    bound = lemma5_constant(f.claimed_distortion, f.source.degree_bound)
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return Lemma5Result(lhs=lhs, rhs=rhs, ratio=ratio, bound=bound,
                        holds=ratio <= bound * (1.0 + 1e-12))


@dataclass(frozen=True)
class Lemma6Result:
    diff_norm: float
    energy: float
    ratio: float
    bound: float
    displacement: int
    holds: bool


def lemma6_check(f: QuasiMap, v: VertexFunction, window: FiniteWindow,
                 cutoff: int = 64,
                 displacement: Optional[int] = None) -> Lemma6Result:
    """Check |f* v - v|^2 <= K(s, D) * energy(v) over a window.

    v must be defined on an enlargement of the window by the displacement
    bound s, since the connecting paths (and the energy they price) may step
    outside the window itself.

    s is `displacement` when the caller has it, `wobbling_displacement(f,
    window, cutoff)` otherwise; `suite_row` passes the value it reports, so
    the row searches for it once.
    """
    s = displacement
    if s is None:
        s = wobbling_displacement(f, window, cutoff=cutoff)
    needed = neighborhood(f.source, window.vertices, s)
    tw = v.window
    for y in needed:
        if not tw.has_vertex(y):
            raise InsufficientWindowError(
                f"window enlarged by displacement {s} misses {y}")

    idx = tw.index
    diffs = [v.values[idx[f(x)]] - v.values[idx[x]] for x in window.vertices]
    diff_sq = math.fsum(d * d for d in diffs)
    e = inner(differential(v), differential(v))
    bound = lemma6_constant(s, f.source.degree_bound)
    if e > 0.0:
        ratio = diff_sq / e
    else:
        ratio = 0.0 if diff_sq == 0.0 else math.inf
    return Lemma6Result(diff_norm=math.sqrt(diff_sq), energy=e, ratio=ratio,
                        bound=bound, displacement=s,
                        holds=diff_sq <= bound * e + 1e-12)


# -- membership residuals -----------------------------------------------------

def star_membership_residual(family: GraphFamily, u: EdgeFunction,
                             radii: Sequence[int], tol: float = 1e-10):
    """Distance from u to the compactly-supported gradient space, along a
    growing ball schedule around the support of u.

    Returns [(r, residual)]; the residual at r is |u - P_r u| with P_r the
    EMBEDDED-mode projection on the radius-r ball. Nonincreasing in r; tends
    to 0 exactly for members of the closed gradient space, and to the
    distance otherwise (a unit square circulation keeps residual |u| = 2).
    """
    radii = _radius_schedule(radii)
    supp = support_vertices(u)
    norm_sq = inner(u, u)
    if not supp:
        return [(r, 0.0) for r in radii]
    out = []
    for r in radii:
        w = ball(family, supp, r)
        ur = transfer_edge_function(u, w)
        sp = project_star(w, ur, LaplacianMode.EMBEDDED, tol=tol)
        out.append((r, math.sqrt(max(0.0, norm_sq - sp.score))))
    return out


# -- quasi-inverse synthesis --------------------------------------------------

def nearest_preimage(f: QuasiMap, source_window: FiniteWindow,
                     targets: Iterable[VertexId], cutoff: int = 64) -> dict:
    """Map each target vertex to the source vertex whose image is nearest,
    ties broken by vertex id order. The standard coarse inverse."""
    # window vertices are sorted, so the first preimage met is the smallest
    first = {}
    for x in source_window.vertices:
        first.setdefault(f(x), x)
    # images ordered by their smallest preimage: argmin then breaks ties
    images = sorted(first, key=first.__getitem__)
    targets = list(targets)
    dist = distance_rows(f.target, targets, images, cutoff)
    unreached = np.iinfo(np.int64).max
    dist[dist < 0] = unreached
    out = {}
    for y, row in zip(targets, dist):
        j = int(row.argmin())
        if row[j] == unreached:
            raise CutoffExceededError(
                f"no image point within {cutoff} of {y}")
        out[y] = first[images[j]]
    return out


# -- built-in map suite -------------------------------------------------------

def _shift(x: VertexId) -> VertexId:
    return (x[0] + 1,) + x[1:]


def _coarsen(x: VertexId) -> VertexId:
    return tuple(c // 2 for c in x)


def builtin_maps(family: GraphFamily) -> Tuple[QuasiMap, ...]:
    """The stock comparison maps applicable to a family."""
    maps = [QuasiMap("identity", family, family, lambda x: x, 1.0)]
    if not family.name.startswith("tree"):
        maps.append(QuasiMap("translation", family, family, _shift, 1.0))
    if family.name.startswith("z") and family.name[1:].isdigit():
        # a cell of the halving map has L1 diameter d, collapsed to a point
        k_coarse = max(2.0, float(family.name[1:]))
        maps.append(QuasiMap("coarsen", family, family, _coarsen, k_coarse))
    if family.name == "z2":
        maps.append(QuasiMap("z2_to_diag", family, make_family("diag_lattice"),
                             lambda x: x, 2.0))
    if family.name == "diag_lattice":
        maps.append(QuasiMap("diag_to_z2", family, make_family("z2"),
                             lambda x: x, 2.0))
    return tuple(maps)


@dataclass(frozen=True)
class QiRow:
    map_name: str
    window_radius: int
    k_est: int
    density_gap: int
    wobble: int
    lemma5_ratio: float
    lemma5_bound: float
    lemma6_ratio: float
    lemma6_bound: float


def _radial_bump(family: GraphFamily, window: FiniteWindow, center: VertexId,
                 radius: int) -> VertexFunction:
    """Tent function of the distance to `center`, zero beyond `radius`."""
    dist = bfs(family, [center], radius + 1)
    vals = np.zeros(window.n_vertices)
    for i, x in enumerate(window.vertices):
        d = dist.get(x)
        if d is not None and d < radius:
            vals[i] = (radius - d) / radius
    return VertexFunction(window, vals)


def _source(shared: dict, family: GraphFamily, r: int):
    """The radius-r ball about the family's origin and `distance_rows`
    between all its vertices, built once per (family, r) in `shared`.

    The table is searched to depth 2r. Any two vertices of the ball lie
    within 2r of each other, through the origin, so every row has found
    all its targets by then and stops at the layer where a deeper search
    stops, under the same size checks. It is thus the table at every
    cutoff >= 2r, and a row's cutoff 2k(r+2)+4 always is one.
    """
    got = shared.get((family, r))
    if got is None:
        w = ball(family, family.origin, r)
        got = shared[family, r] = (w, distance_rows(family, w.vertices,
                                                    w.vertices, 2 * r))
    return got


def suite_row(f: QuasiMap, window_radius: int,
              shared: Optional[dict] = None) -> QiRow:
    """Run the full check battery for one built-in map at one window radius.

    The Dirichlet test function is a radial tent centered at the image of the
    origin, supported strictly inside the source window's footprint so the
    identity row reproduces ratio 1 exactly.

    `shared` is a dict that the rows of one command pass along, empty for
    the first (a new one when None, which gives the same row). It holds per
    (family, radius) the source ball and its distance table (`_source`),
    which serves every map's cutoff. Every search of the rows runs on its
    family object's `graph`, which the rows of one command share too. A
    row computes its displacement once, for its wobble and for
    `lemma6_check`.
    """
    r = window_radius
    if r < 1:
        raise InvalidWindowError("window radius must be >= 1")
    if shared is None:
        shared = {}
    src = f.source
    w, table = _source(shared, src, r)
    k = math.ceil(f.claimed_distortion)
    cutoff = 2 * k * (r + 2) + 4
    rep = distortion_estimate(f, w, cutoff, table)

    if f.is_endomap:
        wobble = wobbling_displacement(f, w, cutoff=cutoff)
    else:
        wobble = -1

    fo = f(src.origin)
    ecc = distance_rows(f.target, [fo], [f(x) for x in w.vertices], cutoff)
    if (ecc < 0).any():
        raise CutoffExceededError("image eccentricity exceeds cutoff")
    ecc = int(ecc.max())
    margin = max(wobble, 0)
    t_radius = max(ecc + k, r + 2 * margin) + 2
    tw = ball(f.target, fo, t_radius)
    v = _radial_bump(f.target, tw, fo, max(1, r - 2))

    l5 = lemma5_check(f, v, w, a=None)
    if f.is_endomap:
        l6 = lemma6_check(f, v, w, cutoff=cutoff, displacement=wobble)
        l6_ratio, l6_bound = l6.ratio, l6.bound
    else:
        l6_ratio, l6_bound = -1.0, -1.0

    return QiRow(map_name=f.name, window_radius=r, k_est=rep.k_est,
                 density_gap=rep.density_gap, wobble=wobble,
                 lemma5_ratio=l5.ratio, lemma5_bound=l5.bound,
                 lemma6_ratio=l6_ratio, lemma6_bound=l6_bound)
