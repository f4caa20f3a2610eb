"""Independent result checks for the benchmark's workloads.

Nothing here imports hodgedim or runs inside a timed region. Each score is
an effective resistance with unit conductances: star(e, r) is the
resistance between e's endpoints in the radius-r ball with its exterior
wired to ground (every vertex keeps its ambient degree 4 on z2), and
1 - diamond(e, r) is the resistance in the free ball (Benjamini, Lyons,
Peres & Schramm, "Uniform spanning forests", Ann. Probab. 2001). The
references below get those numbers from closed forms and scipy sparse
direct solves on graphs the benchmark builds itself.

Every `check_*` function takes the parsed output rows (lists of dicts) and
returns one bool per expected row: True when the row passes.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SCORE_TOL = 1e-9  # reference vs CG score; today's worst gap is ~1e-15
SPLIT_TOL = 1e-7  # finite split star vs sparse least squares
DIV_FACTOR = 10.0  # diamond divergence may reach this many solver tols


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict, key: str) -> float:
    return float(row[key])


# -- z2 graphs from a coordinate BFS ----------------------------------------

def z2_ball(centers, radius: int) -> np.ndarray:
    """Sorted (n, 2) int array of z2 points within graph distance `radius`
    of `centers`, grown one breadth-first layer at a time on a grid."""
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    lo = centers.min(axis=0) - radius
    size = centers.max(axis=0) - lo + radius + 1
    grid = np.zeros(tuple(size), dtype=bool)
    grid[tuple((centers - lo).T)] = True
    for _ in range(radius):
        grown = grid.copy()
        grown[1:, :] |= grid[:-1, :]
        grown[:-1, :] |= grid[1:, :]
        grown[:, 1:] |= grid[:, :-1]
        grown[:, :-1] |= grid[:, 1:]
        grid = grown
    return np.argwhere(grid) + lo  # argwhere is row-major: lexicographic


def z2_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (i < j) unit-step edges among sorted z2 points, sorted."""
    index = {(int(x), int(y)): i for i, (x, y) in enumerate(points)}
    tails, heads = [], []
    for i, (x, y) in enumerate(points.tolist()):
        for q in ((x, y + 1), (x + 1, y)):  # (x, y+1) sorts before (x+1, y)
            j = index.get(q)
            if j is not None:
                tails.append(i)
                heads.append(j)
    return np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)


def _incidence(n: int, tails, heads) -> sp.csr_matrix:
    m = len(tails)
    rows = np.repeat(np.arange(m), 2)
    cols = np.column_stack([tails, heads]).ravel()
    vals = np.tile([-1.0, 1.0], m)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _resistance(lap: sp.spmatrix, a: int, b: int, grounded: bool) -> float:
    if grounded:
        rhs = np.zeros(lap.shape[0])
        rhs[a], rhs[b] = 1.0, -1.0
        x = spla.spsolve(lap.tocsc(), rhs)
        return float(x[a] - x[b])
    keep = np.flatnonzero(np.arange(lap.shape[0]) != b)  # ground b
    reduced = lap[keep][:, keep].tocsc()
    rhs = np.zeros(len(keep))
    rhs[int(np.searchsorted(keep, a))] = 1.0
    x = spla.spsolve(reduced, rhs)
    return float(x[int(np.searchsorted(keep, a))])


def z2_edge_scores(tail, head, radius: int) -> tuple[float, float, float]:
    """(star, diamond, hd) of a z2 edge at score radius `radius`."""
    points = z2_ball([tail, head], radius)
    tails, heads = z2_edges(points)
    n = len(points)
    inc = _incidence(n, tails, heads)
    free = (inc.T @ inc).tocsr()
    wired = free + sp.diags(4.0 - free.diagonal())
    index = {(int(x), int(y)): i for i, (x, y) in enumerate(points)}
    a, b = index[tuple(tail)], index[tuple(head)]
    star = _resistance(wired, a, b, grounded=True)
    diamond = 1.0 - _resistance(free, a, b, grounded=False)
    return star, diamond, 1.0 - star - diamond


def tree_star(d: int, radius: int) -> float:
    """Closed-form star score of a d-regular tree edge: G_r = 1/(d-1),
    G_k = (1 + G_{k+1})/(d-1), star = 2 G_0 / (1 + 2 G_0)."""
    g = 1.0 / (d - 1)
    for _ in range(radius):
        g = (1.0 + g) / (d - 1)
    return 2.0 * g / (1.0 + 2.0 * g)


# -- score profiles ---------------------------------------------------------

def _profile_ok(rows, radii, tol: float) -> list[bool]:
    """Shape, range, exact partition and monotonicity of a score profile."""
    ok = []
    prev = None
    for row, r in zip(rows, radii):
        s, d, h = _num(row, "star"), _num(row, "diamond"), _num(row, "hd")
        good = (int(row["R"]) == r and h == 1.0 - s - d
                and all(0.0 <= v <= 1.0 for v in (s, d, h))
                and _num(row, "residual") <= tol)
        if prev is not None:
            ps, pd, ph = prev
            good = good and s >= ps and d >= pd and h <= ph
        ok.append(good)
        prev = (s, d, h)
    return _pad(ok, len(radii))


def guarded(check, text: str, expected: int) -> list[bool]:
    """check(text), or every row failed when the output does not parse."""
    try:
        return check(text)
    except (KeyError, ValueError, TypeError, IndexError):
        return [False] * expected


def _pad(ok: list[bool], expected: int) -> list[bool]:
    """Missing rows fail; so does every row of an output that is too long."""
    if len(ok) > expected:
        return [False] * expected
    return ok + [False] * (expected - len(ok))


def check_tree_profile(rows, d: int, radii, tol: float) -> list[bool]:
    ok = _profile_ok(rows, radii, tol)
    for i, (row, r) in enumerate(zip(rows, radii)):
        ok[i] = (ok[i] and _num(row, "diamond") == 0.0
                 and abs(_num(row, "star") - tree_star(d, r)) <= SCORE_TOL)
    return ok


# -- window dimension (cor4) --------------------------------------------------

def cor4_reference(window_radius: int, factor: int) -> tuple[float, float]:
    """(hd dimension estimate, sigma/|E|) for the z2 ball of radius
    `window_radius`: the orbit average over its horizontal and vertical
    edges of the hd score at radius factor * window_radius."""
    points = z2_ball([(0, 0)], window_radius)
    tails, heads = z2_edges(points)
    horizontal = points[heads, 0] != points[tails, 0]
    n_h = int(horizontal.sum())
    n_v = len(tails) - n_h
    r = factor * window_radius
    hd_h = z2_edge_scores((0, 0), (1, 0), r)[2]
    hd_v = z2_edge_scores((0, 0), (0, 1), r)[2]
    inside = {tuple(p) for p in points.tolist()}
    sigma = sum(1 for x, y in inside
                if any(q not in inside for q in
                       ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))))
    return (n_h * hd_h + n_v * hd_v) / (n_h + n_v), sigma / len(tails)


def check_cor4(rows, reference: dict, radii, factor: int) -> list[bool]:
    """`reference` maps window radius -> cor4_reference(...)."""
    ok = []
    prev = None
    for row, wr in zip(rows, radii):
        est, frac = reference[wr]
        got = _num(row, "hd_dim_estimate")
        good = (int(row["window_radius"]) == wr
                and int(row["score_radius"]) == factor * wr
                and abs(got - est) <= SCORE_TOL
                and _num(row, "sigma_over_E") == frac)
        if prev is not None:
            good = good and got < prev
        ok.append(good)
        prev = got
    return _pad(ok, len(radii))


def same_rows(text_a: str, text_b: str, expected: int) -> list[bool]:
    """Row-by-row byte equality of two CSV outputs (header included in
    every row's verdict)."""
    a, b = text_a.splitlines(), text_b.splitlines()
    header = bool(a) and bool(b) and a[0] == b[0]
    ok = [header and x == y for x, y in zip(a[1:], b[1:])]
    if len(a) != len(b):
        return [False] * expected
    return _pad(ok, expected)


# -- quasi-isometry battery --------------------------------------------------

def _tree_ball_size(degree: int, r: int) -> int:
    if r <= 0:
        return 1
    q = degree - 1
    return 1 + degree * (q ** r - 1) // (q - 1)


def lemma5_bound(k: float, degree: int) -> float:
    m = degree * _tree_ball_size(degree, math.ceil(2 * k * k))
    return math.sqrt(math.ceil(k) * m)


def lemma6_bound(displacement: int, degree: int) -> float:
    if displacement == 0:
        return 0.0
    return displacement * 2.0 * _tree_ball_size(degree, displacement)


# The z2 maps: claimed distortion, and the map itself for endomaps (None for
# maps into another family, where displacement is undefined).
Z2_MAPS = {
    "identity": (1.0, lambda x, y: (x, y)),
    "translation": (1.0, lambda x, y: (x + 1, y)),
    "coarsen": (2.0, lambda x, y: (x // 2, y // 2)),
    "z2_to_diag": (2.0, None),
}
Z2_DEGREE = 4


def z2_displacement(mapping, radius: int) -> int:
    """max over the z2 ball of radius `radius` of |f(x) - x|_1, which is
    the z2 graph distance."""
    return max(abs(fx - x) + abs(fy - y) for x, y in
               (tuple(p) for p in z2_ball([(0, 0)], radius).tolist())
               for fx, fy in [mapping(x, y)])


def check_qi(rows, maps, radii) -> list[bool]:
    expected = [(m, r) for m in maps for r in radii]
    ok = []
    for row, (name, r) in zip(rows, expected):
        k, mapping = Z2_MAPS[name]
        k_est, gap, wobble = (int(row["k_est"]), int(row["density_gap"]),
                              int(row["wobble"]))
        l5, l5b = _num(row, "lemma5_ratio"), _num(row, "lemma5_bound")
        l6, l6b = _num(row, "lemma6_ratio"), _num(row, "lemma6_bound")
        good = (row["map_name"] == name and int(row["window_radius"]) == r
                and 1 <= k_est <= math.ceil(k) and gap >= 0
                and l5b == lemma5_bound(k, Z2_DEGREE)
                and 0.0 <= l5 <= l5b * (1.0 + 1e-12))
        if mapping is None:
            good = good and wobble == -1 and l6 == -1.0 and l6b == -1.0
        else:
            good = (good and wobble == z2_displacement(mapping, r)
                    and l6b == lemma6_bound(wobble, Z2_DEGREE)
                    and 0.0 <= l6 <= l6b * (1.0 + 1e-12))
        if name == "identity":
            good = good and (k_est, gap, l5, l6) == (1, 0, 1.0, 0.0)
        if name == "translation":
            good = good and (k_est, gap) == (1, 0)
        ok.append(good)
    return _pad(ok, len(expected))


# -- finite split -------------------------------------------------------------

def split_reference(n: int, tails, heads, values) -> np.ndarray:
    """Star part of an edge function on a connected finite graph: the least
    squares fit of a vertex potential's differential, by a sparse direct
    solve of the normal equations with vertex 0 grounded."""
    inc = _incidence(n, tails, heads)[:, 1:].tocsc()
    potential = spla.spsolve((inc.T @ inc).tocsc(), inc.T @ values)
    return inc @ potential


def divergence_ratio(n: int, tails, heads, flow, values) -> float:
    """|d* flow| / |d* values| over all vertices."""
    inc = _incidence(n, tails, heads)
    return float(np.linalg.norm(inc.T @ flow)
                 / np.linalg.norm(inc.T @ values))


def check_split(rows, split, tol: float) -> list[bool]:
    """`split` holds the generated window (labels, tails, heads, values) and
    the reference star part."""
    m = len(split.values)
    if len(rows) != m:
        return [False] * m
    star = np.array([_num(r, "star") for r in rows])
    diamond = np.array([_num(r, "diamond") for r in rows])
    iterations = rows[0]["iterations"]
    ok = []
    for k, row in enumerate(rows):
        value = _num(row, "value")
        s, d = star[k], diamond[k]
        rounding = 2.0 * math.ulp(max(abs(value), abs(s), abs(d)))
        ok.append(bool(row["tail"] == split.labels[split.tails[k]]
                  and row["head"] == split.labels[split.heads[k]]
                  and value == split.values[k]
                  and abs(s - split.reference[k]) <= SPLIT_TOL
                  and abs(s + d - value) <= rounding
                  and row["iterations"] == iterations
                  and row["converged"] == "true"
                  and _num(row, "residual") <= tol))
    ratio = divergence_ratio(len(split.labels), split.tails, split.heads,
                             diamond, split.values)
    if not ratio <= DIV_FACTOR * tol:
        return [False] * m
    return ok
