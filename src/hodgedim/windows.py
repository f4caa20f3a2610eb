"""Finite windows cut out of infinite families.

A FiniteWindow is a finite induced subgraph together with the ambient degree
of each vertex, which is all the later stages ever need to know about the
exterior. Canonical edge orientation is (min, max) in the vertex order;
since window vertices are stored sorted, canonical edges are exactly the
index pairs (i, j) with i < j, and the edge list is lexicographically sorted
by construction.

Construction is matrix-free friendly: edges live in two parallel numpy index
arrays, not an adjacency matrix.

This module also holds the package's graph search: one BFS on the integer
vertex ids of `family.graph`, behind `bfs`, `distance_rows` and the window
builder behind `ball` and `induced_window`. Trees and most translation
families build windows with array kernels on int64 keys instead, on one
layer loop; tree windows build vertex tuples only when asked. Kernel
steps, ball counts and closed-form metrics come from `family.geometry`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from itertools import chain
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import (InvalidWindowError, MissingEdgeError, SizeLimitError)
from .families import GraphFamily, IdGraph, VertexId, encode_vertex

# Most vertices a window may hold; read at each check, so tests can lower it.
DEFAULT_SIZE_CAP = 2_000_000


def _check_size(n: int) -> None:
    if n > DEFAULT_SIZE_CAP:
        raise SizeLimitError(f"window would exceed {DEFAULT_SIZE_CAP} vertices")


class OrientedEdge(NamedTuple):
    tail: VertexId
    head: VertexId

    def reversed(self) -> "OrientedEdge":
        return OrientedEdge(self.head, self.tail)

    def canonical(self) -> "OrientedEdge":
        return self if self.tail < self.head else self.reversed()


class FiniteWindow:
    """Sorted vertex list, canonical edge arrays, ambient degrees. `check`
    checks arrays from outside the package (window JSON, library callers)
    in full; the builders behind `ball` make valid windows and pass False.

    Attributes:
        vertices         tuple of vertex ids, sorted; a tree window from
                         `_tree_window` holds its words as `_TreeWords` keys
                         and builds the tuples on first use
        labels           `encode_vertex` of each vertex, built on first use
        edge_tails       int64 array, tail index of each canonical edge
        edge_heads       int64 array, head index (always > tail index)
        full_degree      int64 array, ambient degree per vertex; on a window
                         of one ambient degree built by a kernel, a
                         read-only view of one value with stride 0
        internal_degree  int64 array, window edges at each vertex, counted
                         on first use: an EMBEDDED solve never reads it
        boundary         bool array, True where some ambient neighbor is
                         outside
    """

    def __init__(self, vertices, edge_tails, edge_heads, full_degree,
                 check: bool = True):
        if isinstance(vertices, _TreeWords):
            self._words, self._vertices = vertices, None
            n = len(vertices)
        else:
            self._words, self._vertices = None, tuple(vertices)
            n = len(self._vertices)
        self._n_vertices = n
        given = [np.asarray(a) for a in (edge_tails, edge_heads, full_degree)]
        try:  # uint64 and float arrays cast past int64 with no error
            if any(a.dtype.kind in "uf" and a.size and not (
                    -2 ** 63 <= a.min().item() <= a.max().item() < 2 ** 63)
                   for a in given):
                raise OverflowError
            self.edge_tails, self.edge_heads, self.full_degree = (
                a.astype(np.int64, copy=False) for a in given)
        except OverflowError:  # Python ints past int64 raise here too
            raise InvalidWindowError("edge index or degree past int64")
        if n == 0:
            raise InvalidWindowError("window has no vertices")
        if self.edge_tails.size == 0:
            raise InvalidWindowError("window has no edges")
        if self.full_degree.shape != (n,):
            raise InvalidWindowError("full_degree has wrong length")
        if check:  # before the degree count, which indexes by the edges
            self._validate({a.dtype.kind for a in given})
        deg = self._count_degrees()
        self.boundary = deg < self.full_degree
        self._internal_degree = None
        self._index = None
        self._labels = None
        if check and np.any(deg > self.full_degree):
            raise InvalidWindowError("internal degree exceeds ambient degree")
        if check and not self._connected():
            raise InvalidWindowError("window is not connected")

    # -- basic views -------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = self._words.tuples()
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return int(self.edge_tails.size)

    @property
    def internal_degree(self) -> np.ndarray:
        if self._internal_degree is None:
            self._internal_degree = self._count_degrees()
        return self._internal_degree

    def _count_degrees(self) -> np.ndarray:
        n = self.n_vertices
        deg = np.bincount(self.edge_tails, minlength=n)
        deg += np.bincount(self.edge_heads, minlength=n)
        return deg

    @property
    def index(self) -> dict:
        """Vertex -> index, built on first use, for loops over many
        vertices; single lookups bisect (`bisect_index`) instead."""
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.vertices)}
        return self._index

    @property
    def labels(self) -> list:
        """The CSV label of each vertex, in vertex order. Built once, so
        reading and writing a window's CSV encode each vertex once."""
        if self._labels is None:
            self._labels = list(map(encode_vertex, self.vertices))
        return self._labels

    def vertex_index(self, x: VertexId) -> int:
        i = self.bisect_index(x)
        if i is None:
            raise InvalidWindowError(f"vertex {x} not in window")
        return i

    def sigma_indices(self) -> np.ndarray:
        return np.nonzero(self.boundary)[0]

    def bisect_index(self, x: VertexId) -> Optional[int]:
        """Index of x by bisecting the sorted vertices, or None. For one-off
        lookups: it builds no index dict, which on a ball of 10^5 vertices
        costs more memory than the ball's arrays. A tree window searches its
        word keys and builds no tuple. A vertex that is not a tuple raises
        TypeError."""
        if self._words is not None:
            return self._words.find(x)
        i = bisect_left(self.vertices, x)
        return i if i < self.n_vertices and self.vertices[i] == x else None

    def edge_lookup(self, e: OrientedEdge):
        """Return (edge position, sign) for an oriented edge of the window.

        sign is +1 when e is canonically oriented, -1 otherwise. Endpoints
        are found with `bisect_index`, the edge by bisecting tails, then heads.
        """
        i = self.bisect_index(e.tail)
        j = self.bisect_index(e.head)
        if i is None or j is None:
            raise MissingEdgeError(f"edge {e} has an endpoint outside the window")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        elif i == j:
            raise MissingEdgeError(f"degenerate edge {e}")
        lo = int(np.searchsorted(self.edge_tails, i))
        hi = int(np.searchsorted(self.edge_tails, i, "right"))
        k = lo + int(np.searchsorted(self.edge_heads[lo:hi], j))
        if k == hi or self.edge_heads[k] != j:
            raise MissingEdgeError(f"{e} is not an edge of the window")
        return k, sign

    def has_vertex(self, x: VertexId) -> bool:
        return x in self.index

    # -- consistency -------------------------------------------------------

    def _validate(self, kinds: set):
        n = self.n_vertices
        if list(self.vertices) != sorted(self.vertices):
            raise InvalidWindowError("window vertices must be sorted")
        if len(set(self.vertices)) != n:
            raise InvalidWindowError("duplicate vertices in window")
        t, h = self.edge_tails, self.edge_heads
        if t.shape != h.shape:
            raise InvalidWindowError("edge arrays disagree in length")
        if np.any(t >= h) or np.any(t < 0) or np.any(h >= n):
            raise InvalidWindowError("edges must be canonical index pairs i < j")
        key = t * n + h
        if np.any(np.diff(key) <= 0):
            raise InvalidWindowError("edge list must be sorted and duplicate free")
        # the int64 arrays truncate floats and read bools as ints
        if not kinds <= {"i", "u"}:
            raise InvalidWindowError("edge indices and degrees must be integers")

    def _connected(self) -> bool:
        # Each round hooks every root onto the smallest root across its
        # edges, then jumps pointers until every vertex points at its root.
        # Unlike a BFS, the rounds do not follow the diameter: a path whose
        # vertices are in order takes one.
        t, h = self.edge_tails, self.edge_heads
        root = np.arange(self.n_vertices)
        while True:
            rt, rh = root[t], root[h]
            split = rt != rh
            if not split.any():
                return bool(np.all(root == root[0]))
            rt, rh = rt[split], rh[split]
            np.minimum.at(root, np.maximum(rt, rh), np.minimum(rt, rh))
            while True:
                up = root[root]
                if np.array_equal(up, root):
                    break
                root = up


def same_window(a: FiniteWindow, b: FiniteWindow) -> bool:
    """True when both windows hold the same vertices. Two tree windows with
    the same key encoding compare keys and build no tuples."""
    if a is b:
        return True
    if a.n_vertices != b.n_vertices:
        return False
    ka, kb = a._words, b._words
    if (ka is not None and kb is not None
            and (ka.base, ka.width) == (kb.base, kb.width)):
        return np.array_equal(ka.keys, kb.keys)
    return a.vertices == b.vertices


def adjacency_apply(window: FiniteWindow, x: np.ndarray, out=None,
                    gathered=None) -> np.ndarray:
    """A x for the window's adjacency matrix A, from its edge arrays.

    `out` (n_vertices floats) receives the result, and `gathered` (n_edges
    floats) holds the values read across the edges; a caller that applies A
    many times passes both.
    """
    n = window.n_vertices
    t, h = window.edge_tails, window.edge_heads
    if out is None:
        out = np.empty(n)
    if gathered is None:
        gathered = np.empty(t.size)
    # np.bincount cannot write into a given array. Each of its two sums is
    # added into `out` and freed before the next is made: glibc's malloc
    # reuses one freed n-vector but trims two from the top of its heap, and
    # a solve on 10^5 vertices then page-faults them in on every iteration.
    # "clip" skips the bounds check of the default "raise", and changes no
    # value: edge indices lie in [0, n) by construction.
    np.copyto(out, np.bincount(t, weights=x.take(h, out=gathered, mode="clip"),
                               minlength=n))
    out += np.bincount(h, weights=x.take(t, out=gathered, mode="clip"),
                       minlength=n)
    return out


def neighbour_tables(window: FiniteWindow, max_cells: int):
    """The padded index tables of `table_apply`, (up, down), or None where
    they would hold more than `max_cells` cells.

    Column i of `up` lists vertex i's neighbours above it, and column i of
    `down` those below it, each in edge order; a table has as many rows as
    the most such neighbours of any vertex (n - 1 above a star's centre).
    Missing entries hold n, the index of the 0.0 that pads the applied
    vector."""
    n, t, h = window.n_vertices, window.edge_tails, window.edge_heads
    up_deg, down_deg = np.bincount(t, minlength=n), np.bincount(h, minlength=n)
    if n * (int(up_deg.max()) + int(down_deg.max())) > max_cells:
        return None
    tables = []
    # `order` groups the edges by the vertex whose column they fill, in edge
    # order; the up table needs none, since the tails are sorted
    for ends, deg, order in ((h, up_deg, None),
                             (t, down_deg, np.argsort(h, kind="stable"))):
        table = np.full((int(deg.max()), n), n)
        start = np.cumsum(deg) - deg
        for k, row in enumerate(table):  # n-vector temporaries only
            has = deg > k
            edges = start[has] + k
            row[has] = ends[edges if order is None else order[edges]]
        tables.append(table)
    return tuple(tables)


def table_apply(tables, padded: np.ndarray, out: np.ndarray,
                down: np.ndarray, gathered: np.ndarray) -> np.ndarray:
    """A x into `out`, with the same bits as `adjacency_apply`, from the
    `neighbour_tables`: `padded` is x followed by one 0.0, and `down` and
    `gathered` are n-vector buffers.

    Each half sums the same terms in the same order as one of the apply's
    bincounts, and the halves are added last, as there. The bincounts start
    from +0.0 and these sums from their first term, which differs only
    where every term is -0.0: the sum is then -0.0, not +0.0. Adding +0.0,
    as a padding term or the last += 0.0 does, turns just that -0.0 into
    +0.0 and changes no other sum."""
    for table, acc in zip(tables, (out, down)):
        padded.take(table[0], out=acc, mode="clip")
        for row in table[1:]:
            acc += padded.take(row, out=gathered, mode="clip")
    out += down
    out += 0.0
    return out


def _search(graph: IdGraph, sources: list, depth: int,
            targets: Optional[list]) -> dict:
    """The package's one distance BFS, on ids: id -> distance, in discovery
    order. With `targets`, stops after the first complete layer containing
    the last of them. Runs `_check_size` on the table after each layer."""
    dist = dict.fromkeys(sources, 0)
    _check_size(len(dist))
    todo = None if targets is None else set(targets).difference(dist)
    adjacent, fetch = graph.adjacent, graph.fetch
    frontier = list(dist)
    for d in range(1, depth + 1):
        if not frontier or (todo is not None and not todo):
            break
        nxt = []
        for x in frontier:
            nb = adjacent[x]
            if nb is None:
                nb = fetch(x)
            for y in nb:
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        _check_size(len(dist))
        if todo is not None:
            todo.difference_update(nxt)
        frontier = nxt
    return dist


def _open_search(family: GraphFamily, sources: Iterable[VertexId],
                 depth: int, targets: Optional[Iterable[VertexId]]):
    """What `id_bfs`, `distance_rows` and `_grow_window` do before they
    number anything: check the depth, and that each source and target is a
    word of a tree family, so that `family.graph` never holds a non-word.
    Returns the sources and targets as lists, targets None when None."""
    if depth < 0:
        raise InvalidWindowError("radius must be >= 0")
    sources = list(sources)
    targets = None if targets is None else list(targets)
    if family.tree_degree:
        _check_words(family.tree_degree,
                     sources if targets is None else sources + targets)
    return sources, targets


def _graph(family: GraphFamily, vertices: list) -> IdGraph:
    """`family.graph`, or a throwaway graph when one of `vertices` is not a
    tuple of ints. (True, 0) == (1, 0): numbered in the shared graph, a
    caller's (True, 0) would stand for (1, 0) in every later search and
    window on the object."""
    return family.graph if _int_lists(vertices, tuple) else IdGraph(family)


def id_bfs(family: GraphFamily, sources: Iterable[VertexId], depth: int,
           targets: Optional[Iterable[VertexId]] = None):
    """`bfs` keyed by id: the graph searched, whose `index` and `vertices`
    translate ids, and its id -> distance table."""
    sources, targets = _open_search(family, sources, depth, targets)
    graph = _graph(family, sources if targets is None else sources + targets)
    src = graph.ids(sources)
    tgt = None if targets is None else graph.ids(targets)
    return graph, _search(graph, src, depth, tgt)


def bfs(family: GraphFamily, sources: Iterable[VertexId], depth: int,
        targets: Optional[Iterable[VertexId]] = None) -> dict:
    """Graph distance from the source set to every vertex within `depth`,
    in discovery order.

    With `targets`, stop after the first complete layer containing the last
    of them; layers are never cut short, so every vertex at distance <= the
    largest returned distance is present. Raises SizeLimitError once the
    table passes `DEFAULT_SIZE_CAP` vertices, and InvalidWindowError for a
    source or target off a tree family's words. The search runs on
    `family.graph`, so it fetches no neighbour list that an earlier search
    on the same family object fetched, unless a source or target is not a
    tuple of ints (see `_graph`).
    """
    graph, dist = id_bfs(family, sources, depth, targets)
    vertices = graph.vertices
    return {vertices[i]: d for i, d in dist.items()}


def distance_rows(family: GraphFamily, sources: Iterable[VertexId],
                  targets: Iterable[VertexId], depth: int) -> np.ndarray:
    """int64 matrix whose row i holds, for each target, what
    `bfs(family, [sources[i]], depth, targets)` gives for it, and -1 where
    that search does not reach it.

    Trees, z^k and the triangular lattice read it off `family.geometry`'s
    distance, on `_metric`'s rows. Row i's search stops at layer L_i =
    min(depth, max_j d(s_i, t_j)), 0 with no targets, and raises
    SizeLimitError iff |ball(L_i)| passes the cap; there |ball(L)| grows
    with L alone, so the matrix raises iff |ball(max_i L_i)| does. Other
    families, and vertices `_metric` leaves, search per row on `_graph`.
    """
    sources, targets = _open_search(family, sources, depth, targets)
    geometry = family.geometry
    rows = geometry.distance and _metric(family, sources, targets)
    if not rows:
        graph = _graph(family, sources + targets)
        tgt = graph.ids(targets)
        out = np.full((len(sources), len(tgt)), -1, dtype=np.int64)
        for row, s in zip(out, graph.ids(sources)):
            dist = _search(graph, [s], depth, tgt)
            row[:] = [dist.get(t, -1) for t in tgt]
        return out
    src, tgt = rows
    out = np.empty((len(src), len(tgt)), dtype=np.int64)
    # rows in chunks of about 2**18 cells, which bounds the temporaries
    step = max(1, 2 ** 18 // max(1, tgt.size))
    for i in range(0, len(src), step):
        out[i:i + step] = geometry.distance(src[i:i + step, None], tgt)
    if len(src):
        _check_size(geometry.ball_size(min(depth, int(out.max(initial=0)))))
    out[out > depth] = -1
    return out


def _metric(family: GraphFamily, sources: list, targets: list):
    """Sources and targets as int64 rows for `family.geometry.distance`:
    words as rows of letters padded with -1 and -2, else coordinates, None
    unless the vertices are `_lattice_points` whose ranges sum to < 2**63."""
    if family.tree_degree:
        width = max(map(len, sources + targets), default=0)
        return tuple(np.array([w + (pad,) * (width - len(w)) for w in ws],
                              np.int64).reshape(len(ws), width)
                     for ws, pad in ((sources, -1), (targets, -2)))
    points = sources + targets
    if not _lattice_points(family, points):
        return None
    try:
        pts = np.array(points, dtype=np.int64)
    except OverflowError:  # past int64
        return None
    if sum(pts.max(0).tolist()) - sum(pts.min(0).tolist()) >= 2 ** 63:
        return None
    return pts[:len(sources)], pts[len(sources):]


def _grow_window(family: GraphFamily, sources: list,
                 radius: int) -> FiniteWindow:
    """Window on all vertices within `radius` of the sources.

    A ball about words or `_lattice_points` that `family.geometry` counts
    raises before anything is built once that count passes the cap: a
    ball about sources holds the ball about each one. Array kernels build
    trees' windows (`_tree_window`) and most translation families'
    (`_lattice_window`). Others run `_search` on `_graph` and fetch the
    outer layer's lists there too, each once per family object; numpy
    ranks the ids in vertex order and writes each edge once.
    """
    sources, _ = _open_search(family, sources, radius, None)
    d, size = family.tree_degree, family.geometry.ball_size
    if size and sources and (d or _lattice_points(family, sources)):
        _check_size(size(radius))
    w = (_tree_window(d, sources, radius) if d else
         _lattice_window(family, sources, radius))
    if w is not None:
        return w
    graph = _graph(family, sources)
    adjacent, vertices = graph.adjacent, graph.vertices
    ids = sorted(_search(graph, graph.ids(sources), radius, None),
                 key=vertices.__getitem__)
    # the outer layer's lists too, which the search does not fetch
    lists = [graph.fetch(i) if adjacent[i] is None else adjacent[i]
             for i in ids]
    n = len(ids)
    rank = np.full(len(vertices), n)  # n outside the window
    rank[ids] = np.arange(n)
    degree = np.fromiter(map(len, lists), np.int64, n)
    listed = rank[np.fromiter(chain.from_iterable(lists), np.int64)]
    owner = np.repeat(np.arange(n), degree)
    # each edge once, from its end later in sorted order
    keep = listed < owner
    key = np.sort(listed[keep] * n + owner[keep])
    return FiniteWindow([vertices[i] for i in ids], *np.divmod(key, n),
                        degree, check=False)


def _layers(layer: tuple, radius: int, step) -> list:
    """The sorted distinct keys layer[0], and the per-key arrays layer[1:],
    grown by `radius` layers, in layer order. `step(*layer)` lists a layer's
    neighbours, with repeats, and their arrays; a neighbour of a vertex at
    distance t lies at distance t-1, t or t+1, so one sort of those two
    layers and the neighbours finds the new keys. Checks the size before
    each layer and after the last, as `_search` does."""
    layers, previous, n = [layer], layer[0][:0], layer[0].size
    for _ in range(radius):
        _check_size(n)
        found = step(*layer)
        # with return_index, np.unique skips the path that imports numpy.ma;
        # a new key is first met in `found`, at a nonnegative index there
        first = np.unique(np.concatenate([previous, layer[0], found[0]]),
                          return_index=True)[1] - previous.size - layer[0].size
        previous, layer = layer[0], tuple(a[first[first >= 0]] for a in found)
        layers.append(layer)
        n += layer[0].size
    _check_size(n)
    return [np.concatenate(a) for a in zip(*layers)]


def _lattice_window(family: GraphFamily, sources: list,
                    radius: int) -> Optional[FiniteWindow]:
    """`_grow_window` along `family.geometry`'s steps, in integer arrays: a
    valid window by construction, with sorted keys, edges in (tail, head)
    order and the step count as each degree. A key's mixed-radix digits are
    a vertex's coordinates less the low corner of the sources' bounding box
    widened by radius + 1 longest steps: key order is tuple order, and key +
    a step's key never wraps into the next row. None, for the id search,
    without steps, on a path (two steps: its two-vertex layers cost more
    than the search per vertex), and unless the sources are
    `_lattice_points` in a box inside int64 of fewer than 2**62 keys."""
    offsets, k = family.geometry.steps, len(family.origin)
    if not (offsets and len(offsets) > 2 and _lattice_points(family, sources)):
        return None
    offsets = np.array(offsets)
    margin = (radius + 1) * int(abs(offsets).max())
    lo = [min(c) - margin for c in zip(*sources)]
    hi = [max(c) + margin for c in zip(*sources)]
    size = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(size) >= 2 ** 62 or min(lo) < -2 ** 63 or max(hi) >= 2 ** 63:
        return None
    stride = [math.prod(size[i + 1:]) for i in range(k)]
    steps = np.sort(offsets @ stride)
    start = np.unique(np.subtract(sources, lo) @ stride, return_index=True)[0]
    keys, = _layers((start,), radius,
                    lambda x: ((x[:, None] + steps).ravel(),))
    keys.sort()
    n, up = keys.size, steps[steps > 0]
    # a column per offset key o > 0, ascending: hits in (tail, head) order
    heads = np.searchsorted(keys, keys[:, None] + up)
    hit = keys[np.minimum(heads, n - 1)] - keys[:, None] == up
    tails, heads = np.nonzero(hit)[0], heads[hit]
    # the vertex tuples last, once the edge temporaries are freed
    columns = [(keys // s % m + a).tolist()
               for s, m, a in zip(stride, size, lo)]
    del keys, hit
    return FiniteWindow(zip(*columns), tails, heads, np.broadcast_to(
        np.int64(len(offsets)), (n,)), check=False)


def _tree_window(d: int, sources: list, radius: int) -> Optional[FiniteWindow]:
    """`_grow_window` on the d-regular tree, in integer arrays.

    A word (a1, ..., aL) of at most W letters is the key whose base-(d+1)
    digits, most significant first, are a1+1, ..., aL+1 followed by W-L
    zeros. Letters become nonzero digits and padding is 0, so comparing two
    keys compares the words letter by letter, and a word sorts before its
    extensions: integer order is Python's tuple order, and the sorted keys
    list the window's vertices in the order `FiniteWindow` needs. The parent
    of a word zeroes its last digit; its children set the next one.

    `_layers` grows the ball with this step, carrying each word's length.
    Edges are the (parent, child) pairs with both keys present, found with
    one `searchsorted`. The window keeps the keys (`_TreeWords`) and builds
    no vertex tuple until one is asked for: the score path reads only the
    edge arrays and finds its endpoints in the keys.

    Returns None when W, the longest source word plus the radius, makes keys
    too large for int64; the caller then runs the id search. Keys never wrap.
    """
    base = d + 1
    width = max(map(len, sources), default=0) + radius
    if base ** width >= 2 ** 63:
        return None
    # unit[L]: place value of the L-th letter (unit[0] only stands in for
    # the root, whose digit below is 0)
    unit = base ** np.arange(width, -1, -1, dtype=np.int64)
    letters = np.arange(1, d, dtype=np.int64)

    def tree_step(frontier, depth):
        inner = depth > 0
        k, length = frontier[inner], depth[inner]
        u = unit[length]
        parents = k - k // u % base * u
        children = (k[:, None] + letters * unit[length + 1][:, None]).ravel()
        found = [parents, children]
        found_len = [length - 1, np.repeat(length + 1, d - 1)]
        if not inner.all():  # the root, whose children take all d letters
            found.append(np.arange(1, d + 1, dtype=np.int64) * unit[1])
            found_len.append(np.ones(d, dtype=np.int64))
        return np.concatenate(found), np.concatenate(found_len)

    frontier, first = np.unique(
        np.array([_encode_word(x, base, width) for x in sources], np.int64),
        return_index=True)
    depth = np.array([len(x) for x in sources], np.int64)[first]
    keys, lengths = _layers((frontier, depth), radius, tree_step)
    n = keys.size
    step = keys.argsort()
    keys = keys[step]
    words = _TreeWords(keys, lengths[step].astype(np.uint8), base, width)
    del lengths, step
    parent, _ = words.parents()
    heads = np.flatnonzero(parent >= 0)
    tails = parent[heads]
    del parent
    # heads ascend, so a stable sort by tail orders edges by (tail, head)
    step = tails.argsort(kind="stable")
    tails, heads = tails[step], heads[step]
    del step
    return FiniteWindow(words, tails, heads,
                        np.broadcast_to(np.int64(d), (n,)), check=False)


class _TreeWords:
    """The sorted vertices of a tree window as `_tree_window` keys, with the
    length of each word, the digit base and the key width: all that finding
    a word and building the vertex tuples need."""

    __slots__ = ("keys", "length", "base", "width")

    def __init__(self, keys: np.ndarray, length: np.ndarray, base: int,
                 width: int):
        self.keys, self.length = keys, length
        self.base, self.width = base, width

    def __len__(self) -> int:
        return self.keys.size

    def find(self, x: VertexId) -> Optional[int]:
        """Index of the word x, or None; TypeError if x is not a tuple."""
        if not isinstance(x, tuple):
            raise TypeError(f"vertex {x!r} is not a tuple")
        if len(x) > self.width or not _is_word(self.base - 1, x):
            return None
        key = _encode_word(x, self.base, self.width)
        i = int(np.searchsorted(self.keys, key))
        return i if i < self.keys.size and self.keys[i] == key else None

    def parents(self):
        """The index of each word's parent (-1 for the root and for a word
        whose parent is not in the window), and each word's last digit."""
        keys, base = self.keys, self.base
        # place value of each word's last letter (the root's digit is 0)
        unit = base ** np.arange(self.width, -1, -1, dtype=np.int64)
        u = unit[self.length]
        digit = keys // u % base
        up = keys - digit * u
        del u
        # a parent key is never larger than its child's, so `parent` is in
        # range
        parent = np.searchsorted(keys, up)
        parent[(self.length == 0) | (keys[parent] != up)] = -1
        return parent, digit

    def tuples(self) -> tuple:
        """The words as tuples, in key order. Each is built from its
        parent's tuple (built before it) and its last letter; a word whose
        parent is outside the window (the root, the top of each component)
        is decoded from its key."""
        keys, base, width = self.keys, self.base, self.width
        parent, digit = self.parents()
        tops = {i: _decode_word(int(keys[i]), base, width)
                for i in np.flatnonzero(parent < 0).tolist()}
        vertices = []
        for up, a in zip(parent.tolist(), (digit - 1).tolist()):
            vertices.append(vertices[up] + (a,) if up >= 0
                            else tops[len(vertices)])
        return tuple(vertices)


def _is_word(d: int, x) -> bool:
    """Whether x is a word of the d-regular tree."""
    return (type(x) is tuple and all(type(a) is int for a in x)
            and (not x or 0 <= x[0] < d)
            and all(0 <= a < d - 1 for a in x[1:]))


def _check_words(d: int, xs: Iterable) -> None:
    """Raise InvalidWindowError for any of `xs` that is not a word of the
    d-regular tree. Off the words the tree rule is not symmetric: it lists
    () as a neighbour of (5,) in tree3, but not the reverse."""
    for x in xs:
        if not _is_word(d, x):
            raise InvalidWindowError(f"{x} is not a vertex of tree{d}")


def _encode_word(x: VertexId, base: int, width: int) -> int:
    key = 0
    for a in x:
        key = key * base + a + 1
    return key * base ** (width - len(x))


def _decode_word(key: int, base: int, width: int) -> VertexId:
    digits = []
    for _ in range(width):
        key, c = divmod(key, base)
        digits.append(c)
    return tuple(c - 1 for c in reversed(digits) if c)


def induced_window(family: GraphFamily, vertices: Iterable[VertexId]) -> FiniteWindow:
    """Induced subgraph on a nonempty vertex set: the ball of radius 0
    about it, so it must come out connected with >= 1 edge."""
    vertices = list(vertices)
    if not vertices:
        raise InvalidWindowError("empty vertex set")
    return ball(family, vertices, 0)


def ball(family: GraphFamily, center, radius: int) -> FiniteWindow:
    """Window on all vertices within `radius` of `center`.

    `center` may be a single vertex id or an iterable of them (a ball around
    an edge is the ball around its endpoint pair). The window is valid by
    construction; only its connectivity is checked, and not around one
    vertex or the two ends of an edge, where it holds. A ball that falls
    apart raises InvalidWindowError, and one past `DEFAULT_SIZE_CAP`
    vertices SizeLimitError.
    """
    if isinstance(center, tuple) and all(isinstance(c, int) for c in center):
        sources = [center]
    else:
        sources = list(center)
    w = _grow_window(family, sources, radius)
    if len(sources) == 2:
        try:
            w.edge_lookup(OrientedEdge(*sources))
            return w
        except MissingEdgeError:
            pass
    if len(sources) > 1 and not w._connected():
        raise InvalidWindowError("window is not connected")
    return w


def neighborhood(family: GraphFamily, vertex_set: Iterable[VertexId], k: int):
    """C_k(A): sorted tuple of vertices within distance k of the set A."""
    return tuple(sorted(bfs(family, vertex_set, k)))


def distance(family: GraphFamily, x: VertexId, y: VertexId,
             cutoff: int) -> Optional[int]:
    """Graph distance, or None once the search passes `cutoff`."""
    return bfs(family, [x], cutoff, targets=[y]).get(y)


def sigma(window: FiniteWindow):
    """Vertex ids with at least one ambient neighbor outside the window."""
    idx = window.sigma_indices()
    return tuple(window.vertices[i] for i in idx.tolist())


def family_edge(family: GraphFamily, tail: VertexId, head: VertexId) -> OrientedEdge:
    """Validate that (tail, head) is an edge of the family. Both ends are
    checked: off the tree's words the tree rule is not symmetric."""
    if head not in family.neighbors(tail) or tail not in family.neighbors(head):
        raise MissingEdgeError(f"({tail}, {head}) is not an edge of {family.name}")
    return OrientedEdge(tail, head)


def origin_edge(family: GraphFamily) -> OrientedEdge:
    """Deterministic default edge: origin to its largest neighbor (canonical)."""
    return OrientedEdge(family.origin, family.neighbors(family.origin)[-1])


# -- serialization ---------------------------------------------------------

def window_to_json(window: FiniteWindow) -> str:
    payload = {
        "vertices": [list(x) for x in window.vertices],
        "edges": [[int(a), int(b)] for a, b in
                  zip(window.edge_tails, window.edge_heads)],
        "full_degree": [int(d) for d in window.full_degree],
        "sigma": [int(i) for i in window.sigma_indices()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _int_list(value, what: str) -> list:
    # bool is an int subclass; int() would truncate a float or parse a string
    if not (isinstance(value, list) and set(map(type, value)) <= {int}):
        raise ValueError(f"{what} {value!r} is not a list of integers")
    return value


def _int_lists(value, kind=list) -> bool:
    """Whether `value` is a list of `kind`s of integers, by whole-list tests;
    `type(c) is int` rejects bools, which numpy takes as ints."""
    return (type(value) is list and set(map(type, value)) <= {kind}
            and set(map(type, chain.from_iterable(value))) <= {int})


def _lattice_points(family: GraphFamily, xs: list) -> bool:
    """Whether xs is a nonempty list of int tuples of the origin's length."""
    return _int_lists(xs, tuple) and set(map(len, xs)) == {len(family.origin)}


def window_from_json(text: str) -> FiniteWindow:
    # whole-list tests check the usual input; where one fails, the per-item
    # checks find and name the first bad item
    try:
        payload = json.loads(text)
        vertices = payload["vertices"]
        if not _int_lists(vertices):
            vertices = [_int_list(v, "vertex") for v in vertices]
        n = len(vertices)
        edges, pairs = payload["edges"], np.zeros(0, np.int64)
        try:
            if _int_lists(edges) and set(map(len, edges)) == {2}:
                pairs = np.fromiter(chain.from_iterable(edges), np.int64,
                                    2 * len(edges))
        except OverflowError:  # a coordinate past int64, named below
            pass
        if not (pairs.size and 0 <= pairs.min() and pairs.max() < n):
            for e in edges:
                if not (isinstance(e, list) and len(e) == 2
                        and all(type(c) is int and 0 <= c < n for c in e)):
                    raise ValueError(
                        f"edge {e!r} is not a pair of vertex indices")
        del edges, payload["edges"]  # `pairs` holds them
        tails, heads = pairs.reshape(-1, 2).T.copy()
        full_degree = np.array(_int_list(payload["full_degree"], "degrees"), np.int64)
        sigma_idx = set(_int_list(payload.get("sigma", []), "sigma"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidWindowError(f"malformed window JSON: {exc}") from exc
    w = FiniteWindow(map(tuple, vertices), tails, heads, full_degree)
    if set(w.sigma_indices().tolist()) != sigma_idx:
        raise InvalidWindowError("sigma indices disagree with degrees")
    return w
