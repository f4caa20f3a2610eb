"""Finite windows cut out of infinite families.

A FiniteWindow is a finite induced subgraph together with the ambient degree
of each vertex, which is all the later stages ever need to know about the
exterior. Canonical edge orientation is (min, max) in the vertex order;
since window vertices are stored sorted, canonical edges are exactly the
index pairs (i, j) with i < j, and the edge list is lexicographically sorted
by construction.

Construction is matrix-free friendly: edges live in two parallel numpy index
arrays, not an adjacency matrix.

This module also holds the package's graph searches: `bfs` for distance
tables and neighborhoods, and the window walk behind `ball` and
`induced_window`.
"""

from __future__ import annotations

import json
from array import array
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import (InvalidWindowError, MissingEdgeError, SizeLimitError)
from .families import GraphFamily, VertexId

DEFAULT_SIZE_CAP = 2_000_000


class OrientedEdge(NamedTuple):
    tail: VertexId
    head: VertexId

    def reversed(self) -> "OrientedEdge":
        return OrientedEdge(self.head, self.tail)

    def canonical(self) -> "OrientedEdge":
        return self if self.tail < self.head else self.reversed()


class FiniteWindow:
    """Sorted vertex list, canonical edge arrays, ambient degrees.

    Attributes:
        vertices      tuple of vertex ids, sorted
        edge_tails    int array, tail index of each canonical edge
        edge_heads    int array, head index (always > tail index)
        full_degree   int array, ambient degree per vertex
        boundary      bool array, True where some ambient neighbor is outside
    """

    def __init__(self, vertices, edge_tails, edge_heads, full_degree,
                 check: bool = True):
        self.vertices = tuple(vertices)
        self.edge_tails = np.asarray(edge_tails, dtype=np.int64)
        self.edge_heads = np.asarray(edge_heads, dtype=np.int64)
        self.full_degree = np.asarray(full_degree, dtype=np.int64)
        n = len(self.vertices)
        if n == 0:
            raise InvalidWindowError("window has no vertices")
        if self.edge_tails.size == 0:
            raise InvalidWindowError("window has no edges")
        if self.full_degree.shape != (n,):
            raise InvalidWindowError("full_degree has wrong length")
        deg = np.zeros(n, dtype=np.int64)
        np.add.at(deg, self.edge_tails, 1)
        np.add.at(deg, self.edge_heads, 1)
        self.internal_degree = deg
        self.boundary = self.internal_degree < self.full_degree
        self._index = None
        self._edge_key = None
        if check:
            self._validate()

    # -- basic views -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return int(self.edge_tails.size)

    @property
    def intra_edges(self):
        """Edges as a list of (i, j) index pairs, i < j. Materialized on
        demand; large windows should use edge_tails/edge_heads directly."""
        return list(zip(self.edge_tails.tolist(), self.edge_heads.tolist()))

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.vertices)}
        return self._index

    def vertex_index(self, x: VertexId) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise InvalidWindowError(f"vertex {x} not in window") from None

    def sigma_indices(self) -> np.ndarray:
        return np.nonzero(self.boundary)[0]

    def edge_lookup(self, e: OrientedEdge):
        """Return (edge position, sign) for an oriented edge of the window.

        sign is +1 when e is canonically oriented, -1 otherwise.
        """
        i = self.index.get(e.tail)
        j = self.index.get(e.head)
        if i is None or j is None:
            raise MissingEdgeError(f"edge {e} has an endpoint outside the window")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        elif i == j:
            raise MissingEdgeError(f"degenerate edge {e}")
        if self._edge_key is None:
            self._edge_key = self.edge_tails * self.n_vertices + self.edge_heads
        key = i * self.n_vertices + j
        k = int(np.searchsorted(self._edge_key, key))
        if k >= self.n_edges or self._edge_key[k] != key:
            raise MissingEdgeError(f"{e} is not an edge of the window")
        return k, sign

    def has_vertex(self, x: VertexId) -> bool:
        return x in self.index

    # -- consistency -------------------------------------------------------

    def _validate(self):
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
        if np.any(self.internal_degree > self.full_degree):
            raise InvalidWindowError("internal degree exceeds ambient degree")
        if not self._connected():
            raise InvalidWindowError("window is not connected")

    def _connected(self) -> bool:
        n = self.n_vertices
        nbr_heads = [[] for _ in range(n)]
        for a, b in zip(self.edge_tails.tolist(), self.edge_heads.tolist()):
            nbr_heads[a].append(b)
            nbr_heads[b].append(a)
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            a = stack.pop()
            for b in nbr_heads[a]:
                if not seen[b]:
                    seen[b] = True
                    count += 1
                    stack.append(b)
        return count == n


def same_window(a: FiniteWindow, b: FiniteWindow) -> bool:
    return a is b or a.vertices == b.vertices


def adjacency_apply(window: FiniteWindow, x: np.ndarray) -> np.ndarray:
    """A x for the window's adjacency matrix A, from its edge arrays."""
    n = window.n_vertices
    t, h = window.edge_tails, window.edge_heads
    return (np.bincount(t, weights=x[h], minlength=n)
            + np.bincount(h, weights=x[t], minlength=n))


def bfs(family: GraphFamily, sources: Iterable[VertexId], depth: int,
        size_cap: int = DEFAULT_SIZE_CAP,
        targets: Optional[Iterable[VertexId]] = None) -> dict:
    """Graph distance from the source set to every vertex within `depth`.

    With `targets`, stop after the first complete layer containing the last
    of them; layers are never cut short, so every vertex at distance <= the
    largest returned distance is present.
    """
    if depth < 0:
        raise InvalidWindowError("radius must be >= 0")
    dist = dict.fromkeys(sources, 0)
    if len(dist) > size_cap:
        raise SizeLimitError(f"window would exceed {size_cap} vertices")
    todo = None if targets is None else set(targets).difference(dist)
    neighbors = family.neighbors
    frontier = list(dist)
    for d in range(1, depth + 1):
        if not frontier or (todo is not None and not todo):
            break
        nxt = []
        for x in frontier:
            for y in neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
            if len(dist) > size_cap:
                raise SizeLimitError(
                    f"window would exceed {size_cap} vertices")
        if todo is not None:
            todo.difference_update(nxt)
        frontier = nxt
    return dist


def _grow_window(family: GraphFamily, sources: Iterable[VertexId], radius: int,
                 size_cap: int, check: bool) -> FiniteWindow:
    """Window on all vertices within `radius` of the sources.

    One breadth-first walk fetches every window vertex's neighbors exactly
    once, the outer layer included (it supplies the ambient degrees and the
    edges inside that layer, but adds no vertex). Each edge is written once,
    from its later-discovered endpoint, as a pair of discovery indices; numpy
    then renumbers both ends into sorted vertex order.
    """
    if radius < 0:
        raise InvalidWindowError("radius must be >= 0")
    index = {}
    for x in sources:
        index.setdefault(x, len(index))
    order = list(index)
    degree, near, far = array("q"), array("q"), array("q")
    neighbors = family.neighbors
    start = 0
    for depth in range(radius + 1):
        stop = len(order)
        if start == stop:  # a finite family ran out of vertices
            break
        grow = depth < radius
        for p in range(start, stop):
            nb = neighbors(order[p])
            degree.append(len(nb))
            for y in nb:
                q = index.get(y)
                if q is None:
                    if grow:
                        index[y] = len(order)
                        order.append(y)
                elif q < p:
                    near.append(q)
                    far.append(p)
            if len(order) > size_cap:
                raise SizeLimitError(
                    f"window would exceed {size_cap} vertices")
        start = stop
    n = len(order)
    order.sort()
    # discovery index of each vertex, in sorted order
    found = np.fromiter(map(index.__getitem__, order), np.int64, n)
    index.update(zip(order, range(n)))
    rank = np.empty(n, dtype=np.int64)
    rank[found] = np.arange(n)
    a = rank[np.frombuffer(near, dtype=np.int64)]
    b = rank[np.frombuffer(far, dtype=np.int64)]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    # free each temporary once used: on balls of 10^5 vertices and more they
    # set the peak memory of a run
    del a, b, rank
    key.sort()
    tails, heads = np.divmod(key, n)
    del key
    w = FiniteWindow(order, tails, heads,
                     np.frombuffer(degree, dtype=np.int64)[found], check=check)
    w._index = index
    return w


def induced_window(family: GraphFamily, vertices: Iterable[VertexId]) -> FiniteWindow:
    """Induced subgraph on a vertex set; must come out connected with >= 1
    edge."""
    vertices = list(vertices)
    if not vertices:
        raise InvalidWindowError("empty vertex set")
    return _grow_window(family, vertices, 0, len(vertices), check=True)


def ball(family: GraphFamily, center, radius: int,
         size_cap: int = DEFAULT_SIZE_CAP) -> FiniteWindow:
    """Window on all vertices within `radius` of `center`.

    `center` may be a single vertex id or an iterable of them (a ball around
    an edge is the ball around its endpoint pair). Balls are connected by
    construction, so the connectivity recheck is skipped on the hot path.
    """
    if isinstance(center, tuple) and all(isinstance(c, int) for c in center):
        sources = [center]
    else:
        sources = list(center)
    return _grow_window(family, sources, radius, size_cap, check=False)


def neighborhood(family: GraphFamily, vertex_set: Iterable[VertexId],
                 k: int, size_cap: int = DEFAULT_SIZE_CAP):
    """C_k(A): sorted tuple of vertices within distance k of the set A."""
    return tuple(sorted(bfs(family, vertex_set, k, size_cap)))


def distance(family: GraphFamily, x: VertexId, y: VertexId,
             cutoff: int) -> Optional[int]:
    """Graph distance, or None once the search passes `cutoff`."""
    return bfs(family, [x], cutoff, targets=[y]).get(y)


def sigma(window: FiniteWindow):
    """Vertex ids with at least one ambient neighbor outside the window."""
    idx = window.sigma_indices()
    return tuple(window.vertices[i] for i in idx.tolist())


def family_edge(family: GraphFamily, tail: VertexId, head: VertexId) -> OrientedEdge:
    """Validate that (tail, head) is an edge of the family."""
    if head not in family.neighbors(tail):
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
    if not (isinstance(value, list) and all(type(c) is int for c in value)):
        raise ValueError(f"{what} {value!r} is not a list of integers")
    return value


def window_from_json(text: str) -> FiniteWindow:
    try:
        payload = json.loads(text)
        vertices = [tuple(_int_list(v, "vertex")) for v in payload["vertices"]]
        n = len(vertices)
        edges = payload["edges"]
        for e in edges:
            # checked inline: this loop is the hot part of loading a window
            if not (isinstance(e, list) and len(e) == 2
                    and all(type(c) is int and 0 <= c < n for c in e)):
                raise ValueError(f"edge {e!r} is not a pair of vertex indices")
        tails = np.array([e[0] for e in edges], dtype=np.int64)
        heads = np.array([e[1] for e in edges], dtype=np.int64)
        full_degree = np.array(_int_list(payload["full_degree"], "degrees"), np.int64)
        sigma_idx = set(_int_list(payload.get("sigma", []), "sigma"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidWindowError(f"malformed window JSON: {exc}") from exc
    w = FiniteWindow(vertices, tails, heads, full_degree)
    if set(w.sigma_indices().tolist()) != sigma_idx:
        raise InvalidWindowError("sigma indices disagree with degrees")
    return w
