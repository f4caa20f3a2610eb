"""Built-in infinite graph families.

A family is an infinite, connected, bounded-degree graph given by a local
rule: a neighbor function on vertex ids plus a degree bound and a marked
origin. Vertex ids are tuples of ints throughout, ordered lexicographically
(shorter tuples compare as prefixes), which fixes a strict total order used
for canonical edge orientation everywhere else.

Families:
    lattice(d)    hypercubic lattice Z^d, degree 2d
    tree(d)       d-regular tree (d >= 3), vertices are reduced words
    ladder        Z x {0,1}, degree 3
    comb          Z^2 with all vertical edges but horizontal edges only on
                  the y = 0 spine, degree 4
    diag_lattice  Z^2 plus one fixed diagonal per unit square, degree 6

`family_from_window` additionally wraps a finite window as its own ambient
graph so the generic machinery can run on finite graphs with no exterior.

Each family object numbers the vertices its searches and windows meet in
one `IdGraph`, which caches their neighbour lists for as long as the
object lives, and reads its metric once, as one `Geometry`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import sub
from typing import Callable, Iterable, Tuple

import numpy as np

from .errors import InvalidFamilyError

VertexId = Tuple[int, ...]


# A family's metric as its searches and windows read it, None where not
# given: the steps x - origin to the origin's neighbours, r -> |ball(r)|
# about any vertex (for the vertex cap only: a tree's count stops growing
# at r = 64, past 2**64), and d(s, t) on `windows._metric`'s int64 rows.
Geometry = namedtuple("Geometry", "steps ball_size distance")


@dataclass(frozen=True)
class GraphFamily:
    """Local description of an infinite bounded-degree graph.

    neighbors(x) returns the sorted tuple of neighbors of x. Sortedness is
    part of the contract: deterministic iteration order makes every breadth
    first search in the package reproducible.

    translation_axes = k declares neighbors(x + v) == neighbors(x) + v for
    every integer v supported on the first k coordinates (0: none). Such a
    shift keeps the vertex order, so translated windows have equal arrays.
    With k == len(origin), the steps at the origin fix the whole graph.

    tree_degree = d declares that `neighbors` is the d-regular tree rule of
    `make_family("tree", d)` (0: it is not). Window building then skips
    `neighbors` and works on integer keys that sort like the words (see
    `windows._tree_window`).
    Both fields are plain data, which `dataclasses.replace` carries over.

    `graph` (the `IdGraph` that the object's searches and windows about
    tuples of ints share, see `windows._graph`) and `geometry` are built on
    first use, not fields. The geometry comes from `tree_degree` and the
    steps that `neighbors` gives at the origin, not from the rule object or
    the name: a wrapped `neighbors` (a call counter, say) keeps the kernels
    and the closed forms. The frozen object refuses to assign either, and
    `dataclasses.replace` gives a new object that builds both anew.
    """

    name: str
    origin: VertexId
    degree_bound: int
    neighbors: Callable[[VertexId], Tuple[VertexId, ...]] = field(repr=False)
    translation_axes: int = 0
    tree_degree: int = 0

    @cached_property
    def graph(self) -> "IdGraph":
        return IdGraph(self)

    @cached_property
    def geometry(self) -> Geometry:
        d, k = self.tree_degree, len(self.origin)
        if d:
            return Geometry(None, lambda r: _tree_ball_bound(d, min(r, 64)),
                            _tree_distance)
        if not 0 < self.translation_axes == k:
            return Geometry(None, None, None)
        graph = self.graph
        o, = graph.ids([self.origin])
        steps = tuple(tuple(map(sub, graph.vertices[i], self.origin))
                      for i in graph.adjacent[o] or graph.fetch(o))
        units = {tuple(s * (i == j) for j in range(k))
                 for i in range(k) for s in (1, -1)}
        if set(steps) == units | {(1, 1), (-1, -1)}:  # the triangular lattice
            return Geometry(steps, lambda r: 3 * r * (r + 1) + 1,
                            partial(_lattice_distance, True))
        if set(steps) == units:  # z^k
            return Geometry(steps, lambda r: sum(
                2 ** j * math.comb(k, j) * math.comb(r, j)
                for j in range(k + 1)), partial(_lattice_distance, False))
        return Geometry(steps, None, None)


class IdGraph:
    """A family's vertices numbered 0, 1, ... in the order first met, with
    the neighbour ids of each vertex fetched on first use: `family.neighbors`
    runs at most once per vertex for the life of the graph, however many
    searches share it.

    Attributes:
        index      vertex -> id
        vertices   id -> vertex
        adjacent   id -> tuple of neighbour ids, None until fetched
    """

    __slots__ = ("neighbors", "index", "vertices", "adjacent")

    def __init__(self, family: GraphFamily):
        self.neighbors = family.neighbors
        self.index = {}
        self.vertices = []
        self.adjacent = []

    def ids(self, xs: Iterable[VertexId]) -> list:
        """The id of each of `xs`, numbering the vertices not met before."""
        index, vertices, out = self.index, self.vertices, []
        for x in xs:
            i = index.get(x)
            if i is None:
                i = index[x] = len(vertices)
                vertices.append(x)
                self.adjacent.append(None)
            out.append(i)
        return out

    def fetch(self, i: int) -> tuple:
        """Fetch and number the neighbours of the vertex with id i."""
        # a tuple of ints, unlike a list, drops out of the cyclic garbage
        # collector's scans, which on balls of 10^5 vertices cost a tenth of
        # the build
        nb = tuple(self.ids(self.neighbors(self.vertices[i])))
        self.adjacent[i] = nb
        return nb


def _lattice_distance(diagonal: bool, s: np.ndarray, t: np.ndarray):
    size = np.abs(t - s)
    # a step along +-(1, 1) moves both coordinates when they move the same way
    same = diagonal and (t[..., 0] >= s[..., 0]) == (t[..., 1] >= s[..., 1])
    return size.sum(-1) - same * size.min(-1)


def _tree_distance(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    # |x| + |y| - 2 |common prefix|; the pads, -1 and -2, never match
    common = np.logical_and.accumulate(s == t, axis=-1).sum(-1)
    return (s >= 0).sum(-1) + (t >= 0).sum(-1) - 2 * common


def _tree_ball_bound(degree_bound: int, r: int) -> int:
    """Vertex count of a radius-r ball in the degree-D tree: an upper bound
    for any graph with degree bound D."""
    if r <= 0:
        return 1
    if degree_bound <= 1:
        return 2
    if degree_bound == 2:
        return 2 * r + 1
    q = degree_bound - 1
    return 1 + degree_bound * (q ** r - 1) // (q - 1)


def _lattice_neighbors(d: int):
    def nbrs(x: VertexId) -> Tuple[VertexId, ...]:
        out = []
        for i in range(d):
            for step in (-1, 1):
                y = list(x)
                y[i] += step
                out.append(tuple(y))
        return tuple(sorted(out))

    return nbrs


def _tree_neighbors(d: int):
    # Vertices are reduced words: the root is (), the root's children carry a
    # first letter in range(d), every later letter is in range(d-1). Each
    # non-root vertex has one parent and d-1 children, so degrees are d
    # everywhere.
    def nbrs(x: VertexId) -> Tuple[VertexId, ...]:
        if len(x) == 0:
            out = [(i,) for i in range(d)]
        else:
            out = [x[:-1]] + [x + (i,) for i in range(d - 1)]
        return tuple(sorted(out))

    return nbrs


def _ladder_neighbors(x: VertexId) -> Tuple[VertexId, ...]:
    a, b = x
    return tuple(sorted([(a - 1, b), (a + 1, b), (a, 1 - b)]))


def _comb_neighbors(x: VertexId) -> Tuple[VertexId, ...]:
    a, b = x
    out = [(a, b - 1), (a, b + 1)]
    if b == 0:
        out += [(a - 1, 0), (a + 1, 0)]
    return tuple(sorted(out))


def _diag_neighbors(x: VertexId) -> Tuple[VertexId, ...]:
    a, b = x
    out = [(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1),
           (a + 1, b + 1), (a - 1, b - 1)]
    return tuple(sorted(out))


def make_family(name: str, d: int | None = None) -> GraphFamily:
    """Build a family from its name.

    Accepts both parameterized names ("lattice" / "tree" with d) and the
    compact spellings used by the CLI ("z2", "tree3"). The stored name is
    always the compact one so reports and CSV output are uniform. A compact
    name fixes d; a `d` that disagrees raises InvalidFamilyError.
    """
    name = compact = name.strip().lower()
    fixed = d
    if name.startswith("z") and name[1:].isdigit():
        name, fixed = "lattice", int(name[1:])
    elif name.startswith("tree") and name[4:].isdigit():
        name, fixed = "tree", int(name[4:])
    if d is not None and d != fixed:
        raise InvalidFamilyError(
            f"family {compact!r} has d = {fixed}, not {d}")
    d = fixed

    if name == "lattice":
        if d is None or d < 1:
            raise InvalidFamilyError("lattice needs a dimension d >= 1")
        return GraphFamily(name=f"z{d}", origin=(0,) * d, degree_bound=2 * d,
                           neighbors=_lattice_neighbors(d), translation_axes=d)
    if name == "tree":
        if d is None or d < 3:
            raise InvalidFamilyError("tree needs a branching degree d >= 3")
        return GraphFamily(name=f"tree{d}", origin=(), degree_bound=d,
                           neighbors=_tree_neighbors(d), tree_degree=d)
    if d is not None:
        raise InvalidFamilyError(f"family {name!r} takes no degree parameter")
    if name == "ladder":
        return GraphFamily(name="ladder", origin=(0, 0), degree_bound=3,
                           neighbors=_ladder_neighbors, translation_axes=1)
    if name == "comb":
        return GraphFamily(name="comb", origin=(0, 0), degree_bound=4,
                           neighbors=_comb_neighbors, translation_axes=1)
    if name in ("diag_lattice", "diag"):
        return GraphFamily(name="diag_lattice", origin=(0, 0), degree_bound=6,
                           neighbors=_diag_neighbors, translation_axes=2)
    raise InvalidFamilyError(f"unknown family {name!r}")


BUILTIN_FAMILY_NAMES = ("z1", "z2", "z3", "tree3", "tree4", "ladder", "comb",
                        "diag_lattice")


def family_from_window(window) -> GraphFamily:
    """Treat a finite window as its own ambient graph.

    The wrapped family is finite (balls saturate at the component), which
    breaks the infinite-by-contract convention on purpose: it is the standard
    trick for cross-checking the estimators against dense linear algebra on a
    graph with no exterior.
    """
    adj = {}
    verts = window.vertices
    for i, j in zip(window.edge_tails.tolist(), window.edge_heads.tolist()):
        adj.setdefault(verts[i], []).append(verts[j])
        adj.setdefault(verts[j], []).append(verts[i])
    table = {x: tuple(sorted(ys)) for x, ys in adj.items()}

    def nbrs(x: VertexId) -> Tuple[VertexId, ...]:
        return table.get(x, ())

    degree_bound = max(len(v) for v in table.values())
    return GraphFamily(name="window", origin=verts[0],
                       degree_bound=degree_bound, neighbors=nbrs)


def encode_vertex(x: VertexId) -> str:
    """Compact string form used in CSV cells, e.g. (0,1) -> '(0,1)'."""
    return "(" + ",".join(map(str, x)) + ")"


def decode_vertex(s: str) -> VertexId:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    return tuple(int(c) for c in s.split(","))
