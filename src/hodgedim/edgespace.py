"""Vertex functions, antisymmetric edge functions, and the discrete calculus.

Edge functions are antisymmetric (u(y,x) = -u(x,y)) and stored on canonical
edges only, so the half-weighted inner product over oriented edges reduces to
a plain sum over the canonical edge list:

    <u, w> = 1/2 sum_{oriented e} u(e) w(e) = sum_{canonical e} u(e) w(e).

The differential of a vertex function is dv(x,y) = v(y) - v(x); the
codifferential (d* u)(x) = sum_{y ~ x} u(y, x) is its adjoint. All window
functions use the zero-outside convention: a window function stands for its
extension by zero to the ambient graph.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from typing import Iterable

import numpy as np

from .errors import IncompatibleDomainError, InvalidWindowError, MissingEdgeError
from .families import VertexId, decode_vertex
from .windows import (FiniteWindow, OrientedEdge, adjacency_apply,
                      same_window)


def _as_values(window_size: int, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (window_size,):
        raise IncompatibleDomainError(
            f"expected {window_size} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise IncompatibleDomainError("values must be finite")
    return arr


class _WindowFunction:
    """Values on a window with the pointwise algebra. A subclass names its
    kind and its value count, `n_vertices` or `n_edges` of the window."""

    def __init__(self, window: FiniteWindow, values):
        self.window = window
        self.values = _as_values(getattr(window, self._count), values)

    def _check(self, other):
        if type(other) is not type(self):
            raise IncompatibleDomainError(
                f"{self._kind} function combined with {type(other).__name__}")
        if not same_window(self.window, other.window):
            raise IncompatibleDomainError(
                f"{self._kind} functions on different windows")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.window, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.window, self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.window, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.window, -self.values)


class VertexFunction(_WindowFunction):
    _kind, _count = "vertex", "n_vertices"

    def at(self, x: VertexId) -> float:
        return float(self.values[self.window.vertex_index(x)])


class EdgeFunction(_WindowFunction):
    _kind, _count = "edge", "n_edges"

    def at(self, e: OrientedEdge) -> float:
        """Value on an oriented edge; antisymmetric in the orientation."""
        k, sign = self.window.edge_lookup(e)
        return sign * float(self.values[k])


# -- calculus ---------------------------------------------------------------

def differential(v: VertexFunction) -> EdgeFunction:
    """dv(x,y) = v(y) - v(x) on the window's canonical edges."""
    w = v.window
    return EdgeFunction(w, v.values[w.edge_heads] - v.values[w.edge_tails])


def codifferential(u: EdgeFunction) -> VertexFunction:
    """(d* u)(x) = sum over neighbors y of u(y, x)."""
    w = u.window
    n = w.n_vertices
    into = np.bincount(w.edge_heads, weights=u.values, minlength=n)
    outof = np.bincount(w.edge_tails, weights=u.values, minlength=n)
    return VertexFunction(w, into - outof)


def inner(u: EdgeFunction, w: EdgeFunction) -> float:
    """Half-weighted inner product over oriented edges (see module docstring);
    as `vertex_inner`, the plain sum over vertices.

    Compensated: the nonzero pointwise products are summed with math.fsum,
    which rounds the exact sum once, so leaving out the exact zeros changes
    no bit.
    """
    u._check(w)
    products = u.values * w.values
    return math.fsum(products[products != 0].tolist())


vertex_inner = inner


def energy(v: VertexFunction) -> float:
    """Dirichlet energy <dv, dv> over the window's own edges."""
    dv = differential(v)
    return inner(dv, dv)


def edge_indicator(window: FiniteWindow, e: OrientedEdge) -> EdgeFunction:
    """chi_e: +1 on e, -1 on the reversal, 0 elsewhere. Unit norm."""
    k, sign = window.edge_lookup(e)
    values = np.zeros(window.n_edges)
    values[k] = sign
    return EdgeFunction(window, values)


def chi(window: FiniteWindow, vertex_subset: Iterable[VertexId]) -> np.ndarray:
    """0/1 edge mask: 1 exactly where both endpoints lie in the subset.

    Orientation-free by construction.
    """
    subset = set(vertex_subset)
    flags = np.array([x in subset for x in window.vertices], dtype=bool)
    return (flags[window.edge_tails] & flags[window.edge_heads]).astype(np.float64)


def mask_edges(u: EdgeFunction, mask: np.ndarray) -> EdgeFunction:
    if mask.shape != u.values.shape:
        raise IncompatibleDomainError("mask length does not match edge count")
    return EdgeFunction(u.window, u.values * mask)


# -- residual checks --------------------------------------------------------

def flow_residual(u: EdgeFunction, interior_only: bool = True) -> float:
    """max |d* u| over the checked vertices."""
    return _max_checked(u.window, np.abs(codifferential(u).values),
                        interior_only)


def is_flow(u: EdgeFunction, tol: float = 1e-10,
            interior_only: bool = True) -> bool:
    """True iff d* u vanishes (up to tol) at every checked vertex.

    With interior_only, boundary vertices are skipped: the window cannot see
    the ambient edges that would balance them.
    """
    return flow_residual(u, interior_only) <= tol


def harmonic_residual(v: VertexFunction, interior_only: bool = True) -> float:
    """max |v(x) - average of neighbor values| with the ambient degree as
    denominator (missing neighbors count as zero)."""
    w = v.window
    res = np.abs(v.values - adjacency_apply(w, v.values) / w.full_degree)
    return _max_checked(w, res, interior_only)


def _max_checked(w: FiniteWindow, res: np.ndarray, interior_only: bool) -> float:
    """max of `res` over the checked vertices (0.0 if there are none)."""
    if interior_only:
        res = res[~w.boundary]
        if res.size == 0:
            return 0.0
    return float(res.max())


def is_harmonic(v: VertexFunction, tol: float = 1e-10,
                interior_only: bool = True) -> bool:
    return harmonic_residual(v, interior_only) <= tol


# -- moving between windows ---------------------------------------------------

def transfer_edge_function(u: EdgeFunction, target: FiniteWindow) -> EdgeFunction:
    """Re-express u on a window that contains every edge u is supported on."""
    values = np.zeros(target.n_edges)
    src = u.window
    nz = np.nonzero(u.values)[0]
    for k in nz.tolist():
        e = OrientedEdge(src.vertices[src.edge_tails[k]],
                         src.vertices[src.edge_heads[k]])
        kk, sign = target.edge_lookup(e)
        values[kk] = sign * u.values[k]
    return EdgeFunction(target, values)


def support_vertices(u: EdgeFunction):
    """Sorted ids touched by a nonzero edge value."""
    w = u.window
    nz = np.nonzero(u.values)[0]
    ids = set()
    for k in nz.tolist():
        ids.add(w.vertices[w.edge_tails[k]])
        ids.add(w.vertices[w.edge_heads[k]])
    return tuple(sorted(ids))


# -- CSV --------------------------------------------------------------------

def edge_function_to_csv(u: EdgeFunction) -> str:
    w = u.window
    labels = w.labels
    lines = ["tail,head,value"]
    for a, b, val in zip(w.edge_tails.tolist(), w.edge_heads.tolist(),
                         u.values.tolist()):
        lines.append(f"\"{labels[a]}\",\"{labels[b]}\",{val!r}")
    return "\n".join(lines) + "\n"


def edge_function_from_csv(window: FiniteWindow,
                           lines: str | Iterable[str]) -> EdgeFunction:
    """Rows are (tail, head, value); omitted edges default to zero, and a row
    given head first stores the negated value on the canonical edge.

    `lines` is the CSV as one `str`, or as an iterable of its lines, such as
    a file opened in text mode, which is then read one line at a time and
    never held whole. One pass reads the rows into index and value buffers.
    A label spelled as in `window.labels` is found by dict lookup; any other
    spelling, such as "(0, 0)", is decoded and looked up. The edge checks
    then run on whole arrays. The first offending row in file order raises, with the error a
    row-by-row reader would give: a row's endpoints are checked before its
    value, and a later row repeating an edge in either orientation is the
    duplicate.
    """
    reader = csv.reader(io.StringIO(lines) if isinstance(lines, str)
                        else lines)
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header[:3]] != \
            ["tail", "head", "value"]:
        raise InvalidWindowError("edge CSV must start with tail,head,value")
    where = dict(zip(window.labels, range(window.n_vertices)))

    def locate(label: str) -> int:
        i = where.get(label)
        return window.index.get(decode_vertex(label), -1) if i is None else i

    tails, heads, values = array("q"), array("q"), array("d")
    stop = None  # the error that ended the pass early, if one did
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise InvalidWindowError(f"bad edge CSV row: {row}")
            i, j = where.get(row[0]), where.get(row[1])
            if i is None or j is None:
                i, j = locate(row[0]), locate(row[1])
            if i < 0 or j < 0:
                e = OrientedEdge(decode_vertex(row[0]), decode_vertex(row[1]))
                raise MissingEdgeError(
                    f"edge {e} has an endpoint outside the window")
            tails.append(i)
            heads.append(j)
            values.append(float(row[2]))
    except (csv.Error, InvalidWindowError, MissingEdgeError, ValueError) as exc:
        stop = exc
    t = np.frombuffer(tails, dtype=np.int64)
    h = np.frombuffer(heads, dtype=np.int64)
    edges = window.edge_tails * window.n_vertices + window.edge_heads
    key = np.minimum(t, h) * window.n_vertices + np.maximum(t, h)
    k = np.searchsorted(edges, key)
    k[k == window.n_edges] = 0
    found = edges[k] == key  # never for t == h: edges have t < h
    del edges
    # rows that name an edge, by edge position and in file order within one:
    # each row after the first at its position repeats an earlier row's edge
    by_edge = np.flatnonzero(found)[np.argsort(k[found], kind="stable")]
    bad = ~found
    bad[by_edge[1:][k[by_edge[1:]] == k[by_edge[:-1]]]] = True
    if bad.any():
        r = int(bad.argmax())
        e = OrientedEdge(window.vertices[t[r]], window.vertices[h[r]])
        if t[r] == h[r]:
            raise MissingEdgeError(f"degenerate edge {e}")
        if not found[r]:
            raise MissingEdgeError(f"{e} is not an edge of the window")
        raise MissingEdgeError(f"duplicate edge row for {e}")
    if stop is not None:
        raise stop
    v = np.frombuffer(values, dtype=np.float64)
    out = np.zeros(window.n_edges)
    out[k] = np.where(t < h, v, -v)
    return EdgeFunction(window, out)
