from __future__ import annotations

import dataclasses
import json
import re
from array import array
from bisect import bisect_left
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hodgedim import (BUILTIN_FAMILY_NAMES, FiniteWindow, InvalidWindowError,
                      LaplacianMode, MissingEdgeError, OrientedEdge,
                      SizeLimitError, VertexFunction, ball, distance,
                      edge_ball, edge_indicator, encode_vertex, family_edge,
                      family_from_window, folner_profile, induced_window,
                      make_family, neighborhood, origin_edge, project_star,
                      same_window, sigma, transfer_edge_function,
                      window_from_json, window_to_json)
from hodgedim import families, windows
from hodgedim.families import IdGraph
from hodgedim.quasi import lex_min_path
from conftest import random_window


def test_z1_ball_counts(z1):
    for r in range(1, 6):
        w = ball(z1, (0,), r)
        assert w.n_vertices == 2 * r + 1
        assert w.n_edges == 2 * r
        assert sorted(sigma(w)) == [(-r,), (r,)]


def test_z2_ball_counts(z2):
    # L1 ball: 2r^2 + 2r + 1 vertices, 4r^2 edges, sphere of size 4r
    for r in range(1, 5):
        w = ball(z2, (0, 0), r)
        assert w.n_vertices == 2 * r * r + 2 * r + 1
        assert w.n_edges == 4 * r * r
        assert len(sigma(w)) == 4 * r


def test_tree3_ball_counts(tree3):
    for r in range(1, 8):
        w = ball(tree3, (), r)
        assert w.n_vertices == 1 + 3 * (2 ** r - 1)
        # a tree: edges = vertices - 1
        assert w.n_edges == w.n_vertices - 1
        assert len(sigma(w)) == 3 * 2 ** (r - 1)


def test_edgeless_window_rejected(z2):
    # a single vertex has an empty edge space; windows refuse to degenerate
    with pytest.raises(InvalidWindowError):
        ball(z2, (0, 0), 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda z2: FiniteWindow([], [0], [1], []), InvalidWindowError,
     "window has no vertices"),
    (lambda z2: windows.bfs(z2, [(0, 0)], -1), InvalidWindowError,
     "radius must be >= 0"),
    (lambda z2: induced_window(z2, []), InvalidWindowError,
     "empty vertex set"),
    (lambda z2: ball(z2, (0, 0), 1).edge_lookup(
        OrientedEdge((0, 0), (0, 0))), MissingEdgeError,
     "degenerate edge OrientedEdge(tail=(0, 0), head=(0, 0))"),
], ids=["no vertices", "bfs radius -1", "empty induced set",
        "degenerate edge"])
def test_degenerate_arguments_raise(z2, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(z2)


@pytest.mark.parametrize("tails, heads, degrees, message", [
    ([0], [5], [1, 1], "edges must be canonical index pairs i < j"),
    ([0], [2], [1, 1], "edges must be canonical index pairs i < j"),
    ([-1], [1], [1, 1], "edges must be canonical index pairs i < j"),
    ([True], [1], [1, 1], "edges must be canonical index pairs i < j"),
    ([0.5], [1], [1, 1], "edge indices and degrees must be integers"),
    ([0], [1.5], [1, 1], "edge indices and degrees must be integers"),
    ([0], [1], [1.5, 1], "edge indices and degrees must be integers"),
    ([False], [True], [1, 1], "edge indices and degrees must be integers"),
    ([], [], [1, 1], "window has no edges"),
    ([2**70], [1], [1, 1], "edge index or degree past int64"),
    ([0], [2**70], [1, 1], "edge index or degree past int64"),
    ([0], [-2**70], [1, 1], "edge index or degree past int64"),
    ([0], [1], [1, 2**70], "edge index or degree past int64"),
    ([0], [1, 1], [1, 1], "edge arrays disagree in length"),
], ids=["head past n", "head at n", "negative tail", "bool tail",
        "float tail", "float head", "float degree", "bool edge", "no edges",
        "tail past int64", "head past int64", "head below int64",
        "degree past int64", "edge arrays disagree"])
def test_window_checks_its_arrays_before_counting_degrees(tails, heads,
                                                          degrees, message):
    # the degree count indexes by the edges, and the int64 arrays would
    # truncate floats: both checks run first
    with pytest.raises(InvalidWindowError, match=re.escape(message)):
        FiniteWindow([(0,), (1,)], tails, heads, degrees)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("tails, degrees", [
    ([0], np.array([2 ** 63, 1], dtype=np.uint64)),
    ([0], [2 ** 63, 1]),  # numpy reads the list as float64
    (np.array([2 ** 64 - 1], dtype=np.uint64), [1, 1]),
    ([0], [1.0, -2.0 ** 64]),
], ids=["uint64 degree", "float degree", "uint64 tail", "float below int64"])
def test_uint64_and_float_past_int64_raise(tails, degrees, check):
    # such arrays cast to int64 with no error: 2**63 would read as -2**63
    with pytest.raises(InvalidWindowError,
                       match="edge index or degree past int64"):
        FiniteWindow([(0,), (1,)], tails, [1], degrees, check=check)


def _arrays_or_error(build, *args):
    """A window's arrays, or the InvalidWindowError it raised."""
    try:
        w = build(*args)
    except InvalidWindowError as exc:
        return str(exc)
    return (w.vertices, w.edge_tails.tolist(), w.edge_heads.tolist(),
            w.full_degree.tolist())


def test_ball_around_vertex_set_matches_neighborhood():
    # ball grows its window at radius r; induced_window takes the bfs
    # neighborhood at radius 0: both paths must give the same arrays, or
    # both raise (at r=1 the two balls around z2's and comb's seeds do not
    # touch)
    for name, seeds in [("z2", [(0, 0), (3, 1)]), ("tree3", [(), (0, 1, 1)]),
                        ("comb", [(0, 0), (2, 3)]),
                        ("diag_lattice", [(0, 0), (3, 1)])]:
        fam = make_family(name)
        for r in (1, 2, 3, 4):
            a = _arrays_or_error(ball, fam, seeds, r)
            b = _arrays_or_error(induced_window, fam,
                                 neighborhood(fam, seeds, r))
            assert a == b
            if r == 1 and name in ("z2", "comb"):
                assert a == "window is not connected"


def _counted(fam):
    calls = []

    def neighbors(x):
        calls.append(x)
        return fam.neighbors(x)
    return dataclasses.replace(fam, neighbors=neighbors), calls


def _tuple_walk(fam):
    """The family without its tree and translation declarations: windows
    take the id search, not an array kernel."""
    return dataclasses.replace(fam, tree_degree=0, translation_axes=0)


def _family(name):
    """A built-in family by name. "traced <name>" wraps its rule in a call
    counter, as a tracer does, and "z2 on one axis" declares z2 translated
    on its first coordinate only, which is true but not all of the truth."""
    if name.startswith("traced "):
        return _counted(make_family(name[len("traced "):]))[0]
    if name == "z2 on one axis":
        return dataclasses.replace(make_family("z2"), translation_axes=1)
    return make_family(name)


@pytest.mark.parametrize("name, r", [("z2", 6), ("tree3", 8), ("comb", 5)])
def test_one_neighbor_call_per_window_vertex(name, r):
    base = _tuple_walk(make_family(name))
    e = origin_edge(base)
    fam, calls = _counted(base)
    w = ball(fam, fam.origin, r)
    assert len(calls) == w.n_vertices
    assert sorted(calls) == list(w.vertices)

    # later windows on the same family object fetch only the lists that
    # earlier ones did not
    fetched = set(calls)
    for build in (lambda: edge_ball(fam, e, r), lambda: ball(fam, e, r + 1),
                  lambda: ball(fam, fam.origin, r)):
        calls.clear()
        w = build()
        assert sorted(calls) == sorted(set(w.vertices) - fetched)
        fetched.update(calls)
    assert calls == []


@pytest.mark.parametrize("name", ["tree3", "tree4"])
def test_tree_windows_call_no_neighbors(name):
    base = make_family(name)
    e = origin_edge(base)
    fam, calls = _counted(base)
    assert ball(fam, fam.origin, 8).n_vertices > 700
    assert edge_ball(fam, e, 8).n_vertices > 1000
    assert induced_window(fam, [(), (0,), (0, 1), (1,)]).n_edges == 3
    assert calls == []


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "diag_lattice"])
def test_translation_windows_call_neighbors_once(name):
    base = make_family(name)
    e = origin_edge(base)
    fam, calls = _counted(base)
    fetched = set()
    for build in (lambda: ball(fam, fam.origin, 8),
                  lambda: edge_ball(fam, e, 8),
                  lambda: induced_window(fam, [fam.origin, e.head])):
        calls.clear()
        w = build()
        if name == "z1":
            # a path keeps the id search: a call per window vertex whose
            # list no earlier window on the family object fetched
            assert sorted(calls) == sorted(set(w.vertices) - fetched)
        else:  # the kernel reads the origin's steps, once per object
            assert calls == ([] if fetched else [fam.origin])
        fetched.update(calls)
    assert len(fetched) == (18 if name == "z1" else 1)


@pytest.mark.parametrize("name", ["z2", "diag_lattice", "tree3", "comb"])
def test_geometry_is_derived_once_per_object(monkeypatch, name):
    made = []
    geometry = families.Geometry
    monkeypatch.setattr(families, "Geometry",
                        lambda *fields: made.append(1) or geometry(*fields))
    fam = make_family(name)
    verts = neighborhood(fam, [fam.origin], 2)
    for r in range(1, 6):
        ball(fam, fam.origin, r)
        edge_ball(fam, origin_edge(fam), r)
        windows.distance_rows(fam, verts, verts[::-1], r)
    assert len(made) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.geometry = None
    # a copy derives its own, through its own graph
    copy = dataclasses.replace(fam)
    assert copy.geometry.steps == fam.geometry.steps
    assert len(made) == 2


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "diag_lattice", "tree3",
                                  "tree4"])
def test_traced_rules_fail_oversized_balls_before_building(name):
    # the closed-form count survives the wrapped rule: the ball fails on it
    # after at most the origin's list, not after two million vertices
    fam, calls = _counted(make_family(name))
    with pytest.raises(SizeLimitError):
        ball(fam, fam.origin, 10 ** 7)
    assert calls == ([] if fam.tree_degree else [fam.origin])


@pytest.mark.parametrize("name", ["comb", "z2 on one axis"])
def test_undeclared_geometries_search(monkeypatch, name):
    # the comb's steps at the origin are z2's, and z2 declared on one axis
    # is a valid family: neither says that its steps fix the graph, so
    # neither gets the closed forms or the lattice kernel
    fam = _family(name)
    assert fam.geometry == (None, None, None)
    searches = []
    search = windows._search
    monkeypatch.setattr(windows, "_search",
                        lambda *args: searches.append(1) or search(*args))
    verts = neighborhood(fam, [fam.origin], 2)
    searches.clear()
    rows = windows.distance_rows(fam, verts, verts, 4)
    assert len(searches) == len(verts)
    assert (rows == _per_row_distance_rows(fam, verts, verts, 4)).all()
    for r in range(1, 6):
        assert windows._lattice_window(fam, [fam.origin], r) is None
        got = _outcome(ball, fam, fam.origin, r)
        assert got == _outcome(_tuple_window, fam, [fam.origin], r)
        if name == "z2 on one axis":  # the same balls as z2's kernel
            assert got == _outcome(ball, make_family("z2"), fam.origin, r)


@pytest.mark.parametrize("name, radius, size", [
    ("z1", 60, 121), ("comb", 12, 313), ("ladder", 40, 160)])
def test_folner_fetches_each_list_once(name, radius, size):
    # balls about one centre at radii 1..R on one family object fetch
    # each vertex's list once: |ball(R)| calls in all
    fam, calls = _counted(make_family(name))
    rows = folner_profile(fam, fam.origin, range(1, radius + 1))
    assert rows[-1].n_vertices == size
    assert len(calls) == len(set(calls)) == size


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_tree_kernel_matches_tuple_walk(data):
    d = data.draw(st.sampled_from([3, 4, 5]))
    fam = make_family("tree", d)
    # a random walk from a random word, some of them deep
    x = tuple(data.draw(st.integers(0, d - 1 if i == 0 else d - 2))
              for i in range(data.draw(st.integers(0, 15))))
    seen = [x]
    for step in data.draw(st.lists(st.integers(0, d - 1), max_size=10)):
        x = fam.neighbors(x)[step]
        seen.append(x)
    sources = list(dict.fromkeys(seen))
    r = data.draw(st.integers(0, 6))
    assert (_arrays_or_error(ball, fam, sources, r)
            == _arrays_or_error(ball, _tuple_walk(fam), sources, r))
    assert (_arrays_or_error(induced_window, fam, sources)
            == _arrays_or_error(induced_window, _tuple_walk(fam), sources))


@pytest.mark.parametrize("d, longest", [(3, 31), (4, 27)])
def test_tree_keys_never_wrap(d, longest):
    # keys hold `longest` letters in int64; one more falls back to the walk
    fam, calls = _counted(make_family("tree", d))
    deep = (1,) + (0,) * (longest - 3)
    for r, walked in ((2, False), (3, True)):
        calls.clear()
        got = _arrays_or_error(ball, fam, deep, r)
        assert bool(calls) == walked
        assert got == _arrays_or_error(ball, _tuple_walk(fam), deep, r)
    with pytest.raises(SizeLimitError):
        ball(make_family("tree3"), (), 25)


def test_one_neighbor_call_per_induced_vertex(z2):
    fam, calls = _counted(_tuple_walk(z2))
    w = induced_window(fam, [(i, j) for i in range(5) for j in range(4)])
    assert len(calls) == w.n_vertices == 20


def test_vertices_sorted_and_edges_canonical(z2):
    w = ball(z2, (1, -2), 3)
    assert list(w.vertices) == sorted(w.vertices)
    assert np.all(w.edge_tails < w.edge_heads)
    keys = w.edge_tails * w.n_vertices + w.edge_heads
    assert np.all(np.diff(keys) > 0)


def test_degrees(z2):
    w = ball(z2, (0, 0), 2)
    assert np.all(w.full_degree == 4)
    i = w.vertex_index((0, 0))
    assert w.internal_degree[i] == 4
    j = w.vertex_index((2, 0))
    assert w.internal_degree[j] == 1
    assert w.boundary[j] and not w.boundary[i]


def _table_windows():
    """Balls of every built-in family, a tree3 ball that misses the root, an
    Eden-grown z2 window, and a window 0-1, 0-3, 2-3, 2-4, 3-5, 4-5 whose
    vertex 1 has no neighbour above it and vertex 2 none below it (the path
    0-1, 0-3, 2-3 has them too, but its tables would hold 4 n cells, past
    2 m + 2 n)."""
    for name in BUILTIN_FAMILY_NAMES:
        fam = make_family(name)
        yield name, ball(fam, fam.origin, 5)
    yield "tree3 off root", ball(make_family("tree3"), (0, 1, 1, 1, 1, 1), 5)
    rng = np.random.default_rng(3)
    yield "eden", random_window(make_family("z2"), rng, 3000)
    yield "gaps", FiniteWindow([(i,) for i in range(6)], [0, 0, 2, 2, 3, 4],
                               [1, 3, 3, 4, 5, 5], [3] * 6)


def test_table_apply_is_the_bincount_apply():
    """`table_apply` gives `adjacency_apply`'s bits on x with -0.0 entries,
    on x of -0.0 alone, and on x of mixed signed zeros. The balls about the
    tree and comb roots get no tables: they would hold more than 2 m + 2 n
    cells."""
    rng = np.random.default_rng(17)
    for name, w in _table_windows():
        n = w.n_vertices
        tables = windows.neighbour_tables(w)
        assert (tables is None) == (name in ("tree3", "tree4", "comb")), name
        if tables is None:
            continue
        sprinkled = rng.normal(size=n)
        sprinkled[rng.random(n) < 0.1] = -0.0
        for x in (sprinkled, np.full(n, -0.0),
                  np.where(rng.random(n) < 0.5, 0.0, -0.0)):
            got = windows.table_apply(tables, np.append(x, 0.0), np.empty(n),
                                      np.empty(n), np.empty(n))
            want = windows.adjacency_apply(w, x)
            assert got.tobytes() == want.tobytes(), name


def test_edge_lookup_signs(z2):
    w = ball(z2, (0, 0), 2)
    e = family_edge(z2, (0, 0), (1, 0))
    k, sign = w.edge_lookup(e)
    assert sign == 1
    k2, sign2 = w.edge_lookup(e.reversed())
    assert (k2, sign2) == (k, -1)


def test_edge_lookup_rejects_non_edges(z2):
    w = ball(z2, (0, 0), 2)
    with pytest.raises(MissingEdgeError):
        w.edge_lookup(OrientedEdge((0, 0), (1, 1)))
    with pytest.raises(MissingEdgeError):
        w.edge_lookup(OrientedEdge((0, 0), (9, 9)))


def test_single_lookups_build_no_index(z2):
    """Lookups of one vertex or edge bisect; only loops over many vertices
    build the vertex -> index dict."""
    small, large = ball(z2, (0, 0), 2), ball(z2, (0, 0), 4)
    e = family_edge(z2, (1, 0), (0, 0))
    u = edge_indicator(small, e)
    assert u.at(e) == 1.0 and u.at(e.reversed()) == -1.0
    assert VertexFunction(small, np.arange(small.n_vertices)).at((2, 0)) == \
        small.vertices.index((2, 0))
    moved = transfer_edge_function(u, large)
    assert moved.at(e) == 1.0 and moved.values.sum() == -1.0
    assert small._index is None and large._index is None


@pytest.mark.parametrize("name", ["tree3", "tree4"])
@pytest.mark.parametrize("built", [False, True])
def test_tree_window_lookups(name, built):
    """A tree window finds vertices in its word keys, with the contract of
    bisecting its tuples, before and after the tuples are built."""
    fam = make_family(name)
    e = origin_edge(fam)
    w = edge_ball(fam, e, 6)
    assert w._vertices is None
    tuples = neighborhood(fam, e, 6)
    if built:
        assert w.vertices == tuples
    for bad in (5, None, [0], "()"):
        with pytest.raises(TypeError):
            w.vertex_index(bad)
        with pytest.raises(TypeError):
            w.edge_lookup(OrientedEdge(bad, ()))
        with pytest.raises(TypeError):
            w.edge_lookup(OrientedEdge((), bad))
    deepest = max(tuples, key=len)
    assert len(deepest) == 1 + 6  # the key width: longest source plus radius
    far = (0,) * len(deepest)  # a word of the key width, outside the ball
    for off in ((5,), (0, fam.tree_degree - 1), deepest + (0,), far):
        assert w.bisect_index(off) is None
        with pytest.raises(InvalidWindowError):
            w.vertex_index(off)
    for x in ((), e.head, deepest):
        assert w.bisect_index(x) == bisect_left(tuples, x) == w.vertex_index(x)
        assert tuples[w.vertex_index(x)] == x
    assert w.edge_lookup(e.reversed())[1] == -1
    assert (w._vertices is None) == (not built)


def _multi_source_balls(fam):
    """Balls about word sets of different lengths, connected by their
    radius."""
    for sources in ([(0, 1, 1), (0,), (2, 0, 0, 1)], [(1,), (1, 0, 1, 0)]):
        for r in (3, 4, 6):
            yield sources, r, ball(fam, sources, r)


@pytest.mark.parametrize("name", ["tree3", "tree4"])
def test_lazy_tree_vertices_match_bfs(name):
    """Tuples built from the keys, and everything made from them, equal an
    independent walk over tuples: `bfs` on the tree rule, and the tuple-walk
    window builder."""
    fam = make_family(name)
    e = origin_edge(fam)
    for r in range(1, 11):  # up to 177,146 vertices on tree4
        assert edge_ball(fam, e, r).vertices == neighborhood(fam, e, r)
    cases = [(e, r, edge_ball(fam, e, r)) for r in range(1, 9)]
    cases += list(_multi_source_balls(fam))
    for sources, r, w in cases:
        assert w._vertices is None
        walk = neighborhood(fam, sources, r)
        assert w.vertices == walk
        assert w.labels == [encode_vertex(x) for x in walk]
        assert w.index == {x: i for i, x in enumerate(walk)}
        assert window_to_json(w) == window_to_json(
            ball(_tuple_walk(fam), sources, r))


def test_tree_score_path_builds_no_tuples(tree3):
    e = origin_edge(tree3)
    w = edge_ball(tree3, e, 12)
    u = edge_indicator(w, e)
    for mode in LaplacianMode:
        project_star(w, u, mode)
    assert w._vertices is None and w._index is None


def test_same_window_compares_tree_keys(tree3):
    e = origin_edge(tree3)
    a, b = edge_ball(tree3, e, 5), edge_ball(tree3, e.reversed(), 5)
    assert same_window(a, b)
    assert not same_window(a, edge_ball(tree3, e, 4))
    assert not same_window(a, ball(tree3, [(0,), ()], 5))
    assert a._vertices is None and b._vertices is None
    # keys in another base, or tuples, compare as tuples
    pair = [(), (0,)]
    assert same_window(induced_window(tree3, pair),
                       induced_window(make_family("tree4"), pair))
    assert same_window(a, ball(_tuple_walk(tree3), [e.tail, e.head], 5))


def test_family_edge_validates(z2):
    with pytest.raises(MissingEdgeError):
        family_edge(z2, (0, 0), (2, 0))
    e = family_edge(z2, (1, 0), (0, 0))
    assert (e.tail, e.head) == ((1, 0), (0, 0))


@pytest.mark.parametrize("tail, head", [((5,), ()), ((0, 5), (0,))],
                         ids=["5-under-root", "5-under-0"])
def test_tree_rejects_pairs_off_the_tree(tree3, tail, head):
    # the tree rule lists the parent of any tuple, a word of the tree or not
    assert head in tree3.neighbors(tail)
    for x, y in ((tail, head), (head, tail)):
        with pytest.raises(MissingEdgeError):
            family_edge(tree3, x, y)
    for sources in ([tail], [tail, head], [(0, 7)]):
        for r in (0, 2):
            with pytest.raises(InvalidWindowError, match="not a vertex of tree3"):
                ball(tree3, sources, r)
        with pytest.raises(InvalidWindowError, match="not a vertex of tree3"):
            induced_window(tree3, sources)
        with pytest.raises(InvalidWindowError, match="not a vertex of tree3"):
            neighborhood(tree3, sources, 1)
    for x, y in ((tail, head), (head, tail)):
        with pytest.raises(InvalidWindowError, match="not a vertex of tree3"):
            distance(tree3, x, y, 5)


def test_origin_edge_is_canonical(z2, tree3):
    for fam in (z2, tree3):
        e = origin_edge(fam)
        assert e == e.canonical()
        assert fam.origin in (e.tail, e.head)


def test_induced_window_requires_connectivity(z2):
    with pytest.raises(InvalidWindowError):
        induced_window(z2, [(0, 0), (5, 5)])


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1)), min_size=1))))
def test_connected_matches_dfs(graph):
    n, pairs = graph
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    assume(edges)
    nbrs = {i: set() for i in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for b in nbrs[stack.pop()] - seen:
            seen.add(b)
            stack.append(b)
    tails, heads = zip(*edges)
    w = FiniteWindow([(i,) for i in range(n)], tails, heads,
                     [len(nbrs[i]) for i in range(n)], check=False)
    assert w._connected() == (len(seen) == n)


def test_induced_window_box(z2):
    n = 4
    w = induced_window(z2, [(i, j) for i in range(n) for j in range(n)])
    assert w.n_vertices == n * n
    assert w.n_edges == 2 * n * (n - 1)
    assert len(sigma(w)) == 4 * (n - 1)


def test_size_cap(monkeypatch, z2):
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 100)
    with pytest.raises(SizeLimitError):
        ball(z2, (0, 0), 40)


def test_size_cap_holds_for_every_search(monkeypatch, z2, tree3):
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 100)
    assert ball(tree3, (), 5).n_vertices == 94
    with pytest.raises(SizeLimitError):
        ball(tree3, (), 6)
    box = [(i, j) for i in range(10) for j in range(10)]
    assert induced_window(z2, box).n_vertices == 100
    assert len(neighborhood(z2, box[:99], 0)) == 99
    with pytest.raises(SizeLimitError):
        induced_window(z2, box + [(10, 0)])
    with pytest.raises(SizeLimitError):
        neighborhood(z2, [(0, 0)], 40)
    with pytest.raises(SizeLimitError):
        neighborhood(z2, box + [(10, 0)], 0)


def _tuple_bfs(family, sources, depth, targets=None):
    """The tuple-walk `bfs` that the id search replaced, kept as its
    reference."""
    dist = dict.fromkeys(sources, 0)
    todo = None if targets is None else set(targets)
    if todo is not None:
        todo.difference_update(dist)
    frontier = list(dist)
    for d in range(1, depth + 1):
        if not frontier or (todo is not None and not todo):
            break
        nxt = []
        for x in frontier:
            for y in family.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        if todo is not None:
            todo.difference_update(nxt)
        frontier = nxt
    return dist


def _bfs_cases(fam):
    """(sources, depth, targets) on a family: one and several sources, with
    and without targets, targets out of reach, a finite family run dry."""
    o = fam.origin
    near = fam.neighbors(o)
    far = neighborhood(fam, [o], 3)
    yield [o], 0, None
    yield [o], 5, None
    yield [near[-1], o, near[0], o], 4, None
    yield [o], 8, [far[-1], far[0]]
    yield [o], 8, far[::-1]
    yield [o], 2, [far[-1]]
    yield [near[0]], 6, [o]
    yield [o], 6, []
    yield list(far[:3]), 6, [near[-1], far[-2]]


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES + ("window",))
def test_bfs_is_the_tuple_walk(name):
    if name == "window":
        fam = family_from_window(ball(make_family("comb"), (0, 0), 3))
    else:
        fam = make_family(name)
    for sources, depth, targets in _bfs_cases(fam):
        got = windows.bfs(fam, sources, depth, targets)
        want = _tuple_bfs(fam, sources, depth, targets)
        assert list(got.items()) == list(want.items())
        rows = windows.distance_rows(fam, sources, targets or [], depth)
        assert rows.dtype == np.int64
        for row, x in zip(rows.tolist(), sources):
            one = windows.bfs(fam, [x], depth, targets or [])
            assert row == [one.get(y, -1) for y in targets or []]


def _per_row_distance_rows(family, sources, targets, depth):
    """`distance_rows` as one search per source row, the reference of the
    one search over translation orbits."""
    sources, targets = windows._open_search(family, sources, depth, targets)
    graph = IdGraph(family)  # not family.graph, which the code under test uses
    tgt = graph.ids(targets)
    out = np.full((len(sources), len(tgt)), -1, dtype=np.int64)
    for row, s in zip(out, graph.ids(sources)):
        dist = windows._search(graph, [s], depth, tgt)
        row[:] = [dist.get(t, -1) for t in tgt]
    return out


def _orbit_cases(fam, seed):
    """(sources, targets, depth): seeded random sets with repeats and with
    sources among the targets, one source, no targets, sources 2**40
    apart, coordinates at 2**61 and past int64, and the two ends of int64,
    whose difference wraps to -1 there."""
    k = len(fam.origin)
    rng = np.random.default_rng(seed)

    def points(n, spread, at=0):
        return [tuple(at + c for c in p)
                for p in rng.integers(-spread, spread + 1, (n, k)).tolist()]

    for depth in (0, 2, 4, 7) + ((30,) if k == 1 else ()):
        sources, targets = points(5, 4), points(9, 6)
        yield sources + sources[:2], targets + sources[1:3] + targets[:3], depth
        yield sources[:1], targets, depth
        yield sources, [], depth
        far = points(2, 3, 2 ** 40)
        yield sources[:2] + far, targets[:4] + far + points(2, 3, 2 ** 40), depth
        for at in (2 ** 61, 2 ** 70):
            big = points(2, 2, at)
            yield big + sources[:1], big + points(3, 2, at) + targets[:2], depth
        ends = [(-2 ** 63,) + (0,) * (k - 1), (2 ** 63 - 1,) + (0,) * (k - 1)]
        yield ends[:1] + sources[:1], ends[1:] + targets[:2], depth


def _rows_outcome(rows_of, *args):
    """A distance table's dtype, shape and entries, or the type and message
    of what it raised."""
    try:
        rows = rows_of(*args)
    except SizeLimitError as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tolist()


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "diag_lattice",
                                  "traced z1", "traced diag_lattice"])
def test_orbit_rows_are_the_per_row_searches(monkeypatch, name):
    fam = _family(name)
    searches = []
    search = windows._search
    monkeypatch.setattr(windows, "_search",
                        lambda *args: searches.append(1) or search(*args))
    for cap in (40, 100, windows.DEFAULT_SIZE_CAP):
        monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", cap)
        outcomes = set()
        for sources, targets, depth in _orbit_cases(fam, 11):
            want = _rows_outcome(_per_row_distance_rows, fam, sources,
                                 targets, depth)
            searches.clear()
            got = _rows_outcome(windows.distance_rows, fam, sources, targets,
                                depth)
            assert got == want
            outcomes.add(got[0])
            # the closed form, with no search, where no coordinate is past
            # int64 and the coordinate ranges sum to less than 2**63; else
            # one search per row
            axes = list(zip(*sources + targets))
            closed = (all(-2 ** 63 <= c < 2 ** 63 for c in chain(*axes))
                      and sum(max(c) - min(c) for c in axes) < 2 ** 63)
            if got[0] != SizeLimitError:
                assert len(searches) == (0 if closed else len(sources))
        assert np.dtype(np.int64) in outcomes
        if cap == 40:
            assert SizeLimitError in outcomes


def _guard_cases():
    """z3 (sources, targets, depth, closed form expected) about the closed
    form's wrap guard, with a near point in each so that some entries are
    found: the corners +-(2**61 - 1), whose ranges sum to 3 (2**62 - 2),
    past 2**63; two axes of them, 2**63 - 4; and ranges summing to
    2**63 - 1 and 2**63 on one axis and on three."""
    c = 2 ** 61 - 1
    cases = [([(c, c, c), (-c, -c, -c)],
              [(-c, -c, -c), (c, c, c), (c - 1, c, c), (-c, -c, 2 - c)],
              False),
             ([(c, c, 0)], [(-c, -c, 0), (c, c - 1, 0), (c, c, 0)], True)]
    for top, closed in ((2 ** 62 - 1, True), (2 ** 62, False)):
        cases.append(([(-2 ** 62, 0, 0)], [(top, 0, 0), (1 - 2 ** 62, 0, 0)],
                      closed))
        cases.append(([(0, 0, 0), (2 ** 61, 2 ** 61, 0)],
                      [(0, 0, top), (2 ** 61, 2 ** 61 - 1, 0), (1, 0, 0)],
                      closed))
    return [(s, t, depth, closed) for s, t, closed in cases
            for depth in (0, 1, 3)]


def _word_cases(d, seed):
    """(sources, targets, depth, True) on tree<d>: seeded word sets with
    repeats and with sources among the targets, one source, no targets, no
    sources, and words of 40 letters, longer than a window's int64 key."""
    rng = np.random.default_rng(seed)

    def word(length):
        return tuple(rng.integers(d, size=min(length, 1)).tolist()
                     + rng.integers(d - 1, size=max(length - 1, 0)).tolist())

    def words(n, longest):
        return [word(k) for k in rng.integers(0, longest + 1, n).tolist()]

    cases = []
    for depth in (0, 2, 5, 9 if d == 3 else 7):
        sources, targets = words(6, 5), words(10, 6)
        w = word(40)
        cases += [(sources + sources[:2],
                   targets + sources[1:3] + targets[:3], depth, True),
                  (sources[:1], targets, depth, True),
                  (sources, [], depth, True), ([], targets, depth, True),
                  ([w, w[:-1], w[:-1], ()],
                   [w + (0,), w[:36] + (d - 2,), w, (0,), w[:20]], depth,
                   True)]
    return cases


@pytest.mark.parametrize("name", ["z3", "tree3", "tree4", "traced z3",
                                  "traced tree3", "traced tree4"])
def test_metric_rows_are_the_per_row_searches(monkeypatch, name):
    fam = _family(name)
    cases = (_word_cases(fam.tree_degree, 12) if fam.tree_degree
             else _guard_cases())
    searches = []
    search = windows._search
    monkeypatch.setattr(windows, "_search",
                        lambda *args: searches.append(1) or search(*args))
    entries = set()
    for cap in (40, 100, windows.DEFAULT_SIZE_CAP):
        monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", cap)
        outcomes = set()
        for sources, targets, depth, closed in cases:
            want = _rows_outcome(_per_row_distance_rows, fam, sources,
                                 targets, depth)
            searches.clear()
            got = _rows_outcome(windows.distance_rows, fam, sources, targets,
                                depth)
            assert got == want
            outcomes.add(got[0])
            if closed:
                assert searches == []
            elif got[0] != SizeLimitError:
                assert len(searches) == len(sources)
            if got[0] != SizeLimitError:
                entries.update(chain(*got[2]))
        assert np.dtype(np.int64) in outcomes
        if cap == 40:
            assert SizeLimitError in outcomes
    # entries found, and entries past the depth
    assert {1, -1} <= entries


def _tuple_window(family, sources, radius):
    """The tuple walk that built every non-tree window before the id search
    did, kept as its reference: one breadth-first walk fetches each window
    vertex's neighbours once, the outer layer included, and writes each
    edge once, from its later-discovered end, as a pair of discovery
    indices; numpy renumbers both ends into sorted vertex order."""
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
            windows._check_size(len(order))
        start = stop
    n = len(order)
    order.sort()
    # discovery index of each vertex, in sorted order
    found = np.fromiter(map(index.__getitem__, order), np.int64, n)
    rank = np.empty(n, dtype=np.int64)
    rank[found] = np.arange(n)
    a = rank[np.frombuffer(near, dtype=np.int64)]
    b = rank[np.frombuffer(far, dtype=np.int64)]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    key.sort()
    tails, heads = np.divmod(key, n)
    return FiniteWindow(order, tails, heads,
                        np.frombuffer(degree, dtype=np.int64)[found],
                        check=False)


def _same_degrees(w):
    """Whether the internal degrees are int64 and the edge ends counted one
    at a time."""
    deg = np.zeros(w.n_vertices, dtype=np.int64)
    np.add.at(deg, w.edge_tails, 1)
    np.add.at(deg, w.edge_heads, 1)
    return (w.internal_degree.dtype == np.int64
            and np.array_equal(w.internal_degree, deg))


def _outcome(build, *args):
    """A window's arrays, or the type and message of what it raised. The
    internal degrees of a window must be its edge ends counted one by
    one."""
    try:
        w = build(*args)
    except (InvalidWindowError, SizeLimitError) as exc:
        return type(exc), str(exc)
    assert _same_degrees(w)
    return (w.vertices, w.edge_tails.tolist(), w.edge_heads.tolist(),
            w.full_degree.tolist())


def _window_sources(fam):
    """One source, an edge's ends, repeated sources, sources far apart, and
    on trees a word too long for the key kernel."""
    o = fam.origin
    far = list(windows.bfs(fam, [o], 8))
    yield [o]
    yield list(origin_edge(fam))
    yield [o, far[1], o, far[1]]
    yield [o, far[-1], far[len(far) // 2]]
    if fam.tree_degree:
        yield [(1,) + (0, 1) * 15 + (1,)]  # 32 letters


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES
                         + ("window", "z2 on one axis"))
def test_window_is_the_tuple_walk(monkeypatch, name):
    if name == "window":  # finite: its balls stop growing at radius 3
        fam = family_from_window(ball(make_family("comb"), (0, 0), 3))
    else:
        fam = _family(name)
    cases = list(_window_sources(fam))
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 40)
    outcomes = set()
    for sources in cases:
        for r in range(5):
            got = _outcome(windows._grow_window, fam, sources, r)
            assert got == _outcome(_tuple_window, fam, sources, r)
            outcomes.add(got[0] if got[0] in (InvalidWindowError,
                                               SizeLimitError) else "window")
    assert "window" in outcomes and InvalidWindowError in outcomes
    if name not in ("z1", "window"):
        assert SizeLimitError in outcomes


TRANSLATION_FAMILIES = ("z1", "z2", "z3", "diag_lattice")


def _lattice_edge_sources(k):
    """(sources, whether the lattice kernel must leave them to the id
    search): an edge near +-2**62 and at the ends of int64, a coordinate
    past int64, a bool, a tuple of the wrong length, and sources 3, 2**40
    and 2**62 apart, which stay apart at small radii."""
    pad = (0,) * (k - 1)
    for c in (2 ** 62 - 3, 2 ** 62 + 3, -2 ** 62 - 3, -2 ** 62 + 3):
        yield [(c,) + pad, (c + 1,) + pad], False
    for c in (2 ** 63 - 2, -2 ** 63):
        yield [(c,) + pad, (c + 1,) + pad], True
    yield [(2 ** 70,) + pad], True
    yield [(True,) + pad], True
    yield [(0,) * (k + 2)], True
    for apart, fallback in ((3, False), (2 ** 40, False), (2 ** 62, True)):
        yield [(0,) * k, pad + (apart,)], fallback


def _any_outcome(build, *args):
    """`_outcome`, or the type and message of any other exception."""
    try:
        return _outcome(build, *args)
    except Exception as exc:
        return type(exc), str(exc)


def _kernel_and_walk(fam, sources, r):
    """The lattice kernel's outcome, unchecked, against the tuple walk's,
    and as a ball (connectivity included) against the id search's."""
    got = _any_outcome(windows._grow_window, fam, sources, r)
    assert got == _any_outcome(_tuple_window, fam, sources, r)
    assert (_any_outcome(ball, fam, sources, r)
            == _any_outcome(ball, _tuple_walk(fam), sources, r))
    return got[0] if isinstance(got[0], type) else "window"


@pytest.mark.parametrize("name", TRANSLATION_FAMILIES + (
    "traced z2", "traced z3", "traced diag_lattice"))
def test_lattice_kernel_edge_sources(monkeypatch, name):
    fam = _family(name)
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 40)
    outcomes = set()
    for sources, fallback in _lattice_edge_sources(len(fam.origin)):
        for r in (*range(9), 20):
            try:
                kernel = windows._lattice_window(fam, sources, r)
            except (InvalidWindowError, SizeLimitError):
                kernel = "raised"
            # z1, a path, is always left to the id search
            assert (kernel is None) == (fallback or name == "z1")
            outcomes.add(_kernel_and_walk(fam, sources, r))
    assert {"window", InvalidWindowError, SizeLimitError} <= outcomes


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_lattice_kernel_matches_tuple_walk(data):
    fam = make_family(data.draw(st.sampled_from(TRANSLATION_FAMILIES)))
    k = len(fam.origin)
    at = data.draw(st.tuples(*[st.integers(-60, 60)] * k))
    near = st.tuples(*[st.integers(-4, 4)] * k).map(
        lambda v: tuple(a + b for a, b in zip(at, v)))
    sources = data.draw(st.lists(near, min_size=1, max_size=4))
    r = data.draw(st.integers(0, 8))
    for cap in (40, windows.DEFAULT_SIZE_CAP):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "DEFAULT_SIZE_CAP", cap)
            _kernel_and_walk(fam, sources, r)


@pytest.mark.parametrize("name", ["z2", "tree3", "comb"])
def test_distance_rows_fetch_each_neighbor_list_once(name):
    base = make_family(name)
    verts = neighborhood(base, [base.origin], 3)
    fam, calls = _counted(base)
    rows = windows.distance_rows(fam, verts, verts, 6)
    assert len(calls) == len(set(calls))
    assert (rows == rows.T).all() and (np.diag(rows) == 0).all()
    assert rows.max() == 6
    # a second table on the same family object fetches nothing new
    fetched = len(calls)
    windows.distance_rows(fam, verts[::-1], verts, 6)
    assert len(calls) == fetched


@pytest.mark.parametrize("name", ["z2", "tree3"])
def test_searches_on_one_graph_fetch_each_neighbor_list_once(name):
    base = make_family(name)
    far = neighborhood(base, [base.origin], 3)[-1]
    searches = (lambda f: windows.bfs(f, [f.origin], 4),
                lambda f: windows.bfs(f, [far], 5, targets=[f.origin]),
                lambda f: neighborhood(f, [f.origin, far], 2))
    # each search on a family object of its own
    want = [search(make_family(name)) for search in searches]
    fam, calls = _counted(make_family(name))
    got = [search(fam) for search in searches]
    # equal tables, in the same discovery order
    assert [list(t.items()) if isinstance(t, dict) else t for t in got] == \
        [list(t.items()) if isinstance(t, dict) else t for t in want]
    assert len(calls) == len(set(calls))


def test_replaced_family_fetches_through_its_own_rule():
    base = make_family("z2")
    want = windows.bfs(base, [base.origin], 3)
    held = len(base.graph.vertices)
    fam, calls = _counted(base)
    assert windows.bfs(fam, [fam.origin], 3) == want
    # base's graph already holds these lists; the copy fetches each list
    # the search expands, layers 0 to 2, through its own rule
    assert sorted(calls) == sorted(x for x, d in want.items() if d < 3)
    assert fam.graph is not base.graph
    assert len(base.graph.vertices) == held


def test_shared_tree_graph_numbers_no_bad_word():
    fam = make_family("tree3")
    searches = (lambda: windows.bfs(fam, [(5,)], 3),
                lambda: windows.bfs(fam, [()], 3, [(0, 7)]),
                lambda: windows.distance_rows(fam, [()], [(0, 7)], 3))
    for search in searches:
        with pytest.raises(InvalidWindowError, match="not a vertex of tree3"):
            search()
    assert fam.graph.vertices == []


def _ball_value(f, s):
    w = ball(f, [s], 1)
    return w.labels, w.edge_tails.tolist(), w.edge_heads.tolist()


# each search or window as a value that shows its vertices' types, from a
# source (and a target) written with ints or, equal to them, with a bool
_BY_SOURCE = {
    "bfs": lambda f, s: repr(list(windows.bfs(f, [s], 2).items())),
    "ball": _ball_value,
    "distance_rows": lambda f, s: windows.distance_rows(
        f, [s, (0,) * len(s)], [s, (3,) + s[1:]], 4).tolist(),
    "lex_min_path": lambda f, s: repr(lex_min_path(f, s, (4,) + s[1:], 5)),
}


@pytest.mark.parametrize("name", ["z1", "z2", "ladder", "comb",
                                  "diag_lattice"])
def test_bool_vertices_stay_out_of_the_shared_graph(name):
    """(True, 0) == (1, 0), so a search or window about the one must not
    number it in the graph that later searches and windows share: each gets
    what it gets on a family object of its own, whichever ran before."""
    pad = (0,) * (len(make_family(name).origin) - 1)
    # keyed by spelling: as dict keys, the two sources are one
    sources = {"int": (1,) + pad, "bool": (True,) + pad}
    fresh = {(op, kind): run(make_family(name), s)
             for op, run in _BY_SOURCE.items() for kind, s in sources.items()}
    assert fresh["ball", "bool"] != fresh["ball", "int"]
    for first in _BY_SOURCE:
        for second in _BY_SOURCE:
            for a, b in (("bool", "int"), ("int", "bool")):
                fam = make_family(name)
                assert _BY_SOURCE[first](fam, sources[a]) == fresh[first, a]
                assert _BY_SOURCE[second](fam, sources[b]) == fresh[second, b]


def test_distance(z2, tree3):
    assert distance(z2, (0, 0), (3, -2), 20) == 5
    assert distance(z2, (0, 0), (0, 0), 20) == 0
    assert distance(tree3, (), (0, 0), 20) == 2
    assert distance(z2, (0, 0), (50, 0), cutoff=10) is None


tree3_words = st.builds(
    lambda first, rest: () if first is None else (first, *rest),
    st.one_of(st.none(), st.integers(0, 2)),
    st.lists(st.integers(0, 1), max_size=4))


@settings(deadline=None, max_examples=40)
@given(tree3_words, tree3_words)
def test_tree_distance_symmetric(a, b):
    tree3 = make_family("tree3")
    common = 0
    while common < min(len(a), len(b)) and a[common] == b[common]:
        common += 1
    d = distance(tree3, a, b, 20)
    assert d == distance(tree3, b, a, 20)
    assert d == len(a) + len(b) - 2 * common


def test_json_roundtrip(z2):
    w = ball(z2, (2, 2), 3)
    w2 = window_from_json(window_to_json(w))
    assert same_window(w, w2)
    assert np.array_equal(w.full_degree, w2.full_degree)
    assert np.array_equal(w.boundary, w2.boundary)
    assert _same_degrees(w2) and w2.full_degree.flags.writeable


@pytest.mark.parametrize("name", ["tree3", "tree4", "z2", "z3",
                                  "diag_lattice"])
def test_kernel_windows_hold_one_ambient_degree(name):
    """A kernel's window of one ambient degree holds it as a read-only
    int64 view of one value, with stride 0; its values are unchanged."""
    fam = make_family(name)
    w = ball(fam, fam.origin, 3)
    degree = len(fam.neighbors(fam.origin))
    assert w.full_degree.strides == (0,)
    assert not w.full_degree.flags.writeable
    assert w.full_degree.dtype == np.int64
    assert w.full_degree.tolist() == [degree] * w.n_vertices
    assert np.array_equal(w.boundary, w.internal_degree < degree)


def test_json_rejects_tampered_sigma(z2):
    blob = json.loads(window_to_json(ball(z2, (0, 0), 2)))
    blob["sigma"] = blob["sigma"][:-1]
    with pytest.raises(InvalidWindowError):
        window_from_json(json.dumps(blob))


# the message of each slice edit below
_WINDOW_RULES = {
    "vertices[0:2]": "window vertices must be sorted",
    "vertices[1:2]": "duplicate vertices in window",
    "edges[0:2]": "edge list must be sorted and duplicate free",
    "edges[1:2]": "edge list must be sorted and duplicate free",
    "edges[0:1]": re.escape("edges must be canonical index pairs i < j"),
    "full_degree[2:3]": "internal degree exceeds ambient degree",
    "edges[2:]": "window is not connected",
}


@pytest.mark.parametrize("key, value", [
    ("edges", None),
    ("first edge", [1]),
    ("first edge", [0, 1, 2]),
    ("first edge", [0.5, 2]),
    ("first edge", [True, 1]),
    ("first edge", [0, 999]),
    ("first edge", [-1, 0]),
    ("first edge", {"0": 1}),
    ("full_degree", [4, 4]),
    ("full_degree", None),
    # except degree True, each of these used to load, truncated or parsed by
    # int(), as the window's own first vertex (-2, 0), degree 4 or sigma 0
    ("first vertex", [-2.7, 0.2]),
    ("first vertex", [-2, False]),
    ("first vertex", ["-2", "0"]),
    ("first degree", 4.9),
    ("first degree", True),
    ("first degree", "4"),
    ("first sigma", 0.0),
    ("first sigma", False),
    ("first sigma", "0"),
    ("first degree", 2 ** 70),  # past int64: used to escape as OverflowError
    # well-typed items that break the window's own rules, written over the
    # slice; the edges begin [0, 2], [1, 2], and vertex 2 has 4 edges
    ("vertices[0:2]", [[-1, -1], [-2, 0]]),
    ("vertices[1:2]", [[-2, 0]]),
    ("edges[0:2]", [[1, 2], [0, 2]]),
    ("edges[1:2]", [[0, 2]]),
    ("edges[0:1]", [[2, 0]]),
    ("full_degree[2:3]", [3]),
    ("edges[2:]", []),
])
def test_json_rejects_malformed_fields(z2, key, value):
    blob = json.loads(window_to_json(ball(z2, (0, 0), 2)))
    first = {"first edge": "edges", "first vertex": "vertices",
             "first degree": "full_degree", "first sigma": "sigma"}
    field, _, span = key.partition("[")
    if span:
        lo, hi = (int(c) if c else None for c in span[:-1].split(":"))
        blob[field][lo:hi] = value
    elif key in first:
        blob[first[key]][0] = value
    else:
        blob[key] = value
    with pytest.raises(InvalidWindowError, match=_WINDOW_RULES.get(key)):
        window_from_json(json.dumps(blob))


# (field, index, value, message) on the z2 ball of radius 8 (145 vertices,
# 256 edges): the first bad item of a field is named, wherever it stands, as
# the per-item check names it
@pytest.mark.parametrize("field, index, value, message", [
    ("edges", 0, [True, 1], "edge [True, 1] is not a pair of vertex indices"),
    ("edges", 100, [True, 1],
     "edge [True, 1] is not a pair of vertex indices"),
    ("edges", 100, [0, 145], "edge [0, 145] is not a pair of vertex indices"),
    ("edges", 100, [-1, 0], "edge [-1, 0] is not a pair of vertex indices"),
    ("edges", 200, [0.5, 2], "edge [0.5, 2] is not a pair of vertex indices"),
    ("edges", 100, [0, 1, 2],
     "edge [0, 1, 2] is not a pair of vertex indices"),
    ("edges", 100, [0, 2 ** 70],
     f"edge [0, {2 ** 70}] is not a pair of vertex indices"),
    ("vertices", 0, [True, 0], "vertex [True, 0] is not a list of integers"),
    ("vertices", 100, [3, False],
     "vertex [3, False] is not a list of integers"),
    ("vertices", 140, [8.0, 0], "vertex [8.0, 0] is not a list of integers"),
    ("vertices", 50, 7, "vertex 7 is not a list of integers"),
])
@pytest.mark.parametrize("later", [False, True], ids=["alone", "later"])
def test_json_names_the_first_bad_item(z2, field, index, value, message,
                                       later):
    blob = json.loads(window_to_json(ball(z2, (0, 0), 8)))
    blob[field][index] = value
    if later:  # a later bad item of another kind is not named
        blob[field][index + 1] = [0, 1.5]
    text = f"malformed window JSON: {message}"
    with pytest.raises(InvalidWindowError, match=f"^{re.escape(text)}$"):
        window_from_json(json.dumps(blob))


@settings(deadline=None, max_examples=25)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(1, 4))
def test_ball_nesting(center, r):
    fam = make_family("z2")
    small = set(ball(fam, center, r).vertices)
    big = set(ball(fam, center, r + 1).vertices)
    assert small < big


@settings(deadline=None, max_examples=25)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_distance_symmetric_and_l1(a, b):
    fam = make_family("z2")
    d = distance(fam, a, b, 20)
    assert d == distance(fam, b, a, 20)
    assert d == abs(a[0] - b[0]) + abs(a[1] - b[1])
