from __future__ import annotations

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from hodgedim import (EdgeFunction, IncompatibleDomainError, MissingEdgeError,
                      VertexFunction, ball, chi, codifferential, differential,
                      edge_function_from_csv, edge_function_to_csv,
                      edge_indicator, energy,
                      family_edge, flow_residual, harmonic_residual, inner,
                      is_flow, is_harmonic, make_family, mask_edges,
                      support_vertices, transfer_edge_function, vertex_inner)
from conftest import BAD_EDGE_CSVS, incidence


def test_differential_matches_incidence(small_z2_window, rng):
    w = small_z2_window
    b = incidence(w)
    vals = rng.normal(size=w.n_vertices)
    dv = differential(VertexFunction(w, vals))
    assert dv.values == approx(b.T @ vals)


def test_codifferential_matches_incidence(small_z2_window, rng):
    w = small_z2_window
    b = incidence(w)
    vals = rng.normal(size=w.n_edges)
    du = codifferential(EdgeFunction(w, vals))
    assert du.values == approx(b @ vals)


def test_adjointness(small_z2_window, rng):
    w = small_z2_window
    for _ in range(10):
        v = VertexFunction(w, rng.normal(size=w.n_vertices))
        u = EdgeFunction(w, rng.normal(size=w.n_edges))
        assert inner(differential(v), u) == approx(vertex_inner(v, codifferential(u)))


def test_at_is_antisymmetric(small_z2_window):
    e = family_edge(make_family("z2"), (0, 0), (1, 0))
    u = edge_indicator(small_z2_window, e)
    assert u.at(e) == approx(1.0)
    assert u.at(e.reversed()) == approx(-1.0)


def test_edge_indicator_unit_norm(small_z2_window):
    e = family_edge(make_family("z2"), (0, 1), (0, 0))
    u = edge_indicator(small_z2_window, e)
    assert inner(u, u) == approx(1.0)


def _full_fsum(u, w):
    """`inner` as it summed every pointwise product, zeros included."""
    try:
        return math.fsum((u.values * w.values).tolist())
    except ValueError as exc:  # inf + -inf
        return str(exc)


def test_inner_skipping_zeros_is_bitwise_the_full_fsum(small_z2_window, rng):
    w = small_z2_window
    m = w.n_edges
    e = family_edge(make_family("z2"), (0, 1), (0, 0))
    unit = edge_indicator(w, e).values
    signed_zeros = np.where(np.arange(m) % 2 == 0, 0.0, -0.0)
    spread = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
    big = np.where(np.arange(m) % 3 == 0, 1e200, 0.0)
    cases = [
        (signed_zeros, signed_zeros),
        (signed_zeros, -signed_zeros),
        (-np.abs(signed_zeros), np.ones(m)),
        (np.zeros(m), rng.normal(size=m)),
        (unit, rng.normal(size=m)),
        (unit, spread),
        (spread, spread),
        (np.array([1.0, -1.0] + [-0.0] * (m - 2)), np.ones(m)),
        (big, big),
        (big, -big),
        (big, np.where(np.arange(m) == 0, -1e200, 1e200)),
    ]
    results = []
    with np.errstate(over="ignore"):  # 1e200 * 1e200 overflows to inf
        for a, b in cases:
            u, v = EdgeFunction(w, a), EdgeFunction(w, b)
            try:
                got = inner(u, v)
            except ValueError as exc:
                got = str(exc)
            want = _full_fsum(u, v)
            assert type(got) is type(want)
            if isinstance(want, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want
            results.append(got)
    assert results[-3:] == [math.inf, -math.inf, "-inf + inf in fsum"]


def test_inner_through_a_memoryview_is_the_list_fsum(rng):
    """fsum over a memoryview of the nonzero products, as `inner` reads
    them, has the bits of fsum over their list, on an edge ball the size of
    a `decompose` input (39,204 edges) and on products spread over 600
    decades."""
    fam = make_family("z2")
    w = ball(fam, (0, 0), 99)
    m = w.n_edges
    spread = rng.normal(size=m) * 10.0 ** rng.integers(-150, 150, size=m)
    sparse = np.where(rng.random(m) < 0.3, 0.0, rng.normal(size=m))
    for a, b in ((rng.normal(size=m), rng.normal(size=m)), (spread, spread),
                 (spread, rng.normal(size=m)), (sparse, -sparse)):
        products = a * b
        want = math.fsum(products[products != 0].tolist())
        got = inner(EdgeFunction(w, a), EdgeFunction(w, b))
        assert got.hex() == want.hex()


def test_energy_is_differential_norm(small_z2_window, rng):
    v = VertexFunction(small_z2_window, rng.normal(size=small_z2_window.n_vertices))
    dv = differential(v)
    assert energy(v) == approx(inner(dv, dv))


def test_chi_orientation_free(small_z2_window):
    w = small_z2_window
    sub = [(0, 0), (1, 0), (0, 1)]
    m = chi(w, sub)
    assert m.dtype == np.float64
    assert set(np.unique(m)) <= {0.0, 1.0}
    # exactly the edges with both endpoints inside
    expect = 0
    idx = {x: i for i, x in enumerate(w.vertices)}
    marked = {idx[x] for x in sub}
    for t, h in zip(w.edge_tails, w.edge_heads):
        if t in marked and h in marked:
            expect += 1
    assert int(m.sum()) == expect


def test_cycle_indicator_is_flow():
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    cyc = [(0, 0), (1, 0), (1, 1), (0, 1)]
    u = EdgeFunction(w, np.zeros(w.n_edges))
    vals = np.zeros(w.n_edges)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        k, sign = w.edge_lookup(family_edge(fam, a, b))
        vals[k] = sign
    u = EdgeFunction(w, vals)
    assert is_flow(u, interior_only=False)
    assert flow_residual(u, interior_only=False) == approx(0.0)


def test_flow_residual_interior_only():
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    # gradient of a linear function: divergence-free in the interior only
    v = VertexFunction(w, np.array([x[0] for x in w.vertices], dtype=float))
    dv = differential(v)
    assert is_flow(dv, interior_only=True)
    assert not is_flow(dv, interior_only=False)
    assert flow_residual(dv, interior_only=False) > 0.5


def test_linear_function_harmonic_inside():
    fam = make_family("z2")
    w = ball(fam, (0, 0), 3)
    v = VertexFunction(w, np.array([x[0] for x in w.vertices], dtype=float))
    assert is_harmonic(v, interior_only=True)
    assert not is_harmonic(v, interior_only=False)


def test_constants_not_harmonic_with_zero_outside():
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    v = VertexFunction(w, np.ones(w.n_vertices))
    # boundary vertices average in the grounded exterior
    assert is_harmonic(v, interior_only=True)
    assert harmonic_residual(v, interior_only=False) > 0.1


def test_interior_checks_pass_on_a_window_without_interior():
    """Both ends of one z2 edge lie on the boundary: the interior checks
    have no vertex to check and read 0.0, the full checks see the values."""
    w = ball(make_family("z2"), [(0, 0), (1, 0)], 0)
    assert not (~w.boundary).any()
    u = EdgeFunction(w, np.array([1.0]))
    v = VertexFunction(w, np.array([1.0, -2.0]))
    assert flow_residual(u) == 0.0 and is_flow(u)
    assert harmonic_residual(v) == 0.0 and is_harmonic(v)
    assert flow_residual(u, interior_only=False) == 1.0
    assert harmonic_residual(v, interior_only=False) == 2.25


@pytest.mark.parametrize("call, message", [
    (lambda w: VertexFunction(w, np.ones(12)),
     "expected 13 values, got shape (12,)"),
    (lambda w: EdgeFunction(w, np.ones((16, 1))),
     "expected 16 values, got shape (16, 1)"),
    (lambda w: mask_edges(EdgeFunction(w, np.ones(16)), np.ones(17)),
     "mask length does not match edge count"),
    (lambda w: EdgeFunction(w, np.ones(16)) + EdgeFunction(
        ball(make_family("z2"), (0, 1), 2), np.ones(16)),
     "edge functions on different windows"),
], ids=["vertex values", "edge values", "mask", "other window"])
def test_values_must_fit_the_window(small_z2_window, call, message):
    # the window has 13 vertices and 16 edges
    with pytest.raises(IncompatibleDomainError, match=re.escape(message)):
        call(small_z2_window)


def test_mask_edges(small_z2_window, rng):
    w = small_z2_window
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    m = chi(w, [(0, 0), (1, 0)])
    masked = mask_edges(u, m)
    assert inner(masked, masked) <= inner(u, u) + 1e-15
    nz = np.nonzero(masked.values)[0]
    assert set(nz) <= set(np.nonzero(m)[0])


def test_support_vertices(small_z2_window):
    fam = make_family("z2")
    e = family_edge(fam, (0, 0), (1, 0))
    u = edge_indicator(small_z2_window, e)
    assert set(support_vertices(u)) == {(0, 0), (1, 0)}


def test_transfer_restricts_and_extends():
    fam = make_family("z2")
    small = ball(fam, (0, 0), 1)
    big = ball(fam, (0, 0), 2)
    e = family_edge(fam, (0, 0), (1, 0))
    u_small = edge_indicator(small, e)
    u_big = transfer_edge_function(u_small, big)
    assert u_big.at(e) == approx(1.0)
    assert inner(u_big, u_big) == approx(1.0)
    back = transfer_edge_function(u_big, small)
    assert back.values == approx(u_small.values)


def _line_sources(text, tmp_path):
    """`text` as each kind of input `edge_function_from_csv` takes: one
    str, a file open in text mode, and a one-shot generator of lines."""
    path = tmp_path / "edges.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        yield "file", fh
    yield "str", text
    yield "generator", (line for line in text.splitlines(keepends=True))


def test_csv_roundtrip(small_z2_window, rng, tmp_path):
    w = small_z2_window
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    text = edge_function_to_csv(u)
    for kind, lines in _line_sources(text, tmp_path):
        got = edge_function_from_csv(w, lines).values
        assert got.tobytes() == u.values.tobytes(), kind  # repr is exact


class _Unreadable(io.TextIOWrapper):
    """A text file that fails when asked for all of itself at once."""

    def read(self, size=-1):
        raise AssertionError("the CSV was read whole")


def test_csv_file_is_never_read_whole(tmp_path, rng):
    w = ball(make_family("z2"), (0, 0), 20)  # a CSV of many 8 KiB reads
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    path = tmp_path / "edges.csv"
    path.write_text(edge_function_to_csv(u), encoding="utf-8")
    with _Unreadable(open(path, "rb"), encoding="utf-8") as fh:
        with pytest.raises(AssertionError, match="read whole"):
            fh.read()
        fh.seek(0)
        got = edge_function_from_csv(w, fh).values
    assert got.tobytes() == u.values.tobytes()


def test_csv_rejects_duplicates(small_z2_window):
    text = "tail,head,value\n\"(0, 0)\",\"(0, 1)\",1.0\n\"(0, 0)\",\"(0, 1)\",2.0\n"
    with pytest.raises(MissingEdgeError):
        edge_function_from_csv(small_z2_window, text)


@pytest.mark.parametrize("label, text, error, message", BAD_EDGE_CSVS,
                         ids=[case[0] for case in BAD_EDGE_CSVS])
def test_csv_errors(small_z2_window, tmp_path, label, text, error, message):
    for kind, lines in _line_sources(text, tmp_path):
        with pytest.raises(error) as info:
            edge_function_from_csv(small_z2_window, lines)
        assert (type(info.value), str(info.value)) == (error, message), kind


def test_csv_reversed_omitted_and_spaced_rows(small_z2_window):
    w = small_z2_window
    text = ("TAIL, Head ,value\n"
            '"(0,1)","(0,0)",2.5\n'  # reversed: stored as -2.5 on (0,0)-(0,1)
            '\n'
            '" (1, 0) ","(0,0)",-1.0\n'  # spaced and reversed
            '"(0, -1)","(0,0)",4.0\n'
            '"(0,0)","(-1,0)",0.5\n'
            '"(1,0)","(1,1)",3.0\n')
    u = edge_function_from_csv(w, text)
    expect = {((0, 0), (0, 1)): -2.5, ((0, 0), (1, 0)): 1.0,
              ((0, -1), (0, 0)): 4.0, ((-1, 0), (0, 0)): -0.5,
              ((1, 0), (1, 1)): 3.0}
    for k, (a, b) in enumerate(zip(w.edge_tails.tolist(),
                                   w.edge_heads.tolist())):
        pair = (w.vertices[a], w.vertices[b])
        assert u.values[k] == expect.get(pair, 0.0), pair
    assert np.count_nonzero(u.values) == len(expect)


@pytest.mark.parametrize("op", ["inner", "+", "-"])
def test_functions_of_different_kinds_do_not_combine(op):
    # the unit square has as many vertices as edges, so only the kind differs
    w = ball(make_family("z2"), [(0, 0), (0, 1), (1, 0), (1, 1)], 0)
    assert w.n_vertices == w.n_edges == 4
    u = EdgeFunction(w, np.ones(4))
    v = VertexFunction(w, np.ones(4))
    combine = {"inner": inner, "+": lambda a, b: a + b,
               "-": lambda a, b: a - b}[op]
    for a, b in ((u, v), (v, u)):
        with pytest.raises(IncompatibleDomainError):
            combine(a, b)


def test_arithmetic(small_z2_window, rng):
    w = small_z2_window
    a = EdgeFunction(w, rng.normal(size=w.n_edges))
    b = EdgeFunction(w, rng.normal(size=w.n_edges))
    assert (a + b).values == approx(a.values + b.values)
    assert (a - b).values == approx(a.values - b.values)
    assert (a * 2.5).values == approx(2.5 * a.values)
    assert (-a).values == approx(-a.values)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=30)
@given(st.lists(finite, min_size=13, max_size=13))
def test_adjointness_property(vals):
    fam = make_family("z2")
    w = ball(fam, (0, 0), 1)  # 5 vertices, 4 edges... adjust below
    n, m = w.n_vertices, w.n_edges
    v = VertexFunction(w, np.array(vals[:n]))
    u = EdgeFunction(w, np.array(vals[n:n + m]))
    lhs = inner(differential(v), u)
    rhs = vertex_inner(v, codifferential(u))
    assert lhs == approx(rhs, rel=1e-9, abs=1e-6)
