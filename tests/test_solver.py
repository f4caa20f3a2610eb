"""Solver checks against dense numpy oracles on the incidence matrix."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from pytest import approx

from hodgedim import (EdgeFunction, IncompatibleRhsError, LaplacianMode,
                      SolverFailureError, VertexFunction, ball, codifferential,
                      cycle_rank, differential, edge_ball, edge_indicator,
                      family_edge, hodge_decompose_finite, induced_window,
                      inner, is_flow, laplacian_apply, make_family,
                      origin_edge, project_star, solve_laplacian)
from conftest import (cycle_space_dim, dense_star_projection, incidence,
                      random_window)

TOL = 1e-10


def dense_free_laplacian(w):
    b = incidence(w)
    return b @ b.T


def dense_embedded_laplacian(w):
    b = incidence(w)
    return b @ b.T + np.diag((w.full_degree - w.internal_degree).astype(float))


def test_laplacian_apply_free_matches_dense(small_z2_window, rng):
    w = small_z2_window
    vals = rng.normal(size=w.n_vertices)
    got = laplacian_apply(w, VertexFunction(w, vals), LaplacianMode.FREE)
    assert got.values == approx(dense_free_laplacian(w) @ vals)


def test_laplacian_apply_embedded_matches_dense(small_z2_window, rng):
    w = small_z2_window
    vals = rng.normal(size=w.n_vertices)
    got = laplacian_apply(w, VertexFunction(w, vals), LaplacianMode.EMBEDDED)
    assert got.values == approx(dense_embedded_laplacian(w) @ vals)


def test_solve_embedded_matches_dense(small_z2_window, rng):
    w = small_z2_window
    rhs = rng.normal(size=w.n_vertices)
    v, rep = solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.EMBEDDED,
                             tol=TOL)
    assert rep.converged
    expect = np.linalg.solve(dense_embedded_laplacian(w), rhs)
    assert v.values == approx(expect, rel=1e-8, abs=1e-8)


def test_solve_free_needs_zero_mean(small_z2_window):
    w = small_z2_window
    rhs = VertexFunction(w, np.ones(w.n_vertices))
    with pytest.raises(IncompatibleRhsError):
        solve_laplacian(w, rhs, LaplacianMode.FREE)


def test_solve_free_matches_dense_lstsq(small_z2_window, rng):
    w = small_z2_window
    rhs = rng.normal(size=w.n_vertices)
    rhs -= rhs.mean()
    v, rep = solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.FREE,
                             tol=TOL)
    assert rep.converged
    expect = np.linalg.lstsq(dense_free_laplacian(w), rhs, rcond=None)[0]
    expect -= expect.mean()
    assert v.values == approx(expect, rel=1e-8, abs=1e-8)
    assert abs(v.values.mean()) < 1e-12


def test_solve_zero_rhs(small_z2_window):
    w = small_z2_window
    v, rep = solve_laplacian(w, VertexFunction(w, np.zeros(w.n_vertices)),
                             LaplacianMode.EMBEDDED)
    assert rep.converged and rep.iterations == 0
    assert np.all(v.values == 0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, np.inf, np.nan])
def test_solve_rejects_tol_outside_unit_interval(small_z2_window, tol):
    w = small_z2_window
    for rhs in (np.zeros(w.n_vertices), np.eye(w.n_vertices)[0]):
        with pytest.raises(ValueError, match="tol must be in"):
            solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.EMBEDDED,
                            tol=tol)


def test_solver_failure_carries_report(small_z2_window, rng):
    w = small_z2_window
    rhs = rng.normal(size=w.n_vertices)
    with pytest.raises(SolverFailureError) as exc:
        solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.EMBEDDED,
                        tol=1e-14, max_iterations=1)
    assert exc.value.report is not None
    assert exc.value.report.iterations == 1
    assert not exc.value.report.converged


def test_report_json():
    from hodgedim import SolveReport
    rep = SolveReport(iterations=3, residual=1e-12, converged=True)
    data = json.loads(rep.to_json())
    assert data == {"converged": True, "iterations": 3, "residual": 1e-12}


@pytest.mark.parametrize("mode", [LaplacianMode.FREE, LaplacianMode.EMBEDDED])
def test_project_star_matches_dense(mode, rng):
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    for _ in range(5):
        u = rng.normal(size=w.n_edges)
        got = project_star(w, EdgeFunction(w, u), mode, tol=TOL)
        expect = dense_star_projection(w, u, embedded=(mode is LaplacianMode.EMBEDDED))
        assert got.projection.values == approx(expect, rel=1e-7, abs=1e-8)
        assert got.score == approx(float(u @ expect), rel=1e-8, abs=1e-10)


def test_project_star_idempotent(rng):
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    p1 = project_star(w, u, LaplacianMode.FREE, tol=TOL).projection
    p2 = project_star(w, p1, LaplacianMode.FREE, tol=TOL).projection
    assert p2.values == approx(p1.values, rel=1e-6, abs=1e-8)


def test_hodge_decompose_parts(rng):
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    parts = hodge_decompose_finite(w, u, tol=TOL)
    # completeness
    assert (parts.star + parts.diamond).values == approx(u.values)
    # orthogonality
    assert inner(parts.star, parts.diamond) == approx(0.0, abs=1e-8)
    # star really is a gradient of the returned potential
    assert parts.star.values == approx(differential(parts.potential).values,
                                       rel=1e-7, abs=1e-8)
    # diamond is a flow at every vertex, boundary included
    assert is_flow(parts.diamond, tol=1e-7, interior_only=False)


def test_star_diamond_traces_match_rank(rng):
    """Sum of per-edge FREE star scores = rank of the incidence matrix;
    diamond complement = cycle space dimension."""
    fam = make_family("z2")
    w = induced_window(fam, [(i, j) for i in range(3) for j in range(3)])
    star_trace = 0.0
    for t, h in zip(w.edge_tails, w.edge_heads):
        e = family_edge(fam, w.vertices[t], w.vertices[h])
        u = edge_indicator(w, e)
        star_trace += project_star(w, u, LaplacianMode.FREE, tol=TOL).score
    assert star_trace == approx(w.n_vertices - 1, rel=1e-8)
    assert cycle_rank(w) == cycle_space_dim(w) == w.n_edges - w.n_vertices + 1


def test_cycle_rank_tree(tree3):
    w = ball(tree3, (), 4)
    assert cycle_rank(w) == 0


def test_random_windows_decompose(rng):
    """Randomized windows across families: the finite splitting is exact."""
    fams = [make_family(n) for n in ("z2", "tree3", "ladder", "comb")]
    for i in range(12):
        fam = fams[i % len(fams)]
        w = random_window(fam, rng, 40)
        u = EdgeFunction(w, rng.normal(size=w.n_edges))
        parts = hodge_decompose_finite(w, u, tol=TOL)
        assert (parts.star + parts.diamond).values == approx(u.values)
        assert inner(parts.star, parts.diamond) == approx(0.0, abs=1e-7)
        if cycle_rank(w) == 0:
            assert parts.diamond.values == approx(np.zeros(w.n_edges), abs=1e-7)


def _reference_pcg(window, rhs, mode, tol=TOL):
    """The Jacobi PCG loop as written before its work buffers, verbatim, with
    the adjacency apply inlined in its `np.bincount` form: every iteration
    allocates its temporaries afresh. Returns (solution, iterations,
    relative residual)."""
    n = window.n_vertices
    deg = (window.full_degree if mode is LaplacianMode.EMBEDDED
           else window.internal_degree).astype(np.float64)
    t, h = window.edge_tails, window.edge_heads
    singular = bool(np.all(deg == window.internal_degree))
    b = rhs.copy()
    if singular:
        b -= math.fsum(b.tolist()) / n
    bnorm = float(np.linalg.norm(b))

    inv_deg = 1.0 / deg
    x = np.zeros(n)
    r = b.copy()
    z = r * inv_deg
    p = z.copy()
    rz = float(np.dot(r, z))
    relres = float(np.linalg.norm(r)) / bnorm
    iterations = 0
    while relres > tol:
        ap = deg * p - (np.bincount(t, weights=p[h], minlength=n)
                        + np.bincount(h, weights=p[t], minlength=n))
        alpha = rz / float(np.dot(p, ap))
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            break
        z = r * inv_deg
        rz_next = float(np.dot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    if singular:
        x -= x.mean()
    return x, iterations, relres


def _pcg_cases():
    for name, r in (("z2", 20), ("tree3", 12), ("comb", 8)):
        fam = make_family(name)
        e = origin_edge(fam)
        w = edge_ball(fam, e, r)
        yield name, w, codifferential(edge_indicator(w, e)).values
    rng = np.random.default_rng(7)
    w = random_window(make_family("diag_lattice"), rng, 300)
    yield "random", w, codifferential(
        EdgeFunction(w, rng.normal(size=w.n_edges))).values


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_pcg_is_bitwise_the_allocating_loop(mode):
    """The buffered loop makes the same floating-point operations on the
    same operands as the loop it replaced: equal iterates, iteration counts
    and residuals, bit for bit."""
    for name, w, rhs in _pcg_cases():
        v, rep = solve_laplacian(w, VertexFunction(w, rhs), mode)
        x, iterations, relres = _reference_pcg(w, rhs, mode)
        assert np.array_equal(v.values, x), name
        assert (rep.iterations, rep.residual) == (iterations, relres), name
        assert v.values.tobytes() == x.tobytes(), name
