"""Solver checks against dense numpy oracles on the incidence matrix."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from hodgedim import solver
from hodgedim import (EdgeFunction, FiniteWindow, IncompatibleRhsError,
                      LaplacianMode, SolverFailureError, VertexFunction, ball,
                      codifferential, cycle_rank, differential, edge_ball,
                      edge_indicator, family_edge, hodge_decompose_finite,
                      induced_window, inner, is_flow, laplacian_apply,
                      make_family, OrientedEdge, origin_edge, project_star,
                      solve_laplacian)
from hodgedim.windows import neighbour_tables
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
    # z2 r=48 (4,802 vertices) runs past the switch to `table_apply`
    for name, r in (("z2", 20), ("z2", 48), ("tree3", 12), ("comb", 8),
                    ("z3", 5), ("ladder", 12), ("diag_lattice", 8)):
        fam = make_family(name)
        e = origin_edge(fam)
        w = edge_ball(fam, e, r)
        yield name, w, codifferential(edge_indicator(w, e)).values
    # a 4-cycle, whose vertices share one degree in both modes
    w = induced_window(make_family("z2"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    yield "z2 square", w, codifferential(
        edge_indicator(w, OrientedEdge((0, 0), (1, 0)))).values
    rng = np.random.default_rng(7)
    w = random_window(make_family("diag_lattice"), rng, 300)
    yield "random", w, codifferential(
        EdgeFunction(w, rng.normal(size=w.n_edges))).values


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_pcg_is_bitwise_the_allocating_loop(mode, monkeypatch):
    """The buffered loop makes the same floating-point operations on the
    same operands as the loop it replaced: equal iterates, iteration counts
    and residuals, bit for bit. The reference keeps a degree per vertex, a
    temporary of its own beside z and np.linalg.norm; the balls of
    constant ambient degree and the 4-cycle take the one-element degree.
    The reference keeps the bincount apply on every iteration, and runs its
    dots on the solver's BLAS threads: one, past 10,000 vertices. The loop
    switches to `table_apply` where it would (z2 r=48), and again on every
    window before its first and before its third iteration."""
    for name, w, rhs in _pcg_cases():
        with solver._one_blas_thread(w.n_vertices):
            x, iterations, relres = _reference_pcg(w, rhs, mode)
        for switch_at, min_vertices in (
                (solver._TABLE_AFTER_ITERATIONS, solver._TABLE_MIN_VERTICES),
                (0, 1), (2, 1)):
            monkeypatch.setattr(solver, "_TABLE_AFTER_ITERATIONS", switch_at)
            monkeypatch.setattr(solver, "_TABLE_MIN_VERTICES", min_vertices)
            v, rep = solve_laplacian(w, VertexFunction(w, rhs), mode)
            assert np.array_equal(v.values, x), (name, switch_at)
            assert (rep.iterations, rep.residual) == (iterations, relres), (
                name, switch_at)
            assert v.values.tobytes() == x.tobytes(), (name, switch_at)
        monkeypatch.undo()


def test_dot_norm_is_numpys_norm_bitwise():
    """sqrt(r . r), the solver's norm, is np.linalg.norm bit for bit on 1-D
    real vectors, at sizes on both sides of the 10,000 entries past which a
    threaded BLAS may split the dot."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 100, 9999, 10_001, 20_000, 131_070):
        for scale in (1e-150, 1.0, 1e150):
            r = scale * rng.normal(size=n)
            assert (math.sqrt(float(np.dot(r, r))).hex()
                    == float(np.linalg.norm(r)).hex()), (n, scale)


def test_a_star_keeps_the_bincount_apply(monkeypatch):
    """On a star of 3,000 vertices, whose centre has 2,999 neighbours above
    it, a solve forced to switch at its first iteration builds no table: it
    allocates far less than the 2,999 x 3,000 one."""
    n = 3000
    star = FiniteWindow([(i,) for i in range(n)], np.zeros(n - 1, np.int64),
                        np.arange(1, n), [n - 1] + [1] * (n - 1))
    built = []

    def spy(*args):
        built.append(neighbour_tables(*args))
        return built[-1]

    monkeypatch.setattr(solver, "_TABLE_MIN_VERTICES", 1)
    monkeypatch.setattr(solver, "_TABLE_AFTER_ITERATIONS", 0)
    monkeypatch.setattr(solver, "neighbour_tables", spy)
    rhs = np.full(n, -1.0)
    rhs[0] = n - 1.0
    tracemalloc.start()
    try:
        _, report = solve_laplacian(star, VertexFunction(star, rhs),
                                    LaplacianMode.FREE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [None] and report.converged
    assert peak < 64 * 8 * n


def _pinned_case():
    """An edge ball of 10,658 vertices, past `_PIN_MIN_VERTICES`."""
    fam = make_family("z2")
    w = edge_ball(fam, origin_edge(fam), 72)
    return w, codifferential(edge_indicator(w, origin_edge(fam))).values


@pytest.fixture
def openblas():
    """The (get, set) thread-count calls, with the count restored after."""
    calls = solver._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count calls")
    threads = calls[0]()
    yield calls
    calls[1](threads)


def test_a_large_solve_runs_on_one_blas_thread_and_restores_the_count(
        openblas, monkeypatch):
    """Past 10,000 vertices the loop runs at one thread, and the caller's
    count is back after the solve, also when it raises; a small window's
    solve runs at the caller's count."""
    get_threads, set_threads = openblas
    set_threads(2)
    caller = get_threads()
    seen = []
    pcg = solver._pcg

    def spy(*args):
        seen.append(get_threads())
        return pcg(*args)

    monkeypatch.setattr(solver, "_pcg", spy)
    w, rhs = _pinned_case()
    solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.FREE)
    assert get_threads() == caller
    with pytest.raises(SolverFailureError):
        solve_laplacian(w, VertexFunction(w, rhs), LaplacianMode.FREE,
                        max_iterations=1)
    assert get_threads() == caller
    small = edge_ball(make_family("z2"), origin_edge(make_family("z2")), 4)
    project_star(small, origin_edge(make_family("z2")), LaplacianMode.FREE)
    assert seen == [1, 1, caller]


def test_a_blas_without_thread_calls_leaves_the_solve_unpinned(monkeypatch):
    """Where numpy's BLAS library has no thread-count symbols, the loader
    finds none, and a solve it would pin runs as before the pin: here one on
    a small window, with the pin's size bound lowered to 0."""
    import ctypes
    solver._openblas_thread_calls.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(solver, "_PIN_MIN_VERTICES", 0)
    try:
        w = edge_ball(make_family("z2"), origin_edge(make_family("z2")), 6)
        rhs = codifferential(edge_indicator(w, origin_edge(make_family("z2"))))
        v, rep = solve_laplacian(w, rhs, LaplacianMode.EMBEDDED)
        assert solver._openblas_thread_calls() is None
        assert rep.converged
        assert laplacian_apply(w, v, LaplacianMode.EMBEDDED).values == approx(
            rhs.values, abs=1e-8)
    finally:
        solver._openblas_thread_calls.cache_clear()


def _score_windows():
    for name, r in (("z2", 4), ("tree3", 4), ("comb", 3), ("z3", 2)):
        fam = make_family(name)
        yield name, fam, edge_ball(fam, origin_edge(fam), r)
    rng = np.random.default_rng(5)
    fam = make_family("diag_lattice")
    yield "random", fam, random_window(fam, rng, 60)


def _same_projection(a, b):
    return (a.score.hex() == b.score.hex() and a.report == b.report
            and a.potential.values.tobytes() == b.potential.values.tobytes()
            and a.projection.values.tobytes() == b.projection.values.tobytes())


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_project_star_on_an_edge_is_the_indicator(mode):
    """project_star on an oriented edge equals project_star on its chi_e bit
    for bit, for every edge of each window in both orientations, at a loose
    and a tight tol."""
    for name, fam, w in _score_windows():
        verts = w.vertices
        for a, b in zip(w.edge_tails.tolist(), w.edge_heads.tolist()):
            for e in (OrientedEdge(verts[a], verts[b]),
                      OrientedEdge(verts[b], verts[a])):
                for tol in (1e-3, TOL):
                    assert _same_projection(
                        project_star(w, e, mode, tol=tol),
                        project_star(w, edge_indicator(w, e), mode, tol=tol)
                    ), (name, e, tol)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("values, raises", [
    ([1e308, -1e308, 0.0, 0.0], True),  # the (0,0)-(0,1) step overflows
    ([1e308, 0.0, 0.0, -1e308], False),  # max - min overflows, no edge step
], ids=["edge step overflows", "only max - min overflows"])
def test_project_star_on_an_edge_checks_steps(monkeypatch, values, raises):
    """Where a potential's edge step overflows, project_star raises on the
    edge as on its chi_e; where only its spread overflows, both give the
    same projection."""
    from hodgedim import IncompatibleDomainError, solver
    w = induced_window(make_family("z2"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    # vertex order (0,0), (0,1), (1,0), (1,1); the diagonal pairs
    # (0,0)-(1,1) and (0,1)-(1,0) are not edges
    pot = VertexFunction(w, np.array(values))
    report = solver.SolveReport(1, 0.0, True)
    monkeypatch.setattr(solver, "solve_laplacian",
                        lambda *args, **kwargs: (pot, report))
    e = OrientedEdge((0, 0), (0, 1))
    if raises:
        for u in (e, edge_indicator(w, e)):
            with pytest.raises(IncompatibleDomainError):
                project_star(w, u, LaplacianMode.EMBEDDED)
    else:
        assert _same_projection(
            project_star(w, e, LaplacianMode.EMBEDDED),
            project_star(w, edge_indicator(w, e), LaplacianMode.EMBEDDED))
