"""Window Laplacians and orthogonal projections onto gradient spaces.

Two Laplacian modes, differing only in the degree term:

    FREE       uses the window-internal degree; this is the Laplacian of the
               window as a standalone finite graph. Singular: its kernel is
               the constants.
    EMBEDDED   uses the ambient degree. Boundary vertices keep their missing
               edges as implicit links to a grounded (zero) exterior, so the
               operator is positive definite whenever the window has a
               boundary. This is the quadratic form of a potential supported
               in the window, differentiated in the ambient graph.

project_star(u) computes the orthogonal projection of u onto {dv} for the
given mode by solving the normal equations L v = d* u with a Jacobi
preconditioned conjugate gradient, matrix-free over the window's edge
arrays. In FREE mode the right-hand side must have zero mean; the returned
potential is mean-centered.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .edgespace import EdgeFunction, VertexFunction, codifferential, differential, inner
from .errors import IncompatibleRhsError, SolverFailureError
from .windows import (FiniteWindow, OrientedEdge, adjacency_apply,
                      neighbour_tables, table_apply)


class LaplacianMode(Enum):
    FREE = "free"
    EMBEDDED = "embedded"


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float  # relative to |rhs|
    converged: bool

    def to_json(self) -> str:
        return json.dumps(
            {"converged": self.converged, "iterations": self.iterations,
             "residual": self.residual},
            sort_keys=True, separators=(",", ":"))


def _mode_degrees(window: FiniteWindow, mode: LaplacianMode) -> np.ndarray:
    """Float degrees: one element, which broadcasts, where all are equal."""
    deg = (window.full_degree if mode is LaplacianMode.EMBEDDED
           else window.internal_degree)
    return (deg[:1] if deg.min() == deg.max() else deg).astype(np.float64)


def laplacian_apply(window: FiniteWindow, v: VertexFunction,
                    mode: LaplacianMode) -> VertexFunction:
    """(D - A) v with the mode's degree matrix D."""
    deg = _mode_degrees(window, mode)
    return VertexFunction(window, deg * v.values - adjacency_apply(window, v.values))


class _OwnedRhs(VertexFunction):
    """A right-hand side handed over to `solve_laplacian`: its values become
    the loop's residual and are overwritten, so the caller must not read
    them again. They are taken as they are, with no second shape and
    finiteness pass: `project_star` builds them finite and of the
    window's length."""

    def __init__(self, window: FiniteWindow, values: np.ndarray):
        self.window, self.values = window, values


# Past this many iterations, on windows of at least this many vertices, the
# PCG loop applies A with `table_apply` instead of the bincounts. Per apply
# (2 vCPUs): the 20,000-vertex Eden window of the benchmark's `finite_split`
# takes 171 us with the bincounts and 81 us with the tables, whose build
# (0.9 ms) is paid back within 10 iterations; z2 r=48 (4,802 vertices)
# takes 49 against 23 us. The tables win from about 600 vertices on (z2
# r=16: 10.6 against 6.9 us) and lose below (z2 r=8: 4.4 against 5.3 us).
# A solve still running at iteration 64 runs on for long, as the Eden
# window's 764 iterations do; the edge-score solves of trees stop well
# before it. Nor is a table built that would hold more than 2 m + 2 n cells:
# on a star it would hold n^2, and on a tree it pays least.
_TABLE_AFTER_ITERATIONS = 64
_TABLE_MIN_VERTICES = 4096
# OpenBLAS splits no dot product of this many entries or fewer
_PIN_MIN_VERTICES = 10_000


@cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    on a build without that library or its symbols. Imports ctypes, so it
    runs on the first solve that needs it and not at import."""
    import ctypes
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        return (lib.scipy_openblas_get_num_threads64_,
                lib.scipy_openblas_set_num_threads64_)
    except (IndexError, OSError, AttributeError):
        return None


@contextmanager
def _one_blas_thread(n_vertices: int):
    """Runs its block with OpenBLAS on one thread, and then restores the
    caller's count, when n_vertices is past `_PIN_MIN_VERTICES`. A dot that
    OpenBLAS splits across threads rounds differently: with the pin, the
    solve's bits do not depend on the thread count. Where numpy's BLAS has
    no such call, the block runs as it is."""
    pinned = n_vertices > _PIN_MIN_VERTICES
    calls = _openblas_thread_calls() if pinned else None
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def solve_laplacian(window: FiniteWindow, rhs: VertexFunction,
                    mode: LaplacianMode, tol: float = 1e-10,
                    max_iterations: int | None = None):
    """Solve L v = rhs to relative residual `tol`, which must lie in (0, 1):
    at 1 or more the zero start vector already passes.

    Returns (v, SolveReport). Singular configurations (FREE mode, or EMBEDDED
    on a window without boundary) require a zero-mean rhs and return the
    zero-mean solution. Raises SolverFailureError, carrying the report, if
    the iteration cap (default 20 |V|) is hit first.

    The loop keeps five n-vectors (x, r, z, p, Ap) and one edge buffer. Its
    residual r starts as one copy of rhs's values, which are left as they
    are, or as the values themselves when rhs is an `_OwnedRhs`. A long
    solve on a large window switches to `table_apply`, with the same bits:
    its tables and one more n-vector then take the edge buffer's place. On
    a large window the dots run on one OpenBLAS thread (`_one_blas_thread`).
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    with _one_blas_thread(window.n_vertices):
        return _pcg(window, rhs, mode, tol, max_iterations)


def _pcg(window: FiniteWindow, rhs: VertexFunction, mode: LaplacianMode,
         tol: float, max_iterations: int | None):
    r = rhs.values if type(rhs) is _OwnedRhs else rhs.values.copy()
    n = window.n_vertices
    deg = _mode_degrees(window, mode)
    # the same truth value as deg == internal degree everywhere, read
    # without counting the internal degrees
    singular = mode is LaplacianMode.FREE or not window.boundary.any()

    if singular:
        drift = math.fsum(r.tolist())
        if abs(drift) > 1e-8 * max(1.0, float(np.abs(r).sum())):
            raise IncompatibleRhsError(
                f"rhs sums to {drift:.3e}; a singular mode needs zero mean")
        r -= drift / n

    bnorm = math.sqrt(float(np.dot(r, r)))  # np.linalg.norm's 1-D formula
    if bnorm == 0.0:
        return VertexFunction(window, np.zeros(n)), SolveReport(0, 0.0, True)

    if max_iterations is None:
        max_iterations = 20 * n

    inv_deg = 1.0 / deg  # connected window with an edge: every degree >= 1
    x = np.zeros(n)
    z = r * inv_deg
    padded = np.zeros(n + 1)  # p, then the 0.0 that `table_apply` reads
    p = padded[:n]
    p[:] = z
    rz = float(np.dot(r, z))
    relres = math.sqrt(float(np.dot(r, r))) / bnorm
    # Work buffers, written in place by every iteration: fresh temporaries of
    # 10^5 floats and more are page-faulted in again on each one. Only the
    # adjacency apply's bincount sums are still allocated (see
    # `adjacency_apply`). The operations and their operands are those of the
    # textbook loop. `tmp` (z's buffer: z is dead from the update of p until
    # it is recomputed) holds A p, then alpha p, then alpha ap. `ap` and the
    # apply's gathered edge values share one buffer: ap is dead from its
    # last read until it is recomputed from the apply's result. At the
    # switch to the tables, that buffer gives way to one of two n-vectors:
    # ap, then `table_apply`'s down half, and its gathered values.
    work = np.empty(max(n, window.n_edges))
    ap, gathered, tmp = work[:n], work[:window.n_edges], z
    switch_at = _TABLE_AFTER_ITERATIONS if n >= _TABLE_MIN_VERTICES else -1
    tables = None
    iterations = 0
    while relres > tol and iterations < max_iterations:
        if iterations == switch_at:
            tables = neighbour_tables(window, 2 * (window.n_edges + n))
            if tables is not None:
                del work, ap, gathered  # freed before its successor is made
                work = np.empty(2 * n)
                ap = work[:n]
        if tables is None:
            adjacency_apply(window, p, out=tmp, gathered=gathered)
        else:
            table_apply(tables, padded, tmp, work[:n], work[n:2 * n])
        np.subtract(np.multiply(deg, p, out=ap), tmp, out=ap)  # deg p - A p
        alpha = rz / float(np.dot(p, ap))
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        iterations += 1
        relres = math.sqrt(float(np.dot(r, r))) / bnorm
        if relres <= tol:
            break
        np.multiply(r, inv_deg, out=z)
        rz_next = float(np.dot(r, z))
        np.add(z, np.multiply(rz_next / rz, p, out=p), out=p)
        rz = rz_next

    report = SolveReport(iterations, relres, relres <= tol)
    if not report.converged:
        raise SolverFailureError(
            f"conjugate gradient stalled at {relres:.3e} after "
            f"{iterations} iterations", report=report)
    if singular:
        x -= x.mean()
    return VertexFunction(window, x), report


@dataclass(frozen=True)
class StarProjection:
    projection: EdgeFunction
    potential: VertexFunction
    score: float
    report: SolveReport


def project_star(window: FiniteWindow, u: EdgeFunction | OrientedEdge,
                 mode: LaplacianMode, tol: float = 1e-10) -> StarProjection:
    """Project u orthogonally onto the gradient space of the given mode.

    score = <P u, u>. In EMBEDDED mode the projection conceptually has values
    on the implicit boundary edges as well; the returned EdgeFunction is its
    window-internal part, and the score already accounts for the rest because
    u vanishes there.

    An oriented edge e of the window stands for its indicator chi_e, which
    is then not built: d* chi_e is sign at the head and -sign at the tail,
    and <dv, chi_e> is sign dv(e), or 0.0 (no nonzero term) where that is 0,
    the same bits as from chi_e.
    """
    if isinstance(u, OrientedEdge):
        k, sign = window.edge_lookup(u)
        b = np.zeros(window.n_vertices)
        b[window.edge_heads[k]] = sign
        b[window.edge_tails[k]] = -sign
    else:
        b = codifferential(u).values
    # b is fresh and read nowhere else: the solve takes it, with no copy
    v, report = solve_laplacian(window, _OwnedRhs(window, b), mode, tol=tol)
    proj = differential(v)
    if isinstance(u, OrientedEdge):
        score = sign * float(proj.values[k])
        return StarProjection(proj, v, score if score != 0 else 0.0, report)
    return StarProjection(proj, v, inner(proj, u), report)


@dataclass(frozen=True)
class HodgeParts:
    star: EdgeFunction
    diamond: EdgeFunction
    potential: VertexFunction
    report: SolveReport


def hodge_decompose_finite(window: FiniteWindow, u: EdgeFunction,
                           tol: float = 1e-10) -> HodgeParts:
    """Split u = dv + (flow) on a finite window (FREE mode).

    The flow part satisfies d* = 0 at every vertex, boundary included, up to
    the solve residual.
    """
    sp = project_star(window, u, LaplacianMode.FREE, tol=tol)
    return HodgeParts(sp.projection, u - sp.projection, sp.potential, sp.report)


def cycle_rank(window: FiniteWindow) -> int:
    """|E| - |V| + 1 for a connected window: dimension of its cycle space."""
    return window.n_edges - window.n_vertices + 1
