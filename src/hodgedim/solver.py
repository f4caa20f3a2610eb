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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .edgespace import EdgeFunction, VertexFunction, codifferential, differential, inner
from .errors import IncompatibleRhsError, SolverFailureError
from .windows import FiniteWindow, adjacency_apply


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
    if mode is LaplacianMode.EMBEDDED:
        return window.full_degree.astype(np.float64)
    return window.internal_degree.astype(np.float64)


def laplacian_apply(window: FiniteWindow, v: VertexFunction,
                    mode: LaplacianMode) -> VertexFunction:
    """(D - A) v with the mode's degree matrix D."""
    deg = _mode_degrees(window, mode)
    return VertexFunction(window, deg * v.values - adjacency_apply(window, v.values))


def solve_laplacian(window: FiniteWindow, rhs: VertexFunction,
                    mode: LaplacianMode, tol: float = 1e-10,
                    max_iterations: int | None = None):
    """Solve L v = rhs to relative residual `tol`, which must lie in (0, 1):
    at 1 or more the zero start vector already passes.

    Returns (v, SolveReport). Singular configurations (FREE mode, or EMBEDDED
    on a window without boundary) require a zero-mean rhs and return the
    zero-mean solution. Raises SolverFailureError, carrying the report, if
    the iteration cap (default 20 |V|) is hit first.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    n = window.n_vertices
    deg = _mode_degrees(window, mode)
    singular = bool(np.all(deg == window.internal_degree))
    b = rhs.values

    if singular:
        drift = math.fsum(b.tolist())
        if abs(drift) > 1e-8 * max(1.0, float(np.abs(b).sum())):
            raise IncompatibleRhsError(
                f"rhs sums to {drift:.3e}; a singular mode needs zero mean")
        b = b - drift / n

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return VertexFunction(window, np.zeros(n)), SolveReport(0, 0.0, True)

    if max_iterations is None:
        max_iterations = 20 * n

    inv_deg = 1.0 / deg  # connected window with an edge: every degree >= 1
    x = np.zeros(n)
    r = b.copy()
    z = r * inv_deg
    p = z.copy()
    rz = float(np.dot(r, z))
    relres = float(np.linalg.norm(r)) / bnorm
    # Work buffers, written in place by every iteration: fresh temporaries of
    # 10^5 floats and more are page-faulted in again on each one. Only the
    # adjacency apply's bincount sums are still allocated (see
    # `adjacency_apply`). The operations and their operands are those of the
    # textbook loop. `tmp` holds A p, then alpha p, then alpha ap.
    ap, tmp = np.empty(n), np.empty(n)
    gathered = np.empty(window.n_edges)
    iterations = 0
    while relres > tol and iterations < max_iterations:
        adjacency_apply(window, p, out=tmp, gathered=gathered)
        np.subtract(np.multiply(deg, p, out=ap), tmp, out=ap)  # deg p - A p
        alpha = rz / float(np.dot(p, ap))
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        iterations += 1
        relres = float(np.linalg.norm(r)) / bnorm
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


def project_star(window: FiniteWindow, u: EdgeFunction, mode: LaplacianMode,
                 tol: float = 1e-10) -> StarProjection:
    """Project u orthogonally onto the gradient space of the given mode.

    score = <P u, u>. In EMBEDDED mode the projection conceptually has values
    on the implicit boundary edges as well; the returned EdgeFunction is its
    window-internal part, and the score already accounts for the rest because
    u vanishes there.
    """
    v, report = solve_laplacian(window, codifferential(u), mode, tol=tol)
    proj = differential(v)
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
