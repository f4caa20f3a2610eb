"""Per-layer tracing applied from outside the package.

`Tracer.install()` replaces the names each layer calls through with
wrappers that record a span (name, start, end, parent span, thread) and,
for the family neighbour rule, a per-thread call count. Nothing under
`src/` changes: the wrappers are set on the importing modules' globals, so
they see exactly the calls the CLI makes. Spans stay in memory until
`write()`.

A span's self time is its duration minus the union of its children's
intervals. Spans opened on a worker thread whose own stack is empty take
the main thread's innermost open span as parent, so the `--jobs` pool's
work nests under the call that submitted it, and busy times are summed
across threads.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time

# Function name -> layer that owns it.
LAYER_OF = {
    "cli.main": "cli",
    "make_family": "families",
    "score_report": "dimension",
    "corollary4_table": "dimension",
    "suite_row": "quasi",
    "distortion_estimate": "quasi",
    "wobbling_displacement": "quasi",
    "lemma5_check": "quasi",
    "lemma6_check": "quasi",
    "ball": "windows",
    "window_from_json": "windows",
    "edge_function_from_csv": "edgespace",
    "hodge_decompose_finite": "solver",
    "project_star": "solver",
    "solve_laplacian": "solver",
}

# Module -> names patched in that module's globals.
PATCHES = {
    "hodgedim.cli": ("make_family", "score_report", "corollary4_table",
                     "suite_row", "window_from_json", "edge_function_from_csv",
                     "hodge_decompose_finite"),
    "hodgedim.dimension": ("ball", "project_star"),
    "hodgedim.quasi": ("ball", "project_star", "distortion_estimate",
                       "wobbling_displacement", "lemma5_check", "lemma6_check",
                       "make_family"),
    "hodgedim.solver": ("solve_laplacian",),
}

# Bytes one PCG iteration of solver.solve_laplacian reads or writes, counted
# from its array expressions: two gather + bincount passes over the int64
# edge arrays (80 per edge) and about 34 float64 vertex-vector passes
# (272 per vertex). A computed figure, not a hardware measurement.
BYTES_PER_EDGE_ITER = 80
BYTES_PER_VERTEX_ITER = 272


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    thread: int
    neighbors_before: int
    end: float = 0.0
    neighbors_after: int = 0
    extra: dict = dataclasses.field(default_factory=dict)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.neighbor_calls: dict[int, int] = {}
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].sid
        else:
            main = self._stacks.get(self._main)
            parent = main[-1].sid if tid != self._main and main else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, tid,
                    self.neighbor_calls.get(tid, 0))
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.neighbors_after = self.neighbor_calls.get(span.thread, 0)
        self._stacks[span.thread].pop()

    def wrap(self, name, fn, after=None):
        """fn, recording a span called `name` on every call. `after`, if
        given, sees (span, args, kwargs, result) and returns the result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(span, args, kwargs, result)
                return result
            finally:
                self._close(span)
        return wrapper

    def _counted(self, neighbors):
        counts = self.neighbor_calls
        get_ident = threading.get_ident

        def counted(x):
            tid = get_ident()  # each thread writes only its own key
            counts[tid] = counts.get(tid, 0) + 1
            return neighbors(x)
        return counted

    # -- per-function hooks ------------------------------------------------

    def _after_make_family(self, span, args, kwargs, family):
        return dataclasses.replace(family,
                                   neighbors=self._counted(family.neighbors))

    @staticmethod
    def _after_ball(span, args, kwargs, window):
        center = args[1] if len(args) > 1 else kwargs["center"]
        span.extra["vertices"] = window.n_vertices
        # dimension.edge_ball centres a ball on an edge's endpoint pair.
        span.extra["edge_ball"] = not all(isinstance(c, int) for c in center)
        return window

    @staticmethod
    def _after_solve(span, args, kwargs, result):
        window = args[0] if args else kwargs["window"]
        span.extra["iterations"] = result[1].iterations
        span.extra["n_vertices"] = window.n_vertices
        span.extra["n_edges"] = window.n_edges
        return result

    def install(self) -> None:
        hooks = {"make_family": self._after_make_family,
                 "ball": self._after_ball,
                 "solve_laplacian": self._after_solve}
        for module_name, names in PATCHES.items():
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self.wrap(name, getattr(module, name),
                                                hooks.get(name)))

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        rows = [dataclasses.asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            inside = [(max(a, s.start), min(b, s.end))
                      for a, b in children.get(s.sid, ())]
            out[s.sid] = (s.end - s.start) - covered(inside)
        return out

    def summary(self, edge_scores: int) -> dict[str, float]:
        """Per-layer metrics. `edge_scores` is the number of (edge, radius)
        estimates the commands made; 0 where the workload makes none."""
        self_s = self.self_times()

        def spans(*names):
            return [s for s in self.spans if s.name in names]

        def total_self(*names):
            return sum(self_s[s.sid] for s in spans(*names))

        def total_dur(*names):
            return sum(s.end - s.start for s in spans(*names))

        balls = spans("ball")
        ball_s = total_dur("ball")
        vertices = sum(s.extra["vertices"] for s in balls)
        ball_neighbors = sum(s.neighbors_after - s.neighbors_before
                             for s in balls)
        solves = spans("solve_laplacian")
        solve_s = total_dur("solve_laplacian")
        iterations = sum(s.extra["iterations"] for s in solves)
        sweeps = sum(s.extra["iterations"] * s.extra["n_edges"] for s in solves)
        bytes_moved = sum(s.extra["iterations"]
                          * (BYTES_PER_EDGE_ITER * s.extra["n_edges"]
                             + BYTES_PER_VERTEX_ITER * s.extra["n_vertices"])
                          for s in solves)
        edge_balls = sum(1 for s in balls if s.extra["edge_ball"])

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        return {
            "families.neighbor_calls": sum(self.neighbor_calls.values()),
            "windows.ball_calls": len(balls),
            "windows.ball_s": ball_s,
            "windows.vertices_built": vertices,
            "windows.ns_per_vertex": ratio(ball_s, vertices, 1e9),
            "windows.neighbor_calls_per_vertex": ratio(ball_neighbors,
                                                       vertices),
            "windows.from_json_s": total_dur("window_from_json"),
            "edgespace.csv_parse_s": total_dur("edge_function_from_csv"),
            "cli.self_s": total_self("cli.main"),
            "solver.solves": len(solves),
            "solver.solve_s": solve_s,
            "solver.cg_iterations": iterations,
            "solver.edge_sweeps": sweeps,
            "solver.bytes_moved_computed": bytes_moved,
            "solver.ns_per_edge_sweep": ratio(solve_s, sweeps, 1e9),
            "dimension.self_s": total_self("score_report", "corollary4_table"),
            "dimension.solves_per_edge_score": ratio(len(solves), edge_scores),
            "dimension.balls_per_edge_score": ratio(edge_balls, edge_scores),
            "quasi.distortion_s": total_self("distortion_estimate"),
            "quasi.wobble_s": total_self("wobbling_displacement"),
            "quasi.lemma5_s": total_self("lemma5_check"),
            "quasi.lemma6_s": total_self("lemma6_check"),
            "quasi.self_s": total_self("suite_row"),
        }

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer, across threads."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            layer = LAYER_OF[s.name]
            out[layer] = out.get(layer, 0.0) + self_s[s.sid]
        return out
