"""hodgedim benchmark: four CLI workloads, checked, timed end to end, and
split by layer in a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every repetition is a fresh
interpreter (`child.py`) that imports hodgedim from `src/` and calls
`hodgedim.cli.main`. Repetitions repeat until `--seconds` have passed. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). An operation
is one output row; it fails when its command exits non-zero or the row
fails its check, and a row that comes out wrong also makes `correct`
false. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks  # perfbench/ is sys.path[0] when run as a script
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 7  # import-only interpreters per run, besides the repetitions
MIN_REPS = 3  # so one stalled repetition cannot set a run's figure

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "items_per_s": "1/s"}
PER_LAYER_UNITS = {
    "families.neighbor_calls": "count",
    "windows.ball_calls": "count",
    "windows.ball_s": "s",
    "windows.vertices_built": "count",
    "windows.ns_per_vertex": "ns",
    "windows.neighbor_calls_per_vertex": "ratio",
    "windows.from_json_s": "s",
    "edgespace.csv_parse_s": "s",
    "cli.self_s": "s",
    "solver.solves": "count",
    "solver.solve_s": "s",
    "solver.cg_iterations": "count",
    "solver.edge_sweeps": "count",
    "solver.bytes_moved_computed": "bytes",
    "solver.ns_per_edge_sweep": "ns",
    "dimension.self_s": "s",
    "dimension.solves_per_edge_score": "ratio",
    "dimension.balls_per_edge_score": "ratio",
    "dimension.jobs2_speedup": "ratio",
    "quasi.distortion_s": "s",
    "quasi.wobble_s": "s",
    "quasi.lemma5_s": "s",
    "quasi.lemma6_s": "s",
    "quasi.self_s": "s",
    "trace.overhead_s": "s",
}


class Bench:
    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._verdicts: dict[str, list[bool]] = {}

    def child(self, commands, trace_path: Path | None = None):
        """Run one fresh interpreter; its JSON result, or None if it
        crashed."""
        spec = {"commands": commands}
        if trace_path is not None:
            spec.update(trace_path=str(trace_path),
                        edge_scores=self.wl.edge_scores)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def record(self, verdict: list[bool] | None) -> None:
        """Count one command's rows; None means the command failed."""
        expected = self.wl.expected_rows
        self.attempted += expected
        if verdict is None:
            self.failed += expected
            return
        bad = verdict.count(False)
        self.failed += bad
        if bad:
            self.correct = False

    def rep(self, jobs=None, trace=False, same_as: str | None = None):
        """One repetition of the workload's command, with its rows counted.
        With `same_as`, rows are checked for byte equality with that output
        instead of against the reference. Returns (child result, output)."""
        out = self.work / "out.csv"
        out.unlink(missing_ok=True)
        res = self.child([self.wl.argv(out, jobs)],
                         self.work / "trace.json" if trace else None)
        if res is None or res["codes"] != [0] or not out.exists():
            self.record(None)
            return res, None
        text = out.read_text(encoding="utf-8")
        if same_as is not None:
            self.record(checks.same_rows(
                same_as, text, self.wl.expected_rows))
        else:
            if text not in self._verdicts:  # identical bytes, same verdict
                self._verdicts[text] = checks.guarded(
                    self.wl.check, text, self.wl.expected_rows)
            self.record(self._verdicts[text])
        return res, text

    def untraced(self, seconds: float) -> dict:
        imports = []
        for _ in range(SETUP_PROBES):
            res = self.child([])
            if res is not None:
                imports.append(res["import_s"])
        reps = []
        first_text = None
        start = time.perf_counter()
        for attempt in itertools.count(1):
            res, text = self.rep()
            if res is not None:
                reps.append(res)
                imports.append(res["import_s"])
            first_text = first_text or text
            if (attempt >= MIN_REPS
                    and time.perf_counter() - start >= seconds):
                break
        if isinstance(self.wl, workloads.LatticeWindowDim) and first_text:
            self.rep(jobs=1, same_as=first_text)  # --jobs must not change bytes
        if not reps or not imports:
            raise SystemExit("perfbench: no repetition completed")
        walls = [r["wall_s"] for r in reps]
        wall_s = upper_quartile(walls)
        metrics = {
            "setup_s": statistics.median(imports),
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "items_per_s": self.wl.items / wall_s,
        }
        log(f"{len(reps)} repetitions, {len(imports)} imports; wall_s "
            f"{[round(w, 4) for w in walls]}")
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in metrics.items()}

    def traced(self, seconds: float) -> dict:
        cor4 = isinstance(self.wl, workloads.LatticeWindowDim)
        plain, traced, jobs1, layers, split = [], [], [], [], []
        start = time.perf_counter()
        for attempt in itertools.count(1):
            res, text = self.rep()
            if res is not None:
                plain.append(res["wall_s"])
            res, _ = self.rep(trace=True)
            if res is not None:
                traced.append(res["wall_s"])
                layers.append(res["layers"])
                split.append(res["layer_self_s"])
            if cor4 and text:
                res, _ = self.rep(jobs=1, same_as=text)
                if res is not None:
                    jobs1.append(res["wall_s"])
            if (attempt >= MIN_REPS
                    and time.perf_counter() - start >= seconds):
                break
        if not plain or not traced or (cor4 and not jobs1):
            raise SystemExit("perfbench: no repetition completed")
        metrics = {k: statistics.median(lay[k] for lay in layers)
                   for k in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        metrics["dimension.jobs2_speedup"] = (
            statistics.median(jobs1) / statistics.median(plain) if cor4 else 0.0)
        median_split = {k: round(statistics.median(s.get(k, 0.0) for s in split),
                                 4) for k in sorted({k for s in split for k in s})}
        log(f"{len(traced)} traced repetitions; untraced wall_s "
            f"{statistics.median(plain):.4f}; layer self time (s) {median_split}")
        return {k: {"value": metrics[k], "unit": PER_LAYER_UNITS[k]}
                for k in PER_LAYER_UNITS}


def upper_quartile(values) -> float:
    """Upper quartile, interpolated between samples.

    Run times on a shared host switch between a contended speed and faster
    spells lasting seconds; the contended speed is the steady one, and the
    upper quartile of a run's repetitions lands on it unless most of the
    run was a fast spell. The median moves with the share of fast spells.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def log(text: str) -> None:
    print(f"perfbench: {text}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hodgedim" / "cli.py").is_file():
        log(f"no hodgedim sources under {ROOT / 'src'}; run from the root "
            "of a source checkout")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}")
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    work = HERE / "out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl.prepare(work, args.seed)
    bench = Bench(wl, work)
    if args.trace:
        metrics = bench.traced(args.seconds)
    else:
        metrics = bench.untraced(args.seconds)
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
