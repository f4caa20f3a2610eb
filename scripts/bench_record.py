#!/usr/bin/env python3
"""Record the benchmark of one git revision as a BENCH_*.json file.

    python3 scripts/bench_record.py --ref REV --out BENCH_prNN.json

Unpacks `git archive REV` into /tmp/hodgedim-bench-<12 hex digits of the
commit>, a path of the same length for every revision: the directory name
alone moves `peak_rss_mb` and `wall_s`. It replaces that checkout's
`perfbench/` with this checkout's, so every revision runs the same harness,
and runs `perfbench/run.py` unchanged on each workload of `BENCHMARK.json`,
untraced and traced, one after the other, for the benchmark's
`run_seconds` with seed 4242. The file holds each run's result line with
its commit, workload, seed, run seconds and trace flag, and the
machine and environment that move the numbers: Python, numpy and its BLAS,
the CPU count and platform, `OPENBLAS_NUM_THREADS`, any `MALLOC_*`
variable and `PYTHONDONTWRITEBYTECODE`. The checkout is removed afterwards.
Exits 1 if a run fails or reports a failed row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = Path("/tmp")
SEED = 4242


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(commit: str) -> Path:
    """`git archive` of the commit, with this checkout's perfbench/."""
    path = WORKDIR / f"hodgedim-bench-{commit[:12]}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(path)], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    shutil.rmtree(path / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return path


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else None),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def environment() -> dict:
    names = ["OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE",
             *sorted(k for k in os.environ if k.startswith("MALLOC_"))]
    return {k: os.environ.get(k) for k in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    commit = _git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    path = checkout(commit)
    runs, ok = [], True
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(SEED), "--seconds",
                       str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=path, capture_output=True,
                                      text=True)
                lines = proc.stdout.splitlines()
                result = None
                if proc.returncode == 0 and lines:
                    result = json.loads(lines[-1])
                ok &= result is not None and result["failed"] == 0
                print(f"{workload} trace={trace}:",
                      json.dumps(result) if result else proc.stderr,
                      file=sys.stderr)
                runs.append({"commit": commit, "workload": workload,
                             "seed": SEED, "seconds": seconds,
                             "trace": trace, "result": result})
    finally:
        shutil.rmtree(path, ignore_errors=True)
    record = {"ref": args.ref, "commit": commit,
              "subject": _git("log", "-1", "--format=%s", commit),
              "machine": machine(), "environment": environment(),
              "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
