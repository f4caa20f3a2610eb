"""One timed repetition in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec holds `commands` (argv lists for `hodgedim.cli.main`), and for a
traced repetition `trace_path` and `edge_scores`. The package import is
timed first, before anything else is imported, because that is the
start-up a CLI user pays on every call. Prints one JSON line: import_s,
wall_s (the `cli.main` calls only), peak_rss_mb, the exit codes and, when
traced, the per-layer metrics.
"""

import sys
import time

_t0 = time.perf_counter()
from hodgedim import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB. VmHWM starts afresh at
    exec; getrusage's ru_maxrss would carry over the high-water mark of the
    forking parent, which has numpy and scipy loaded."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    main_fn = cli.main
    if spec.get("trace_path"):
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    codes = []
    wall_s = 0.0
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        codes.append(main_fn(argv))
        wall_s += time.perf_counter() - t0
    result = {"import_s": IMPORT_S, "wall_s": wall_s, "codes": codes,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.write(spec["trace_path"])
        result["layers"] = tracer.summary(spec["edge_scores"])
        result["layer_self_s"] = tracer.layer_self_s()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
