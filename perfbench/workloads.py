"""The four workloads: the CLI commands each runs, its inputs, its work-item
count for `items_per_s`, and the checks its output rows must pass.

Only `finite_split` draws its inputs from the seed; the other three run
fixed commands, so every seed gives them the same work.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import checks

TOL = 1e-10  # the CLI's default --tol, passed explicitly


@dataclasses.dataclass
class Split:
    """A generated window and edge function, with the reference star part."""
    labels: list
    tails: np.ndarray
    heads: np.ndarray
    values: np.ndarray
    reference: np.ndarray


class Workload:
    name = ""
    edge_scores = 0  # (edge, radius) estimates per repetition
    expected_rows = 0

    def prepare(self, work: Path, seed: int) -> None:
        """Write any generated inputs into `work`."""

    def argv(self, out: Path, jobs: int | None = None) -> list[str]:
        raise NotImplementedError

    @property
    def items(self) -> int:
        return self.edge_scores

    def check(self, text: str) -> list[bool]:
        raise NotImplementedError


class TreeProfile(Workload):
    name = "tree_profile"
    radii = tuple(range(1, 16))
    edge_scores = expected_rows = len(radii)

    def argv(self, out, jobs=None):
        return ["scores", "--family", "tree3", "--radii", "1..15",
                "--tol", repr(TOL), "--jobs", "1", "--out", str(out)]

    def check(self, text):
        return checks.check_tree_profile(checks.parse_csv(text), 3,
                                         self.radii, TOL)


class LatticeWindowDim(Workload):
    name = "lattice_window_dim"
    radii = (2, 4, 6)
    factor = 4
    jobs = 2
    # a z2 ball of radius w has 4 w^2 edges, each scored once
    edge_scores = sum(4 * w * w for w in radii)
    expected_rows = len(radii)

    def __init__(self):
        self._reference = None

    def argv(self, out, jobs=None):
        return ["cor4", "--family", "z2",
                "--window-radii", ",".join(map(str, self.radii)),
                "--factor", str(self.factor), "--tol", repr(TOL),
                "--jobs", str(jobs or self.jobs), "--out", str(out)]

    def check(self, text):
        if self._reference is None:
            self._reference = {w: checks.cor4_reference(w, self.factor)
                               for w in self.radii}
        return checks.check_cor4(checks.parse_csv(text), self._reference,
                                 self.radii, self.factor)


class QiBattery(Workload):
    name = "qi_battery"
    radii = tuple(range(2, 7))
    maps = ("identity", "translation", "coarsen", "z2_to_diag")
    expected_rows = len(radii) * len(maps)

    @property
    def items(self):
        return self.expected_rows

    def argv(self, out, jobs=None):
        return ["qicheck", "--family", "z2", "--window-radii", "2..6",
                "--tol", repr(TOL), "--jobs", "1", "--out", str(out)]

    def check(self, text):
        return checks.check_qi(checks.parse_csv(text), self.maps, self.radii)


class FiniteSplit(Workload):
    name = "finite_split"
    n_vertices = 20_000

    def __init__(self):
        self.split = None
        self.work = None

    def prepare(self, work, seed):
        self.work = work
        labels, tails, heads, values = make_split_inputs(
            self.n_vertices, seed, work / "window.json", work / "edges.csv")
        self.split = Split(labels, tails, heads, values, None)

    @property
    def expected_rows(self):
        return len(self.split.values)

    @property
    def items(self):
        return len(self.split.values)

    def argv(self, out, jobs=None):
        return ["decompose", "--window", str(self.work / "window.json"),
                "--edges", str(self.work / "edges.csv"), "--tol", repr(TOL),
                "--jobs", "1", "--out", str(out)]

    def check(self, text):
        s = self.split
        if s.reference is None:
            s.reference = checks.split_reference(len(s.labels), s.tails,
                                                 s.heads, s.values)
        return checks.check_split(checks.parse_csv(text), s, TOL)


WORKLOADS = {w.name: w for w in (TreeProfile, LatticeWindowDim, QiBattery,
                                 FiniteSplit)}


# -- finite_split inputs ---------------------------------------------------

def eden_cluster(n: int, rng: np.random.Generator) -> np.ndarray:
    """A connected set of n z2 points grown from the origin by adding, at
    each step, a uniformly chosen site next to the cluster (Eden growth).
    Returned sorted lexicographically."""
    cluster = {(0, 0)}
    perimeter = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    listed = set(perimeter) | cluster
    for u in rng.random(n - 1):
        i = int(u * len(perimeter))
        perimeter[i], perimeter[-1] = perimeter[-1], perimeter[i]
        x, y = perimeter.pop()
        cluster.add((x, y))
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q not in listed:
                listed.add(q)
                perimeter.append(q)
    return np.array(sorted(cluster), dtype=np.int64)


def make_split_inputs(n: int, seed: int, window_path: Path, edges_path: Path):
    """Write a seeded Eden cluster of n z2 vertices as window JSON (the
    format `hodgedim.window_to_json` writes) and seeded N(0, 1) values on
    its edges as `tail,head,value` CSV. Returns (labels, tails, heads,
    values) with labels in the CLI's vertex encoding."""
    rng = np.random.default_rng(seed)
    points = eden_cluster(n, rng)
    tails, heads = checks.z2_edges(points)
    values = rng.normal(size=len(tails))
    degree = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    payload = {"vertices": points.tolist(),
               "edges": np.column_stack([tails, heads]).tolist(),
               "full_degree": [4] * n,
               "sigma": np.flatnonzero(degree < 4).tolist()}
    window_path.write_text(json.dumps(payload, sort_keys=True,
                                      separators=(",", ":")), encoding="utf-8")
    labels = [f"({x},{y})" for x, y in points.tolist()]
    lines = ["tail,head,value"]
    lines += [f'"{labels[a]}","{labels[b]}",{v!r}'
              for a, b, v in zip(tails.tolist(), heads.tolist(),
                                 values.tolist())]
    edges_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return labels, tails, heads, values
