"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities. Run with `pytest tests/test_acceptance.py -v -s`.

Budgets are asserted where a criterion carries one. Tolerances are the
criterion's own; nothing here is loosened to accommodate the implementation.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from hodgedim import (EdgeFunction, LaplacianMode, Subspace, VertexFunction,
                      ball, builtin_maps, corollary4_table, cycle_rank,
                      diamond_score, differential, dim_window, edge_function_to_csv,
                      family_edge, hd_score, hodge_decompose_finite,
                      induced_window, inner, is_flow, lemma3_check,
                      make_family, origin_edge, score_report, sigma,
                      star_membership_residual, star_score, suite_row,
                      window_to_json)
from conftest import incidence, random_window, source_env

SEED = 0xAC5EED


def _random_edge(family, rng):
    pool = ball(family, family.origin, 2).vertices
    x = pool[int(rng.integers(0, len(pool)))]
    nbrs = family.neighbors(x)
    y = nbrs[int(rng.integers(0, len(nbrs)))]
    return family_edge(family, x, y).canonical()


def test_c01_finite_hodge_identities():
    """50 random windows: split exact, orthogonal, typed, rank-consistent."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    fams = [make_family(n) for n in
            ("z2", "tree3", "ladder", "comb", "diag_lattice", "z3")]
    for i in range(50):
        fam = fams[i % len(fams)]
        n_target = int(rng.integers(20, 501))
        w = random_window(fam, rng, n_target)
        assert w.n_vertices <= 500
        u = EdgeFunction(w, rng.normal(size=w.n_edges))
        parts = hodge_decompose_finite(w, u, tol=1e-10)
        err_split = float(np.max(np.abs((parts.star + parts.diamond).values
                                        - u.values)))
        err_orth = abs(inner(parts.star, parts.diamond))
        err_grad = float(np.max(np.abs(
            parts.star.values - differential(parts.potential).values)))
        assert err_split <= 1e-8
        assert err_orth <= 1e-8 * max(1.0, inner(u, u))
        assert err_grad <= 1e-8
        assert is_flow(parts.diamond, tol=1e-8, interior_only=False)
        # rank accounting against the dense incidence matrix
        b = incidence(w)
        assert cycle_rank(w) == w.n_edges - np.linalg.matrix_rank(b)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 1 PASS: 50 windows split exactly "
          f"(worst tolerances 1e-8) in {elapsed:.1f}s")


def test_c02_full_dimension_and_additivity():
    fam = make_family("z2")
    w = ball(fam, (0, 0), 2)
    full = dim_window(fam, w, Subspace.FULL, 3)
    assert full == approx(1.0, abs=1e-10)
    s = dim_window(fam, w, Subspace.STAR, 3)
    d = dim_window(fam, w, Subspace.DIAMOND, 3)
    h = dim_window(fam, w, Subspace.HD, 3)
    assert s + d + h == approx(full, abs=1e-10)

    tri = make_family("tree3")
    wt = ball(tri, (), 3)
    assert dim_window(tri, wt, Subspace.FULL, 2) == approx(1.0, abs=1e-10)
    st = dim_window(tri, wt, Subspace.STAR, 2)
    dt = dim_window(tri, wt, Subspace.DIAMOND, 2)
    ht = dim_window(tri, wt, Subspace.HD, 2)
    assert st + dt + ht == approx(1.0, abs=1e-10)
    print(f"\ncriterion 2 PASS: dim FULL = 1 exactly; "
          f"z2 columns sum to {s + d + h!r}, tree3 to {st + dt + ht!r}")


def test_c03_tree_limits():
    t0 = time.time()
    got3 = hd_score(make_family("tree3"), origin_edge(make_family("tree3")), 12)
    got4 = hd_score(make_family("tree4"), origin_edge(make_family("tree4")), 12)
    elapsed = time.time() - t0
    assert got3 == approx(1 - 2 / 3, abs=0.02)
    assert got4 == approx(1 - 2 / 4, abs=0.02)
    assert elapsed < 60.0
    print(f"\ncriterion 3 PASS: tree hd at r=12: {got3:.6f} (target 1/3), "
          f"{got4:.6f} (target 1/2) in {elapsed:.1f}s")


def test_c04_line_exact():
    fam = make_family("z1")
    e = origin_edge(fam)
    for r in (1, 2, 4):
        expect = float(Fraction(2 * r + 2, 2 * r + 3))
        got = star_score(fam, e, r)
        assert got == approx(expect, abs=1e-8)
        assert diamond_score(fam, e, r) == 0.0
    assert hd_score(fam, e, 1) == approx(0.2, abs=1e-8)
    print("\ncriterion 4 PASS: line star scores match (2r+2)/(2r+3) "
          "at r=1,2,4; diamond identically 0; hd(1)=0.2")


def test_c05_planar_decay_vs_tree_plateau():
    t0 = time.time()
    fam = make_family("z2")
    rep = score_report(fam, origin_edge(fam), (1, 2, 4, 8, 16, 32))
    rep.validate()
    hd = list(rep.hd)
    assert hd[-1] <= 0.1
    for a, b in zip(hd, hd[1:]):
        assert b <= a + 1e-8

    rows = corollary4_table(fam, fam.origin, (2, 4, 8), 4)
    ests = [r.hd_dim_estimate for r in rows]
    assert ests[0] > ests[1] > ests[2]

    t3 = make_family("tree3")
    trows = corollary4_table(t3, t3.origin, (2, 4), 4)
    for row in trows:
        assert row.hd_dim_estimate == approx(1 / 3, abs=0.02)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"\ncriterion 5 PASS: z2 hd(32)={hd[-1]:.6f} <= 0.1, decreasing; "
          f"cor4 z2 strictly decreasing {ests}; tree3 plateau "
          f"{[round(r.hd_dim_estimate, 5) for r in trows]} in {elapsed:.1f}s")


def test_c06_lemma3_boxes():
    fam = make_family("z2")
    for n in (3, 5, 9):
        box = induced_window(fam, [(i, j) for i in range(n) for j in range(n)])
        res = lemma3_check(fam, box, 4 * n)
        assert res.holds
        assert res.rhs == approx(1 - 2 / n, abs=1e-12)
        assert res.lhs >= 1 - 2 / n - 0.05
    print("\ncriterion 6 PASS: star+diamond dimension >= 1 - 2/n - 0.05 "
          "on the n x n boxes, n=3,5,9")


def test_c07_monotone_random_edges():
    rng = np.random.default_rng(SEED + 7)
    fams = [make_family(n) for n in
            ("z2", "z1", "z3", "ladder", "comb", "diag_lattice", "tree3")]
    radii = (2, 4, 8, 16)
    for i in range(20):
        fam = fams[i % len(fams)]
        e = _random_edge(fam, rng)
        rep = score_report(fam, e, radii)
        for a, b in zip(rep.star, rep.star[1:]):
            assert b >= a - 1e-8
        for a, b in zip(rep.diamond, rep.diamond[1:]):
            assert b >= a - 1e-8
        for a, b in zip(rep.hd, rep.hd[1:]):
            assert b <= a + 1e-8
    print("\ncriterion 7 PASS: 20 random (family, edge) pairs monotone "
          "within 1e-8 along r=2,4,8,16")


def test_c08_energy_transport_battery():
    count5 = count6 = 0
    for name in ("z1", "z2", "z3", "diag_lattice", "ladder", "comb",
                 "tree3", "tree4"):
        fam = make_family(name)
        radii = (2, 3) if name.startswith("tree") else (2, 3, 4)
        for m in builtin_maps(fam):
            for r in radii:
                row = suite_row(m, r)
                assert row.lemma5_ratio <= row.lemma5_bound * (1 + 1e-12), \
                    (name, m.name, r)
                count5 += 1
                if m.name == "identity":
                    assert row.lemma5_ratio == approx(1.0, abs=1e-12)
                    assert row.lemma6_ratio == 0.0
                if row.lemma6_ratio >= 0.0:
                    assert row.lemma6_ratio <= row.lemma6_bound * (1 + 1e-12), \
                        (name, m.name, r)
                    count6 += 1
    total = count5 + count6
    assert total >= 100
    print(f"\ncriterion 8 PASS: {count5} energy-pullback and {count6} "
          f"displacement instances within their constants ({total} total); "
          "identity ratios exactly 1")


def test_c09_membership_residuals():
    fam = make_family("z2")
    # translated members of the gradient space
    for center in ((5, 7), (-3, 2), (0, -6)):
        w = ball(fam, center, 2)
        vals = np.array([1.0 if x == center else 0.0 for x in w.vertices])
        u = differential(VertexFunction(w, vals))
        sched = star_membership_residual(fam, u, (2, 4, 8, 16))
        assert sched[-1][0] == 16
        assert sched[-1][1] <= 1e-6
    # the square circulation never gets closer than its own norm
    cyc = [(2, 1), (3, 1), (3, 2), (2, 2)]
    w = ball(fam, cyc, 1)
    vals = np.zeros(w.n_edges)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        k, sign = w.edge_lookup(family_edge(fam, a, b))
        vals[k] = sign
    sched = star_membership_residual(fam, EdgeFunction(w, vals), (2, 4, 8, 16))
    for _, res in sched:
        assert res == approx(2.0, abs=1e-8)
    print("\ncriterion 9 PASS: translated gradient members reach residual "
          "<= 1e-6 by r=16; unit circulation stays at distance 2")


def test_c10_cli_determinism(tmp_path):
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "hodgedim", *argv],
                              capture_output=True, timeout=300,
                              cwd=tmp_path, env=source_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    scores_args = ("scores", "--family", "z2", "--radii", "1,2,4")
    a = run(*scores_args, "--jobs", "1")
    b = run(*scores_args, "--jobs", "1")
    c = run(*scores_args, "--jobs", "8")
    assert a == b == c

    qi_args = ("qicheck", "--family", "z2", "--window-radii", "2,3")
    qa = run(*qi_args, "--jobs", "1")
    qb = run(*qi_args, "--jobs", "8")
    assert qa == qb

    # decompose through files, byte-identical across runs
    w = ball(make_family("z2"), (0, 0), 2)
    rng = np.random.default_rng(SEED + 10)
    u = EdgeFunction(w, rng.normal(size=w.n_edges))
    wp, ep = tmp_path / "w.json", tmp_path / "u.csv"
    wp.write_text(window_to_json(w))
    ep.write_text(edge_function_to_csv(u))
    da = run("decompose", "--window", str(wp), "--edges", str(ep))
    db = run("decompose", "--window", str(wp), "--edges", str(ep))
    assert da == db
    print("\ncriterion 10 PASS: scores, qicheck and decompose output "
          "byte-identical across reruns and --jobs 1 vs 8")
