from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from pytest import approx

from hodgedim import (BUILTIN_FAMILY_NAMES, CutoffExceededError,
                      DistortionReport, EdgeFunction, HodgedimError,
                      IncompatibleDomainError, InsufficientWindowError,
                      InvalidWindowError, QuasiMap, SizeLimitError,
                      VertexFunction, ball, builtin_maps, differential,
                      distortion_estimate, family_edge, inner, lemma5_check,
                      lemma5_constant, lemma6_check, lemma6_constant,
                      lex_min_path, make_family, nearest_preimage, pullback,
                      star_membership_residual, suite_row,
                      wobbling_displacement)
from hodgedim import quasi, windows


def _map(name, fam):
    for m in builtin_maps(fam):
        if m.name == name:
            return m
    raise KeyError(name)


def test_identity_distortion(z2):
    w = ball(z2, (0, 0), 3)
    rep = distortion_estimate(_map("identity", z2), w, 20)
    assert rep.k_est == 1
    assert rep.density_gap == 0
    assert not rep.violations and not rep.inconclusive


def test_translation_distortion(z2):
    w = ball(z2, (0, 0), 3)
    rep = distortion_estimate(_map("translation", z2), w, 20)
    assert rep.k_est == 1
    assert not rep.violations


def test_coarsen_distortion_z2(z2):
    w = ball(z2, (0, 0), 4)
    rep = distortion_estimate(_map("coarsen", z2), w, 30)
    assert rep.k_est == 2
    assert not rep.violations


def test_coarsen_distortion_z3():
    z3 = make_family("z3")
    m = _map("coarsen", z3)
    assert m.claimed_distortion == 3.0
    rep = distortion_estimate(m, ball(z3, (0, 0, 0), 3), 30)
    assert rep.k_est == 3
    assert not rep.violations


def test_underclaimed_distortion_reports_violations(z2):
    bad = QuasiMap("bad_coarsen", z2, z2,
                   lambda x: (x[0] // 2, x[1] // 2), 1.0)
    rep = distortion_estimate(bad, ball(z2, (0, 0), 3), 20)
    assert rep.violations


def test_small_cutoff_is_inconclusive_not_wrong(z2):
    w = ball(z2, (0, 0), 3)
    rep = distortion_estimate(_map("identity", z2), w, 2)
    assert rep.inconclusive
    assert rep.k_est >= 1


QI_FAMILIES = ("z1", "z2", "z3", "ladder", "comb", "diag_lattice", "tree3")


def _reference_distortion(f, window, cutoff):
    """`distortion_estimate` as a per-vertex loop: one `bfs` table per
    window vertex and per image, and the pairs checked one at a time."""
    verts = window.vertices
    vert_set = frozenset(verts)
    src_dist = {x: windows.bfs(f.source, [x], cutoff, targets=vert_set)
                for x in verts}
    images = {x: f(x) for x in verts}
    image_set = frozenset(images.values())
    tgt_dist = {img: windows.bfs(f.target, [img], cutoff, targets=image_set)
                for img in image_set}
    kc = f.claimed_distortion
    k_needed = 1
    violations = []
    inconclusive = []
    for i, x in enumerate(verts):
        dx = src_dist[x]
        dfx = tgt_dist[images[x]]
        for y in verts[i + 1:]:
            d = dx.get(y)
            dp = dfx.get(images[y])
            if d is None or dp is None:
                inconclusive.append((x, y, d, dp))
                continue
            k_pair = max(-(-dp // d), -(-d // (dp + 1)))
            k_needed = max(k_needed, k_pair)
            if dp > kc * d or d / kc - 1 > dp:
                violations.append((x, y, d, dp))
    return DistortionReport(k_est=k_needed,
                            density_gap=quasi._density_gap(f, window, cutoff),
                            violations=tuple(violations),
                            inconclusive=tuple(inconclusive))


def _same_report(f, window, cutoff):
    got = distortion_estimate(f, window, cutoff)
    want = _reference_distortion(f, window, cutoff)
    # repr tells 1 from 1.0 and np.int64(1), and keeps the pair order
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("name", QI_FAMILIES)
def test_distortion_matches_per_vertex_loop(name):
    fam = make_family(name)
    for f in builtin_maps(fam):
        for r in (1, 2, 3, 4, 5, 6) if name == "z2" else (1, 2, 3, 4):
            w = ball(fam, fam.origin, r)
            k = math.ceil(f.claimed_distortion)
            _same_report(f, w, 2 * k * (r + 2) + 4)  # suite_row's cutoff
            if 2 <= r <= 3:
                assert _same_report(f, w, 2).inconclusive


def test_distortion_matches_per_vertex_loop_on_bad_maps(z2):
    bad = QuasiMap("bad_coarsen", z2, z2,
                   lambda x: (x[0] // 2, x[1] // 2), 1.0)
    assert _same_report(bad, ball(z2, (0, 0), 4), 20).violations
    z1 = make_family("z1")
    double = QuasiMap("double", z1, z1, lambda x: (2 * x[0],), 2.0)
    assert _same_report(double, ball(z1, (0,), 5), 30).density_gap == 1
    # a claimed distortion given as an int
    shift = QuasiMap("shift", z2, z2, lambda x: (x[0] + 3, x[1]), 2)
    _same_report(shift, ball(z2, (0, 0), 3), 20)


def test_distortion_errors_match_per_vertex_loop(monkeypatch, z2, tree3):
    # 13 vertices, but the table of a corner reaches the far corner only
    # after 41
    w = ball(z2, (0, 0), 2)
    f = _map("translation", z2)
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 20)
    for estimate in (distortion_estimate, _reference_distortion):
        with pytest.raises(SizeLimitError):
            estimate(f, w, 20)
    monkeypatch.undo()
    # () goes to (5,), which is not a word of tree3
    off = QuasiMap("off", tree3, tree3, lambda x: x if x else (5,), 1.0)
    for estimate in (distortion_estimate, _reference_distortion):
        with pytest.raises(InvalidWindowError):
            estimate(off, ball(tree3, (), 2), 20)


def test_lex_min_path(z2):
    p = lex_min_path(z2, (0, 0), (2, 1), 10)
    assert p[0] == (0, 0) and p[-1] == (2, 1)
    assert len(p) == 4
    for a, b in zip(p, p[1:]):
        assert b in z2.neighbors(a)
    # deterministic: same call, same path
    assert p == lex_min_path(z2, (0, 0), (2, 1), 10)


def _walk_back(family, a, b, cutoff):
    """`lex_min_path` as it was before it ran on the id graph, kept as its
    reference: a vertex table, then a walk back over `family.neighbors`."""
    dist = windows.bfs(family, [a], cutoff, targets=[b])
    path = [b]
    while dist[path[-1]] > 0:
        path.append(min(y for y in family.neighbors(path[-1])
                        if dist.get(y) == dist[path[-1]] - 1))
    return tuple(reversed(path))


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES)
def test_lex_min_path_is_the_walk_back(name):
    fam = make_family(name)
    # a rule listing neighbours out of order numbers them out of order too,
    # so the smallest predecessor id is not always the smallest vertex
    backwards = dataclasses.replace(fam,
                                    neighbors=lambda x: fam.neighbors(x)[::-1])
    for f in (fam, backwards):
        for a in (f.origin, f.neighbors(f.origin)[-1]):
            for b in windows.neighborhood(f, [f.origin], 4):
                assert lex_min_path(f, a, b, 9) == _walk_back(f, a, b, 9)


def test_lex_min_path_cutoff(z2):
    with pytest.raises(CutoffExceededError):
        lex_min_path(z2, (0, 0), (9, 9), 5)


def test_density_gap_of_sparse_image():
    z1 = make_family("z1")
    double = QuasiMap("double", z1, z1, lambda x: (2 * x[0],), 2.0)
    rep = distortion_estimate(double, ball(z1, (0,), 3), 30)
    assert rep.density_gap == 1
    assert rep.k_est == 2


def test_wobble(z2):
    w = ball(z2, (0, 0), 2)
    assert wobbling_displacement(_map("identity", z2), w) == 0
    assert wobbling_displacement(_map("translation", z2), w) == 1
    coarsen = _map("coarsen", z2)
    w = ball(z2, (0, 0), 4)
    shifts = [windows.distance(z2, x, coarsen(x), 8) for x in w.vertices]
    assert wobbling_displacement(coarsen, w) == max(shifts) == 3
    with pytest.raises(CutoffExceededError,
                       match=r"^displacement of \(-4, 0\) exceeds cutoff 1$"):
        wobbling_displacement(coarsen, w, cutoff=1)


def _per_edge_density_gap(f, window, cutoff):
    """`_density_gap` with one `lex_min_path` per window edge, the
    reference of the one search per translation step."""
    verts = window.vertices
    probe = set()
    for a, b in zip(window.edge_tails.tolist(), window.edge_heads.tolist()):
        fa, fb = f(verts[a]), f(verts[b])
        probe.update([fa] if fa == fb else
                     lex_min_path(f.target, fa, fb, cutoff))
    dist = windows.bfs(f.target, {f(x) for x in verts}, cutoff, probe)
    if not probe <= dist.keys():
        raise CutoffExceededError("density probe ran past the cutoff")
    return max(dist[y] for y in probe)


def _per_vertex_wobble(f, window, cutoff):
    """`wobbling_displacement` with one search per moved vertex."""
    worst = 0
    for x in window.vertices:
        if f(x) != x:
            d = windows.distance(f.source, x, f(x), cutoff)
            if d is None:
                raise CutoffExceededError(
                    f"displacement of {x} exceeds cutoff {cutoff}")
            worst = max(worst, d)
    return worst


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "diag_lattice", "comb"])
def test_step_reuse_is_the_per_edge_search(monkeypatch, name):
    fam = make_family(name)
    maps = builtin_maps(fam) + (
        # images of another length, whose steps cut short by zip equal the
        # translation's: their searches must still run, and raise
        QuasiMap("longer", fam, fam, lambda x: (x[0] + 1,) + x[1:]
                 + ((0,) if x[0] == 2 else ()), 1.0),
        QuasiMap("shorter", fam, fam, lambda x: (x[0] + 1,)
                 + (x[1:-1] if x[0] == 1 else x[1:]), 1.0),
        # steps past small cutoffs
        QuasiMap("stretch", fam, fam, lambda x: (5 * x[0],) + x[1:], 5.0))
    cases = [(ball(fam, fam.origin, r), cutoff)
             for r, cutoff in ((1, 3), (2, 12), (3, 6))]
    for cap in (40, windows.DEFAULT_SIZE_CAP):
        monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", cap)
        for f in maps:
            for w, cutoff in cases:
                assert (_outcome(quasi._density_gap, f, w, cutoff)
                        == _outcome(_per_edge_density_gap, f, w, cutoff))
                if f.is_endomap:
                    assert (_outcome(wobbling_displacement, f, w, cutoff)
                            == _outcome(_per_vertex_wobble, f, w, cutoff))


def test_wobble_needs_endomap(z2):
    with pytest.raises(IncompatibleDomainError):
        wobbling_displacement(_map("z2_to_diag", z2), ball(z2, (0, 0), 1))


def test_pullback_values_and_zero_fill(z2):
    w_src = ball(z2, (0, 0), 2)
    w_tgt = ball(z2, (1, 0), 1)
    v = VertexFunction(w_tgt, np.arange(w_tgt.n_vertices, dtype=float))
    f = _map("translation", z2)
    fv = pullback(f, v, w_src)
    for i, x in enumerate(w_src.vertices):
        fx = (x[0] + 1, x[1])
        if w_tgt.has_vertex(fx):
            assert fv.values[i] == v.values[w_tgt.vertex_index(fx)]
        else:
            assert fv.values[i] == 0.0


def test_pullback_linear(z2, rng):
    w = ball(z2, (0, 0), 2)
    f = _map("identity", z2)
    a = VertexFunction(w, rng.normal(size=w.n_vertices))
    b = VertexFunction(w, rng.normal(size=w.n_vertices))
    lhs = pullback(f, a + b * 2.0, w)
    rhs = pullback(f, a, w) + pullback(f, b, w) * 2.0
    assert lhs.values == approx(rhs.values)


def test_constants_closed_form():
    # degree 4, k = 1: ball radius 2 in the 4-tree has 1 + 4 * 4 = 17
    assert lemma5_constant(1.0, 4) == approx(math.sqrt(4 * 17))
    assert lemma6_constant(0, 4) == 0.0
    assert lemma6_constant(1, 4) == approx(2.0 * 5)
    # constants grow with both arguments
    assert lemma5_constant(2.0, 4) > lemma5_constant(1.0, 4)
    assert lemma6_constant(3, 4) > lemma6_constant(2, 4)


def test_lemma5_identity_is_exact(z2):
    f = _map("identity", z2)
    src = ball(z2, (0, 0), 3)
    tgt = ball(z2, (0, 0), 5)
    vals = np.array([max(0.0, 3.0 - abs(x[0]) - abs(x[1]))
                     for x in tgt.vertices])
    v = VertexFunction(tgt, vals)
    res = lemma5_check(f, v, src)
    assert res.holds
    assert res.ratio == 1.0  # identical doubles on both sides


def test_lemma5_window_too_small(z2):
    f = _map("translation", z2)
    src = ball(z2, (0, 0), 3)
    tgt = ball(z2, (0, 0), 3)  # misses f of the rightmost vertex
    v = VertexFunction(tgt, np.zeros(tgt.n_vertices))
    with pytest.raises(InsufficientWindowError):
        lemma5_check(f, v, src)


def test_lemma5_localization_must_be_inside(z2):
    f = _map("identity", z2)
    src = ball(z2, (0, 0), 2)
    tgt = ball(z2, (0, 0), 4)
    v = VertexFunction(tgt, np.zeros(tgt.n_vertices))
    with pytest.raises(IncompatibleDomainError):
        lemma5_check(f, v, src, a=[(9, 9)])


def test_lemma5_translation_bounded(z2):
    f = _map("translation", z2)
    src = ball(z2, (0, 0), 3)
    tgt = ball(z2, (0, 0), 6)
    vals = np.array([max(0.0, 3.0 - abs(x[0] - 1) - abs(x[1]))
                     for x in tgt.vertices])
    res = lemma5_check(f, VertexFunction(tgt, vals), src)
    assert res.holds
    assert res.ratio <= res.bound


def test_lemma6_identity(z2):
    f = _map("identity", z2)
    w = ball(z2, (0, 0), 2)
    tgt = ball(z2, (0, 0), 3)
    vals = np.array([float(x[0]) for x in tgt.vertices])
    res = lemma6_check(f, VertexFunction(tgt, vals), w)
    assert res.displacement == 0
    assert res.diff_norm == 0.0
    assert res.holds


def test_lemma6_translation(z2):
    f = _map("translation", z2)
    w = ball(z2, (0, 0), 2)
    tgt = ball(z2, (0, 0), 4)
    vals = np.array([float(x[0]) for x in tgt.vertices])
    res = lemma6_check(f, VertexFunction(tgt, vals), w)
    # linear in x: every difference is exactly 1, 13 window vertices
    assert res.displacement == 1
    assert res.diff_norm == approx(math.sqrt(w.n_vertices))
    assert res.holds
    assert res.ratio <= res.bound


def test_lemma6_window_too_small(z2):
    f = _map("translation", z2)
    w = ball(z2, (0, 0), 3)
    v = VertexFunction(w, np.zeros(w.n_vertices))  # same window: no margin
    with pytest.raises(InsufficientWindowError):
        lemma6_check(f, v, w)


def test_star_membership_of_gradient(z2):
    # differential of a bump: a translated member of the gradient space
    w = ball(z2, (3, 3), 2)
    vals = np.array([1.0 if x == (3, 3) else 0.0 for x in w.vertices])
    u = differential(VertexFunction(w, vals))
    sched = star_membership_residual(z2, u, (1, 2, 4, 8))
    residuals = [res for _, res in sched]
    # nonincreasing up to solver noise; an exact member pins them all near 0
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-7
    assert max(residuals) <= 1e-6


def test_star_membership_of_circulation(z2):
    cyc = [(0, 0), (1, 0), (1, 1), (0, 1)]
    w = ball(z2, cyc, 1)
    vals = np.zeros(w.n_edges)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        k, sign = w.edge_lookup(family_edge(z2, a, b))
        vals[k] = sign
    u = EdgeFunction(w, vals)
    assert inner(u, u) == approx(4.0)
    sched = star_membership_residual(z2, u, (1, 2, 4, 8))
    for _, res in sched:
        assert res == approx(2.0, abs=1e-8)


def test_nearest_preimage_identity(z2):
    f = _map("identity", z2)
    w = ball(z2, (0, 0), 2)
    got = nearest_preimage(f, w, [(0, 0), (1, 1)])
    assert got == {(0, 0): (0, 0), (1, 1): (1, 1)}


def _reference_preimage(f, source_window, targets, cutoff):
    """`nearest_preimage` as one `bfs` per target."""
    image_of = {}
    for x in source_window.vertices:
        image_of.setdefault(f(x), []).append(x)
    out = {}
    for y in targets:
        dist = windows.bfs(f.target, [y], cutoff, targets=image_of.keys())
        best = None
        for img, xs in image_of.items():
            d = dist.get(img)
            if d is not None and (best is None or (d, min(xs)) < best):
                best = (d, min(xs))
        if best is None:
            raise CutoffExceededError(f"no image point within {cutoff} of {y}")
        out[y] = best[1]
    return out


@pytest.mark.parametrize("name", ["z1", "z2", "diag_lattice", "tree3"])
def test_nearest_preimage_matches_per_target_loop(name):
    fam = make_family(name)
    for f in builtin_maps(fam):
        w = ball(fam, fam.origin, 3)
        targets = ball(f.target, f.target.origin, 5).vertices[::-1]
        got = nearest_preimage(f, w, targets, 6)
        assert list(got.items()) == list(
            _reference_preimage(f, w, targets, 6).items())
        messages = []
        for inverse in (nearest_preimage, _reference_preimage):
            with pytest.raises(CutoffExceededError) as exc:
                inverse(f, w, targets, 1)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def test_builtin_map_coverage():
    tree = make_family("tree3")
    names = {m.name for m in builtin_maps(tree)}
    assert names == {"identity"}
    lad = make_family("ladder")
    assert {m.name for m in builtin_maps(lad)} == {"identity", "translation"}
    z1 = make_family("z1")
    assert {m.name for m in builtin_maps(z1)} == {"identity", "translation",
                                                  "coarsen"}


def test_suite_row_identity_frozen(z2):
    row = suite_row(_map("identity", z2), 3)
    assert row.k_est == 1
    assert row.density_gap == 0
    assert row.wobble == 0
    assert row.lemma5_ratio == 1.0
    assert row.lemma6_ratio == 0.0


def test_suite_row_rejects_radius_zero(z2):
    with pytest.raises(InvalidWindowError, match="window radius must be >= 1"):
        suite_row(_map("identity", z2), 0)


def test_suite_row_non_endomap_sentinels(z2):
    row = suite_row(_map("z2_to_diag", z2), 2)
    assert row.wobble == -1
    assert row.lemma6_ratio == -1.0 and row.lemma6_bound == -1.0
    assert row.lemma5_ratio <= row.lemma5_bound


def _rows(name, map_names, radii, shared=None):
    """Each (map, radius) row in turn, for the maps of family `name` in the
    order of `map_names`: its repr, or its error's type and message. With
    `shared`, every row gets that one dict and the maps of one family
    object, as in the CLI; without, each row runs on a new `make_family`
    object, so that it shares neither the dict nor a graph."""
    maps = {m.name: m for m in builtin_maps(make_family(name))}
    out = []
    for map_name in map_names:
        for r in radii:
            try:
                row = (suite_row(_map(map_name, make_family(name)), r)
                       if shared is None
                       else suite_row(maps[map_name], r, shared))
                out.append(repr(row))
            except HodgedimError as exc:
                out.append((type(exc), str(exc)))
    return out


def _orders(name):
    """The map names of family `name` in both orders; a tree family has
    one map, so one order."""
    names = tuple(m.name for m in builtin_maps(make_family(name)))
    return dict.fromkeys((names, names[::-1]))


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES)
def test_shared_rows_match_fresh_rows(name):
    # tree4's radius-4 table searches 354,293 vertices, some 7 s for both
    # runs; `scripts/cli_scenarios.py` checks that row against the parent
    radii = range(1, 4 if name == "tree4" else 5)
    # reversed, the larger-cutoff source tables come first
    for order in _orders(name):
        assert _rows(name, order, radii, {}) == _rows(name, order, radii)


@pytest.mark.parametrize("cap", (40, 100))
def test_shared_rows_raise_where_fresh_rows_do(monkeypatch, cap):
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", cap)
    outcomes = []
    for name in ("z2", "comb", "diag_lattice", "tree3"):
        for order in _orders(name):
            # so the CLI, which stops at the first error, stops at the same
            # row with the same message
            fresh = _rows(name, order, range(1, 5))
            assert _rows(name, order, range(1, 5), {}) == fresh
            outcomes += fresh
    assert (SizeLimitError, f"window would exceed {cap} vertices") in outcomes


def _table_outcome(fam, verts, depth):
    try:
        return windows.distance_rows(fam, verts, verts, depth).tolist()
    except HodgedimError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", BUILTIN_FAMILY_NAMES)
def test_source_table_serves_every_cutoff(monkeypatch, name):
    """`_source`'s depth-2r table is the table at every map's cutoff, and
    under a small size cap raises where the cutoff tables do."""
    fam = make_family(name)
    balls = {}
    for r in range(1, 4 if name == "tree4" else 5):
        w, table = quasi._source({}, fam, r)
        balls[r] = w.vertices
        for k in (1, 2, 3):
            want = windows.distance_rows(fam, w.vertices, w.vertices,
                                         2 * k * (r + 2) + 4)
            assert np.array_equal(table, want)
    monkeypatch.setattr(windows, "DEFAULT_SIZE_CAP", 40)
    outcomes = []
    for r, verts in balls.items():
        outcome = _table_outcome(fam, verts, 2 * r)
        for k in (1, 2, 3):
            assert _table_outcome(fam, verts, 2 * k * (r + 2) + 4) == outcome
        outcomes.append(outcome)
    # the lattices' and trees' larger rows pass 40 vertices
    if name not in ("z1", "ladder"):
        assert (SizeLimitError, "window would exceed 40 vertices") in outcomes
