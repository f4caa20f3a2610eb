from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hodgedim import (BUILTIN_FAMILY_NAMES, InvalidFamilyError, ball,
                      decode_vertex, encode_vertex, family_from_window,
                      make_family)


def degrees_ok(family, verts):
    for x in verts:
        nbrs = family.neighbors(x)
        assert len(nbrs) <= family.degree_bound
        assert list(nbrs) == sorted(nbrs)
        assert len(set(nbrs)) == len(nbrs)
        assert x not in nbrs


def symmetric_on(family, verts):
    verts = set(verts)
    for x in verts:
        for y in family.neighbors(x):
            assert x in family.neighbors(y)


def test_builtin_names_construct():
    for name in BUILTIN_FAMILY_NAMES:
        fam = make_family(name)
        assert fam.name == name
        assert fam.neighbors(fam.origin)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_degree_and_symmetry(d):
    fam = make_family("lattice", d)
    assert fam.degree_bound == 2 * d
    origin = fam.origin
    assert origin == (0,) * d
    assert len(fam.neighbors(origin)) == 2 * d
    verts = [origin] + list(fam.neighbors(origin))
    degrees_ok(fam, verts)
    symmetric_on(fam, verts)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_tree_is_a_tree(d):
    """Regular tree: root has d children, everyone else d-1, no cycles in
    any small ball (checked via vertex/edge count downstream)."""
    fam = make_family("tree", d)
    assert fam.degree_bound == d
    root = fam.origin
    assert len(fam.neighbors(root)) == d
    for c in fam.neighbors(root):
        assert len(fam.neighbors(c)) == d
        symmetric_on(fam, [c])


def test_tree_rejects_degree_below_three():
    with pytest.raises(InvalidFamilyError):
        make_family("tree", 2)


def test_lattice_rejects_dimension_zero():
    with pytest.raises(InvalidFamilyError, match="lattice needs a dimension"):
        make_family("lattice", 0)


def test_unknown_family():
    with pytest.raises(InvalidFamilyError):
        make_family("moebius")


def test_compact_names():
    assert make_family("z2").name == "z2"
    assert make_family("tree3").name == "tree3"
    assert make_family("z2").degree_bound == 4


@pytest.mark.parametrize("name, d, fixed", [("z2", 3, 2), ("tree3", 5, 3),
                                            (" Z1 ", 2, 1)])
def test_compact_names_reject_another_d(name, d, fixed):
    compact = name.strip().lower()
    with pytest.raises(InvalidFamilyError) as exc:
        make_family(name, d)
    assert str(exc.value) == f"family {compact!r} has d = {fixed}, not {d}"
    assert make_family(name, fixed).name == compact


def test_ladder_and_comb_degrees():
    lad = make_family("ladder")
    assert lad.degree_bound == 3
    assert len(lad.neighbors((0, 0))) == 3
    assert len(lad.neighbors((5, 1))) == 3

    comb = make_family("comb")
    assert comb.degree_bound == 4
    # spine vertex: left, right, up, down
    assert len(comb.neighbors((0, 0))) == 4
    # tooth vertex: up and down only
    assert len(comb.neighbors((0, 3))) == 2


def test_diag_lattice_degree():
    fam = make_family("diag_lattice")
    assert fam.degree_bound == 6
    nbrs = fam.neighbors((0, 0))
    assert len(nbrs) == 6
    assert (1, 1) in nbrs and (-1, -1) in nbrs
    assert (1, -1) not in nbrs


coords = st.integers(-50, 50)


@settings(deadline=None, max_examples=50)
@given(st.tuples(coords, coords))
def test_z2_symmetry_everywhere(x):
    fam = make_family("z2")
    symmetric_on(fam, [x])
    degrees_ok(fam, [x])


@settings(deadline=None, max_examples=50)
@given(st.tuples(coords, coords))
def test_comb_symmetry_everywhere(x):
    fam = make_family("comb")
    symmetric_on(fam, [x])
    degrees_ok(fam, [x])


def test_declared_translation_axes():
    declared = {name: make_family(name).translation_axes
                for name in BUILTIN_FAMILY_NAMES}
    assert declared == {"z1": 1, "z2": 2, "z3": 3, "tree3": 0, "tree4": 0,
                        "ladder": 1, "comb": 1, "diag_lattice": 2}
    assert make_family("tree", 5).translation_axes == 0
    window = ball(make_family("z2"), (0, 0), 2)
    assert family_from_window(window).translation_axes == 0


def test_declared_tree_degree():
    declared = {name: make_family(name).tree_degree
                for name in BUILTIN_FAMILY_NAMES}
    assert declared == {"z1": 0, "z2": 0, "z3": 0, "tree3": 3, "tree4": 4,
                        "ladder": 0, "comb": 0, "diag_lattice": 0}
    assert make_family("tree", 5).tree_degree == 5
    window = ball(make_family("tree3"), (), 2)
    assert family_from_window(window).tree_degree == 0


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(BUILTIN_FAMILY_NAMES),
       st.lists(st.integers(0, 5), max_size=12),
       st.tuples(coords, coords, coords))
def test_declared_translations_are_automorphisms(name, walk, shift):
    """neighbors(x + v) == neighbors(x) + v for every v supported on the
    declared axes, at vertices x reached by a walk from the origin."""
    fam = make_family(name)
    x = fam.origin
    for step in walk:
        nbrs = fam.neighbors(x)
        x = nbrs[step % len(nbrs)]
    k = fam.translation_axes

    def move(y):
        return tuple(a + b for a, b in zip(y[:k], shift)) + y[k:]
    assert fam.neighbors(move(x)) == tuple(move(y) for y in fam.neighbors(x))


@settings(deadline=None, max_examples=30)
@given(st.tuples(coords, coords))
def test_vertex_codec_roundtrip(x):
    s = encode_vertex(x)
    assert decode_vertex(s) == x
    assert isinstance(s, str)


def test_decode_vertex_of_the_root():
    # the root word's cell, with or without spaces inside the parentheses
    for cell in ("()", "( )", " (  ) "):
        assert decode_vertex(cell) == ()
    assert encode_vertex(()) == "()"
