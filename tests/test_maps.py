from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from orthocusp import core, enum3, maps
from orthocusp.data import FIXTURES, load_fixture
from orthocusp.enum3 import triangulations
from oracle import (edge_set, encode_reference, is_three_connected,
                    rotation_from_faces_reference)


def _every_traversal(rot, marks):
    """Full ``encode_reference`` result of every start dart and both
    orientations, in the order canonical_form visits them."""
    return [encode_reference(rot, marks, u, v, s)
            for u in range(len(rot)) for v in rot[u] for s in (1, -1)]


def exhaustive_form(rot, marks=None):
    """The least code over every start dart and both orientations, the
    canonical rotation of the first traversal reaching it, and the orders
    of every traversal reaching it, in start order; this bypasses the
    invariant-key restriction and the row-by-row elimination of
    canonical_form."""
    if marks is None:
        marks = [0] * len(rot)
    full = _every_traversal(rot, marks)
    best = min(res[0] for res in full)
    tied = [res for res in full if res[0] == best]
    return best, tied[0][1], tuple(order for _, _, order in tied)


def brute_force_code(rot, marks=None):
    return exhaustive_form(rot, marks)[0]


def test_tetrahedron_faces():
    faces, _ = maps.faces_of_rotation(maps.TETRAHEDRON)
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)


def test_faces_round_trip():
    faces, _ = maps.faces_of_rotation(maps.TETRAHEDRON)
    rot = rotation_from_faces_reference(4, faces)
    # same map: every rotation agrees up to its (arbitrary) starting dart
    for got, want in zip(rot, maps.TETRAHEDRON):
        assert len(got) == len(want)
        k = want.index(got[0])
        assert got == want[k:] + want[:k]


def test_split_yields_triangulations():
    rot = maps.TETRAHEDRON
    for v in range(4):
        d = len(rot[v])
        for i in range(d):
            for j in range(i + 1, d):
                out = maps.split_vertex(rot, v, i, j)
                sizes = Counter(len(f) for f in maps.faces_of_rotation(out)[0])
                assert sizes == Counter({3: 6})
                assert len(edge_set(out)) == 9


def _split_copying_every_row(rot, v, i, j):
    """Reference vertex split that rebuilds every row of the rotation."""
    nbrs = rot[v]
    d = len(nbrs)
    w = len(rot)
    arc1 = [nbrs[t % d] for t in range(i, j + 1)]
    arc2 = [nbrs[t % d] for t in range(j, i + d + 1)]
    new_rot = [list(r) for r in rot]
    new_rot[v] = arc1 + [w]
    new_rot.append(arc2 + [v])
    for u in arc2[1:-1]:
        r = new_rot[u]
        r[r.index(v)] = w
    r = new_rot[nbrs[i]]
    r.insert(r.index(v) + 1, w)
    r = new_rot[nbrs[j]]
    r.insert(r.index(v), w)
    return tuple(tuple(x) for x in new_rot)


def test_split_matches_copying_reference():
    """Every split up to 9 vertices equals the copy-everything reference,
    tuple for tuple, and shares every row it leaves alone; passing the
    rows derived once for the split vertex gives the same rotation."""
    for n in range(4, 10):
        for rot in triangulations(n):
            for v, nbrs in enumerate(rot):
                rows = maps._split_rows(rot, v)
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        got = maps.split_vertex(rot, v, i, j)
                        assert got == _split_copying_every_row(rot, v, i, j)
                        assert all(new is old for new, old in zip(got, rot) if new == old)
                        assert maps.split_vertex(rot, v, i, j, rows) == got


def test_split_results_isomorphic_on_tetrahedron():
    rot = maps.TETRAHEDRON
    codes = set()
    for v in range(4):
        for i in range(3):
            for j in range(i + 1, 3):
                codes.add(maps.canonical_form(maps.split_vertex(rot, v, i, j))[0])
    assert len(codes) == 1


def test_restricted_starts_match_brute_force(rng):
    # the invariant-key restriction must never change the canonical code
    from orthocusp.enum3 import triangulations

    sample = list(triangulations(7)) + list(triangulations(8))[:5]
    for rot in sample:
        assert maps.canonical_form(rot)[0] == brute_force_code(rot)
    marked = []
    for rot in sample[:4]:
        marks = [0] * len(rot)
        marks[rng.randrange(len(rot))] = 1
        marked.append((rot, marks))
    for rot, marks in marked:
        assert maps.canonical_form(rot, marks)[0] == brute_force_code(rot, marks)


def test_canonical_rotation_is_reproducible():
    rot = maps.split_vertex(maps.TETRAHEDRON, 0, 0, 2)
    code, canon, _ = maps.canonical_form(rot)
    code2, canon2, _ = maps.canonical_form(canon)
    assert code == code2
    assert canon == canon2


def test_delete_edge():
    rot = maps.TETRAHEDRON
    out = maps.delete_edge(rot, 0, 1)
    assert len(edge_set(out)) == 5
    sizes = sorted(len(f) for f in maps.faces_of_rotation(out)[0])
    assert sizes == [3, 3, 4]


def test_three_connectivity():
    assert is_three_connected(maps.TETRAHEDRON)
    path = ((1,), (0, 2), (1, 3), (2,))
    assert not is_three_connected(path)


def test_inconsistent_faces_rejected():
    with pytest.raises(maps.MapError):
        rotation_from_faces_reference(3, [(0, 1, 2), (0, 1, 2)])


def test_disconnected_rejected():
    two_triangles = rotation_from_faces_reference(
        6, [(0, 1, 2), (0, 2, 1), (3, 4, 5), (3, 5, 4)])
    with pytest.raises(maps.MapError):
        maps.canonical_form(two_triangles)


def _marked_maps(reports):
    """Rotation and cusp marks of every polyhedron in ``reports``."""
    for report in reports:
        for t in report.types:
            p = t.polyhedron
            yield (core.require_valid(p).rotation,
                   [int(v in p.ideal_vertices) for v in range(p.vertex_count)])


def _split_children(n):
    """Every vertex split of every triangulation with n vertices, as growth
    makes them, before any is canonicalised."""
    for rot in triangulations(n):
        for v, nbrs in enumerate(rot):
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    yield maps.split_vertex(rot, v, i, j)


def test_canonical_form_matches_exhaustive_minimum(enum_all_small):
    """code and canon_rot are those of the first least traversal, and the
    orders are those of every least traversal.  Canonical triangulations,
    the split children growth codes, and cusp-marked polyhedra; and the
    8-vertex triangulations with every vertex but two marked, whose
    starts then run through vertices of high degree, where row 1 can meet
    u's ring in its middle (separating triangles through the start)."""
    unmarked = ((rot, None) for n in range(4, 10) for rot in triangulations(n))
    children = ((rot, None) for n in (7, 8) for rot in _split_children(n))
    marked = _marked_maps([enum_all_small[1], enum_all_small[2]])
    all_but_two = ((rot, [int(x not in pair) for x in range(8)])
                   for rot in triangulations(8) for pair in combinations(range(8), 2))
    for rot, marks in [*unmarked, *children, *marked, *all_but_two]:
        assert maps.canonical_form(rot, marks) == exhaustive_form(rot, marks)


def _form_args(p):
    """Rotation and cusp marks of a polyhedron, as
    ``core.canonical_code`` passes them to canonical_form."""
    marks = [int(v in p.ideal_vertices) for v in range(p.vertex_count)]
    return core.require_valid(p).rotation, marks


def assert_form_is_exhaustive(polyhedra):
    """canonical_form gives the exhaustive code, canon_rot and orders."""
    count = 0
    for p in polyhedra:
        args = _form_args(p)
        assert maps.canonical_form(*args) == exhaustive_form(*args), p
        count += 1
    assert count


def test_ranked_form_on_prisms(k_gonal_prism):
    assert_form_is_exhaustive(k_gonal_prism(k) for k in range(3, 13))


def test_ranked_form_on_fixtures(one_cusp_12):
    """Fixtures with many automorphisms, where ties pin ``orders``."""
    assert_form_is_exhaustive([*(load_fixture(name) for name in FIXTURES), one_cusp_12])


@pytest.mark.parametrize("cusps", [1, 2])
def test_ranked_form_with_nine_faces(cusps):
    report = enum3.enumerate_types(enum3.EnumSpec(9, cusps))
    assert_form_is_exhaustive(t.polyhedron for t in report.types if t.faces == 9)


@pytest.mark.slow
def test_ranked_form_on_two_cusp_census():
    report = enum3.enumerate_types(enum3.EnumSpec(10, 2))
    assert len(report.types) == 4498
    assert_form_is_exhaustive(t.polyhedron for t in report.types)


def test_code_vertex_limit(k_gonal_prism):
    # labels are single bytes below 254, the row end; the limit stays 252
    assert maps.canonical_form(core.require_valid(k_gonal_prism(126)).rotation)[0]
    for k in (127, 129):
        with pytest.raises(maps.MapError, match=f"at most 252 vertices, got {2 * k}"):
            maps.canonical_form(core.require_valid(k_gonal_prism(k)).rotation)


def test_edgeless_map_rejected():
    for rot in [((),), ((), ())]:
        for marks in (None, [0] * len(rot), [1] * len(rot)):
            with pytest.raises(maps.MapError, match="no edges"):
                maps.canonical_form(rot, marks)


@pytest.mark.parametrize("marks, message", [
    ([0, 0, 0, 0, 1], "^5 vertex marks for 4 vertices$"),
    ([0, 0, 0], "^3 vertex marks for 4 vertices$"),
    ([], "^0 vertex marks for 4 vertices$"),
    ([0, 0, 256, 0], "^mark 256 of vertex 2 is outside 0..255$"),
    ([0, -1, 0, 0], "^mark -1 of vertex 1 is outside 0..255$"),
])
def test_marks_must_be_one_byte_per_vertex(marks, message):
    """Marks of the wrong length or outside a byte are refused by name,
    not ignored past the map's end or left to fail while the code is
    written."""
    with pytest.raises(maps.MapError, match=message):
        maps.canonical_form(maps.TETRAHEDRON, marks)


def test_extreme_marks_accepted():
    code, _, orders = maps.canonical_form(maps.TETRAHEDRON, [255, 0, 0, 255])
    assert code.endswith(bytes([0, 0, 255, 255])) and len(orders) == 4


@pytest.mark.parametrize("marks", [None, [0, 0, 0], [0, 1, 1], [1, 2, 2]])
def test_isolated_vertex_never_opens_the_code(marks):
    """A vertex of degree 0 has the least key here, with or without marks,
    but the head only picks vertices with an edge, so the traversal meets
    the missing vertex and the map is refused as not connected."""
    with pytest.raises(maps.MapError, match="^map is not connected$"):
        maps.canonical_form(((), (2,), (1,)), marks)


def _triangles(rot):
    return {frozenset((u, v, w)) for u, nbrs in enumerate(rot) for v in nbrs
            for w in rot[v] if w in nbrs}


def test_form_without_common_neighbours(loebell):
    """Loebell L(5)..L(9), compact and with one edge contracted to a cusp,
    have no triangle: no start's two vertices share a neighbour, so every
    start writes row 1 as all new labels and all of them are traversed."""
    polys = []
    for n in range(5, 10):
        p = loebell(n)
        polys += [p, core.contract_edge(p, p.edges[0])]
    for p in polys:
        assert not _triangles(_form_args(p)[0])
    assert_form_is_exhaustive(polys)


def test_form_with_one_triangle():
    """A cube with corner 0 truncated has one triangle, so only the
    darts of that triangle keep a row 1 that holds a label of u's ring."""
    faces = ((8, 9, 3, 2, 1), (4, 5, 6, 7), (0, 8, 1, 5, 4), (1, 2, 6, 5),
             (2, 3, 7, 6), (3, 9, 0, 4, 7), (9, 8, 0))
    p = core.Polyhedron3(10, frozenset(), faces)
    assert _triangles(_form_args(p)[0]) == {frozenset((0, 8, 9))}
    assert_form_is_exhaustive([p])
