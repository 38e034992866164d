from __future__ import annotations

from collections import Counter

import pytest

from orthocusp import maps
from orthocusp.enum3 import triangulations


def brute_force_code(rot, marks=None):
    """Minimum over every start dart and both orientations, bypassing the
    invariant-key restriction used by canonical_form."""
    n = len(rot)
    if marks is None:
        marks = [0] * n
    best = None
    for u in range(n):
        for v in rot[u]:
            for s in (1, -1):
                code, _, _ = maps._encode(rot, marks, u, v, s, None)
                if best is None or code < best:
                    best = code
    return best


def test_tetrahedron_faces():
    faces = maps.faces_of_rotation(maps.TETRAHEDRON)
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)


def test_faces_round_trip():
    faces = maps.faces_of_rotation(maps.TETRAHEDRON)
    rot = maps.rotation_from_faces(4, faces)
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
                sizes = Counter(len(f) for f in maps.faces_of_rotation(out))
                assert sizes == Counter({3: 6})
                assert len(maps.edge_set(out)) == 9


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
    tuple for tuple, and shares every row it leaves alone."""
    for n in range(4, 10):
        for rot in triangulations(n):
            for v, nbrs in enumerate(rot):
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        got = maps.split_vertex(rot, v, i, j)
                        assert got == _split_copying_every_row(rot, v, i, j)
                        assert all(new is old for new, old in zip(got, rot) if new == old)


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
    assert len(maps.edge_set(out)) == 5
    sizes = sorted(len(f) for f in maps.faces_of_rotation(out))
    assert sizes == [3, 3, 4]


def test_three_connectivity():
    assert maps.is_three_connected(maps.TETRAHEDRON)
    path = ((1,), (0, 2), (1, 3), (2,))
    assert not maps.is_three_connected(path)


def test_inconsistent_faces_rejected():
    with pytest.raises(maps.MapError):
        maps.rotation_from_faces(3, [(0, 1, 2), (0, 1, 2)])


def test_disconnected_rejected():
    two_triangles = maps.rotation_from_faces(
        6, [(0, 1, 2), (0, 2, 1), (3, 4, 5), (3, 5, 4)])
    with pytest.raises(maps.MapError):
        maps.canonical_form(two_triangles)
