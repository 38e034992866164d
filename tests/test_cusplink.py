from __future__ import annotations

from itertools import combinations, product

import pytest

from orthocusp import (
    CuspLink,
    FaceLattice,
    Polyhedron3,
    averaging_contradiction,
    check_right_angled,
    check_small,
    count_cusp_faces,
    faces_through_edge,
    is_adjacent,
    nikulin,
    to_face_lattice,
    two_cusp_faces,
    verify_table,
)
from orthocusp.cusplink import CASES, carrier, case_deficit, derive_rows, verify_builtin


def derived(name: str):
    """The class t of a named two-cusp case and the rows derived for it."""
    t = CASES[name]
    return t, tuple(derive_rows(t, case_deficit(t)))


def test_counts_from_the_argument():
    assert count_cusp_faces(6, 3) == 80
    assert count_cusp_faces(7, 3) == 240
    assert count_cusp_faces(6, 5) == 10


def test_counts_formula_matches_enumeration_sweep():
    # count_cusp_faces raises internally when formula and enumeration differ
    for n in range(2, 9):
        for k in range(1, n):
            count_cusp_faces(n, k)


def test_count_range_errors():
    with pytest.raises(ValueError):
        count_cusp_faces(6, 0)
    with pytest.raises(ValueError):
        count_cusp_faces(6, 6)


def test_faces_through_edge():
    assert faces_through_edge(7) == 15
    assert faces_through_edge(6) == 10
    assert [faces_through_edge(n) for n in range(4, 10)] == [3, 6, 10, 15, 21, 28]


def test_faces_through_edge_reads_the_link(monkeypatch):
    # the closed form is checked against the link's own 3-faces inside an
    # edge, so a link model that loses them is caught
    real = CuspLink.cusp_faces
    monkeypatch.setattr(CuspLink, "cusp_faces",
                        lambda self, k: real(self, k) if k == 1 else [])
    with pytest.raises(AssertionError, match="formula 15, enumeration 0"):
        faces_through_edge(7)


def test_pairing_involution():
    link = CuspLink(6)
    ids = range(1, link.size + 1)
    assert all(link.partner(link.partner(i)) == i for i in ids)
    assert all(link.partner(i) != i for i in ids)


def test_adjacency_examples():
    link = CuspLink(6)
    assert is_adjacent(link, frozenset({1, 2, 6}), frozenset({1, 2, 7}))
    assert not is_adjacent(link, frozenset({1, 2, 6}), frozenset({1, 2, 5}))
    assert not is_adjacent(link, frozenset({1, 2, 6}), frozenset({3, 4, 9}))


def test_adjacency_symmetric_irreflexive():
    link = CuspLink(6)
    faces = link.cusp_faces(3)
    for f in faces[:20]:
        assert not is_adjacent(link, f, f)
    for f, g in combinations(faces[:15], 2):
        assert is_adjacent(link, f, g) == is_adjacent(link, g, f)


def test_adjacency_dimension_mismatch():
    link = CuspLink(6)
    with pytest.raises(ValueError):
        is_adjacent(link, frozenset({1, 2, 6}), frozenset({1, 2}))


def test_two_cusp_faces_cases():
    assert two_cusp_faces(0) == {frozenset({1, 2, 3})}
    face2 = two_cusp_faces(1)
    assert face2 == {frozenset(s) for s in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))}
    edge = two_cusp_faces(2)
    assert len(edge) == 10
    assert all(f <= carrier(2) for f in edge)
    assert carrier(2) == frozenset({1, 2, 3, 4, 5})


def test_builtin_tables_verify():
    # insertion order is the `verify tables` output order
    expectations = {"table1": (1, 12, 36), "table2": (2, 20, 60), "case41": (0, 4, 12)}
    assert list(CASES) == list(expectations)
    for name, (t, rows, distinct) in expectations.items():
        report = verify_builtin(name)
        assert report.ok, report.problems
        assert report.t == CASES[name] == t
        assert report.rows == rows == case_deficit(t)
        assert report.distinct_faces == distinct


def test_derived_rows_have_the_lemma_shape():
    """Each derived row is {a,b,x}, {a,b,y}, {a,b,z} with {a,b,x,y,z}
    pair-free and no member inside the carrier; first fit finds at most
    23, 20 and 23 disjoint rows, so a t=2 deficit above 20 stays short."""
    link = CuspLink(6)
    for name, ceiling in (("table1", 23), ("table2", 20), ("case41", 23)):
        t = CASES[name]
        rows = derive_rows(t, 100)
        assert len(rows) == ceiling, name
        assert derive_rows(t, case_deficit(t)) == rows[:case_deficit(t)]
        assert verify_table(t, rows).ok
        for row in rows:
            core = frozenset.intersection(*row)
            assert len(core) == 2 and link.pair_free(frozenset.union(*row))
            assert not any(m <= carrier(t) for m in row)
    assert derive_rows(1, 0) == []


def test_verify_rejects_row_outside_the_lemma():
    """{1,6,8}, {1,6,9}, {1,8,9} are one-cusp 3-faces and pairwise
    adjacent, but share only hyperface 1: the lemma says nothing about
    them, so the row is refused, alone or padding the derived table1."""
    row = (frozenset({1, 6, 8}), frozenset({1, 6, 9}), frozenset({1, 8, 9}))
    assert verify_table(1, (row,)).problems == ["row 0: members share [1], not two hyperfaces"]
    t, rows = derived("table1")
    padded = rows + ((frozenset({1, 7, 8}), frozenset({1, 7, 9}), frozenset({1, 8, 9})),)
    report = verify_table(t, padded)
    assert report.problems == ["row 12: members share [1], not two hyperfaces"]


def test_verify_catches_carrier_member():
    t, rows = derived("table1")
    bad = (tuple(list(rows[0][:2]) + [frozenset({1, 2, 3})]),) + rows[1:]
    report = verify_table(t, bad)
    assert not report.ok
    assert any("carrier" in p for p in report.problems)


def test_verify_catches_non_adjacent_row():
    # {1,2,6} and {1,2,5}: 5 and 6 are parallel partners
    bad = ((frozenset({1, 2, 6}), frozenset({1, 2, 7}), frozenset({1, 2, 5})),)
    report = verify_table(CASES["table1"], bad)
    assert not report.ok
    assert any("not adjacent" in p for p in report.problems)


def test_verify_catches_parallel_pair_member():
    bad = ((frozenset({1, 2, 6}), frozenset({1, 2, 7}), frozenset({5, 6, 7})),)
    report = verify_table(CASES["table1"], bad)
    assert any("parallel" in p for p in report.problems)


def test_verify_catches_carrier_with_parallel_pair():
    # class 3 would put hyperfaces 5 and 6, a parallel pair, on both cusps
    assert carrier(3) == frozenset(range(1, 7))
    _t, rows = derived("case41")
    report = verify_table(3, rows)
    assert "carrier [1, 2, 3, 4, 5, 6] contains a parallel pair" in report.problems


def test_verify_catches_repeats():
    t, rows = derived("table1")
    report = verify_table(t, rows + rows[:1])
    assert any("repeats" in p for p in report.problems)


def test_averaging_cases():
    assert averaging_contradiction(12, [4], 4).contradiction
    assert averaging_contradiction(12, [3, 3, 3, 3], 12).contradiction
    assert averaging_contradiction(12, [2] * 10, 20).contradiction


def test_averaging_no_contradiction():
    verdict = averaging_contradiction(12, [4], 3)
    assert not verdict.contradiction
    assert verdict.margin == -1


def test_averaging_monotone():
    base = averaging_contradiction(12, [3, 2], 5)
    assert base.contradiction
    # enlarging the surplus or shrinking a deficit preserves the verdict
    assert averaging_contradiction(12, [3, 2], 6).contradiction
    assert averaging_contradiction(12, [2, 2], 5).contradiction


def test_averaging_rejects_negative_deficit():
    with pytest.raises(ValueError):
        averaging_contradiction(12, [-1], 3)


def _det(rows):
    """Determinant of a square integer matrix, by cofactors along row 0."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def _ideal_24_cell():
    """The ideal right-angled 24-cell from exact integers: its vertices, all
    ideal, the 24 permutations of (+-1, +-1, 0, 0); its facets on the 8
    hyperplanes x_i = +-1 and the 16 hyperplanes +-x1 +-x2 +-x3 +-x4 = 2,
    each a supporting hyperplane; its faces every non-empty intersection of
    facet vertex sets, graded by the longest chain below them.  Returns the
    vertices, the facet hyperplanes as (normal, right-hand side) and the
    faces of dimensions 0 to 3 as vertex-index sets, facets in hyperplane
    order."""
    vertices = sorted({tuple(signs[pos.index(i)] if i in pos else 0 for i in range(4))
                       for pos in combinations(range(4), 2)
                       for signs in product((1, -1), repeat=2)})
    planes = [(tuple(s if i == j else 0 for j in range(4)), 1)
              for i in range(4) for s in (1, -1)]
    planes += [(signs, 2) for signs in product((1, -1), repeat=4)]
    facets = []
    for normal, rhs in planes:
        heights = [sum(a * x for a, x in zip(normal, v)) for v in vertices]
        assert max(heights) == rhs
        facets.append(frozenset(i for i, h in enumerate(heights) if h == rhs))
    faces = set(facets)
    fresh = set(facets)
    while fresh:
        fresh = {f & g for f in fresh for g in facets if f & g} - faces
        faces |= fresh
    dimension = {}
    for f in sorted(faces, key=len):
        dimension[f] = max((dimension[g] + 1 for g in dimension if g < f), default=0)
    graded = [sorted((f for f in faces if dimension[f] == k), key=sorted) for k in range(3)]
    return vertices, planes, graded + [facets]


def _octahedron(vertices, normal, facet, triangles):
    """A facet of the 24-cell as a ``Polyhedron3`` with six cusps, each
    triangle oriented by the sign of det(b - a, c - a, 6a - s, normal),
    where s sums the facet's vertices, so all turn the same way."""
    ids = sorted(facet)
    total = [sum(vertices[v][i] for v in ids) for i in range(4)]
    cycles = []
    for tri in triangles:
        a, b, c = (vertices[v] for v in sorted(tri))
        rows = [[y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)],
                [6 * x - t for x, t in zip(a, total)], list(normal)]
        cycle = [ids.index(v) for v in sorted(tri)]
        cycles.append(tuple(cycle if _det(rows) > 0 else cycle[::-1]))
    return Polyhedron3(6, frozenset(range(6)), tuple(cycles))


def test_cusp_link_model_on_the_ideal_24_cell():
    """The ideal right-angled 24-cell has f-vector (24, 96, 96, 24).  At each
    of its cusps the edges, 2-faces and 3-faces number ``count_cusp_faces``,
    the six facets pair up as ``CuspLink(4).partner`` pairs the hyperfaces
    once each pair of facets meeting only at the cusp is labelled i and
    7 - i, and the facets holding each face through the cusp are a
    pair-free set of ``cusp_faces``.  Each edge lies in
    ``faces_through_edge(4)`` facets, the lattice passes the Nikulin audit,
    and each octahedral facet with its six cusps passes the right-angled
    check and the small-dimension floors."""
    vertices, planes, (points, edges, triangles, facets) = _ideal_24_cell()
    assert [len(points), len(edges), len(triangles), len(facets)] == [24, 96, 96, 24]
    link = CuspLink(4)
    for v in range(len(vertices)):
        at = [[f for f in grade if v in f] for grade in (edges, triangles, facets)]
        assert [len(grade) for grade in at] == [count_cusp_faces(4, k) for k in (1, 2, 3)]
        pairs = sorted(sorted((f, g)) for f, g in combinations(at[2], 2) if f & g == {v})
        label = {}
        for m, (f, g) in enumerate(pairs):
            label[f], label[g] = m + 1, link.size - m
        assert len(label) == link.size
        for f, g in pairs:
            assert link.partner(label[f]) == label[g] and link.partner(label[g]) == label[f]
        for k, grade in enumerate(at, start=1):
            held = {frozenset(label[h] for h in at[2] if f <= h) for f in grade}
            assert held == set(link.cusp_faces(k)), (v, k)
    assert all(sum(1 for h in facets if e <= h) == faces_through_edge(4) for e in edges)

    index = {f: i for grade in (points, edges, triangles) for i, f in enumerate(grade)}
    below = [[tuple(index[g] for g in lower if g < f) for f in grade]
             for lower, grade in ((points, edges), (edges, triangles), (triangles, facets))]
    lattice = FaceLattice(len(vertices), range(len(vertices)), below)
    assert [len(grade) for grade in lattice.below] == [96, 96, 24]
    records = nikulin.audit(lattice).records
    assert records and all(r.strict_ok for r in records)

    for (normal, _), facet in zip(planes, facets):
        octahedron = _octahedron(vertices, normal, facet, [t for t in triangles if t < facet])
        assert check_right_angled(octahedron).verdict == "pass"
        assert check_small(to_face_lattice(octahedron)).passed
