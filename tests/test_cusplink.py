from __future__ import annotations

from itertools import combinations

import pytest

from orthocusp import (
    CuspLink,
    averaging_contradiction,
    count_cusp_faces,
    faces_through_edge,
    is_adjacent,
    two_cusp_faces,
    verify_table,
)
from orthocusp.cusplink import BUILTIN_TABLES, carrier, verify_builtin


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
    assert list(BUILTIN_TABLES) == list(expectations)
    for name, (t, rows, distinct) in expectations.items():
        report = verify_builtin(name)
        assert report.ok, report.problems
        assert report.t == BUILTIN_TABLES[name][0] == t
        assert report.rows == rows
        assert report.distinct_faces == distinct


def test_verify_catches_carrier_member():
    t, rows = BUILTIN_TABLES["table1"]
    bad = (tuple(list(rows[0][:2]) + [frozenset({1, 2, 3})]),) + rows[1:]
    report = verify_table(t, bad)
    assert not report.ok
    assert any("carrier" in p for p in report.problems)


def test_verify_catches_non_adjacent_row():
    t, rows = BUILTIN_TABLES["table1"]
    # {1,2,6} and {1,2,5}: 5 and 6 are parallel partners
    bad = ((frozenset({1, 2, 6}), frozenset({1, 2, 7}), frozenset({1, 2, 5})),)
    report = verify_table(t, bad)
    assert not report.ok
    assert any("not adjacent" in p for p in report.problems)


def test_verify_catches_parallel_pair_member():
    t, _rows = BUILTIN_TABLES["table1"]
    bad = ((frozenset({1, 2, 6}), frozenset({1, 2, 7}), frozenset({5, 6, 7})),)
    report = verify_table(t, bad)
    assert any("parallel" in p for p in report.problems)


def test_verify_catches_carrier_with_parallel_pair():
    # class 3 would put hyperfaces 5 and 6, a parallel pair, on both cusps
    assert carrier(3) == frozenset(range(1, 7))
    _t, rows = BUILTIN_TABLES["case41"]
    report = verify_table(3, rows)
    assert "carrier [1, 2, 3, 4, 5, 6] contains a parallel pair" in report.problems


def test_verify_catches_repeats():
    t, rows = BUILTIN_TABLES["table1"]
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
