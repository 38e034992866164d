from __future__ import annotations

from fractions import Fraction

import pytest

from orthocusp import (
    audit,
    check_small,
    compact_exclusion,
    face_average,
    nikulin_rhs,
    to_face_lattice,
)
from orthocusp.core import FaceLattice


def chain_lattice(dimension, top_children):
    """Minimal well-graded lattice: one chain face (index 0) per grade, plus
    exactly ``width`` grade-(k-1) faces forming the down-set of the chain's
    grade-k face (the chain deliberately bypasses that face)."""
    k, width = top_children
    below = []
    for d in range(1, dimension):
        chain = tuple(range(1, width + 1)) if d == k else (0,)
        below.append([chain] + [()] * (width if d == k - 1 else 0))
    return FaceLattice(1 + (width if k == 1 else 0), (), below)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------

def test_rhs_pins():
    assert nikulin_rhs(6, 3, 2) == 12
    assert nikulin_rhs(7, 3, 2) == 9


def test_rhs_examples():
    assert nikulin_rhs(5, 2, 1) == 5
    assert nikulin_rhs(7, 2, 1) == Fraction(14, 3)
    assert nikulin_rhs(12, 2, 1) == Fraction(22, 5)
    assert nikulin_rhs(3, 1, 0) == 2


def test_rhs_rejects_large_k():
    with pytest.raises(ValueError):
        nikulin_rhs(6, 4, 2)


def test_rhs_exclusion_sweep():
    values = {n: nikulin_rhs(n, 2, 1) for n in range(5, 101)}
    assert all(v <= 5 for v in values.values())
    assert [n for n, v in values.items() if v == 5] == [5, 6]


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def test_face_average_cube(cube):
    L = to_face_lattice(cube)
    assert face_average(L, 2, 1) == 4
    assert face_average(L, 2, 0) == 4
    assert face_average(L, 1, 0) == 2


def test_face_average_dodecahedron(dodecahedron):
    assert face_average(to_face_lattice(dodecahedron), 2, 1) == 5


def test_face_average_one_cusp(one_cusp_12):
    L = to_face_lattice(one_cusp_12)
    assert face_average(L, 2, 1) == Fraction(29, 6)
    # an edge into the cusp carries a single 0-face
    assert face_average(L, 1, 0) < 2


def test_face_average_times_count_is_integer(cube, dodecahedron, one_cusp_12):
    for p in (cube, dodecahedron, one_cusp_12):
        L = to_face_lattice(p)
        for k in range(1, 3):
            for l in range(k):
                value = face_average(L, k, l) * L.a(k)
                assert value.denominator == 1


def test_face_average_bad_range(cube):
    L = to_face_lattice(cube)
    with pytest.raises(ValueError):
        face_average(L, 1, 1)
    with pytest.raises(ValueError):
        face_average(L, 3, 1)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_dimension3_boundary(cube, dodecahedron):
    for p in (cube, dodecahedron):
        a = audit(to_face_lattice(p))
        assert len(a.records) == 1
        rec = a.records[0]
        assert (rec.k, rec.l) == (1, 0)
        assert rec.average == 2 and rec.bound == 2
        assert rec.strict_ok is False


def test_audit_synthetic_boundary_lattice():
    # one 3-face carrying twelve 2-faces inside a 6-dimensional skeleton
    L = chain_lattice(6, (3, 12))
    a = audit(L)
    rec = next(r for r in a.records if (r.k, r.l) == (3, 2))
    assert rec.average == 12
    assert rec.bound == 12
    assert rec.strict_ok is False


def test_audit_records_pair_by_pair():
    """``audit`` makes one record per pair (k, l), l < k, grade by grade,
    and its records are the face averages and bounds pair by pair."""
    L = chain_lattice(6, (3, 12))
    a = audit(L)
    assert [(r.k, r.l) for r in a.records] == [(k, l) for k in (1, 2, 3) for l in range(k)]
    for r in a.records:
        assert (r.average, r.bound) == (face_average(L, r.k, r.l), nikulin_rhs(6, r.k, r.l))


# ---------------------------------------------------------------------------
# small dimensions
# ---------------------------------------------------------------------------

def polygon_lattice(edges, cusps):
    """Dimension-2 lattice of a polygon with some vertices at infinity."""
    return FaceLattice(edges, range(cusps), [[(i, (i + 1) % edges) for i in range(edges)]])


def test_check_small_pentagon():
    assert check_small(polygon_lattice(5, 0)).passed


def test_check_small_cusped_quadrilateral():
    assert check_small(polygon_lattice(4, 1)).passed


def test_check_small_cusped_triangle_fails():
    assert not check_small(polygon_lattice(3, 1)).passed


def test_check_small_square_fails():
    assert not check_small(polygon_lattice(4, 0)).passed


def test_check_small_dimension3(one_cusp_12, cube):
    assert check_small(to_face_lattice(one_cusp_12)).passed
    report = check_small(to_face_lattice(cube))
    # the cube meets a2 >= 6 but needs cusps for the second floor
    assert not report.passed


def test_check_small_wrong_dimension():
    with pytest.raises(ValueError):
        check_small(chain_lattice(6, (3, 12)))


# ---------------------------------------------------------------------------
# compact exclusion
# ---------------------------------------------------------------------------

def test_compact_exclusion_certificates():
    assert compact_exclusion(5).bound == 5
    assert compact_exclusion(7).bound == Fraction(14, 3)
    assert compact_exclusion(12).bound == Fraction(22, 5)
    for n in range(5, 101):
        assert compact_exclusion(n).excluded


def test_compact_exclusion_low_dimension_rejected():
    with pytest.raises(ValueError):
        compact_exclusion(4)


def test_enumerated_compact_types_respect_edge_floor(enum_right_angled_compact_12):
    for t in enum_right_angled_compact_12.types:
        L = to_face_lattice(t.polyhedron)
        assert face_average(L, 2, 1) >= 5
