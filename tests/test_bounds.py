from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from orthocusp import (
    lemma61,
    main_bounds,
    n7_certificate,
    n7_preform,
)
from orthocusp import bounds, cusplink, enum3
from orthocusp.cli import main
from orthocusp.nikulin import CompactExclusion

MAIN_TABLE = {6: 3, 7: 17, 8: 36, 9: 91, 10: 254, 11: 741, 12: 2200}


def n7_polynomial(l: int, m: int) -> int:
    """The closed form the docstring of ``n7_preform`` states for twice it."""
    return 17 * l * l - 17 * l - 90 * m * m + 1530 * m - 1440


def test_preform_values():
    assert n7_preform(2, 16) == 17
    assert n7_preform(2, 17) == -703
    assert n7_preform(2, 2) == 647


def test_preform_is_its_docstring_sum():
    """The 240 and 15 inside the preform are the cusp-link counts."""
    faces = cusplink.count_cusp_faces(7, 3)
    per_cusp = cusplink.faces_through_edge(7)
    for l in range(2, 41):
        for m in range(l, 41):
            assert n7_preform(l, m) == (
                -45 * comb(m - l, 2) - 45 * l * (m - l) - 28 * comb(l, 2)
                + sum(3 * (faces - per_cusp * j) for j in range(1, m)))


def test_preform_range():
    with pytest.raises(ValueError):
        n7_preform(1, 5)
    with pytest.raises(ValueError):
        n7_preform(3, 2)


def test_polynomial_values():
    assert n7_polynomial(2, 16) == 34
    assert n7_polynomial(2, 17) == -1406
    assert n7_polynomial(2, 1) == 34
    assert n7_polynomial(2, 8) == 5074


def test_identity_doubling_sweep():
    for l in range(2, 41):
        for m in range(l, 41):
            assert 2 * n7_preform(l, m) == n7_polynomial(l, m)


def test_polynomial_symmetry():
    for m in range(1, 17):
        assert n7_polynomial(2, m) == n7_polynomial(2, 17 - m)


def test_polynomial_increasing_in_l():
    for m in range(3, 41):
        for l in range(2, m):
            assert n7_polynomial(l + 1, m) > n7_polynomial(l, m)


def test_n7_certificate_complete():
    cert = n7_certificate()
    assert cert.bound == 17
    assert [e.m for e in cert.entries] == list(range(3, 17))
    assert cert.complete
    entry = next(e for e in cert.entries if e.m == 8)
    assert entry.one_cusp_floor == 135 and entry.polynomial == 5074
    entry = next(e for e in cert.entries if e.m == 16)
    assert entry.one_cusp_floor == 15 and entry.polynomial == 34


def test_n7_entries_derived():
    """Each dimension-7 line rests on the preform and on the cusp-link counts."""
    faces = cusplink.count_cusp_faces(7, 3)
    per_cusp = cusplink.faces_through_edge(7)
    for e in n7_certificate().entries:
        assert 2 * n7_preform(2, e.m) == e.polynomial
        assert e.one_cusp_floor == faces - per_cusp * (e.m - 1)


def test_lemma61_values():
    assert lemma61(8, 17) == 36
    assert lemma61(9, 36) == 91
    assert lemma61(10, 91) == 254
    assert lemma61(11, 254) == 741
    assert lemma61(12, 741) == 2200


def test_lemma61_refuses_out_of_scope():
    with pytest.raises(ValueError):
        lemma61(7, 20)
    with pytest.raises(ValueError):
        lemma61(13, 3000)
    with pytest.raises(ValueError):
        lemma61(8, 13)  # below 2(n-1) = 14


def test_chained_floor_equals_linear_form():
    for n in range(8, 13):
        for m in (2 * (n - 1), 2 * (n - 1) + 1, 50, 741):
            assert lemma61(n, m) == 3 * m - 2 * n + 1


def test_main_bounds_table():
    cert = main_bounds()
    assert cert.table == MAIN_TABLE


def test_main_bounds_recursion_consistency():
    cert = main_bounds()
    for n in range(8, 13):
        assert lemma61(n, cert.table[n - 1]) == cert.table[n]


def test_main_bounds_subcertificates():
    cert = main_bounds()
    assert cert.n6.complete
    assert cert.n6.compact.dimension == 6 and cert.n6.compact.excluded
    assert cert.n6.one_cusp_floor >= cert.n6.strict_bound == 12
    names = [name for name, _ in cert.n6.cases]
    assert names == ["case41", "table1", "table2"]
    surpluses = {name: v.surplus_count for name, v in cert.n6.cases}
    assert surpluses == {"case41": 4, "table1": 12, "table2": 20}
    deficits = {name: v.deficit_sum for name, v in cert.n6.cases}
    assert deficits == {"case41": 4, "table1": 12, "table2": 20}
    assert cert.n7.complete


def test_bounds_lines_golden():
    cert = main_bounds()
    assert cert.lines() == [
        "n=6 c>=3",
        "n=7 c>=17",
        "n=8 c>=36",
        "n=9 c>=91",
        "n=10 c>=254",
        "n=11 c>=741",
        "n=12 c>=2200",
    ]


def test_main_bounds_reads_census_floors(monkeypatch, two_cusp_report):
    """The table rests on the floors the censuses check: weakening either
    census floor leaves the dimension-6 certificate incomplete."""
    assert two_cusp_report.budget == 10
    with monkeypatch.context() as mp:
        mp.setitem(enum3.TWO_CUSP_FLOORS, 2, 9)
        cert = main_bounds()
        assert not cert.complete
        assert "table2: surplus 20 vs deficit 30 " in cert.refusal()
    with monkeypatch.context() as mp:
        mp.setattr(enum3, "ONE_CUSP_FLOOR", 11)
        cert = main_bounds()
        assert not cert.complete
        assert "needs >= 11 2-faces" in cert.refusal()
        assert "average must stay < 12: no contradiction" in cert.refusal()
        assert "dimension 7" not in cert.refusal()
    cert = main_bounds()
    assert cert.complete and cert.table == MAIN_TABLE


def test_main_bounds_reads_table_class(monkeypatch, capsys):
    """Each case's surplus is the number of rows derived for it: a
    derivation one row short of table1's deficit 3 on each of 4 faces
    leaves the certificate short, and ``bounds`` refuses."""
    derive_rows = cusplink.derive_rows

    def one_short(t, count):
        rows = derive_rows(t, count)
        return rows[:-1] if t == 1 else rows

    monkeypatch.setattr(cusplink, "derive_rows", one_short)
    cert = main_bounds()
    assert cert.n6.tables["table1"].ok and not cert.complete
    assert "table1: surplus 11 vs deficit 12 " in cert.refusal()
    assert main(["bounds"]) == 1
    assert "table1: surplus 11 vs deficit 12 " in capsys.readouterr().err


def test_main_bounds_reads_the_compact_exclusion(monkeypatch, capsys):
    """The dimension-6 entry rests on the compact exclusion too: a bound
    above the floor of 5 edges leaves the certificate incomplete, and
    ``bounds`` refuses with the ``no cusp`` line."""
    monkeypatch.setattr(bounds, "compact_exclusion",
                        lambda n: CompactExclusion(6, Fraction(6), 5))
    line = "no cusp: every 2-face needs >= 5 edges, average must stay < 6: no contradiction"
    cert = main_bounds()
    assert not cert.complete
    assert line in cert.refusal()
    assert "dimension 7" not in cert.refusal()
    assert main(["bounds"]) == 1
    assert line in capsys.readouterr().err
