"""Acceptance suite: one numbered criterion per test, one printed verdict
line each.  Criteria marked with stated time budgets measure the stated
computation; enumeration stages report their measured wall time.

Criterion 2's equality clause checks where the (2,1) exclusion bound
reaches the compact floor 5: at n=5 and n=6, by the closed forms
2(2h+1)/h for n=2h+1 and 2(2h-1)/(h-1) for n=2h, and below 5 from n=7 on.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from orthocusp import (
    canonical_code,
    count_cusp_faces,
    faces_through_edge,
    lemma61,
    main_bounds,
    n7_polynomial,
    n7_preform,
    nikulin_rhs,
)
from orthocusp.cli import main
from orthocusp.cusplink import verify_builtin
from orthocusp.data import load_fixture
from test_core import relabeled


def announce(num: int, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {verdict}{suffix}", flush=True)
    return ok


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_nikulin_pins(capsys):
    _, elapsed = timed(lambda: (nikulin_rhs(6, 3, 2), nikulin_rhs(7, 3, 2)))
    ok = nikulin_rhs(6, 3, 2) == 12 and nikulin_rhs(7, 3, 2) == 9
    code6 = main(["nikulin", "--n", "6", "--k", "3", "--l", "2"])
    out6 = capsys.readouterr().out
    code7 = main(["nikulin", "--n", "7", "--k", "3", "--l", "2"])
    out7 = capsys.readouterr().out
    ok = ok and code6 == 0 and out6 == "12\n" and code7 == 0 and out7 == "9\n"
    ok = ok and elapsed < 0.001
    with capsys.disabled():
        assert announce(1, ok, f"{elapsed * 1e6:.0f}us")


def test_criterion_2a_compact_exclusion_bound(capsys):
    start = time.perf_counter()
    values = {n: nikulin_rhs(n, 2, 1) for n in range(5, 101)}
    elapsed = time.perf_counter() - start
    ok = all(v <= 5 for v in values.values()) and elapsed < 1.0
    with capsys.disabled():
        assert announce(2, ok, f"bound <= 5 on 5..100, {elapsed * 1e3:.1f}ms")


def test_criterion_2b_equality_only_at_five(capsys):
    # name kept from the first wording of the clause, which missed n=6
    def closed_form(n):
        h = n // 2
        return Fraction(2 * (2 * h + 1), h) if n % 2 else Fraction(2 * (2 * h - 1), h - 1)

    expected = {n: closed_form(n) for n in range(5, 101)}
    values = {n: nikulin_rhs(n, 2, 1) for n in range(5, 101)}
    equality_points = [n for n, v in values.items() if v == 5]
    ok = (values == expected
          and equality_points == [5, 6]
          and all(values[n] < 5 for n in range(7, 101)))
    with capsys.disabled():
        announce(2, ok, f"equality clause; equality at n={equality_points}")
    assert ok


def test_criterion_3_cusp_link_counts(capsys):
    def work():
        return (count_cusp_faces(6, 3), count_cusp_faces(7, 3),
                count_cusp_faces(6, 5), faces_through_edge(7))

    values, elapsed = timed(work)
    ok = values == (80, 240, 10, 15) and elapsed < 1.0
    with capsys.disabled():
        assert announce(3, ok, f"{elapsed * 1e3:.1f}ms")


def test_criterion_4_one_cusp_minimum(request, capsys):
    report, elapsed = timed(lambda: request.getfixturevalue("one_cusp_report"))
    ok = (report.ok
          and report.counts_by_faces == {12: 1}
          and report.face_sizes == [4, 4] + [5] * 10
          and report.cusp_cycle_sizes in ((4, 5, 4, 5), (5, 4, 5, 4))
          and report.matches_contracted_dodecahedron)
    with capsys.disabled():
        assert announce(4, ok, f"exhaustion {elapsed:.1f}s")


def test_criterion_5_compact_extremal(request, capsys, dodecahedron):
    report, elapsed = timed(
        lambda: request.getfixturevalue("enum_right_angled_compact_12"))
    ok = (report.counts_by_faces == {12: 1}
          and report.types[0].code == canonical_code(dodecahedron))
    with capsys.disabled():
        assert announce(5, ok, f"exhaustion {elapsed:.1f}s")


def test_criterion_6_two_cusp_minima(request, capsys):
    report, elapsed = timed(lambda: request.getfixturevalue("two_cusp_report"))
    ok = report.ok and report.floors == {0: 8, 1: 9, 2: 10}
    for (cls, faces) in report.counts:
        ok = ok and faces >= report.floors[cls]
    with capsys.disabled():
        assert announce(6, ok, f"exhaustion {elapsed:.1f}s")


def test_criterion_7_table_verification(capsys):
    def work():
        return {name: verify_builtin(name) for name in ("table1", "table2", "case41")}

    reports, elapsed = timed(work)
    ok = elapsed < 1.0
    # table name: rows, distinct members, class t of the two-cusp case
    want = {"table1": (12, 36, 1), "table2": (20, 60, 2), "case41": (4, 12, 0)}
    for name, (rows, faces, t) in want.items():
        rep = reports[name]
        ok = ok and rep.ok and rep.rows == rows and rep.distinct_faces == faces and rep.t == t
    with capsys.disabled():
        assert announce(7, ok, f"{elapsed * 1e3:.1f}ms")


def test_criterion_8_n7_certificate(capsys):
    def work():
        for m in range(1, 17):
            assert 240 - 15 * (m - 1) > 0
            assert n7_polynomial(2, m) >= 0
        for l in range(2, 41):
            for m in range(l, 41):
                assert 2 * n7_preform(l, m) == n7_polynomial(l, m)
        return 17

    bound, elapsed = timed(work)
    ok = bound == 17 and elapsed < 1.0
    with capsys.disabled():
        assert announce(8, ok, f"{elapsed * 1e3:.1f}ms")


def test_criterion_9_main_theorem_table(capsys):
    table = main_bounds().table  # assembled untimed; the criterion times the checks
    want = {6: 3, 7: 17, 8: 36, 9: 91, 10: 254, 11: 741, 12: 2200}

    def work():
        assert table == want
        for n in range(8, 13):
            assert lemma61(n, table[n - 1]) == table[n]
        return True

    _, elapsed = timed(work)
    code = main(["bounds"])
    out = capsys.readouterr().out
    golden = "".join(f"n={n} c>={want[n]}\n" for n in sorted(want))
    ok = code == 0 and out == golden and elapsed < 0.001
    with capsys.disabled():
        assert announce(9, ok, f"{elapsed * 1e6:.0f}us")


def test_criterion_10_oracle_and_invariance(request, capsys, rng):
    start = time.perf_counter()
    oracle_counts = request.getfixturevalue("oracle_counts")
    enum_all = request.getfixturevalue("enum_all_small")
    ok = True
    for (faces, cusps), want in oracle_counts.items():
        ok = ok and enum_all[cusps].counts_by_faces.get(faces, 0) == want

    fixtures = [load_fixture(n) for n in
                ("cube", "dodecahedron", "triangular_prism", "square_pyramid")]
    dode = fixtures[1]
    from orthocusp import contract_edge
    fixtures.append(contract_edge(dode, dode.edges[0]))
    for p in fixtures:
        base = canonical_code(p)
        for _ in range(20):
            ok = ok and canonical_code(relabeled(p, rng)) == base
        ok = ok and canonical_code(relabeled(p, rng, reflect=True)) == base
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        assert announce(10, ok, f"oracle + invariance {elapsed:.1f}s")
