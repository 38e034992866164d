from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from orthocusp import (
    AngleError,
    Poly3Error,
    check_andreev,
    check_right_angled,
    contract_edge,
    enum3,
    parse_angles,
    prismatic_circuits,
    right_angles,
)
from orthocusp.andreev import HALF
from orthocusp.core import require_valid
from oracle import check_andreev_reference, prismatic_circuits_by_scan


def test_adjacency_cube(cube):
    """The cube's 12 adjacent face pairs share one edge each, 4 per face."""
    pairs = require_valid(cube).face_pairs
    assert len(pairs) == 12
    assert all(len(edges) == 1 for edges in pairs.values())
    assert Counter(face for pair in pairs for face in pair) == Counter(dict.fromkeys(range(6), 4))


def test_adjacency_dodecahedron(dodecahedron):
    pairs = require_valid(dodecahedron).face_pairs
    assert Counter(face for pair in pairs for face in pair) == Counter(dict.fromkeys(range(12), 5))


def test_adjacency_multiplicity_recorded():
    from orthocusp import parse_poly3
    pillow = parse_poly3("poly3 v1\nvertices: 4\nideal:\nface: 0 1 2 3\nface: 1 0 3 2\n")
    assert len(require_valid(pillow).face_pairs[(0, 1)]) == 4


def test_adjacency_matches_reference(incidence_corpus):
    """The face-pair table equals the face-scan reference's pairs with
    a < b, key order included, which sets the order of the
    single_shared_edge witnesses."""
    from oracle import adjacency_reference

    for p in incidence_corpus:
        reference = [((a, b), tuple(edges))
                     for (a, b), edges in adjacency_reference(p).items() if a < b]
        assert list(require_valid(p).face_pairs.items()) == reference, p


def test_prismatic_3_circuits_prism(prism):
    circuits = prismatic_circuits(prism, 3)
    assert len(circuits) == 1
    assert set(circuits[0]) == {2, 3, 4}


def test_prismatic_circuits_cube(cube):
    assert prismatic_circuits(cube, 3) == []
    bands = prismatic_circuits(cube, 4)
    assert len(bands) == 3


@pytest.mark.parametrize("length", [2, 5])
def test_prismatic_circuits_refuses_other_lengths(cube, length):
    with pytest.raises(ValueError, match="^circuit length must be 3 or 4$"):
        prismatic_circuits(cube, length)


def test_prismatic_circuits_dodecahedron(dodecahedron):
    assert prismatic_circuits(dodecahedron, 3) == []
    assert prismatic_circuits(dodecahedron, 4) == []


def test_prismatic_circuit_cusp_exclusion(one_cusp_12):
    # the four faces around the cusp are cyclically adjacent with opposite
    # pairs parallel, but they meet at the cusp, so they never qualify
    for circ in prismatic_circuits(one_cusp_12, 4):
        members = set(circ)
        cusp = next(iter(one_cusp_12.ideal_vertices))
        around = {i for i, f in enumerate(one_cusp_12.faces) if cusp in f}
        assert members != around
    assert prismatic_circuits(one_cusp_12, 4) == []


def assert_circuits_match_scan(p):
    for length in (3, 4):
        found = prismatic_circuits(p, length)
        assert found == prismatic_circuits_by_scan(p.faces, length), (length, p)


def test_prismatic_circuits_match_scan_small(enum_all_small, k_gonal_prism):
    """The neighbour-set search lists what the scan of every face triple and
    quadruple lists, in the same order, on every type up to 8 faces and on
    the k-gonal prisms."""
    for report in enum_all_small.values():
        for t in report.types:
            assert_circuits_match_scan(t.polyhedron)
    for k in range(3, 13):
        assert_circuits_match_scan(k_gonal_prism(k))


@pytest.mark.parametrize("cusps, max_faces", [
    (1, 10), (2, 9), pytest.param(2, 10, marks=pytest.mark.slow)])
def test_prismatic_circuits_match_scan_cusped(cusps, max_faces):
    """The same on every type with 9 or more faces and the given cusps."""
    report = enum3.enumerate_types(enum3.EnumSpec(max_faces, cusps))
    checked = Counter()
    for t in report.types:
        if t.faces >= 9:
            assert_circuits_match_scan(t.polyhedron)
            checked[t.faces] += 1
    assert sorted(checked) == list(range(9, max_faces + 1))


def test_wedge_pass_matches_scan_loebell_and_prisms(loebell, k_gonal_prism):
    """The wedge pass lists what the scan lists, in the same order, on the
    Loebell polyhedra L(5..12), on each of them with one edge contracted
    to a cusp, and on the k-gonal prisms up to 40.  Around a contracted
    edge the faces at either end form 3-circuit candidates through a
    vertex, and the four faces around the cusp an induced 4-cycle through
    it, which both searches must exclude."""
    for n in range(5, 13):
        p = loebell(n)
        assert_circuits_match_scan(p)
        contracted = contract_edge(p, p.edges[0])
        cusp = next(iter(contracted.ideal_vertices))
        around = [fi for fi, face in enumerate(contracted.faces) if cusp in face]
        assert len(around) == 4
        assert prismatic_circuits(contracted, 4) == prismatic_circuits(p, 4) == []
        assert_circuits_match_scan(contracted)
    for k in range(3, 41):
        assert_circuits_match_scan(k_gonal_prism(k))


def test_prismatic_circuits_k_gonal_prism(k_gonal_prism):
    """The k-gonal prism has no 3-circuit for k >= 4, and its 4-circuits are
    the k(k - 3)/2 bands through the two k-gons for k >= 5."""
    for k in [*range(4, 41), 100, 120]:
        prism = k_gonal_prism(k)
        assert prismatic_circuits(prism, 3) == []
        if k >= 5:
            assert len(prismatic_circuits(prism, 4)) == k * (k - 3) // 2
    assert len(prismatic_circuits(k_gonal_prism(100), 4)) == 4850


# ---------------------------------------------------------------------------
# acute-angled check
# ---------------------------------------------------------------------------

def test_andreev_dodecahedron_right(dodecahedron):
    report = check_andreev(dodecahedron, right_angles(dodecahedron))
    assert report.verdict == "pass"


def test_andreev_cube_right_fails_on_bands(cube):
    report = check_andreev(cube, right_angles(cube))
    assert report.verdict == "fail"
    assert len(report.witnesses("e")) == 3
    assert not report.witnesses("a")


def test_andreev_excluded_families(prism, tetrahedron):
    assert check_andreev(prism, right_angles(prism)).verdict == "outside-scope"
    assert check_andreev(tetrahedron, right_angles(tetrahedron)).verdict == "outside-scope"


def test_andreev_missing_angle(cube):
    angles = right_angles(cube)
    angles.pop(cube.edges[0])
    with pytest.raises(AngleError, match="missing"):
        check_andreev(cube, angles)


def test_andreev_angle_out_of_range(cube):
    angles = right_angles(cube)
    angles[cube.edges[0]] = Fraction(2, 3)
    with pytest.raises(AngleError, match="outside"):
        check_andreev(cube, angles)


def test_andreev_rejects_bad_degrees(pyramid):
    with pytest.raises(Poly3Error, match="degree"):
        check_andreev(pyramid, right_angles(pyramid))


def test_andreev_rejects_cusp_of_degree_five():
    """The pentagonal pyramid with its apex a cusp is valid, but a cusp
    needs degree 3 or 4."""
    from orthocusp import Polyhedron3, validate

    pyramid = Polyhedron3(6, frozenset({5}), ((0, 1, 2, 3, 4),)
                          + tuple((5, (i + 1) % 5, i) for i in range(5)))
    assert validate(pyramid).valid
    with pytest.raises(Poly3Error, match=r"^cusp 5 has degree 5, need 3 or 4$"):
        check_andreev(pyramid, right_angles(pyramid))


def test_andreev_finite_vertex_needs_sum_above_one(dodecahedron):
    """Angles 1/2, 1/4, 1/4 at a finite vertex sum to exactly 1, which
    belongs to an ideal vertex: (a) fails at that vertex alone."""
    angles = right_angles(dodecahedron)
    at = [e for e in dodecahedron.edges if 0 in e]
    for e, q in zip(at, (HALF, Fraction(1, 4), Fraction(1, 4))):
        angles[e] = q
    report = check_andreev(dodecahedron, angles)
    assert report.verdict == "fail"
    assert report.entries["a"] == [(0, Fraction(1))]
    assert_matches_reference(dodecahedron, angles)


def test_andreev_cusp_sum_exact(one_cusp_12):
    # perturbing one cusp-incident angle away from 1/2 breaks the degree-4
    # cusp condition exactly
    angles = right_angles(one_cusp_12)
    cusp = next(iter(one_cusp_12.ideal_vertices))
    edge = next(e for e in one_cusp_12.edges if cusp in e)
    angles[edge] = Fraction(1, 3)
    report = check_andreev(one_cusp_12, angles)
    assert report.witnesses("b")


def test_andreev_witness_order_on_a_doubly_shared_pair():
    """The 2-sum of two triangular prisms: each loses a lateral edge, and
    the endpoints are joined crosswise by the edges (0, 6) and (3, 9).  Its
    merged faces 6 and 7 share both, met as (3, 9) then (0, 6) in the
    faces, and both lie on the prismatic 3-circuits (2, 6, 7) and
    (5, 6, 7).  With distinct angles on the shared edges each circuit has
    two (c) witnesses of different sums, listed by sorted shared edge."""
    from orthocusp import Polyhedron3, validate

    p = Polyhedron3(12, frozenset(), (
        (0, 1, 2), (3, 5, 4), (1, 4, 5, 2),
        (6, 7, 8), (9, 11, 10), (7, 10, 11, 8),
        (0, 2, 5, 3, 9, 10, 7, 6), (3, 4, 1, 0, 6, 8, 11, 9)))
    report = validate(p)
    assert report.valid
    assert report.warnings == [("multi-adjacency", "faces 6 and 7 share 2 edges")]
    assert prismatic_circuits(p, 3) == [(2, 6, 7), (5, 6, 7)]
    assert require_valid(p).face_pairs[(6, 7)] == ((0, 6), (3, 9))
    assert check_right_angled(p).witnesses("single_shared_edge") == [
        (6, 7, [(0, 6), (3, 9)])]
    angles = right_angles(p)
    angles.update({(0, 6): Fraction(1, 3), (3, 9): Fraction(1, 4), (7, 10): Fraction(2, 5)})
    report = check_andreev(p, angles)
    assert report.entries == {
        "a": [], "b": [],
        "c": [((2, 6, 7), Fraction(4, 3)), ((2, 6, 7), Fraction(5, 4)),
              ((5, 6, 7), Fraction(37, 30)), ((5, 6, 7), Fraction(23, 20))],
        "d": [], "e": []}
    assert report.entries == check_andreev_reference(p, angles).entries


def test_angle_file_parsing():
    angles = parse_angles("# comment\nangle: 0 1 1 2\nangle: 2 1 1 3\n")
    assert angles[(0, 1)] == HALF
    assert angles[(1, 2)] == Fraction(1, 3)
    with pytest.raises(AngleError):
        parse_angles("angle: 0 1 x 2\n")
    with pytest.raises(AngleError, match="line 2: .*zero denominator"):
        parse_angles("angle: 0 1 1 2\nangle: 0 1 1 0\n")


@pytest.mark.parametrize("text, message", [
    ("bogus\n", r"^line 1: unexpected line 'bogus'$"),
    ("angle: 0 1 1\n", r"^line 1: expected 'angle: u v p q'$"),
])
def test_angle_file_refuses_malformed_lines(text, message):
    with pytest.raises(AngleError, match=message):
        parse_angles(text)


def test_angle_file_repeated_edge():
    """A second line for one edge, in either orientation, is refused at
    that line rather than overriding the first."""
    with pytest.raises(AngleError,
                       match=r"^line 3: edge \(0, 1\) already has an angle on line 1$"):
        parse_angles("angle: 0 1 1 2\nangle: 1 2 1 3\nangle: 1 0 1 3\n")


# ---------------------------------------------------------------------------
# right-angled check
# ---------------------------------------------------------------------------

def test_right_angled_dodecahedron(dodecahedron):
    assert check_right_angled(dodecahedron).verdict == "pass"


def test_right_angled_one_cusp_type(one_cusp_12):
    assert check_right_angled(one_cusp_12).verdict == "pass"


def test_right_angled_cube_fails_face_sizes(cube):
    report = check_right_angled(cube)
    assert report.verdict == "fail"
    assert len(report.witnesses("face_size")) == 6


def test_right_angled_rejects_degree3_cusp(cube):
    from orthocusp import Polyhedron3
    # mark a trivalent cube vertex as ideal: cusps need degree 4
    marked = Polyhedron3(cube.vertex_count, frozenset({0}), cube.faces)
    report = check_right_angled(marked)
    assert any(v == 0 and d == 3 for v, d in report.witnesses("cusp_degree"))


def test_right_angled_multi_adjacency_witnesses(incidence_corpus, subdivided_cube):
    """On the corpus, and on the subdivided cube with a second edge
    subdivided on another face pair, the single_shared_edge witnesses are
    the pairs sharing several edges in the reference table's order, and the
    face_size witnesses are read off the face cycles."""
    from orthocusp import Polyhedron3
    from oracle import adjacency_reference

    faces = list(subdivided_cube.faces)
    faces[1] = (4, 5, 6, 7, 9)   # vertex 9 on edge 4-7 of faces 1 and 5
    faces[5] = (3, 8, 0, 4, 9, 7)
    twice = Polyhedron3(10, subdivided_cube.ideal_vertices, tuple(faces))
    multi = 0
    for p in incidence_corpus + [twice]:
        report = check_right_angled(p)
        if report.excluded_family:
            continue
        shared = [(a, b, edges) for (a, b), edges in adjacency_reference(p).items()
                  if a < b and len(edges) > 1]
        assert report.witnesses("single_shared_edge") == shared, p
        cusps = [len(set(face) & p.ideal_vertices) for face in p.faces]
        small = [(fi, len(face), c) for fi, (face, c) in enumerate(zip(p.faces, cusps))
                 if len(face) + c < 5]
        assert report.witnesses("face_size") == small, p
        multi += bool(shared)
    assert multi == 2
    assert report.witnesses("single_shared_edge") == [
        (0, 5, [(0, 8), (3, 8)]), (1, 5, [(4, 9), (7, 9)])]


def test_right_angled_matches_andreev_on_corpus(enum_all_small):
    """Internal consistency: a type passes the right-angled check exactly
    when the all-right acute check passes, every cusp has degree 4, and
    every face clears the size floor."""
    for report in enum_all_small.values():
        for t in report.types:
            p = t.polyhedron
            ra = check_right_angled(p)
            andv = check_andreev(p, right_angles(p))
            cusps_ok = all(len(require_valid(p).rotation[v]) == 4 for v in p.ideal_vertices)
            sizes_ok = all(
                len(f) + sum(1 for v in f if v in p.ideal_vertices) >= 5
                for f in p.faces)
            if ra.verdict == "outside-scope":
                assert andv.verdict == "outside-scope"
                continue
            expected = (andv.verdict == "pass") and cusps_ok and sizes_ok
            assert (ra.verdict == "pass") == expected, p


def test_accepted_types_have_no_circuits(enum_right_angled_compact_12):
    for t in enum_right_angled_compact_12.types:
        assert prismatic_circuits(t.polyhedron, 3) == []
        assert prismatic_circuits(t.polyhedron, 4) == []


def test_compact_accepted_face_floor(enum_right_angled_compact_12):
    for t in enum_right_angled_compact_12.types:
        assert all(len(f) >= 5 for f in t.polyhedron.faces)
        assert t.faces >= 12


def test_checks_validate_once(one_cusp_12, monkeypatch):
    """The audit chain on one instance (both checks, its face lattice and
    its canonical code) makes one structural pass over it; each check reads
    the edge list at most once, and the right-angled check not at all."""
    from dataclasses import replace

    from orthocusp import Polyhedron3, canonical_code, core, to_face_lattice

    p = replace(one_cusp_12)   # a fresh instance: nothing is kept on it yet
    angles = right_angles(p)
    calls = Counter()
    real_structure = core._structure
    real_edges = Polyhedron3.edges.fget

    def structure(*args):
        calls["structure"] += 1
        return real_structure(*args)

    def edges(p):
        calls["edges"] += 1
        return real_edges(p)

    monkeypatch.setattr(core, "_structure", structure)
    monkeypatch.setattr(Polyhedron3, "edges", property(edges))
    edge_reads = []
    for step in (check_right_angled, lambda p: check_andreev(p, angles),
                 to_face_lattice, canonical_code):
        before = calls["edges"]
        step(p)
        edge_reads.append(calls["edges"] - before)
    assert calls["structure"] == 1
    assert edge_reads[0] == 0 and edge_reads[1] <= 1


@pytest.mark.parametrize("first", ["validate", "require_valid"])
def test_audit_chain_makes_one_structural_pass(one_cusp_12, monkeypatch, first):
    """The audit chain as the benchmark runs it (validate with the
    right-angled profile, both checks, the face lattice, its audits and the
    canonical code) makes one structural pass, and so does the chain
    entered by ``require_valid``.  The report ``validate`` returns is the
    caller's: appending to its lists leaves a later ``require_valid`` and a
    later ``validate`` unchanged."""
    from dataclasses import replace

    from orthocusp import (RIGHT_ANGLED_PROFILE, canonical_code, core, nikulin,
                           to_face_lattice, validate)

    p = replace(one_cusp_12)   # a fresh instance: nothing is kept on it yet
    calls = Counter()
    real_structure = core._structure

    def structure(*args):
        calls["structure"] += 1
        return real_structure(*args)

    monkeypatch.setattr(core, "_structure", structure)
    if first == "require_valid":
        require_valid(p)
    report = validate(p, RIGHT_ANGLED_PROFILE)
    check_right_angled(p)
    check_andreev(p, right_angles(p))
    lattice = to_face_lattice(p)
    nikulin.audit(lattice)
    nikulin.check_small(lattice)
    canonical_code(p)
    assert calls["structure"] == 1
    assert report.clean and not report.warnings

    kept = require_valid(p)
    report.violations.append(("stale", "appended by the caller"))
    report.warnings.append(("stale", "appended by the caller"))
    report.degree_violations.append((0, 2, 3))
    assert require_valid(p) is kept
    assert not (kept.violations or kept.warnings or kept.degree_violations)
    again = validate(p, RIGHT_ANGLED_PROFILE)
    assert again.clean and not again.warnings
    assert calls["structure"] == 1


def test_face_graph_derived_once(one_cusp_12, monkeypatch):
    """Both checks and ``prismatic_circuits`` on one instance derive its
    face graph once, and what they return is the caller's: a mutated
    circuit list or report leaves a later check unchanged."""
    from copy import deepcopy
    from dataclasses import replace

    from orthocusp import core

    p = replace(one_cusp_12)   # a fresh instance: nothing is kept on it yet
    derived = Counter()
    real_derive = core._derive_face_graph

    def derive(*args):
        derived["graph"] += 1
        return real_derive(*args)

    monkeypatch.setattr(core, "_derive_face_graph", derive)
    first = check_right_angled(p)
    expected = deepcopy(first.entries)
    check_andreev(p, right_angles(p))
    circuits = {length: prismatic_circuits(p, length) for length in (3, 4)}
    assert derived["graph"] == 1

    # each change would add a witness to a report that read it
    circuits[3].append((0, 1, 2))
    circuits[4].append((0, 1, 2, 3))
    for witnesses in first.entries.values():
        witnesses.append("stale")
    later = check_right_angled(p)
    assert later.entries == expected
    assert later.verdict == "pass"
    assert derived["graph"] == 1


def test_check_reports_independent_of_call_order(enum_all_small):
    """Each check's report (entries, witness order, verdict) on a fresh
    instance equals its report after the other check ran on the instance
    and its report was scribbled on, over every type up to 8 faces and the
    9-face one- and two-cusp types."""
    from copy import deepcopy
    from dataclasses import replace

    polys = [t.polyhedron for report in enum_all_small.values() for t in report.types]
    for cusps in (1, 2):
        polys += [t.polyhedron for t in enum3.enumerate_types(enum3.EnumSpec(9, cusps)).types
                  if t.faces == 9]
    checks = (check_right_angled, lambda p: check_andreev(p, right_angles(p)))
    for p in polys:
        for first, second in (checks, checks[::-1]):
            alone = second(replace(p))
            shared = replace(p)
            before = first(shared)
            kept = deepcopy(before.entries)
            for witnesses in before.entries.values():
                witnesses.append("stale")
            after = second(shared)
            assert (after.entries, after.verdict) == (alone.entries, alone.verdict), p
            again = first(shared)
            assert again.entries == kept, p


# ---------------------------------------------------------------------------
# acute-angled check against the Fraction reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def angle_corpus(incidence_corpus, loebell):
    """The incidence corpus (fixtures, every type to 9 faces with 0-2 cusps,
    k-gonal prisms, the subdivided cube), the Loebell polyhedra L(5)..L(8)
    and every one-cusp contraction of each."""
    polys = list(incidence_corpus)
    for n in range(5, 9):
        p = loebell(n)
        polys.append(p)
        polys += [contract_edge(p, e) for e in p.edges]
    return polys


def outcome(check, p, angles):
    """What a check makes of one input: its report's entries, family flag
    and verdict, or the type and message of what it raised."""
    try:
        report = check(p, angles)
    except Poly3Error as exc:
        return type(exc), str(exc)
    return report.entries, report.excluded_family, report.verdict


def assert_matches_reference(p, angles):
    got = outcome(check_andreev, p, angles)
    assert got == outcome(check_andreev_reference, p, angles), (p, angles)
    return got


def random_angles(p, rng):
    """Seeded angles with denominators 2..12: in the low mode any angle in
    (0, 1/2], so vertex sums mostly fall short; in the high mode one of the
    two largest numerators, so most sums reach 1."""
    high = rng.random() < 0.5
    angles = {}
    for e in p.edges:
        d = rng.randint(2, 12)
        n = rng.randint(max(1, d // 2 - 1) if high else 1, d // 2)
        angles[e] = Fraction(n, d)
    return angles


#: Three angles summing to exactly 1 (pi), over several denominators.
EXACT_TRIPLES = [(Fraction(1, 3),) * 3,
                 (HALF, Fraction(1, 4), Fraction(1, 4)),
                 (HALF, Fraction(1, 3), Fraction(1, 6)),
                 (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4)),
                 (HALF, Fraction(2, 5), Fraction(1, 10))]


def test_andreev_matches_reference_right_angles(angle_corpus):
    """Under the all-right assignment every report, refusal included,
    equals the Fraction reference's."""
    verdicts = Counter()
    for p in angle_corpus:
        got = assert_matches_reference(p, right_angles(p))
        verdicts[got[-1] if len(got) == 3 else "raised"] += 1
    assert set(verdicts) == {"pass", "fail", "outside-scope", "raised"}


def test_andreev_matches_reference_random_angles(angle_corpus):
    """Seeded rational angles with mixed denominators: equal reports, and
    each acute condition fails on some input."""
    rng = random.Random(1970)
    failed = Counter()
    for p in angle_corpus:
        for _ in range(3):
            got = assert_matches_reference(p, random_angles(p, rng))
            if len(got) == 3 and not got[1]:
                failed.update(k for k, wits in got[0].items() if wits)
    assert set(failed) == {"a", "b", "c", "d", "e"}


def test_andreev_matches_reference_at_boundaries(angle_corpus):
    """Exact boundaries, the rest of the angles at 1/2: a finite vertex
    summing to exactly 1 fails (a) with witness 1, as does a prismatic
    3-circuit summing to exactly 1 for (c); a 4-valent cusp with one angle
    below 1/2 fails (b) naming that edge alone."""
    rng = random.Random(1971)
    seen = Counter()
    for p in angle_corpus:
        checked = outcome(check_andreev_reference, p, right_angles(p))
        if len(checked) != 3 or checked[1]:
            continue   # refused, or outside the criterion's scope
        triple = rng.choice(EXACT_TRIPLES)
        finite = [v for v in range(p.vertex_count)
                  if v not in p.ideal_vertices and len(require_valid(p).rotation[v]) == 3]
        if finite:
            v = rng.choice(finite)
            angles = right_angles(p)
            for e, q in zip([e for e in p.edges if v in e], triple):
                angles[e] = q
            entries = assert_matches_reference(p, angles)[0]
            assert (v, Fraction(1)) in entries["a"]
            seen["vertex"] += 1
        table = require_valid(p).face_pairs
        for circ in prismatic_circuits(p, 3):
            a, b, c = sorted(circ)   # face_pairs keys each pair as a < b
            pairs = [table[(a, b)], table[(a, c)], table[(b, c)]]
            if any(len(shared) != 1 for shared in pairs):
                continue
            angles = right_angles(p)
            for shared, q in zip(pairs, triple):
                angles[shared[0]] = q
            entries = assert_matches_reference(p, angles)[0]
            assert (circ, Fraction(1)) in entries["c"]
            seen["circuit"] += 1
            break
        for cusp in sorted(p.ideal_vertices):
            at = [e for e in p.edges if cusp in e]
            if len(at) != 4:
                continue
            angles = right_angles(p)
            edge = rng.choice(at)
            angles[edge] = rng.choice([Fraction(1, 3), Fraction(5, 12)])
            entries = assert_matches_reference(p, angles)[0]
            assert (cusp, [edge]) in entries["b"]
            seen["cusp"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3


def test_andreev_degree3_cusp_matches_reference(dodecahedron):
    """A trivalent cusp needs its angles to sum to exactly 1, where a
    finite vertex needs more."""
    from orthocusp import Polyhedron3

    marked = Polyhedron3(dodecahedron.vertex_count, frozenset({0}), dodecahedron.faces)
    angles = {e: Fraction(1, 3) for e in marked.edges}
    assert assert_matches_reference(marked, angles)[0]["a"] == [
        (v, Fraction(1)) for v in range(1, 20)]
    angles = right_angles(marked)
    assert assert_matches_reference(marked, angles)[0]["a"] == [(0, Fraction(3, 2))]


@pytest.mark.parametrize("bad", [None, Fraction(0), Fraction(-1, 3), Fraction(2, 3),
                                 HALF + Fraction(1, 10**9)])
def test_andreev_angle_errors_match_reference(cube, bad):
    """A missing, zero, negative or too large angle is refused with the
    reference's message."""
    angles = right_angles(cube)
    edge = cube.edges[3]
    if bad is None:
        del angles[edge]
    else:
        angles[edge] = bad
    messages = []
    for check in (check_andreev, check_andreev_reference):
        with pytest.raises(AngleError) as exc:
            check(cube, angles)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert str(edge) in messages[0]


def test_andreev_rejects_stray_angle(dodecahedron):
    """An angle on a vertex pair that is no edge is refused, naming the
    first such pair, after any missing edge."""
    angles = right_angles(dodecahedron)
    angles[(0, 999)] = HALF
    angles[(0, 1)] = HALF   # no edge either, but given later
    with pytest.raises(AngleError, match=r"^angle given for \(0, 999\), which is not an edge$"):
        check_andreev(dodecahedron, angles)
    del angles[dodecahedron.edges[-1]]
    with pytest.raises(AngleError, match="^missing angle"):
        check_andreev(dodecahedron, angles)


@pytest.mark.parametrize("bad", [0.5, 0.25, "1/2"])
def test_andreev_rejects_non_rational_angle(cube, bad):
    angles = right_angles(cube)
    angles[cube.edges[0]] = bad
    with pytest.raises(AngleError, match=r"for edge \(0, 1\) is not rational$"):
        check_andreev(cube, angles)


@pytest.mark.parametrize("bad", [None, [HALF]], ids=["None", "list"])
def test_andreev_checks_first_angle(cube, bad):
    """The first edge's angle is checked whatever object it is, even one
    that could pass for "no angle seen yet"; the rest are right angles."""
    angles = {e: bad if i == 0 else HALF for i, e in enumerate(cube.edges)}
    assert cube.edges[0] == (0, 1)
    with pytest.raises(AngleError, match=r"for edge \(0, 1\) is not rational$"):
        check_andreev(cube, angles)


def test_andreev_shared_bad_angle_names_first_edge(cube):
    """One out-of-range object on two edges is refused at the first of
    them, as the reference refuses it."""
    bad = Fraction(2, 3)
    for pair in ((2, 3), (2, 7), (0, len(cube.edges) - 1)):
        angles = right_angles(cube)
        for i in pair:
            angles[cube.edges[i]] = bad
        got = outcome(check_andreev, cube, angles)
        assert got == outcome(check_andreev_reference, cube, angles)
        assert got == (AngleError, f"angle 2/3 for edge {cube.edges[pair[0]]} outside (0, 1/2]")


def test_andreev_shared_and_distinct_angle_objects(angle_corpus):
    """Right angles as one shared object, as distinct equal objects and as
    two objects taking turns give the same outcome as the reference."""
    for p in angle_corpus:
        shared = right_angles(p)
        distinct = {e: Fraction(1, 2) for e in p.edges}
        turns = {e: HALF if i % 2 else Fraction(1, 2) for i, e in enumerate(p.edges)}
        want = outcome(check_andreev_reference, p, distinct)
        for angles in (shared, distinct, turns):
            assert outcome(check_andreev, p, angles) == want, p
