from __future__ import annotations

import pytest

from orthocusp import (
    FaceLattice,
    Poly3Error,
    Polyhedron3,
    RIGHT_ANGLED_PROFILE,
    canonical_code,
    contract_edge,
    dual,
    parse_poly3,
    to_face_lattice,
    to_poly3,
    validate,
)
from orthocusp.core import require_valid
from orthocusp.data import FIXTURES, fixture_text, load_fixture


def relabeled(p: Polyhedron3, rng, reflect=None) -> Polyhedron3:
    """Random relabelling: permute vertices and faces, rotate each cycle,
    optionally reverse every cycle (a reflection of the embedding)."""
    perm = list(range(p.vertex_count))
    rng.shuffle(perm)
    if reflect is None:
        reflect = rng.random() < 0.5
    faces = []
    for face in p.faces:
        cyc = [perm[v] for v in face]
        if reflect:
            cyc.reverse()
        k = rng.randrange(len(cyc))
        faces.append(tuple(cyc[k:] + cyc[:k]))
    rng.shuffle(faces)
    return Polyhedron3(p.vertex_count,
                       frozenset(perm[v] for v in p.ideal_vertices),
                       tuple(faces))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_cube(cube):
    assert cube.vertex_count == 8
    assert cube.edge_count == 12
    assert cube.face_count == 6
    assert not cube.ideal_vertices


def test_parse_dodecahedron_euler(dodecahedron):
    p = dodecahedron
    assert (p.vertex_count, p.edge_count, p.face_count) == (20, 30, 12)
    assert p.vertex_count - p.edge_count + p.face_count == 2


def test_edges_are_a_fresh_list(cube):
    """Each access returns a new list, so changing one leaves the kept
    edges alone; an invalid polyhedron has edges too."""
    got = cube.edges
    got.append((0, 0))
    assert len(cube.edges) == 12 and cube.edges is not cube.edges
    bad = Polyhedron3(3, frozenset(), ((0, 1, 2), (0, 1, 2)))
    assert not validate(bad).valid
    assert bad.edges == [(0, 1), (0, 2), (1, 2)]


def test_parse_duplicate_vertex_in_face():
    text = "poly3 v1\nvertices: 3\nideal:\nface: 0 1 1 2\n"
    with pytest.raises(Poly3Error, match="duplicate vertex"):
        parse_poly3(text)


def test_parse_out_of_range_vertex():
    text = "poly3 v1\nvertices: 3\nideal:\nface: 0 1 7\n"
    with pytest.raises(Poly3Error, match="out of range"):
        parse_poly3(text)


def test_parse_undeclared_ideal():
    text = "poly3 v1\nvertices: 3\nideal: 5\nface: 0 1 2\n"
    with pytest.raises(Poly3Error, match="not declared"):
        parse_poly3(text)


def test_parse_bad_header():
    with pytest.raises(Poly3Error, match="header"):
        parse_poly3("poly2 v9\nvertices: 0\nideal:\n")


def test_parse_reports_line_numbers():
    text = "poly3 v1\nvertices: 4\nideal:\n# comment\nface: 0 1 x\n"
    with pytest.raises(Poly3Error) as err:
        parse_poly3(text)
    assert err.value.line == 5


def test_parse_rejects_vertices_on_no_face():
    # more vertices than face-vertex incidences leaves a vertex on no face
    text = ("poly3 v1\nvertices: 1000000\nideal:\n"
            "face: 0 1 2\nface: 0 2 3\nface: 0 3 1\nface: 1 3 2\n")
    with pytest.raises(Poly3Error, match="lies on no face") as err:
        parse_poly3(text)
    assert err.value.line == 2


def test_round_trip(dodecahedron):
    assert parse_poly3(to_poly3(dodecahedron)) == dodecahedron


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_fixtures_validate():
    for name in FIXTURES:
        report = validate(load_fixture(name))
        assert report.valid, (name, report.lines())


def test_cube_right_angled_profile(cube):
    report = validate(cube, RIGHT_ANGLED_PROFILE)
    assert report.clean


def test_pyramid_apex_degree(pyramid):
    report = validate(pyramid, RIGHT_ANGLED_PROFILE)
    assert report.valid
    assert report.degree_violations == [(4, 4, 3)]


def test_contracted_dodecahedron_profile(one_cusp_12):
    report = validate(one_cusp_12, RIGHT_ANGLED_PROFILE)
    assert report.clean
    assert (one_cusp_12.vertex_count, one_cusp_12.edge_count, one_cusp_12.face_count) == (19, 29, 12)


def test_cusp_lies_on_four_faces_and_edges(one_cusp_12):
    cusp = next(iter(one_cusp_12.ideal_vertices))
    assert sum(cusp in f for f in one_cusp_12.faces) == 4
    assert len(require_valid(one_cusp_12).rotation[cusp]) == 4


def test_validate_flags_bad_euler():
    # two triangles glued along all edges: V-E+F = 3-3+2 = 2 passes Euler but
    # the square with doubled face below breaks edge pairing
    text = "poly3 v1\nvertices: 4\nideal:\nface: 0 1 2 3\nface: 0 1 2 3\n"
    report = validate(parse_poly3(text))
    assert not report.valid
    assert any(code == "edge-pairing" for code, _ in report.violations)


def test_validate_multi_adjacency_warning():
    # square pillow: two quadrilaterals glued along their whole boundary
    text = "poly3 v1\nvertices: 4\nideal:\nface: 0 1 2 3\nface: 1 0 3 2\n"
    p = parse_poly3(text)
    report = validate(p)
    assert report.valid
    assert any(code == "multi-adjacency" for code, _ in report.warnings)


def test_validate_no_warning_on_tetrahedron(tetrahedron):
    assert not validate(tetrahedron).warnings


TETRA_FACES = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def _torus(offset: int) -> tuple[tuple[int, ...], ...]:
    """The 3 x 3 quadrangulated torus on vertices offset..offset+8."""
    def v(i, j):
        return offset + 3 * (i % 3) + j % 3
    return tuple((v(i, j), v(i, j + 1), v(i + 1, j + 1), v(i + 1, j))
                 for i in range(3) for j in range(3))


def _malformed(cube) -> dict[str, Polyhedron3]:
    """One polyhedron per violation code, named after the code it raises
    first (the pairing one raises both pairing messages, interleaved), and
    two more face-cycle ones whose only face has one or two vertices."""
    octahedron = dual(cube)   # vertices 0 and 1 are opposite
    relabel = {0: 0, 1: 1, 2: 4, 3: 5, 4: 6, 5: 7}
    pinched = TETRA_FACES + tuple(tuple(relabel[x] for x in f) for f in octahedron.faces)
    flipped = ((0, 2, 1),) + TETRA_FACES[1:]
    return {
        "face-cycle": Polyhedron3(4, frozenset(), ((0, 1, 2, 1),) + TETRA_FACES[1:]),
        "face-cycle one-vertex": Polyhedron3(1, frozenset(), ((0,),)),
        "face-cycle two-vertex": Polyhedron3(2, frozenset(), ((0, 1),)),
        "vertex-range": Polyhedron3(4, frozenset(), TETRA_FACES[:3] + ((1, 3, 4),)),
        "ideal-range": Polyhedron3(4, frozenset({0, 7}), TETRA_FACES),
        "edge-pairing": Polyhedron3(4, frozenset(), flipped),
        "isolated-vertex": Polyhedron3(6, frozenset(), TETRA_FACES),
        "euler": Polyhedron3(9, frozenset(), _torus(0)),
        "connectivity": Polyhedron3(13, frozenset(), TETRA_FACES + _torus(4)),
        "embedding": Polyhedron3(8, frozenset(), pinched),
    }


def _assert_matches_reference(p: Polyhedron3):
    from oracle import validate_reference

    for profile in (None, RIGHT_ANGLED_PROFILE):
        got, want = validate(p, profile), validate_reference(p, profile)
        assert got.violations == want.violations, p
        assert got.warnings == want.warnings, p
        assert got.degree_violations == want.degree_violations, p
        assert got.rotation == want.rotation, p
        assert (got.face_of is None) == (got.rotation is None), p
        if got.face_of is not None:
            darts = {(face[i - 1], face[i]): fi
                     for fi, face in enumerate(p.faces) for i in range(len(face))}
            assert got.face_of == darts, p


def test_validate_matches_reference_on_malformed(cube):
    """Each malformed polyhedron gives the reference's report, entry for
    entry and in order, and its own code comes first."""
    for name, p in _malformed(cube).items():
        _assert_matches_reference(p)
        assert validate(p).violations[0][0] == name.split()[0]
    pairing = validate(_malformed(cube)["edge-pairing"]).violations
    assert [m.split()[0] for _, m in pairing] == ["dart", "edge"] * 3


def test_faces_under_three_vertices_refused(cube):
    """A face of one or two vertices is a face-cycle violation, so the
    readers of a valid polyhedron refuse it."""
    from orthocusp import check_right_angled

    for size in ("one", "two"):
        p = _malformed(cube)[f"face-cycle {size}-vertex"]
        assert validate(p).violations == [
            ("face-cycle", "face 0 has fewer than three vertices")]
        for reader in (canonical_code, check_right_angled, to_face_lattice):
            with pytest.raises(Poly3Error, match="fewer than three"):
                reader(p)


def test_validate_matches_reference_on_multi_adjacency(subdivided_cube):
    """A pillow, and a cube with an edge subdivided: the two faces through
    the new vertex share two edges, and it has degree 2."""
    pillow = Polyhedron3(4, frozenset(), ((0, 1, 2, 3), (1, 0, 3, 2)))
    for p in (pillow, subdivided_cube):
        assert validate(p, RIGHT_ANGLED_PROFILE).warnings
        _assert_matches_reference(p)
    assert validate(subdivided_cube, RIGHT_ANGLED_PROFILE).degree_violations[0] == (2, 3, 4)


def test_validate_matches_reference_on_valid(one_cusp_12, k_gonal_prism):
    """Fixtures, prisms, their duals and the contracted dodecahedron."""
    polys = [load_fixture(name) for name in FIXTURES]
    polys += [k_gonal_prism(k) for k in range(3, 13)]
    polys += [dual(p) for p in polys] + [one_cusp_12]
    for p in polys:
        _assert_matches_reference(p)


def test_validate_report_cannot_change_the_kept_pass():
    """Neither a ``validate`` report nor the kept structural pass that
    ``require_valid`` returns can be written through: its violations and
    warnings are tuples, its dart and face-pair tables read-only views and
    its fields frozen, so each write raises and the later checks and the
    face lattice read what they read before."""
    from orthocusp import check_right_angled

    p = load_fixture("dodecahedron")

    def reads():
        return validate(p).valid, check_right_angled(p).entries, to_face_lattice(p).below

    before = reads()
    assert before[0] and check_right_angled(p).verdict == "pass"
    kept = require_valid(p)
    report = validate(p)
    pair = next(iter(report.face_pairs))
    dart = next(iter(report.face_of))
    writes = [
        lambda: report.face_pairs.__setitem__(pair, report.face_pairs[pair] + ((0, 1),)),
        lambda: report.face_of.__setitem__(dart, 0),
        lambda: report.face_of.__delitem__(dart),
        lambda: kept.violations.append(("stale", "appended by the caller")),
        lambda: kept.warnings.append(("stale", "appended by the caller")),
        lambda: kept.degree_violations.append((0, 2, 3)),
        lambda: kept.face_of.__setitem__(dart, 0),
        lambda: kept.face_pairs.clear(),
        lambda: setattr(kept, "violations", [("stale", "set by the caller")]),
        lambda: setattr(kept, "face_pairs", {}),
    ]
    for write in writes:
        with pytest.raises((AttributeError, TypeError)):   # FrozenInstanceError too
            write()
        assert reads() == before
    assert all(type(shared) is tuple for shared in report.face_pairs.values())
    assert report.face_pairs == require_valid(p).face_pairs
    assert before[2] == to_face_lattice(load_fixture("dodecahedron")).below


@pytest.mark.parametrize("cusps", [0, 1, 2])
def test_validate_matches_reference_on_census(cusps):
    """Every type with at most 9 faces, and the duals of those without
    cusps."""
    from orthocusp import enum3

    for t in enum3.enumerate_types(enum3.EnumSpec(9, cusps)).types:
        _assert_matches_reference(t.polyhedron)
        if not cusps:
            _assert_matches_reference(dual(t.polyhedron))


def test_sum_face_sizes_is_twice_edges():
    for name in FIXTURES:
        p = load_fixture(name)
        assert sum(len(f) for f in p.faces) == 2 * p.edge_count


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_cube_is_octahedron(cube):
    d = dual(cube)
    assert (d.vertex_count, d.edge_count, d.face_count) == (6, 12, 8)
    assert d.face_sizes() == [3] * 8
    assert validate(d).valid


def test_dual_dodecahedron_is_icosahedron(dodecahedron):
    d = dual(dodecahedron)
    assert (d.vertex_count, d.edge_count, d.face_count) == (12, 30, 20)
    assert d.face_sizes() == [3] * 20


def test_dual_involution_codes(k_gonal_prism):
    """The dual of every fixture and prism validates, and the double dual
    has the input's code."""
    for p in [*(load_fixture(name) for name in FIXTURES),
              *(k_gonal_prism(k) for k in range(3, 13))]:
        d = dual(p)
        assert validate(d).valid
        assert canonical_code(dual(d)) == canonical_code(p)


def test_dual_refuses_cusps(one_cusp_12):
    with pytest.raises(Poly3Error, match="cusps"):
        dual(one_cusp_12)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contract_dodecahedron_all_edges_same_type(dodecahedron, rng):
    codes = {canonical_code(contract_edge(dodecahedron, e))
             for e in dodecahedron.edges}
    assert len(codes) == 1


def test_contract_cube_edge(cube):
    q = contract_edge(cube, cube.edges[0])
    assert (q.vertex_count, q.edge_count, q.face_count) == (7, 11, 6)
    assert validate(q).valid
    assert len(q.ideal_vertices) == 1


def test_contract_edge_matches_reference(incidence_corpus):
    """For every edge of the corpus, both ways round, for (0, 0) and for
    a non-edge at vertex 0: the contraction, or its error message, is the
    face-scan reference's."""
    from oracle import contract_edge_reference

    def outcome(contract, p, e):
        try:
            return contract(p, e)
        except Poly3Error as exc:
            return str(exc)

    kinds = set()
    for p in incidence_corpus:
        edges = set(p.edges)
        pairs = [*edges, *((v, u) for u, v in edges)]
        pairs += [(0, x) for x in range(p.vertex_count) if (0, x) not in edges][:2]
        for e in pairs:
            got = outcome(contract_edge, p, e)
            assert got == outcome(contract_edge_reference, p, e), (p, e)
            kinds.add(got if isinstance(got, str) else "contracted")
    assert len(kinds) >= 5, kinds


def test_contract_triangle_face_rejected(tetrahedron):
    with pytest.raises(Poly3Error, match="triangle"):
        contract_edge(tetrahedron, tetrahedron.edges[0])


def test_contract_ideal_endpoint_rejected(one_cusp_12):
    cusp = next(iter(one_cusp_12.ideal_vertices))
    edge = next(e for e in one_cusp_12.edges if cusp in e)
    with pytest.raises(Poly3Error, match="ideal"):
        contract_edge(one_cusp_12, edge)


def test_contract_degree_violation_rejected(pyramid):
    apex_edge = next(e for e in pyramid.edges if 4 in e)
    with pytest.raises(Poly3Error, match="degree"):
        contract_edge(pyramid, apex_edge)


# ---------------------------------------------------------------------------
# canonical codes
# ---------------------------------------------------------------------------

def test_code_invariant_under_relabeling(cube, rng):
    base = canonical_code(cube)
    for _ in range(25):
        assert canonical_code(relabeled(cube, rng)) == base


def test_code_invariant_under_reflection(dodecahedron, rng):
    base = canonical_code(dodecahedron)
    assert canonical_code(relabeled(dodecahedron, rng, reflect=True)) == base


def test_code_separates_types(cube, dodecahedron, prism, pyramid, tetrahedron):
    codes = {canonical_code(p) for p in (cube, dodecahedron, prism, pyramid, tetrahedron)}
    assert len(codes) == 5


def test_code_size_guard(k_gonal_prism):
    # labels are single bytes below 254, the row end; the limit stays 252
    assert canonical_code(k_gonal_prism(126))
    big = k_gonal_prism(129)
    assert validate(big).clean
    with pytest.raises(Poly3Error, match="at most 252 vertices, got 258"):
        canonical_code(big)


def test_code_distinguishes_marks(cube):
    marked = Polyhedron3(cube.vertex_count, frozenset({0}), cube.faces)
    assert canonical_code(marked) != canonical_code(cube)


def test_code_mark_position_matters(one_cusp_12, rng):
    # moving the cusp to a finite vertex of the same degree changes the type
    p = one_cusp_12
    cusp = next(iter(p.ideal_vertices))
    other = next(v for v in range(p.vertex_count)
                 if v != cusp and len(require_valid(p).rotation[v]) == 3)
    moved = Polyhedron3(p.vertex_count, frozenset({other}), p.faces)
    assert canonical_code(moved) != canonical_code(p)


def test_code_invariance_with_marked_vertex(cube, rng):
    """A mark must not make the code depend on the labelling even when the
    unmarked structure is highly symmetric: the cube with one marked
    vertex, relabelled with and without reflection."""
    marked = Polyhedron3(cube.vertex_count, frozenset({0}), cube.faces)
    base = canonical_code(marked)
    for i in range(40):
        assert canonical_code(relabeled(marked, rng, reflect=i % 2 == 1)) == base


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def test_lattice_cube(cube):
    L = to_face_lattice(cube)
    assert [L.a(k) for k in range(3)] == [8, 12, 6]
    assert L.cusp_count() == 0


def test_lattice_dodecahedron(dodecahedron):
    L = to_face_lattice(dodecahedron)
    assert [L.a(k) for k in range(3)] == [20, 30, 12]


def test_lattice_one_cusp(one_cusp_12):
    L = to_face_lattice(one_cusp_12)
    assert [L.a(k) for k in range(3)] == [18, 29, 12]
    assert L.cusp_count() == 1


def _face_cycle_edges(p):
    """The sorted edges and each face's edge set, read off the face cycles."""
    cycles = [{(min(u, v), max(u, v)) for u, v in zip(face, face[1:] + face[:1])}
              for face in p.faces]
    return sorted(set().union(*cycles)), cycles


def test_lattice_matches_face_cycles(incidence_corpus):
    """The lattice's grades, cusps and the children of each element are
    those read directly off the face cycles: grade 1 is the sorted edge
    list, each edge covering its two endpoints, and each face covers the
    edges of its cycle."""
    for p in incidence_corpus:
        edges, cycles = _face_cycle_edges(p)
        L = to_face_lattice(p)
        assert (L.dimension, L.vertices, L.cusps) == (3, p.vertex_count, p.ideal_vertices)
        assert list(L.below[0]) == edges
        assert [{edges[j] for j in below} for below in L.below[1]] == cycles
        assert all(len(below) == len(set(below)) for grade in L.below for below in grade)


def test_lattice_counts_below(incidence_corpus):
    """The a-vector, the cusp count and every count_below(k, i, l), l < k,
    equal the counts read off the face cycles and the ideal vertices."""
    for p in incidence_corpus:
        edges, _ = _face_cycle_edges(p)
        ideal = p.ideal_vertices
        L = to_face_lattice(p)
        assert [L.a(k) for k in range(-1, 4)] == [
            0, p.vertex_count - len(ideal), len(edges), len(p.faces), 0]
        assert L.cusp_count() == len(ideal)
        for i, e in enumerate(edges):
            assert L.count_below(1, i, 0) == len(set(e) - ideal)
        for i, face in enumerate(p.faces):
            assert L.count_below(2, i, 1) == len(face)
            assert L.count_below(2, i, 0) == len(set(face) - ideal)


@pytest.mark.parametrize("cusps, below", [
    ((), [[(0, 4)]]),                      # an edge past the last vertex
    ((), [[(0, 1)], [(0,), (-1,)]]),       # a face below edge -1
    ((), [[(0, 1)], [(1,)]]),              # a face past the last edge
    ((4,), [[(0, 1)]]),                    # a cusp past the last vertex
    ((-1,), [[(0, 1)]]),                   # a negative cusp
])
def test_lattice_refuses_ids_outside_their_grade(cusps, below):
    with pytest.raises(ValueError):
        FaceLattice(4, cusps, below)
