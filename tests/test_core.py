from __future__ import annotations

import pytest

from orthocusp import (
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
    assert len(one_cusp_12.faces_at_vertex(cusp)) == 4
    assert one_cusp_12.vertex_degree(cusp) == 4


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


def test_dual_involution_codes():
    for name in FIXTURES:
        p = load_fixture(name)
        assert canonical_code(dual(dual(p))) == canonical_code(p)


def test_dual_involution_with_cusp(one_cusp_12):
    d = dual(one_cusp_12)
    sizes = sorted(len(f) for f in d.faces)
    assert sizes == [3] * 18 + [4]
    assert len(d.ideal_faces) == 1
    assert len(d.faces[next(iter(d.ideal_faces))]) == 4
    assert canonical_code(dual(d)) == canonical_code(one_cusp_12)


def test_dual_marked_face_has_no_lattice(one_cusp_12):
    with pytest.raises(Poly3Error, match="lattice"):
        to_face_lattice(dual(one_cusp_12))


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
    # labels are single bytes below the 252..254 separators
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
                 if v != cusp and p.vertex_degree(v) == 3)
    moved = Polyhedron3(p.vertex_count, frozenset({other}), p.faces)
    assert canonical_code(moved) != canonical_code(p)


def test_code_invariance_with_marked_faces(cube, rng):
    """Duals of marked polyhedra carry face marks; their codes must not
    depend on the labelling even when the unmarked structure is highly
    symmetric (the marked octahedron exposed exactly this)."""
    marked = Polyhedron3(cube.vertex_count, frozenset({0}), cube.faces)
    base = canonical_code(dual(marked))
    for _ in range(40):
        assert canonical_code(dual(relabeled(marked, rng))) == base


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def test_lattice_cube(cube):
    L = to_face_lattice(cube)
    assert [L.a(k) for k in range(3)] == [8, 12, 6]
    assert L.cusp_count() == 0
    assert L.well_graded()


def test_lattice_dodecahedron(dodecahedron):
    L = to_face_lattice(dodecahedron)
    assert [L.a(k) for k in range(3)] == [20, 30, 12]


def test_lattice_one_cusp(one_cusp_12):
    L = to_face_lattice(one_cusp_12)
    assert [L.a(k) for k in range(3)] == [18, 29, 12]
    assert L.cusp_count() == 1


def test_lattice_counts_below(cube):
    L = to_face_lattice(cube)
    for f in L.faces_of_dim(2):
        assert L.count_below(f.id, 1) == 4
        assert L.count_below(f.id, 0) == 4
