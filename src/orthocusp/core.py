"""Incidence model for 3-dimensional combinatorial polyhedra.

A polyhedron is stored as its faces (cyclic vertex sequences with globally
consistent orientation) together with the set of vertices marked as ideal
(cusps).  The POLY3 text format, structural validation, duality, edge
contraction, canonical codes and the conversion to a dimension-graded face
lattice live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import maps

Edge = tuple[int, int]


class Poly3Error(ValueError):
    """Malformed POLY3 input or an operation applied to unsuitable data."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Polyhedron3:
    """Combinatorial type of a 3-polyhedron with marked ideal vertices.

    ``faces`` holds each 2-face as a cyclic vertex sequence; orientation must
    be globally consistent (each edge traversed once in each direction).
    ``ideal_faces`` marks faces that correspond to cusps of the dual; it is
    empty for every polyhedron read from a file and is only populated by
    ``dual`` so that dualising twice restores the original marks.
    """

    vertex_count: int
    ideal_vertices: frozenset[int]
    faces: tuple[tuple[int, ...], ...]
    ideal_faces: frozenset[int] = field(default=frozenset())

    @property
    def edges(self) -> list[Edge]:
        seen = set()
        out = []
        for face in self.faces:
            k = len(face)
            for i in range(k):
                e = _norm_edge(face[i], face[(i + 1) % k])
                if e not in seen:
                    seen.add(e)
                    out.append(e)
        return sorted(out)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def finite_vertices(self) -> list[int]:
        return [v for v in range(self.vertex_count) if v not in self.ideal_vertices]

    def face_sizes(self) -> list[int]:
        return sorted(len(f) for f in self.faces)

    def vertex_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def faces_at_vertex(self, v: int) -> list[int]:
        return [i for i, f in enumerate(self.faces) if v in f]

    def rotation(self) -> maps.Rotation:
        return maps.rotation_from_faces(self.vertex_count, self.faces)


@dataclass(frozen=True)
class DegreeProfile:
    """Required edge-degrees: ``finite_degree`` for ordinary vertices,
    ``ideal_degree`` for cusps."""

    finite_degree: int
    ideal_degree: int

    def __post_init__(self):
        if self.finite_degree <= 0 or self.ideal_degree <= 0:
            raise ValueError("degrees must be positive")


#: Profile of right-angled 3-polyhedra: trivalent vertices, 4-valent cusps.
RIGHT_ANGLED_PROFILE = DegreeProfile(finite_degree=3, ideal_degree=4)


@dataclass
class ValidationReport:
    """Outcome of ``validate``: structural violations, soft warnings and
    degree-profile deviations, each with a witness."""

    violations: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    degree_violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def clean(self) -> bool:
        return not (self.violations or self.degree_violations)

    def lines(self) -> list[str]:
        out = []
        for code, msg in self.violations:
            out.append(f"violation {code}: {msg}")
        for code, msg in self.warnings:
            out.append(f"warning {code}: {msg}")
        for v, got, want in self.degree_violations:
            out.append(f"degree vertex {v}: degree {got}, profile requires {want}")
        return out


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# POLY3 parsing and serialisation
# ---------------------------------------------------------------------------

def parse_poly3(text: str) -> Polyhedron3:
    """Parse a POLY3 document.

    Format (UTF-8, line oriented; ``#`` starts a comment, blank lines are
    ignored)::

        poly3 v1
        vertices: <N>
        ideal: [id ...]
        face: v0 v1 v2 ...

    Vertex ids run 0..N-1.  Faces are cyclic and must be consistently
    oriented; the parser stores them exactly as written.
    """
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((num, stripped))
    if not lines:
        raise Poly3Error("empty document")
    num, header = lines[0]
    if header != "poly3 v1":
        raise Poly3Error("expected header 'poly3 v1'", num)
    if len(lines) < 2 or not lines[1][1].startswith("vertices:"):
        raise Poly3Error("expected 'vertices: <N>'", lines[1][0] if len(lines) > 1 else num)
    vnum, vline = lines[1]
    try:
        n = int(vline.split(":", 1)[1])
    except ValueError:
        raise Poly3Error("vertex count is not an integer", vnum) from None
    if n < 0:
        raise Poly3Error("vertex count is negative", vnum)
    if len(lines) < 3 or not lines[2][1].startswith("ideal:"):
        raise Poly3Error("expected 'ideal:' line", lines[2][0] if len(lines) > 2 else num)
    num, iline = lines[2]
    ideal = set()
    for token in iline.split(":", 1)[1].split():
        try:
            v = int(token)
        except ValueError:
            raise Poly3Error(f"ideal id {token!r} is not an integer", num) from None
        if not 0 <= v < n:
            raise Poly3Error(f"ideal id {v} not declared (vertices run 0..{n - 1})", num)
        ideal.add(v)
    faces = []
    for num, line in lines[3:]:
        if not line.startswith("face:"):
            raise Poly3Error(f"unexpected line {line!r}", num)
        try:
            cycle = tuple(int(t) for t in line.split(":", 1)[1].split())
        except ValueError:
            raise Poly3Error("face contains a non-integer token", num) from None
        if len(cycle) < 3:
            raise Poly3Error("face needs at least three vertices", num)
        for v in cycle:
            if not 0 <= v < n:
                raise Poly3Error(f"vertex id {v} out of range 0..{n - 1}", num)
        if len(set(cycle)) != len(cycle):
            raise Poly3Error("duplicate vertex in face cycle", num)
        faces.append(cycle)
    incidences = sum(len(face) for face in faces)
    if n > incidences:
        raise Poly3Error(f"{n} vertices but only {incidences} face-vertex incidences, "
                         "so some vertex lies on no face", vnum)
    return Polyhedron3(vertex_count=n, ideal_vertices=frozenset(ideal),
                       faces=tuple(faces))


def to_poly3(p: Polyhedron3, comment: str | None = None) -> str:
    if p.ideal_faces:
        raise Poly3Error("ideal face marks cannot be serialised to POLY3")
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append("poly3 v1")
    out.append(f"vertices: {p.vertex_count}")
    out.append("ideal: " + " ".join(str(v) for v in sorted(p.ideal_vertices)))
    for face in p.faces:
        out.append("face: " + " ".join(str(v) for v in face))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(p: Polyhedron3, profile: DegreeProfile | None = None) -> ValidationReport:
    """Check the structural invariants and, optionally, a degree profile.

    All problems are report entries, never exceptions.  Two faces sharing
    more than one edge is legal for the data model but reported as a
    warning; right-angled checks reject it downstream.
    """
    report = ValidationReport()
    directed: dict[tuple[int, int], list[int]] = {}
    for fi, face in enumerate(p.faces):
        if len(set(face)) != len(face):
            report.violations.append(("face-cycle", f"face {fi} repeats a vertex"))
            continue
        k = len(face)
        for i in range(k):
            u, v = face[i], face[(i + 1) % k]
            if not (0 <= u < p.vertex_count and 0 <= v < p.vertex_count):
                report.violations.append(("vertex-range", f"face {fi} uses id outside 0..{p.vertex_count - 1}"))
                return report
            directed.setdefault((u, v), []).append(fi)
    for v in p.ideal_vertices:
        if not 0 <= v < p.vertex_count:
            report.violations.append(("ideal-range", f"ideal id {v} out of range"))
    for fi in p.ideal_faces:
        if not 0 <= fi < len(p.faces):
            report.violations.append(("ideal-face-range", f"ideal face index {fi} out of range"))

    edge_faces: dict[Edge, list[int]] = {}
    for (u, v), owners in directed.items():
        if len(owners) > 1:
            report.violations.append(
                ("edge-pairing", f"dart {u}->{v} traversed {len(owners)} times"))
        if (v, u) not in directed:
            report.violations.append(
                ("edge-pairing", f"edge {{{u},{v}}} lacks the opposite traversal {v}->{u}"))
        if u < v:
            edge_faces[(u, v)] = owners + directed.get((v, u), [])

    touched = {v for face in p.faces for v in face}
    for v in range(p.vertex_count):
        if v not in touched:
            report.violations.append(("isolated-vertex", f"vertex {v} lies on no face"))

    if report.violations:
        return report

    n_edges = len(edge_faces)
    euler = p.vertex_count - n_edges + len(p.faces)
    if euler != 2:
        report.violations.append(
            ("euler", f"V-E+F = {p.vertex_count}-{n_edges}+{len(p.faces)} = {euler}, expected 2"))

    # connectivity of the incidence structure
    if p.faces:
        adj: dict[int, set[int]] = {v: set() for v in touched}
        for (u, v) in edge_faces:
            adj[u].add(v)
            adj[v].add(u)
        start = next(iter(touched))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(touched):
            report.violations.append(("connectivity", "incidence graph is not connected"))

    # each vertex's rotation must close into a single cycle (disk neighbourhood)
    if not report.violations:
        try:
            p.rotation()
        except maps.MapError as exc:
            report.violations.append(("embedding", str(exc)))

    shared: dict[tuple[int, int], int] = {}
    for e, owners in edge_faces.items():
        if len(owners) == 2:
            a, b = sorted(owners)
            shared[(a, b)] = shared.get((a, b), 0) + 1
    for (a, b), count in sorted(shared.items()):
        if count > 1:
            report.warnings.append(
                ("multi-adjacency", f"faces {a} and {b} share {count} edges"))

    if profile is not None and not report.violations:
        degree = {v: 0 for v in range(p.vertex_count)}
        for (u, v) in edge_faces:
            degree[u] += 1
            degree[v] += 1
        for v in range(p.vertex_count):
            want = profile.ideal_degree if v in p.ideal_vertices else profile.finite_degree
            if degree[v] != want:
                report.degree_violations.append((v, degree[v], want))
    return report


def require_valid(p: Polyhedron3) -> None:
    report = validate(p)
    if not report.valid:
        raise Poly3Error("invalid polyhedron: " + "; ".join(m for _, m in report.violations))


# ---------------------------------------------------------------------------
# duality, contraction, canonical code
# ---------------------------------------------------------------------------

def dual(p: Polyhedron3) -> Polyhedron3:
    """Exchange faces and vertices of a valid polyhedron.

    Ideal vertices become marked faces of the dual and vice versa, so the
    double dual is isomorphic to the input including cusp marks.  An ideal
    vertex of degree d becomes a d-gonal marked face.
    """
    require_valid(p)
    rot = p.rotation()
    pos = [{u: i for i, u in enumerate(nbrs)} for nbrs in rot]
    face_index: dict[tuple[int, int], int] = {}
    for fi, face in enumerate(p.faces):
        k = len(face)
        for i in range(k):
            face_index[(face[i], face[(i + 1) % k])] = fi
    dual_faces = []
    for v in range(p.vertex_count):
        # faces around v, one per corner, in rotation order
        cycle = []
        nbrs = rot[v]
        for u in nbrs:
            cycle.append(face_index[(u, v)])
        dual_faces.append(tuple(cycle))
    return Polyhedron3(
        vertex_count=len(p.faces),
        ideal_vertices=frozenset(p.ideal_faces),
        faces=tuple(dual_faces),
        ideal_faces=frozenset(v for v in p.ideal_vertices),
    )


def contract_edge(p: Polyhedron3, e: Edge) -> Polyhedron3:
    """Contract an edge between two finite trivalent vertices into a cusp.

    Both faces through the edge must have at least four sides.  The merged
    endpoint becomes an ideal vertex of degree four; V and E drop by one
    while F is unchanged.
    """
    require_valid(p)
    u, v = e
    if _norm_edge(u, v) not in set(p.edges):
        raise Poly3Error(f"{e} is not an edge")
    if u in p.ideal_vertices or v in p.ideal_vertices:
        raise Poly3Error("contraction endpoint is already ideal")
    if p.vertex_degree(u) != 3 or p.vertex_degree(v) != 3:
        raise Poly3Error("contraction endpoints must have degree 3")
    through = [f for f in p.faces if _edge_on_face(f, u, v)]
    if len(through) != 2:
        raise Poly3Error("edge does not lie on exactly two faces")
    if any(len(f) < 4 for f in through):
        raise Poly3Error("a face through the edge is a triangle")

    old_ids = [x for x in range(p.vertex_count) if x not in (u, v)]
    remap = {x: i for i, x in enumerate(old_ids)}
    w = len(old_ids)
    remap[u] = remap[v] = w

    new_faces = []
    for face in p.faces:
        if _edge_on_face(face, u, v):
            cycle = [x for x in face if x != v] if _follows(face, u, v) else [x for x in face if x != u]
        else:
            cycle = list(face)
        mapped = tuple(remap[x] for x in cycle)
        if len(set(mapped)) != len(mapped):
            raise Poly3Error("contraction would repeat a vertex inside a face")
        new_faces.append(mapped)
    ideal = frozenset(remap[x] for x in p.ideal_vertices) | {w}
    return Polyhedron3(vertex_count=w + 1, ideal_vertices=ideal, faces=tuple(new_faces))


def _edge_on_face(face: Sequence[int], u: int, v: int) -> bool:
    k = len(face)
    return any({face[i], face[(i + 1) % k]} == {u, v} for i in range(k))


def _follows(face: Sequence[int], u: int, v: int) -> bool:
    k = len(face)
    return any(face[i] == u and face[(i + 1) % k] == v for i in range(k))


def canonical_code(p: Polyhedron3) -> bytes:
    """Canonical byte string: equal for two polyhedra exactly when they are
    isomorphic as embedded incidence structures with matching cusp marks,
    up to relabelling and reflection.

    Polyhedra with more than ``maps.MAX_CODE_VERTICES`` vertices are
    refused.
    """
    if p.vertex_count > maps.MAX_CODE_VERTICES:
        raise Poly3Error(f"canonical codes cover at most {maps.MAX_CODE_VERTICES} "
                         f"vertices, got {p.vertex_count}")
    require_valid(p)
    rot = p.rotation()
    marks = [1 if v in p.ideal_vertices else 0 for v in range(p.vertex_count)]
    fmarks = None
    if p.ideal_faces:
        fmarks = {frozenset(p.faces[i]) for i in p.ideal_faces}
    code, _, _ = maps.canonical_form(rot, marks, fmarks)
    return code


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeFace:
    id: object
    dim: int
    is_cusp: bool = False


class FaceLattice:
    """Dimension-graded face poset.

    Cusps enter as dimension-0 elements flagged ``is_cusp``; they are not
    counted by ``a`` (face counts follow the finite-volume convention where
    ideal points are not vertices).
    """

    def __init__(self, dimension: int, faces: Iterable[LatticeFace],
                 order: Iterable[tuple[object, object]]):
        self.dimension = dimension
        face_list = list(faces)
        self.faces = {f.id: f for f in face_list}
        if len(self.faces) != len(face_list):
            raise ValueError("duplicate face ids")
        self._children: dict[object, set[object]] = {fid: set() for fid in self.faces}
        for child, parent in order:
            if child not in self.faces or parent not in self.faces:
                raise ValueError(f"order pair ({child!r}, {parent!r}) uses unknown face id")
            cf, pf = self.faces[child], self.faces[parent]
            if pf.dim != cf.dim + 1:
                raise ValueError(
                    f"order must join consecutive dimensions, got {cf.dim} -> {pf.dim}")
            self._children[parent].add(child)
        for f in self.faces.values():
            if not 0 <= f.dim <= dimension - 1:
                raise ValueError(f"face {f.id!r} has dimension {f.dim} outside 0..{dimension - 1}")
            if f.is_cusp and f.dim != 0:
                raise ValueError("only dimension-0 faces can be cusps")

    def a(self, k: int) -> int:
        """Number of k-dimensional faces (cusps excluded)."""
        return sum(1 for f in self.faces.values() if f.dim == k and not f.is_cusp)

    def cusp_count(self) -> int:
        return sum(1 for f in self.faces.values() if f.is_cusp)

    def faces_of_dim(self, k: int, include_cusps: bool = False):
        return [f for f in self.faces.values()
                if f.dim == k and (include_cusps or not f.is_cusp)]

    def lower_set(self, fid: object) -> set[object]:
        """Ids of all faces strictly below ``fid``."""
        out: set[object] = set()
        stack = list(self._children[fid])
        while stack:
            x = stack.pop()
            if x not in out:
                out.add(x)
                stack.extend(self._children[x])
        return out

    def count_below(self, fid: object, dim: int, include_cusps: bool = False) -> int:
        return sum(1 for x in self.lower_set(fid)
                   if self.faces[x].dim == dim
                   and (include_cusps or not self.faces[x].is_cusp))

    def cusps_below(self, fid: object) -> int:
        return sum(1 for x in self.lower_set(fid) if self.faces[x].is_cusp)

    def well_graded(self) -> bool:
        """True when every grade 0..dimension-1 holds at least one face."""
        return all(self.a(k) >= 1 for k in range(self.dimension))


def to_face_lattice(p: Polyhedron3) -> FaceLattice:
    """Build the dimension-3 lattice of a valid polyhedron.

    ``a0`` counts finite vertices, cusps keep their flag, containment
    follows incidence.
    """
    require_valid(p)
    if p.ideal_faces:
        raise Poly3Error("ideal face marks have no lattice representation")
    faces = []
    order = []
    for v in range(p.vertex_count):
        faces.append(LatticeFace(("v", v), 0, v in p.ideal_vertices))
    for e in p.edges:
        faces.append(LatticeFace(("e", e), 1))
        order.append((("v", e[0]), ("e", e)))
        order.append((("v", e[1]), ("e", e)))
    for fi, face in enumerate(p.faces):
        faces.append(LatticeFace(("f", fi), 2))
        k = len(face)
        for i in range(k):
            e = _norm_edge(face[i], face[(i + 1) % k])
            order.append((("e", e), ("f", fi)))
    return FaceLattice(3, faces, order)
