"""Incidence model for 3-dimensional combinatorial polyhedra.

A polyhedron is stored as its faces (cyclic vertex sequences with globally
consistent orientation) together with the set of vertices marked as ideal
(cusps).  The POLY3 text format, structural validation, the face graph,
duality, edge contraction, canonical codes and the conversion to a
dimension-graded face lattice live here; what a polyhedron's incidence
yields is derived once per instance and handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    The edge list, the structural pass of ``validate`` and the face graph
    are cached properties, derived once per instance; they are not fields,
    so equality, hashing and repr ignore them.
    """

    vertex_count: int
    ideal_vertices: frozenset[int]
    faces: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> list[Edge]:
        """The sorted edges, read from the face cycles, so invalid
        polyhedra have them too; a fresh list each time."""
        return list(self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def face_sizes(self) -> list[int]:
        return sorted(len(f) for f in self.faces)

    def vertex_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    @cached_property
    def _edges(self) -> tuple[Edge, ...]:
        """The edge list ``edges`` copies, built once per instance."""
        return tuple(sorted({_norm_edge(u, v) for face in self.faces
                             for u, v in zip(face, face[1:] + face[:1])}))

    @cached_property
    def _validation(self) -> ValidationReport:
        """The structural pass ``validate`` and ``require_valid`` read."""
        return _structure(self)

    @cached_property
    def _face_graph(self) -> FaceGraph:
        """The face graph the realizability checks read, of a valid ``self``."""
        return _derive_face_graph(self, require_valid(self))


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate``: structural violations, soft warnings and
    degree-profile deviations, each with a witness.  ``rotation`` is the
    rotation system validation built, ``face_of`` maps each dart ``(u, v)``
    to the index of its face, and ``face_pairs`` maps each pair of adjacent
    faces a < b to the sorted edges they share, as a tuple, pairs in the
    order their first shared edge appears in the faces; all three are None
    when validation stopped earlier.  The pass a polyhedron keeps holds
    tuples and read-only views, so no reader can change it."""

    violations: Sequence[tuple[str, str]] = field(default_factory=list)
    warnings: Sequence[tuple[str, str]] = field(default_factory=list)
    degree_violations: Sequence[tuple[int, int, int]] = field(default_factory=list)
    rotation: maps.Rotation | None = field(default=None, repr=False, compare=False)
    face_of: Mapping[tuple[int, int], int] | None = field(default=None, repr=False, compare=False)
    face_pairs: Mapping[tuple[int, int], tuple[Edge, ...]] | None = field(
        default=None, repr=False, compare=False)

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
            cycle = tuple(map(int, line.split(":", 1)[1].split()))
        except ValueError:
            raise Poly3Error("face contains a non-integer token", num) from None
        if len(cycle) < 3:
            raise Poly3Error("face needs at least three vertices", num)
        if min(cycle) < 0 or max(cycle) >= n:
            # name the first id out of range
            v = next(v for v in cycle if not 0 <= v < n)
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


def to_poly3(p: Polyhedron3) -> str:
    out = ["poly3 v1", f"vertices: {p.vertex_count}"]
    out.append("ideal: " + " ".join(map(str, sorted(p.ideal_vertices))))
    for face in p.faces:
        out.append("face: " + " ".join(map(str, face)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(p: Polyhedron3, profile: DegreeProfile | None = None) -> ValidationReport:
    """Check the structural invariants and, optionally, a degree profile.

    All problems are report entries, never exceptions.  Two faces sharing
    more than one edge is legal for the data model but reported as a
    warning; right-angled checks reject it downstream.

    The structural pass is the instance's cached ``_validation``, which
    ``require_valid`` reads too; the report returned is the caller's, with
    lists of its own and the kept pass's read-only tables, so no caller can
    change what later checks read.  The degree profile is read off the
    rotation system, which a valid polyhedron has.
    """
    kept = p._validation
    degree_violations = []
    if kept.valid and profile is not None:
        for v, row in enumerate(kept.rotation):
            got = len(row)
            want = profile.ideal_degree if v in p.ideal_vertices else profile.finite_degree
            if got != want:
                degree_violations.append((v, got, want))
    return ValidationReport(list(kept.violations), list(kept.warnings), degree_violations,
                            kept.rotation, kept.face_of, kept.face_pairs)


def _structure(p: Polyhedron3) -> ValidationReport:
    """The structural part of ``validate``, without a degree profile.

    One pass over the faces records each dart u->v, its face and the vertex
    after v; every other check reads that record.  Faces need three
    distinct vertices, so an edge's darts lie on two faces; the edge enters
    the face-pair table at its dart in the lower-numbered one.  The pass is
    kept on the instance, so it returns tuples and read-only views.
    """
    violations: list[tuple[str, str]] = []
    n = p.vertex_count
    succ: dict[tuple[int, int], int] = {}    # dart -> vertex after its head
    owner: dict[tuple[int, int], int] = {}   # dart -> its face
    repeats: dict[tuple[int, int], int] = {}  # dart -> traversals, when above one
    stray: set[int] = set()                  # vertices of faces that repeat one
    for fi, face in enumerate(p.faces):
        k = len(face)
        if k < 3 or len(set(face)) != k:
            why = "has fewer than three vertices" if k < 3 else "repeats a vertex"
            violations.append(("face-cycle", f"face {fi} {why}"))
            stray.update(face)
            continue
        if min(face) < 0 or max(face) >= n:
            violations.append(("vertex-range", f"face {fi} uses id outside 0..{n - 1}"))
            return ValidationReport(tuple(violations), (), ())
        heads = face[1:] + face[:1]   # darts (face[i], face[i+1]), then face[i+2]
        for dart, after in zip(zip(face, heads), heads[1:] + heads[:1]):
            if dart in succ:
                repeats[dart] = repeats.get(dart, 1) + 1
            else:
                succ[dart] = after
                owner[dart] = fi
    for v in p.ideal_vertices:
        if not 0 <= v < n:
            violations.append(("ideal-range", f"ideal id {v} out of range"))

    out_darts: list[list[int]] = [[] for _ in range(n)]  # heads per tail, in dart order
    edges = 0
    pairs: dict[tuple[int, int], tuple[Edge, ...]] = {}   # faces a < b -> edges between them
    for (u, v), fi in owner.items():
        if (u, v) in repeats:
            violations.append(
                ("edge-pairing", f"dart {u}->{v} traversed {repeats[(u, v)]} times"))
        fj = owner.get((v, u))
        if fj is None:
            violations.append(
                ("edge-pairing", f"edge {{{u},{v}}} lacks the opposite traversal {v}->{u}"))
        elif fi < fj:
            edges += 1
            edge = (u, v) if u < v else (v, u)
            pairs[fi, fj] = pairs.get((fi, fj), ()) + (edge,)
        out_darts[u].append(v)
    for v in range(n):
        if not out_darts[v] and v not in stray:
            violations.append(("isolated-vertex", f"vertex {v} lies on no face"))

    if violations:
        return ValidationReport(tuple(violations), (), ())

    euler = n - edges + len(p.faces)
    if euler != 2:
        violations.append(
            ("euler", f"V-E+F = {n}-{edges}+{len(p.faces)} = {euler}, expected 2"))
    # every vertex lies on a face here, so n > 0 means there are faces
    if n and not maps._connected(out_darts):
        violations.append(("connectivity", "incidence graph is not connected"))
    # each vertex's rotation must close into a single cycle (disk neighbourhood)
    rotation = None
    if not violations:
        try:
            rotation = maps._close_rotation(succ, out_darts)
        except maps.MapError as exc:
            violations.append(("embedding", str(exc)))

    warnings = []
    if len(pairs) < edges:   # some face pair shares several edges
        for (a, b), shared in sorted(pairs.items()):
            if len(shared) > 1:
                pairs[a, b] = tuple(sorted(shared))
                warnings.append(
                    ("multi-adjacency", f"faces {a} and {b} share {len(shared)} edges"))
    tables = (MappingProxyType(owner), MappingProxyType(pairs)) if rotation else (None, None)
    return ValidationReport(tuple(violations), tuple(warnings), (), rotation, *tables)


def require_valid(p: Polyhedron3) -> ValidationReport:
    """Raise ``Poly3Error`` unless ``p`` is valid; return its validation
    report, whose ``rotation``, ``face_of`` and ``face_pairs`` are set.
    It is the instance's cached structural pass, shared with ``validate``,
    and read-only."""
    report = p._validation
    if not report.valid:
        raise Poly3Error("invalid polyhedron: " + "; ".join(m for _, m in report.violations))
    return report


# ---------------------------------------------------------------------------
# face graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceGraph:
    """What the realizability checks read off the faces of a valid
    polyhedron, derived once per instance (``Polyhedron3._face_graph``).

    ``cusps`` holds each face's cusps; ``circuits3`` and ``circuits4`` are
    the prismatic circuits as face tuples; ``flanks`` are the candidates of
    condition (d); the shared edges are ``face_pairs``.  Every member is
    immutable, so the public readers copy out of it.
    """

    cusps: tuple[frozenset[int], ...]
    circuits3: tuple[tuple[int, int, int], ...]
    circuits4: tuple[tuple[int, int, int, int], ...]
    flanks: tuple[tuple[int, int, int, tuple[int, ...]], ...]


def _derive_face_graph(p: Polyhedron3, incidence: ValidationReport) -> FaceGraph:
    """``FaceGraph`` of a valid polyhedron from its validation report.

    The face neighbour sets N(x) are read off the report's ``face_pairs``.
    N(x) and the vertex and cusp sets of the faces feed the circuit and
    flank searches.
    """
    nbrs: list[set[int]] = [set() for _ in p.faces]
    for a, b in incidence.face_pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    vsets = [frozenset(face) for face in p.faces]
    cusps = tuple(p.ideal_vertices & vs for vs in vsets)
    circuits3, circuits4 = _prismatic_circuits(nbrs, vsets)
    return FaceGraph(cusps=cusps, circuits3=circuits3, circuits4=circuits4,
                     flanks=_cusp_flanks(cusps, nbrs, vsets))


def _prismatic_circuits(nbrs: list[set[int]], vsets: list[frozenset[int]]):
    """The prismatic 3- and 4-circuits, given the face neighbour sets N(x)
    and the vertex set of each face: 3-circuits (a, b, c) in that order,
    4-circuits (a, b, c, d) listed by sorted members.

    One pass over the wedges a-b-c of the face graph with a < b and a < c,
    b in N(a) and c in N(b).  When c is in N(a) and c > b, the triangle
    a < b < c is a 3-circuit candidate.  When c is not in N(a), b joins the
    list of c, and each non-adjacent pair b < d of that list closes the
    induced 4-cycle a-b-c-d-a.  A candidate is kept when its members share
    no vertex, which excludes the faces around one vertex or one cusp.

    Exactly once: a 3-circuit is met only from its least member a, by the
    wedge a-b-c through its middle member b, as the wedge a-c-b has c > b.
    An induced 4-cycle is met only from its least member a, at c, its one
    member not in N(a), where the other two members b < d both reach c;
    they are not adjacent.  Conversely a-b-c-d-a with a, c and b, d
    non-adjacent is an induced 4-cycle.  Sorted neighbour lists put the
    3-circuits in (a, b, c) order and each list of c in ascending order.
    """
    ordered = [sorted(x) for x in nbrs]
    out3, out4 = [], []
    for a, around in enumerate(ordered):
        near = nbrs[a]
        opposite: dict[int, list[int]] = {}
        for b in around:
            if b < a:
                continue
            for c in ordered[b]:
                if c <= a:
                    continue
                if c in near:
                    if c > b and not vsets[a] & vsets[b] & vsets[c]:
                        out3.append((a, b, c))
                else:
                    opposite.setdefault(c, []).append(b)
        for c, ends in opposite.items():
            if len(ends) < 2:
                continue
            shared = vsets[a] & vsets[c]
            for b, d in combinations(ends, 2):
                if d not in nbrs[b] and not shared & vsets[b] & vsets[d]:
                    out4.append((a, b, c, d))
    out4.sort(key=sorted)
    return tuple(out3), tuple(out4)


def _cusp_flanks(cusps: tuple[frozenset[int], ...], nbrs: list[set[int]],
                 vsets: list[frozenset[int]]):
    """The candidates of condition (d): ``(i, j, k, cusps)`` where faces j < k
    are non-adjacent and share the cusps, and face i is adjacent to both
    without containing every shared cusp, given the cusp, neighbour and
    vertex sets of the faces.  In (j, k) then i order."""
    cusped = [fi for fi, found in enumerate(cusps) if found]
    out = []
    for j, k in combinations(cusped, 2):
        shared = cusps[j] & cusps[k]
        if not shared or k in nbrs[j]:
            continue
        for i in sorted(nbrs[j] & nbrs[k]):
            if not shared <= vsets[i]:
                out.append((i, j, k, tuple(sorted(shared))))
    return tuple(out)


# ---------------------------------------------------------------------------
# duality, contraction, canonical code
# ---------------------------------------------------------------------------

def dual(p: Polyhedron3) -> Polyhedron3:
    """Exchange faces and vertices of a valid polyhedron without cusps.

    The double dual is isomorphic to the input.  A cusp would become a
    face of the dual, and faces carry no marks, so a polyhedron with cusps
    raises ``Poly3Error``.
    """
    if p.ideal_vertices:
        raise Poly3Error("cannot dualise a polyhedron with cusps: faces carry no cusp marks")
    report = require_valid(p)
    return Polyhedron3(vertex_count=len(p.faces), ideal_vertices=frozenset(),
                       faces=_dual_cycles(report.rotation, report.face_of))


def _dual_cycles(rot: maps.Rotation,
                 face_of: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Face cycles of the dual of the map with rotation ``rot``, whose
    dart u->v lies on face ``face_of[(u, v)]``: dual face v lists the faces
    around vertex v, one per corner, in rotation order.

    ``face_of`` must list its darts in face order, as ``validate`` and
    ``maps.faces_of_rotation`` do.  Each cycle starts at the face on the
    dart into v from v's first out-neighbour in that order, which is where
    ``validate`` starts ``rot[v]``, so any rotation of the same map gives
    the same cycles.  A face holds each vertex once, so the order of the
    darts within a face does not matter.
    """
    first = [-1] * len(rot)
    for u, v in face_of:
        if first[u] < 0:
            first[u] = v
    cycles = []
    for v, nbrs in enumerate(rot):
        k = nbrs.index(first[v])
        cycles.append(tuple(face_of[(u, v)] for u in nbrs[k:] + nbrs[:k]))
    return tuple(cycles)


def contract_edge(p: Polyhedron3, e: Edge) -> Polyhedron3:
    """Contract an edge between two finite trivalent vertices into a cusp.

    Both faces through the edge must have at least four sides.  The merged
    endpoint becomes an ideal vertex of degree four; V and E drop by one
    while F is unchanged.
    """
    report = require_valid(p)
    rot, face_of = report.rotation, report.face_of
    u, v = e
    if (u, v) not in face_of:
        raise Poly3Error(f"{e} is not an edge")
    if u in p.ideal_vertices or v in p.ideal_vertices:
        raise Poly3Error("contraction endpoint is already ideal")
    if len(rot[u]) != 3 or len(rot[v]) != 3:
        raise Poly3Error("contraction endpoints must have degree 3")
    fu, fv = face_of[(u, v)], face_of[(v, u)]
    if len(p.faces[fu]) < 4 or len(p.faces[fv]) < 4:
        raise Poly3Error("a face through the edge is a triangle")

    old_ids = [x for x in range(p.vertex_count) if x not in (u, v)]
    remap = {x: i for i, x in enumerate(old_ids)}
    w = len(old_ids)
    remap[u] = remap[v] = w

    new_faces = []
    for fi, face in enumerate(p.faces):
        # the face through u->v keeps u, the face through v->u keeps v
        drop = v if fi == fu else u if fi == fv else None
        mapped = tuple(remap[x] for x in face if x != drop)
        if len(set(mapped)) != len(mapped):
            raise Poly3Error("contraction would repeat a vertex inside a face")
        new_faces.append(mapped)
    ideal = frozenset(remap[x] for x in p.ideal_vertices) | {w}
    return Polyhedron3(vertex_count=w + 1, ideal_vertices=ideal, faces=tuple(new_faces))


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
    marks = [1 if v in p.ideal_vertices else 0 for v in range(p.vertex_count)]
    return maps.canonical_form(require_valid(p).rotation, marks)[0]


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

class FaceLattice:
    """Face lattice of an n-polyhedron as a table graded by dimension.

    Grade 0 is the faces ``range(vertices)``; ``cusps`` holds the grade-0
    indices that are ideal points, which ``a`` does not count (face counts
    follow the finite-volume convention where ideal points are not
    vertices).  ``below[k - 1][i]`` is the tuple of distinct (k-1)-face
    indices that k-face i covers, for k = 1 .. n - 1, so n is
    ``len(below) + 1``.  The grading makes the order join consecutive
    dimensions; the table checks only that each index lies in its grade.
    """

    def __init__(self, vertices: int, cusps: Iterable[int],
                 below: Sequence[Sequence[tuple[int, ...]]]):
        self.vertices = vertices
        self.cusps = frozenset(cusps)
        self.below = tuple(below)
        self.dimension = len(self.below) + 1
        if self.cusps and not (min(self.cusps) >= 0 and max(self.cusps) < vertices):
            raise ValueError(f"cusp ids must lie in 0..{vertices - 1}")
        size = vertices
        for k, grade in enumerate(self.below, start=1):
            ids = list(chain.from_iterable(grade))
            if ids and not (min(ids) >= 0 and max(ids) < size):
                raise ValueError(f"a {k}-face covers an id outside 0..{size - 1}")
            size = len(grade)

    def a(self, k: int) -> int:
        """Number of k-dimensional faces (cusps excluded); 0 outside the
        grades 0 .. n - 1."""
        if k == 0:
            return self.vertices - len(self.cusps)
        return len(self.below[k - 1]) if 0 < k < self.dimension else 0

    def cusp_count(self) -> int:
        return len(self.cusps)

    def count_below(self, k: int, i: int, l: int) -> int:
        """Number of l-faces below k-face i (cusps excluded), for l < k."""
        faces = self.below[k - 1][i]
        if l < k - 1:
            for grade in reversed(self.below[l:k - 1]):
                faces = {j for c in faces for j in grade[c]}
        if l == 0 and self.cusps:
            return len(faces) - len(self.cusps.intersection(faces))
        return len(faces)


def to_face_lattice(p: Polyhedron3) -> FaceLattice:
    """Build the dimension-3 lattice of a valid polyhedron.

    Grade 1 is the sorted edge list, each edge covering its two endpoints;
    one pass over the edges puts edge (u, v) below the faces of its darts
    u->v and v->u.  Cusps are the ideal vertices.
    """
    face_of = require_valid(p).face_of
    edges = p._edges
    faces: list[list[int]] = [[] for _ in p.faces]
    for i, (u, v) in enumerate(edges):
        faces[face_of[(u, v)]].append(i)
        faces[face_of[(v, u)]].append(i)
    return FaceLattice(p.vertex_count, p.ideal_vertices, (edges, tuple(map(tuple, faces))))
