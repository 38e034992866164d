"""Isomorph-free exhaustive enumeration of almost-simple 3-polyhedra.

Generation works on the dual side: triangulations of the sphere are grown
from the tetrahedron by vertex splitting (every triangulation with more
vertices contracts to a smaller one, so level-by-level splitting with
canonical-code deduplication is exhaustive), and a polyhedron with c cusps
corresponds to a triangulation with c edges removed, one per quadrilateral
face (every quadrilateral admits a diagonal, so edge deletion reaches every
near-triangulation).  Dualising a surviving map yields the polyhedron, with
quadrilateral faces turning into ideal vertices of degree four.

Three exact filters, all instances of McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26 (1998)), decide
which maps get a canonical form at all:

* both stages canonicalise a split of a triangulation, or a pick of edges
  to delete from it, only when it is least in its orbit under the
  triangulation's automorphisms, reflections included, which
  ``maps.canonical_form`` reports with each stored class;
* growth canonicalises a split only when its new edge has the least key
  (endpoint degrees, then the degrees of its two common neighbours) among
  the contractible edges of the child (``_is_canonical_augmentation``);
* the candidate stage builds a near-triangulation only from a pick whose
  deleted edges cannot be flipped to a quadrilateral diagonal of smaller
  endpoint degrees (``_candidates``).

Each keeps at least one representative of every class, so the output is
the same as canonicalising everything.  Because every candidate comes from
a triangulation, 3-connectivity needs only the opposite corners of its
quadrilaterals to be tested (``_quads_keep_three_connected``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import maps
from .andreev import _check_right_angled, adjacency
from .core import (Polyhedron3, canonical_code, contract_edge, require_valid, validate,
                   RIGHT_ANGLED_PROFILE, _canonical_code, _dual_cycles)
from .data import load_fixture

FILTER_ALL = "all-almost-simple"
FILTER_RIGHT_ANGLED = "right-angled-accepted"

#: Largest face budget ``enumerate_types`` accepts.
DEFAULT_CAP = 13


class SpecError(ValueError):
    """An enumeration request outside what the enumeration covers."""


@dataclass(frozen=True)
class EnumSpec:
    max_faces: int
    num_cusps: int
    filter: str = FILTER_ALL

    def __post_init__(self):
        if self.num_cusps not in (0, 1, 2):
            raise SpecError("cusp count must be 0, 1 or 2")
        if self.filter not in (FILTER_ALL, FILTER_RIGHT_ANGLED):
            raise SpecError(f"unknown filter {self.filter!r}")
        if self.max_faces < 4:
            raise SpecError("a polyhedron needs at least 4 faces")


@dataclass(frozen=True)
class EnumeratedType:
    code: bytes
    faces: int
    polyhedron: Polyhedron3


@dataclass
class EnumReport:
    spec: EnumSpec
    counts_by_faces: dict[int, int] = field(default_factory=dict)
    nonpolyhedral_by_faces: dict[int, int] = field(default_factory=dict)
    types: list[EnumeratedType] = field(default_factory=list)

    @property
    def codes(self) -> list[bytes]:
        return [t.code for t in self.types]

    def count(self, faces: int | None = None) -> int:
        if faces is None:
            return len(self.types)
        return self.counts_by_faces.get(faces, 0)

    def lines(self) -> list[str]:
        out = []
        for n in sorted(self.counts_by_faces):
            out.append(f"faces={n}: {self.counts_by_faces[n]} type(s)")
        skipped = sum(self.nonpolyhedral_by_faces.values())
        if skipped:
            out.append(f"non-polyhedral complexes (not 3-connected): {skipped}")
        out.append(f"total: {len(self.types)}")
        return out


# ---------------------------------------------------------------------------
# triangulation cache
# ---------------------------------------------------------------------------

_TRIANGULATIONS: dict[int, tuple[maps.Rotation, ...]] = {}

#: ``_AUTOMORPHISMS[n][k]`` holds the automorphisms of
#: ``_TRIANGULATIONS[n][k]`` other than the identity, reflections included,
#: as permutations of its vertices; most classes have none.
_AUTOMORPHISMS: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {}


def triangulations(n: int) -> tuple[maps.Rotation, ...]:
    """All sphere triangulations with n vertices, canonical and sorted.

    Grown level by level from the tetrahedron by vertex splitting; every
    stored rotation system is the canonical representative of its class,
    and its automorphisms go to ``_AUTOMORPHISMS``.  Every split of
    every parent is made, but a child is canonicalised only when its
    split is least in its orbit under Aut±(parent) and its new edge
    passes ``_is_canonical_augmentation``.  No class is lost: take any
    class with n >= 5 vertices and its contractible edge e of least key.
    Contracting e gives a triangulation with n - 1 vertices, isomorphic to
    a stored one, and one split of that stored parent undoes the
    contraction with e as the new edge.  The key is an isomorphism
    invariant, so the new edge has the least key in that child, which
    passes the filter; any other isomorphism-invariant key keeps this
    argument.  A split is a vertex v with an unordered pair of hinges, and
    σ in Aut±(parent) maps it to the split at σ(v) with the image hinges.
    σ extends to an isomorphism of the two children that takes new edge
    to new edge, so both have the same key, and keeping only the split
    least in its orbit (vertex first, then sorted hinges) loses no class.
    """
    if n < 4:
        raise ValueError("triangulations start at 4 vertices")
    if n not in _TRIANGULATIONS:
        if n == 4:
            code, canon, orders = maps.canonical_form(maps.TETRAHEDRON)
            found = {code: (canon, _automorphisms(orders))}
        else:
            found = {}
            for rot, group in zip(triangulations(n - 1), _AUTOMORPHISMS[n - 1]):
                for v in range(len(rot)):
                    nbrs = rot[v]
                    d = len(nbrs)
                    # a split at v is least in its orbit only if v is, and
                    # then its hinge pair is compared under the stabiliser
                    moved_down = any(g[v] < v for g in group)
                    fixing = [g for g in group if g[v] == v]
                    for i in range(d):
                        for j in range(i + 1, d):
                            cand = maps.split_vertex(rot, v, i, j)
                            if moved_down or (fixing and not _least_in_orbit(
                                    [_pair(nbrs[i], nbrs[j])], fixing)):
                                continue
                            if not _is_canonical_augmentation(cand, v):
                                continue
                            code, canon, orders = maps.canonical_form(cand)
                            if code not in found:
                                found[code] = (canon, _automorphisms(orders))
        classes = [found[code] for code in sorted(found)]
        _TRIANGULATIONS[n] = tuple(canon for canon, _ in classes)
        _AUTOMORPHISMS[n] = tuple(group for _, group in classes)
    return _TRIANGULATIONS[n]


def _automorphisms(orders) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of a canonical form other than the identity, from
    the traversal orders ``maps.canonical_form`` returns with it, as
    permutations of the canonical labels."""
    label = {x: i for i, x in enumerate(orders[0])}
    return tuple(tuple(label[x] for x in order) for order in orders[1:])


def _pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _least_in_orbit(pairs, group) -> bool:
    """Whether the set of sorted vertex pairs ``pairs``, read as a sorted
    list, is least among its images under the permutations ``group``."""
    key = sorted(pairs)
    return all(sorted(_pair(g[x], g[y]) for x, y in pairs) >= key for g in group)


def _is_canonical_augmentation(rot: maps.Rotation, v: int) -> bool:
    """Whether the edge from ``v`` to the last vertex, just made by a split,
    has the least key among the contractible edges of ``rot``.

    The key of an edge is its sorted pair of endpoint degrees followed by
    the sorted pair of degrees of its two apexes, the third corners of the
    two triangles on it.  Both are isomorphism invariants, which is all the
    completeness argument in ``triangulations`` needs.  An edge of a
    triangulation is contractible when its endpoints have exactly two
    common neighbours, so that it lies in no separating triangle and its
    contraction is again a triangulation; those two neighbours are then
    its apexes.  The new edge always is contractible: its only common
    neighbours are the two hinges.
    """
    w = len(rot) - 1
    # rot[w] is the far arc from hinge u_j to hinge u_i, then v
    d0, d1 = _pair(len(rot[v]), len(rot[w]))
    apex_key = _pair(len(rot[rot[w][0]]), len(rot[rot[w][-2]]))
    # plain int comparisons: building key tuples per edge cost more
    for a, nbrs in enumerate(rot):
        da = len(nbrs)
        if da > d0:
            continue
        for t, b in enumerate(nbrs):
            db = len(rot[b])
            if db < da or (da == d0 and db > d1):
                continue
            if (da == d0 and db == d1 and _pair(len(rot[nbrs[t - 1]]),
                                                len(rot[nbrs[(t + 1) % da]])) >= apex_key):
                continue
            if len(set(nbrs).intersection(rot[b])) == 2:
                return False
    return True


# ---------------------------------------------------------------------------
# candidate generation on the dual side
# ---------------------------------------------------------------------------

def _right_angled_prefilter(rot: maps.Rotation, quad_vertices: dict[int, int]) -> bool:
    """Dual-side necessity check: a face of the polyhedron needs edge count
    plus cusp count at least five, i.e. every dual vertex needs degree plus
    incident quadrilateral count at least five."""
    for v, nbrs in enumerate(rot):
        if len(nbrs) + quad_vertices.get(v, 0) < 5:
            return False
    return True


def _degree_key(deg: list[int], drop: dict[int, int], x: int, y: int) -> tuple[int, int]:
    """Sorted degrees of x and y once the edges counted in ``drop`` go."""
    return _pair(deg[x] - drop.get(x, 0), deg[y] - drop.get(y, 0))


def _candidates(rot: maps.Rotation, group, num_cusps: int, prefilter: bool):
    """Near-triangulations obtained from one triangulation by deleting
    ``num_cusps`` pairwise non-cofacial edges, as (code, canon_rot) pairs;
    with no cusps the one pick is empty and the candidate is ``rot`` itself.

    No face is traced: the apexes of an edge (u, v), the third corners of
    its two triangles, are v's neighbours on either side in ``rot[u]``,
    and another edge shares a triangle with (u, v) exactly when it joins u
    or v to an apex, being then a side of the triangle on that apex.

    Least-diagonal rule: a pick is dropped, before any edge is deleted,
    when one of its edges (u, v) has apexes a, b that are not adjacent in
    the triangulation and the key of (a, b) is below the key of (u, v); the
    key is the sorted pair of degrees in the candidate Q.  No class of Q is
    lost.  Call a completion of Q a choice of one diagonal per
    quadrilateral such that no chosen diagonal is an edge of Q or another
    chosen one; adding the diagonals gives a triangulation with the same
    vertex count, stored up to isomorphism, and deleting them gives Q back
    with a pick that passes the degree checks and the prefilter, which
    depend on Q alone (two chosen diagonals share no triangle, since the
    other sides of a quadrilateral are edges of Q), and the deficit screen
    of ``_level_candidates``, which skips only triangulations with no
    prefiltered candidate.  The keys depend on Q alone too, so take a
    completion whose per-quadrilateral keys are least in the product
    order.  Were its pick dropped, flipping the offending diagonal to
    (a, b) would give another completion, since a and b are not adjacent,
    smaller in one coordinate and equal in the rest.  The rule is invariant
    under isomorphism, so the stored copy keeps the matching pick.

    Orbit rule: ``group`` holds the automorphisms of ``rot`` other than
    the identity, as permutations of its vertices, and a pick is
    canonicalised only when its sorted edges are least in its orbit under
    them (an empty ``group`` keeps every pick).  σ in Aut±(rot) maps a
    pick to one whose candidate is isomorphic by σ, and every other test
    here reads only degrees and adjacency, so it gives both the same
    verdict: keeping the orbit-least pick loses no class.  The degree
    keys may be replaced by any isomorphism-invariant key without
    breaking either argument.
    """
    out = []
    deg = [len(nbrs) for nbrs in rot]
    apexes = {(u, v): (nbrs[t - 1], nbrs[(t + 1) % len(nbrs)])
              for u, nbrs in enumerate(rot) for t, v in enumerate(nbrs) if u < v}
    # an edge whose apexes are not adjacent can be flipped
    flippable = {e for e, (a, b) in apexes.items() if b not in rot[a]}
    # ordered pairs of distinct edges that are two sides of one triangle
    cofacial = {(e, _pair(w, x)) for e, ab in apexes.items() for w in e for x in ab}
    picks = (pick for pick in combinations(apexes, num_cusps)
             if cofacial.isdisjoint(combinations(pick, 2)))
    for pick in picks:
        drop: dict[int, int] = {}
        for (u, v) in pick:
            drop[u] = drop.get(u, 0) + 1
            drop[v] = drop.get(v, 0) + 1
        if any(deg[x] - k < 3 for x, k in drop.items()):
            continue
        if any(e in flippable
               and _degree_key(deg, drop, *apexes[e]) < _degree_key(deg, drop, *e)
               for e in pick):
            continue
        if group and not _least_in_orbit(pick, group):
            continue
        # quad corners: the deleted edge's endpoints plus its two apexes
        quad_at = dict(drop)
        for e in pick:
            for x in apexes[e]:
                quad_at[x] = quad_at.get(x, 0) + 1
        cand = rot
        for (u, v) in pick:
            cand = maps.delete_edge(cand, u, v)
        if prefilter and not _right_angled_prefilter(cand, quad_at):
            continue
        code, canon, _ = maps.canonical_form(cand)
        out.append((code, canon))
    return out


def _quads_keep_three_connected(rot: maps.Rotation, faces: list[tuple[int, ...]]) -> bool:
    """Vertex 3-connectivity of a candidate, testing only vertex pairs that
    are opposite corners of a quadrilateral face.

    A candidate Q is a triangulation T, which is 3-connected, with the
    diagonal (u, v) of each quadrilateral deleted.  Suppose removing x and
    y disconnects Q.  T - {x, y} is connected, so a deleted edge (u, v)
    with u, v outside {x, y} joins two parts of Q - {x, y}.  In Q, u and v
    are joined through either apex of (u, v), so both apexes lie in
    {x, y}: the removed pair is the other opposite-corner pair of that
    quadrilateral.  The same argument with nothing removed shows Q is
    connected.  A deduplicated candidate does not record which diagonal
    was deleted, so both pairs of every quadrilateral are tried.
    """
    return all(maps._connected_without(rot, face[k], face[k + 2])
               for face in faces if len(face) == 4 for k in (0, 1))


def _level_candidates(tris, groups, num_cusps: int, prefilter: bool):
    """Candidates of the triangulations ``tris``, deduplicated by code.

    With the prefilter on, a triangulation whose deficit (the sum of
    max(0, 5 - deg) over its vertices) exceeds 2 * ``num_cusps`` is skipped,
    since none of its candidates would pass ``_right_angled_prefilter``: a
    deleted edge leaves the degree plus quadrilateral count of each of its
    endpoints unchanged and adds 1 at each of its two apexes, so the
    deficit falls by at most 2 per cusp, and the prefilter needs it to be 0.
    ``groups`` runs beside ``tris`` with the automorphisms of each
    triangulation, as ``_candidates`` takes them.
    """
    found: dict[bytes, maps.Rotation] = {}
    for rot, group in zip(tris, groups):
        if prefilter and sum(max(0, 5 - len(nbrs)) for nbrs in rot) > 2 * num_cusps:
            continue
        for code, canon in _candidates(rot, group, num_cusps, prefilter):
            if code not in found:
                found[code] = canon
    return found


def _dualize(rot: maps.Rotation, faces: list[tuple[int, ...]],
             face_of: dict[tuple[int, int], int]) -> Polyhedron3:
    """Polyhedron whose dual map is ``rot``, traced by
    ``maps.faces_of_rotation`` into ``(faces, face_of)``; quadrilateral
    faces of the map become ideal vertices.  Equal to ``core.dual`` of the
    map with those faces marked, without validating the map or rebuilding
    its rotation."""
    return Polyhedron3(
        vertex_count=len(faces),
        ideal_vertices=frozenset(i for i, f in enumerate(faces) if len(f) == 4),
        faces=_dual_cycles(rot, face_of))


def enumerate_types(spec: EnumSpec) -> EnumReport:
    """Enumerate every combinatorial type with at most ``spec.max_faces``
    faces, exactly ``spec.num_cusps`` degree-4 ideal vertices, all finite
    vertices of degree 3, and a 3-connected incidence structure.

    Output is deterministic (types sorted by canonical code).  Complexes
    passing all local checks but failing 3-connectivity are tallied
    separately, never emitted.  Budgets above ``DEFAULT_CAP`` faces are
    refused.
    """
    if spec.max_faces > DEFAULT_CAP:
        raise SpecError(f"face budget {spec.max_faces} above cap {DEFAULT_CAP}")
    prefilter = spec.filter == FILTER_RIGHT_ANGLED
    report = EnumReport(spec=spec)
    for n in range(4, spec.max_faces + 1):
        found = _level_candidates(triangulations(n), _AUTOMORPHISMS[n],
                                  spec.num_cusps, prefilter)
        for code in sorted(found):
            rot = found[code]
            faces, face_of = maps.faces_of_rotation(rot)
            if not _quads_keep_three_connected(rot, faces):
                report.nonpolyhedral_by_faces[n] = report.nonpolyhedral_by_faces.get(n, 0) + 1
                continue
            p = _dualize(rot, faces, face_of)
            # the one validation of the type; its rotation feeds the code
            rep = validate(p, RIGHT_ANGLED_PROFILE)
            if not rep.clean:
                raise AssertionError(f"enumerated type fails validation: {rep.lines()}")
            if len(p.ideal_vertices) != spec.num_cusps:
                raise AssertionError("cusp count mismatch after dualisation")
            if prefilter and _check_right_angled(p, rep).verdict != "pass":
                continue
            report.types.append(EnumeratedType(
                code=_canonical_code(p, rep.rotation), faces=n, polyhedron=p))
            report.counts_by_faces[n] = report.counts_by_faces.get(n, 0) + 1
    report.types.sort(key=lambda t: (t.faces, t.code))
    return report


# ---------------------------------------------------------------------------
# named verifications
# ---------------------------------------------------------------------------

#: Least face count of a right-angled 3-face with one cusp.
ONE_CUSP_FLOOR = 12

#: Least face count of a right-angled 3-face with two cusps, by the number
#: t of its faces that contain both cusps.
TWO_CUSP_FLOORS = {0: 8, 1: 9, 2: 10}


@dataclass
class OneCuspMinimumReport:
    counts_by_faces: dict[int, int]
    face_sizes: list[int]
    cusp_cycle_sizes: tuple[int, ...]
    quads_adjacent: bool
    matches_contracted_dodecahedron: bool

    @property
    def ok(self) -> bool:
        return (all(c == 0 for n, c in self.counts_by_faces.items() if n < ONE_CUSP_FLOOR)
                and self.counts_by_faces.get(ONE_CUSP_FLOOR, 0) == 1
                and self.face_sizes == [4, 4] + [5] * 10
                and self.cusp_cycle_sizes in ((4, 5, 4, 5), (5, 4, 5, 4))
                and not self.quads_adjacent
                and self.matches_contracted_dodecahedron)

    def lines(self) -> list[str]:
        floor = ONE_CUSP_FLOOR
        low = sum(c for n, c in self.counts_by_faces.items() if n < floor)
        out = [f"0 types @ <={floor - 1}; {self.counts_by_faces.get(floor, 0)} type @ {floor}"
               if low == 0 else f"{low} types @ <={floor - 1} (unexpected)"]
        out.append(f"face sizes: {self.face_sizes}")
        out.append(f"cusp-incident face sizes around the cusp: {self.cusp_cycle_sizes}")
        out.append(f"the two quadrilaterals are {'' if self.quads_adjacent else 'not '}adjacent")
        out.append("canonical code matches the contracted dodecahedron: "
                   + ("yes" if self.matches_contracted_dodecahedron else "NO"))
        return out


def verify_lemma31() -> OneCuspMinimumReport:
    """Exhaustively confirm that a one-cusp type needs ``ONE_CUSP_FLOOR``
    faces, that the type at the floor is unique with face sizes {4,4,5^10},
    that the sizes alternate 4,5,4,5 around the cusp with the
    quadrilaterals non-adjacent (the parallel pair), and that it equals the
    contracted dodecahedron."""
    report = enumerate_types(EnumSpec(ONE_CUSP_FLOOR, 1, FILTER_RIGHT_ANGLED))
    counts = dict(report.counts_by_faces)
    face_sizes = []
    cusp_cycle = ()
    quads_adjacent = True
    matches = False
    if counts.get(ONE_CUSP_FLOOR, 0) == 1:
        p = report.types[-1].polyhedron
        face_sizes = p.face_sizes()
        cusp = next(iter(p.ideal_vertices))
        incidence = require_valid(p)
        # the face through the dart u->cusp, for each neighbour u in turn
        cusp_cycle = tuple(len(p.faces[incidence.face_of[(u, cusp)]])
                           for u in incidence.rotation[cusp])
        quad_ids = [i for i, f in enumerate(p.faces) if len(f) == 4]
        quads_adjacent = tuple(quad_ids) in adjacency(p)
        dode = load_fixture("dodecahedron")
        contracted = contract_edge(dode, dode.edges[0])
        matches = canonical_code(contracted) == report.types[-1].code
    return OneCuspMinimumReport(
        counts_by_faces=counts, face_sizes=face_sizes,
        cusp_cycle_sizes=cusp_cycle, quads_adjacent=quads_adjacent,
        matches_contracted_dodecahedron=matches)


@dataclass
class TwoCuspMinimaReport:
    budget: int
    floors: dict[int, int]
    violations: list[tuple[int, int]]
    counts: dict[tuple[int, int], int]

    @property
    def ok(self) -> bool:
        """No type below its floor, and a type at every floor."""
        return not self.violations and all(
            (t, floor) in self.counts for t, floor in self.floors.items())

    def lines(self) -> list[str]:
        out = []
        for t in sorted(self.floors):
            seen = sorted(n for (cls, n) in self.counts if cls == t)
            first = seen[0] if seen else None
            out.append(f"class t={t}: floor {self.floors[t]}, first accepted type at "
                       f"{first if first is not None else f'none <= {self.budget}'}")
        for t, n in self.violations:
            out.append(f"VIOLATION: class t={t} type with {n} faces")
        return out


def two_cusp_minima() -> TwoCuspMinimaReport:
    """Check ``TWO_CUSP_FLOORS`` by exhaustion: classified by the number t
    of 2-faces containing both cusps, accepted types need at least the
    floor of their class.  The census runs up to the largest floor, so
    every floor is checked from below and must be reached."""
    budget = max(TWO_CUSP_FLOORS.values())
    report = enumerate_types(EnumSpec(budget, 2, FILTER_RIGHT_ANGLED))
    counts: dict[tuple[int, int], int] = {}
    violations = []
    for typ in report.types:
        c1, c2 = typ.polyhedron.ideal_vertices
        cls = sum(1 for f in typ.polyhedron.faces if c1 in f and c2 in f)
        if cls not in TWO_CUSP_FLOORS:
            raise AssertionError(f"unexpected shared-face count {cls}")
        counts[(cls, typ.faces)] = counts.get((cls, typ.faces), 0) + 1
        if typ.faces < TWO_CUSP_FLOORS[cls]:
            violations.append((cls, typ.faces))
    return TwoCuspMinimaReport(budget=budget, floors=dict(TWO_CUSP_FLOORS),
                               violations=violations, counts=counts)
