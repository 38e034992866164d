"""Isomorph-free exhaustive enumeration of almost-simple 3-polyhedra.

Generation works on the dual side: triangulations of the sphere are grown
from the tetrahedron by vertex splitting (every triangulation with more
vertices contracts to a smaller one, so level-by-level splitting with
canonical-code deduplication is exhaustive), and a polyhedron with c cusps
corresponds to a triangulation with c edges removed, one per quadrilateral
face (every quadrilateral admits a diagonal, so edge deletion reaches every
near-triangulation).  Dualising a surviving map yields the polyhedron, with
quadrilateral faces turning into ideal vertices of degree four.  One
store, ``_LEVELS``, keeps each level as (canonical rotation,
automorphisms) pairs; one step, ``_grow``, maps level n - 1 to level n.

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
a triangulation, its 3-connectivity is decided on the pick: only the apex
pair of a deleted edge can separate it, and does so exactly when the
apexes are adjacent or shared by two deleted edges (``_candidates``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import maps
from .andreev import check_right_angled
from .core import (Polyhedron3, canonical_code, contract_edge, parse_poly3, require_valid,
                   to_poly3, validate, RIGHT_ANGLED_PROFILE, _dual_cycles, _norm_edge)
from .data import load_fixture

FILTER_ALL = "all-almost-simple"
FILTER_RIGHT_ANGLED = "right-angled-accepted"

#: Largest face budget ``enumerate_types`` accepts.
DEFAULT_CAP = 13

#: Lower caps by (cusp count, filter), for censuses that outgrow memory.
_CAPS = {(2, FILTER_ALL): 12}


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


@dataclass(frozen=True, slots=True)
class EnumeratedType:
    """One emitted type, kept as its POLY3 text: a census holds thousands."""

    code: bytes
    faces: int
    poly3: str

    @property
    def polyhedron(self) -> Polyhedron3:
        """A fresh parse of ``poly3`` on each access."""
        return parse_poly3(self.poly3)


@dataclass
class EnumReport:
    counts_by_faces: dict[int, int] = field(default_factory=dict)
    nonpolyhedral_by_faces: dict[int, int] = field(default_factory=dict)
    types: list[EnumeratedType] = field(default_factory=list)

    @property
    def codes(self) -> list[bytes]:
        return [t.code for t in self.types]

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
# triangulation growth
# ---------------------------------------------------------------------------

#: ``_LEVELS[n]`` holds each triangulation class with n vertices, sorted by
#: code, as its canonical rotation and its automorphisms other than the
#: identity, reflections included, as vertex permutations (most have none).
_LEVELS: dict[int, tuple[tuple[maps.Rotation, tuple[tuple[int, ...], ...]], ...]] = {}


def triangulations(n: int) -> tuple[maps.Rotation, ...]:
    """All sphere triangulations with n vertices, canonical and sorted,
    grown level by level from the tetrahedron by ``_grow``."""
    if n < 4:
        raise ValueError("triangulations start at 4 vertices")
    if n not in _LEVELS:
        if n == 4:
            _, canon, orders = maps.canonical_form(maps.TETRAHEDRON)
            _LEVELS[n] = ((canon, _automorphisms(orders)),)
        else:
            triangulations(n - 1)
            _LEVELS[n] = _grow(_LEVELS[n - 1])
    return tuple(rot for rot, _ in _LEVELS[n])


def _grow(level):
    """The pairs of the level after ``level``, as ``_LEVELS`` holds them.

    Every split of every parent is made, but a child is canonicalised only
    when its split is least in its orbit under Aut±(parent) and its new
    edge passes ``_is_canonical_augmentation``.  No class is lost: take any
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

    Some splits are rejected before the filter runs.  A split at v changes
    adjacency only inside N[v] and the new vertex w: w's neighbours lie in
    N[v], and only the rows of N[v] change.  So a contractible edge of the
    parent with both endpoints outside N[v] keeps its endpoint degrees and
    its two common neighbours in every child of a split at v, and stays
    contractible there.  The new edge of the split at hinge positions
    i < j has endpoint degrees j - i + 2 and d - j + i + 2, d the degree
    of v.  When their sorted pair is strictly above the least endpoint
    degree pair of such a far edge, the far edge has a smaller key and the
    filter would reject the child; ``_far_edge_beats`` marks these splits
    by v and j - i.  Every other split runs the filter in full.
    """
    found = {}
    for rot, group in level:
        beats = _far_edge_beats(rot)
        for v in range(len(rot)):
            nbrs = rot[v]
            d = len(nbrs)
            rows = maps._split_rows(rot, v)
            beaten = beats[v]
            # a split at v is least in its orbit only if v is, and then its
            # hinge pair is compared under the stabiliser
            moved_down = any(g[v] < v for g in group)
            fixing = [g for g in group if g[v] == v]
            for i in range(d):
                for j in range(i + 1, d):
                    cand = maps.split_vertex(rot, v, i, j, rows)
                    if moved_down or (fixing and not _least_in_orbit(
                            [_norm_edge(nbrs[i], nbrs[j])], fixing)):
                        continue
                    if beaten[j - i] or not _is_canonical_augmentation(cand, v):
                        continue
                    code, canon, orders = maps.canonical_form(cand)
                    if code not in found:
                        found[code] = (canon, _automorphisms(orders))
    return tuple(found[code] for code in sorted(found))


def _far_edge_beats(rot: maps.Rotation) -> list[list[bool]]:
    """``out[v][gap]``: whether a contractible edge of the triangulation
    ``rot`` with both endpoints outside N[v] has a sorted endpoint degree
    pair strictly below that of the new edge of a split at v with hinge
    positions j - i = gap, which then fails ``_is_canonical_augmentation``
    (see ``_grow``)."""
    near = [{*nbrs} for nbrs in rot]
    contractible = sorted(
        (_norm_edge(len(rot[a]), len(rot[b])), a, b)
        for a, nbrs in enumerate(rot) for b in nbrs
        if a < b and len(near[a] & near[b]) == 2)
    out = []
    for v, ball in enumerate(near):
        far = next((pair for pair, a, b in contractible
                    if v != a and v != b and a not in ball and b not in ball), None)
        d = len(rot[v])
        out.append([far is not None and _norm_edge(gap + 2, d - gap + 2) > far
                    for gap in range(d)])
    return out


def _automorphisms(orders) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of a canonical form other than the identity, from
    the traversal orders ``maps.canonical_form`` returns with it, as
    permutations of the canonical labels."""
    label = {x: i for i, x in enumerate(orders[0])}
    return tuple(tuple(label[x] for x in order) for order in orders[1:])


def _least_in_orbit(pairs, group) -> bool:
    """Whether the set of sorted vertex pairs ``pairs``, read as a sorted
    list, is least among its images under the permutations ``group``."""
    key = sorted(pairs)
    return all(sorted(_norm_edge(g[x], g[y]) for x, y in pairs) >= key for g in group)


def _is_canonical_augmentation(rot: maps.Rotation, v: int) -> bool:
    """Whether the edge from ``v`` to the last vertex, just made by a split,
    has the least key among the contractible edges of ``rot``.

    The key of an edge is its sorted pair of endpoint degrees followed by
    the sorted pair of degrees of its two apexes, the third corners of the
    two triangles on it.  Both are isomorphism invariants, which is all the
    completeness argument in ``_grow`` needs.  An edge of a
    triangulation is contractible when its endpoints have exactly two
    common neighbours, so that it lies in no separating triangle and its
    contraction is again a triangulation; those two neighbours are then
    its apexes.  The new edge always is contractible: its only common
    neighbours are the two hinges.
    """
    w = len(rot) - 1
    # rot[w] is the far arc from hinge u_j to hinge u_i, then v
    d0, d1 = _norm_edge(len(rot[v]), len(rot[w]))
    apex_key = _norm_edge(len(rot[rot[w][0]]), len(rot[rot[w][-2]]))
    # plain int comparisons: building key tuples per edge cost more
    for a, nbrs in enumerate(rot):
        da = len(nbrs)
        if da > d0:
            continue
        for t, b in enumerate(nbrs):
            db = len(rot[b])
            if db < da or (da == d0 and db > d1):
                continue
            if (da == d0 and db == d1 and _norm_edge(len(rot[nbrs[t - 1]]),
                                                     len(rot[nbrs[(t + 1) % da]])) >= apex_key):
                continue
            if len(set(nbrs).intersection(rot[b])) == 2:
                return False
    return True


# ---------------------------------------------------------------------------
# candidate generation on the dual side
# ---------------------------------------------------------------------------

def _candidates(rot: maps.Rotation, group, num_cusps: int, prefilter: bool):
    """Near-triangulations obtained from one triangulation by deleting
    ``num_cusps`` pairwise non-cofacial edges, as (code, canon_rot,
    3-connected) triples; with no cusps the one pick is empty and the
    candidate is ``rot`` itself.

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

    3-connectivity: Q = T - P, for the triangulation T and the pick P, is
    3-connected exactly when every deleted edge can be flipped and no two
    deleted edges have the same apex pair.  Suppose removing x and y
    disconnects Q.  T - {x, y} is connected, so some deleted edge (u, v)
    with u, v outside {x, y} joins two parts of Q - {x, y}.  In Q, u and v
    are joined through either apex of (u, v), so both apexes lie in
    {x, y}; with fewer vertices removed the same argument shows Q is
    2-connected.  So a separating pair is the apex pair {a, b} of a
    deleted edge e, and it separates exactly when a and b lie on a second
    common face: a closed curve through both faces meets Q only in a and
    b and has the other corners u, v of e's quadrilateral on either side.
    Besides that quadrilateral, a face of Q holding a and b is a triangle
    or quadrilateral with ab as a side or deleted diagonal, which needs ab
    in T, or the quadrilateral of another deleted edge with apexes a, b.
    The verdict is a property of Q, so all picks of one class agree.
    """
    out = []
    deg = [len(nbrs) for nbrs in rot]
    apexes = {(u, v): _norm_edge(nbrs[t - 1], nbrs[(t + 1) % len(nbrs)])
              for u, nbrs in enumerate(rot) for t, v in enumerate(nbrs) if u < v}
    # an edge whose apexes are not adjacent can be flipped
    flippable = {e for e, (a, b) in apexes.items() if b not in rot[a]}
    # ordered pairs of distinct edges that are two sides of one triangle
    cofacial = {(e, _norm_edge(w, x)) for e, ab in apexes.items() for w in e for x in ab}
    # an edge at a vertex of degree 3 would leave it below 3
    deletable = [(u, v) for u, v in apexes if deg[u] > 3 and deg[v] > 3]
    picks = (pick for pick in combinations(deletable, num_cusps)
             if cofacial.isdisjoint(combinations(pick, 2)))
    for pick in picks:
        d = deg.copy()
        for u, v in pick:
            d[u] -= 1
            d[v] -= 1
        # deleted edges that share a vertex can still leave it below 3
        if min(d) < 3:
            continue
        if any(_norm_edge(d[a], d[b]) < _norm_edge(d[u], d[v])
               for (u, v) in pick if (u, v) in flippable for a, b in [apexes[u, v]]):
            continue
        if group and not _least_in_orbit(pick, group):
            continue
        if prefilter:
            # right-angled prefilter: a face of the polyhedron needs edge
            # count plus cusp count at least five, so each vertex of Q
            # needs degree plus quadrilaterals (on a deleted edge and its
            # apexes) at least five
            sides_and_cusps = d.copy()
            for e in pick:
                for x in (*e, *apexes[e]):
                    sides_and_cusps[x] += 1
            if min(sides_and_cusps) < 5:
                continue
        cand = rot
        for (u, v) in pick:
            cand = maps.delete_edge(cand, u, v)
        code, canon, _ = maps.canonical_form(cand)
        out.append((code, canon, flippable.issuperset(pick)
                    and len({apexes[e] for e in pick}) == num_cusps))
    return out


def _level_candidates(level, num_cusps: int, prefilter: bool):
    """Candidates of the (rotation, automorphisms) pairs ``level``, yielded
    as (code, canonical rotation) the first time each code is seen, the
    rotation None for a candidate that is not 3-connected, which is only
    counted.  Only the codes seen are kept.

    With the prefilter on, a triangulation whose deficit (the sum of
    max(0, 5 - deg) over its vertices) exceeds 2 * ``num_cusps`` is skipped,
    since none of its candidates would pass the right-angled prefilter of
    ``_candidates``: a deleted edge leaves the degree plus quadrilateral
    count of each of its endpoints unchanged and adds 1 at each of its two
    apexes, so the deficit falls by at most 2 per cusp, and the prefilter
    needs it to be 0.
    """
    seen: set[bytes] = set()
    for rot, group in level:
        if prefilter and sum(max(0, 5 - len(nbrs)) for nbrs in rot) > 2 * num_cusps:
            continue
        for code, canon, three_connected in _candidates(rot, group, num_cusps, prefilter):
            if code not in seen:
                seen.add(code)
                yield code, canon if three_connected else None


def _dualize(rot: maps.Rotation, faces: list[tuple[int, ...]],
             face_of: dict[tuple[int, int], int]) -> Polyhedron3:
    """Polyhedron whose dual map is ``rot``, traced by
    ``maps.faces_of_rotation`` into ``(faces, face_of)``; quadrilateral
    faces of the map become ideal vertices.  Its face cycles are those of
    ``core.dual`` of the map as a polyhedron without cusps, made without
    validating the map or rebuilding its rotation."""
    return Polyhedron3(
        vertex_count=len(faces),
        ideal_vertices=frozenset(i for i, f in enumerate(faces) if len(f) == 4),
        faces=_dual_cycles(rot, face_of))


def enumerate_types(spec: EnumSpec) -> EnumReport:
    """Enumerate every combinatorial type with at most ``spec.max_faces``
    faces, exactly ``spec.num_cusps`` degree-4 ideal vertices, all finite
    vertices of degree 3, and a 3-connected incidence structure.

    Output is deterministic (types sorted by faces, then code).  Complexes
    passing all local checks but failing 3-connectivity are tallied
    separately, never emitted.  Budgets above ``DEFAULT_CAP`` faces, or a
    lower cap in ``_CAPS``, are refused before any growth.
    """
    cap = _CAPS.get((spec.num_cusps, spec.filter), DEFAULT_CAP)
    if spec.max_faces > cap:
        raise SpecError(f"face budget {spec.max_faces} above cap {cap}")
    prefilter = spec.filter == FILTER_RIGHT_ANGLED
    report = EnumReport()
    for n in range(4, spec.max_faces + 1):
        triangulations(n)
        for _, rot in _level_candidates(_LEVELS[n], spec.num_cusps, prefilter):
            if rot is None:
                report.nonpolyhedral_by_faces[n] = report.nonpolyhedral_by_faces.get(n, 0) + 1
                continue
            faces, face_of = maps.faces_of_rotation(rot)
            p = _dualize(rot, faces, face_of)
            # the one structural pass of the type, which the checks and the code share
            rep = validate(p, RIGHT_ANGLED_PROFILE)
            if not rep.clean:
                raise AssertionError(f"enumerated type fails validation: {rep.lines()}")
            if len(p.ideal_vertices) != spec.num_cusps:
                raise AssertionError("cusp count mismatch after dualisation")
            if prefilter and check_right_angled(p).verdict != "pass":
                continue
            report.types.append(EnumeratedType(
                code=canonical_code(p), faces=n, poly3=to_poly3(p)))
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
        quads_adjacent = tuple(quad_ids) in incidence.face_pairs
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
        p = typ.polyhedron
        c1, c2 = p.ideal_vertices
        cls = sum(1 for f in p.faces if c1 in f and c2 in f)
        if cls not in TWO_CUSP_FLOORS:
            raise AssertionError(f"unexpected shared-face count {cls}")
        counts[(cls, typ.faces)] = counts.get((cls, typ.faces), 0) + 1
        if typ.faces < TWO_CUSP_FLOORS[cls]:
            violations.append((cls, typ.faces))
    return TwoCuspMinimaReport(budget=budget, floors=dict(TWO_CUSP_FLOORS),
                               violations=violations, counts=counts)
