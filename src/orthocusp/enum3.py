"""Isomorph-free exhaustive enumeration of almost-simple 3-polyhedra.

Generation works on the dual side: triangulations of the sphere are grown
from the tetrahedron by vertex splitting (every triangulation with more
vertices contracts to a smaller one, so level-by-level splitting with
canonical-code deduplication is exhaustive), and a polyhedron with c cusps
corresponds to a triangulation with c edges removed, one per quadrilateral
face (every quadrilateral admits a diagonal, so edge deletion reaches every
near-triangulation).  Dualising a surviving map yields the polyhedron, with
quadrilateral faces turning into ideal vertices of degree four.

Two exact filters, both instances of McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26 (1998)), decide
which maps get a canonical form at all:

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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

from . import maps
from .andreev import adjacency, check_right_angled
from .core import (Polyhedron3, dual, canonical_code, contract_edge, validate,
                   RIGHT_ANGLED_PROFILE, _follows)
from .data import load_fixture

FILTER_ALL = "all-almost-simple"
FILTER_RIGHT_ANGLED = "right-angled-accepted"

DEFAULT_CAP = 13


@dataclass(frozen=True)
class EnumSpec:
    max_faces: int
    num_cusps: int
    filter: str = FILTER_ALL

    def __post_init__(self):
        if self.num_cusps not in (0, 1, 2):
            raise ValueError("cusp count must be 0, 1 or 2")
        if self.filter not in (FILTER_ALL, FILTER_RIGHT_ANGLED):
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.max_faces < 4:
            raise ValueError("a polyhedron needs at least 4 faces")


@dataclass(frozen=True)
class EnumeratedType:
    code: bytes
    faces: int
    polyhedron: Polyhedron3
    shared_cusp_faces: int | None = None

    @property
    def two_cusp_class(self) -> int | None:
        """Number of 2-faces containing both cusps (0, 1 or 2); the value 2
        signals an edge running from cusp to cusp."""
        return self.shared_cusp_faces


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


def triangulations(n: int) -> tuple[maps.Rotation, ...]:
    """All sphere triangulations with n vertices, canonical and sorted.

    Grown level by level from the tetrahedron by vertex splitting; every
    stored rotation system is the canonical representative of its class.
    Every split of every parent is made, but a child is canonicalised only
    when its new edge passes ``_is_canonical_augmentation``.  No class is
    lost: take any class with n >= 5 vertices and its contractible edge e
    of least key.  Contracting e gives a triangulation with n - 1 vertices,
    isomorphic to a stored one, and one split of that stored parent undoes
    the contraction with e as the new edge.  The key is an isomorphism
    invariant, so the new edge has the least key in that child, which
    passes the filter.
    """
    if n < 4:
        raise ValueError("triangulations start at 4 vertices")
    if n not in _TRIANGULATIONS:
        if n == 4:
            code, canon, _ = maps.canonical_form(maps.TETRAHEDRON)
            _TRIANGULATIONS[4] = (canon,)
        else:
            found: dict[bytes, maps.Rotation] = {}
            for rot in triangulations(n - 1):
                for v in range(len(rot)):
                    d = len(rot[v])
                    for i in range(d):
                        for j in range(i + 1, d):
                            cand = maps.split_vertex(rot, v, i, j)
                            if not _is_canonical_augmentation(cand, v):
                                continue
                            code, canon, _ = maps.canonical_form(cand)
                            if code not in found:
                                found[code] = canon
            _TRIANGULATIONS[n] = tuple(rot for _, rot in sorted(found.items()))
    return _TRIANGULATIONS[n]


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
    key = (*sorted((len(rot[v]), len(rot[w]))),
           *sorted((len(rot[rot[w][0]]), len(rot[rot[w][-2]]))))
    for a, nbrs in enumerate(rot):
        da = len(nbrs)
        if da > key[0]:
            continue
        for t, b in enumerate(nbrs):
            db = len(rot[b])
            if db < da or (da, db) > key[:2]:
                continue
            if (da, db) == key[:2]:
                apexes = sorted((len(rot[nbrs[t - 1]]), len(rot[nbrs[(t + 1) % da]])))
                if (da, db, *apexes) >= key:
                    continue
            if len(set(nbrs).intersection(rot[b])) == 2:
                return False
    return True


# ---------------------------------------------------------------------------
# candidate generation on the dual side
# ---------------------------------------------------------------------------

def _face_ids_per_edge(faces: list[tuple[int, ...]]) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each undirected edge to the ids of its two incident faces."""
    owners: dict[tuple[int, int], list[int]] = {}
    for fi, face in enumerate(faces):
        k = len(face)
        for t in range(k):
            u, v = face[t], face[(t + 1) % k]
            e = (u, v) if u < v else (v, u)
            owners.setdefault(e, []).append(fi)
    return {e: tuple(fs) for e, fs in owners.items()}


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
    dx, dy = deg[x] - drop.get(x, 0), deg[y] - drop.get(y, 0)
    return (dx, dy) if dx <= dy else (dy, dx)


def _candidates(rot: maps.Rotation, num_cusps: int, prefilter: bool):
    """Near-triangulations obtained from one triangulation by deleting
    ``num_cusps`` pairwise non-cofacial edges, as (code, canon_rot) pairs.

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
    of ``_collect_chunk``, which skips only triangulations with no
    prefiltered candidate.  The keys depend on Q alone too, so take a
    completion whose per-quadrilateral keys are least in the product
    order.  Were its pick dropped, flipping the offending diagonal to
    (a, b) would give another completion, since a and b are not adjacent,
    smaller in one coordinate and equal in the rest.  The rule is invariant
    under isomorphism, so the stored copy keeps the matching pick.
    """
    out = []
    if num_cusps == 0:
        if prefilter and not _right_angled_prefilter(rot, {}):
            return out
        code, canon, _ = maps.canonical_form(rot)
        out.append((code, canon))
        return out
    deg = [len(nbrs) for nbrs in rot]
    edges = maps.edge_set(rot)
    faces = maps.faces_of_rotation(rot)
    face_of = _face_ids_per_edge(faces)
    # the apexes of each edge are the third corners of its two triangles;
    # an edge whose apexes are not adjacent can be flipped
    apexes = {e: tuple(next(x for x in faces[fi] if x not in e) for fi in fids)
              for e, fids in face_of.items()}
    flippable = {e for e, (a, b) in apexes.items() if b not in rot[a]}
    if num_cusps == 1:
        picks = ([e] for e in edges)
    else:
        picks = ([e1, e2] for e1, e2 in combinations(edges, 2)
                 if not set(face_of[e1]) & set(face_of[e2]))
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


def _collect_chunk(args):
    """Candidates of a run of triangulations, deduplicated by code.

    With the prefilter on, a triangulation whose deficit (the sum of
    max(0, 5 - deg) over its vertices) exceeds 2 * ``num_cusps`` is skipped,
    since none of its candidates would pass ``_right_angled_prefilter``: a
    deleted edge leaves the degree plus quadrilateral count of each of its
    endpoints unchanged and adds 1 at each of its two apexes, so the
    deficit falls by at most 2 per cusp, and the prefilter needs it to be 0.
    """
    rot_chunk, num_cusps, prefilter = args
    found: dict[bytes, maps.Rotation] = {}
    for rot in rot_chunk:
        if prefilter and sum(max(0, 5 - len(nbrs)) for nbrs in rot) > 2 * num_cusps:
            continue
        for code, canon in _candidates(rot, num_cusps, prefilter):
            if code not in found:
                found[code] = canon
    return found


def _dualize(rot: maps.Rotation, faces: list[tuple[int, ...]]) -> Polyhedron3:
    """Polyhedron whose dual map is ``rot``, with face cycles ``faces``;
    quadrilateral faces of the map become ideal vertices."""
    quads = frozenset(i for i, f in enumerate(faces) if len(f) == 4)
    dual_side = Polyhedron3(vertex_count=len(rot), ideal_vertices=frozenset(),
                            faces=tuple(faces), ideal_faces=quads)
    return dual(dual_side)


def _pool_size(workers: int, chunks: int) -> int:
    """Processes to start: no more than requested, chunks or CPUs."""
    return min(workers, chunks, os.cpu_count() or 1)


def enumerate_types(spec: EnumSpec, workers: int = 1,
                    hard_cap: int = DEFAULT_CAP) -> EnumReport:
    """Enumerate every combinatorial type with at most ``spec.max_faces``
    faces, exactly ``spec.num_cusps`` degree-4 ideal vertices, all finite
    vertices of degree 3, and a 3-connected incidence structure.

    Output is deterministic (types sorted by canonical code) and
    independent of the worker count.  Complexes passing all local checks
    but failing 3-connectivity are tallied separately, never emitted.
    """
    if spec.max_faces > hard_cap:
        raise ValueError(f"face budget {spec.max_faces} above cap {hard_cap}")
    prefilter = spec.filter == FILTER_RIGHT_ANGLED
    report = EnumReport(spec=spec)
    for n in range(4, spec.max_faces + 1):
        tris = triangulations(n)
        found: dict[bytes, maps.Rotation] = {}
        if workers > 1 and len(tris) >= workers * 4:
            size = (len(tris) + workers - 1) // workers
            chunks = [(tris[i:i + size], spec.num_cusps, prefilter)
                      for i in range(0, len(tris), size)]
            with ProcessPoolExecutor(max_workers=_pool_size(workers, len(chunks))) as pool:
                for part in pool.map(_collect_chunk, chunks):
                    for code, canon in part.items():
                        found.setdefault(code, canon)
        else:
            found = _collect_chunk((tris, spec.num_cusps, prefilter))
        for code in sorted(found):
            rot = found[code]
            faces = maps.faces_of_rotation(rot)
            if not _quads_keep_three_connected(rot, faces):
                report.nonpolyhedral_by_faces[n] = report.nonpolyhedral_by_faces.get(n, 0) + 1
                continue
            p = _dualize(rot, faces)
            rep = validate(p, RIGHT_ANGLED_PROFILE)
            if not rep.clean:
                raise AssertionError(f"enumerated type fails validation: {rep.lines()}")
            if len(p.ideal_vertices) != spec.num_cusps:
                raise AssertionError("cusp count mismatch after dualisation")
            if prefilter and check_right_angled(p).verdict != "pass":
                continue
            shared = None
            if spec.num_cusps == 2:
                c1, c2 = sorted(p.ideal_vertices)
                shared = sum(1 for f in p.faces if c1 in f and c2 in f)
            report.types.append(EnumeratedType(
                code=canonical_code(p), faces=n, polyhedron=p,
                shared_cusp_faces=shared))
            report.counts_by_faces[n] = report.counts_by_faces.get(n, 0) + 1
    report.types.sort(key=lambda t: (t.faces, t.code))
    return report


# ---------------------------------------------------------------------------
# named verifications
# ---------------------------------------------------------------------------

@dataclass
class OneCuspMinimumReport:
    counts_by_faces: dict[int, int]
    face_sizes: list[int]
    cusp_cycle_sizes: tuple[int, ...]
    quads_adjacent: bool
    matches_contracted_dodecahedron: bool

    @property
    def ok(self) -> bool:
        return (all(c == 0 for n, c in self.counts_by_faces.items() if n < 12)
                and self.counts_by_faces.get(12, 0) == 1
                and self.face_sizes == [4, 4] + [5] * 10
                and self.cusp_cycle_sizes in ((4, 5, 4, 5), (5, 4, 5, 4))
                and not self.quads_adjacent
                and self.matches_contracted_dodecahedron)

    def lines(self) -> list[str]:
        low = sum(c for n, c in self.counts_by_faces.items() if n <= 11)
        out = [f"0 types @ <=11; {self.counts_by_faces.get(12, 0)} type @ 12"
               if low == 0 else f"{low} types @ <=11 (unexpected)"]
        out.append(f"face sizes: {self.face_sizes}")
        out.append(f"cusp-incident face sizes around the cusp: {self.cusp_cycle_sizes}")
        out.append(f"the two quadrilaterals are {'' if self.quads_adjacent else 'not '}adjacent")
        out.append("canonical code matches the contracted dodecahedron: "
                   + ("yes" if self.matches_contracted_dodecahedron else "NO"))
        return out


def verify_lemma31(workers: int = 1) -> OneCuspMinimumReport:
    """Exhaustively confirm that a one-cusp type needs 12 faces, that the
    12-face type is unique with face sizes {4,4,5^10}, that the sizes
    alternate 4,5,4,5 around the cusp with the quadrilaterals non-adjacent
    (the parallel pair), and that it equals the contracted dodecahedron."""
    report = enumerate_types(EnumSpec(12, 1, FILTER_RIGHT_ANGLED), workers=workers)
    counts = dict(report.counts_by_faces)
    face_sizes = []
    cusp_cycle = ()
    quads_adjacent = True
    matches = False
    if counts.get(12, 0) == 1:
        p = report.types[-1].polyhedron
        face_sizes = p.face_sizes()
        cusp = next(iter(p.ideal_vertices))
        rot = p.rotation()
        around = []
        for u in rot[cusp]:
            fi = next(i for i, f in enumerate(p.faces)
                      if _follows(f, u, cusp))
            around.append(len(p.faces[fi]))
        cusp_cycle = tuple(around)
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
        return not self.violations

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


TWO_CUSP_FLOORS = {0: 8, 1: 9, 2: 10}


def two_cusp_minima(budget: int = 10, workers: int = 1) -> TwoCuspMinimaReport:
    """Check the two-cusp face-count floors by exhaustion: classified by the
    number t of 2-faces containing both cusps, accepted types need at least
    8 (t=0), 9 (t=1) and 10 (t=2) faces."""
    report = enumerate_types(EnumSpec(budget, 2, FILTER_RIGHT_ANGLED), workers=workers)
    counts: dict[tuple[int, int], int] = {}
    violations = []
    for t in report.types:
        cls = t.shared_cusp_faces
        if cls not in TWO_CUSP_FLOORS:
            raise AssertionError(f"unexpected shared-face count {cls}")
        counts[(cls, t.faces)] = counts.get((cls, t.faces), 0) + 1
        if t.faces < TWO_CUSP_FLOORS[cls]:
            violations.append((cls, t.faces))
    return TwoCuspMinimaReport(budget=budget, floors=dict(TWO_CUSP_FLOORS),
                               violations=violations, counts=counts)
