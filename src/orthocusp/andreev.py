"""Acute-angled and right-angled realizability checks for 3-polyhedra.

Angles are exact rationals q with 0 < q <= 1/2, read as a dihedral angle of
q*pi; any other angle is refused.  Every condition is an equality or strict
inequality between sums of angles, which ``check_andreev`` takes as integer
numerators over one common denominator, so no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from numbers import Rational
from types import MappingProxyType
from typing import Mapping

from .core import (Edge, Polyhedron3, Poly3Error, RIGHT_ANGLED_PROFILE, ValidationReport,
                   require_valid, validate, _norm_edge)

HALF = Fraction(1, 2)

#: Marks an edge with no angle, and starts the angle check's loop so that
#: its first angle is always checked, whatever the object.
_UNSET = object()

#: Condition keys, in report order.  'a'..'e' are the acute-angled vertex,
#: cusp and circuit conditions; the remaining keys are the structural
#: right-angled requirements.
CONDITION_KEYS = ("a", "b", "c", "d", "e",
                  "face_size", "single_shared_edge", "vertex_degree", "cusp_degree")


class AngleError(Poly3Error):
    """Missing or out-of-range dihedral angle."""


@dataclass
class ConditionReport:
    """Per-condition witness lists; the check passes when all are empty.

    ``excluded_family`` marks the two combinatorial types (tetrahedron,
    triangular prism) that the realizability criterion does not cover; for
    them ``verdict`` is ``"outside-scope"`` instead of pass/fail.
    """

    entries: dict[str, list] = field(default_factory=dict)
    excluded_family: bool = False

    def witnesses(self, key: str) -> list:
        return self.entries.get(key, [])

    @property
    def passed(self) -> bool:
        return not self.excluded_family and all(not v for v in self.entries.values())

    @property
    def verdict(self) -> str:
        if self.excluded_family:
            return "outside-scope"
        return "pass" if self.passed else "fail"

    def lines(self) -> list[str]:
        out = [f"verdict: {self.verdict}"]
        for key in CONDITION_KEYS:
            if key not in self.entries:
                continue
            wits = self.entries[key]
            status = "ok" if not wits else f"{len(wits)} witness(es)"
            out.append(f"condition {key}: {status}")
            for w in wits:
                out.append(f"  {w}")
        return out


def adjacency(p: Polyhedron3) -> dict[tuple[int, int], list[Edge]]:
    """Symmetric face-pair table: shared edges of every adjacent pair.

    Entries under both (i, j) and (j, i); a multiplicity above one signals
    two faces sharing several edges.  A fresh copy of the kept face graph's
    table.
    """
    table = _face_graph(p, require_valid(p)).adjacency
    return {pair: list(edges) for pair, edges in table.items()}


def prismatic_circuits(p: Polyhedron3, length: int) -> list[tuple[int, ...]]:
    """All prismatic circuits of the given length (3 or 4) as face tuples,
    one per rotation/reflection class.

    Length 3: pairwise adjacent triples.  Length 4: 4-tuples whose adjacency
    pattern is an induced 4-cycle (consecutive adjacent, diagonals not).
    Tuples whose members all contain one vertex, or all contain one cusp,
    are excluded; in particular the four faces around a cusp never qualify.
    """
    if length not in (3, 4):
        raise ValueError("circuit length must be 3 or 4")
    graph = _face_graph(p, require_valid(p))
    return list(graph.circuits3 if length == 3 else graph.circuits4)


@dataclass(frozen=True)
class FaceGraph:
    """What both checks read off the faces of a valid polyhedron, derived
    once from its validation report and kept on it (``_face_graph``).

    ``adjacency`` maps each adjacent face pair, under both (i, j) and
    (j, i), to the sorted edges they share; ``cusps`` holds each face's
    cusps; ``circuits3`` and ``circuits4`` are the prismatic circuits as
    face tuples; ``flanks`` are the candidates of condition (d).  Every
    member is immutable, so the public readers copy out of it.
    """

    adjacency: Mapping[tuple[int, int], tuple[Edge, ...]]
    cusps: tuple[frozenset[int], ...]
    circuits3: tuple[tuple[int, int, int], ...]
    circuits4: tuple[tuple[int, int, int, int], ...]
    flanks: tuple[tuple[int, int, int, tuple[int, ...]], ...]


def _face_graph(p: Polyhedron3, incidence: ValidationReport) -> FaceGraph:
    """The face graph of ``p`` given its validation report, derived on the
    first call and kept on the report."""
    if incidence.face_graph is None:
        incidence.face_graph = _derive_face_graph(p, incidence)
    return incidence.face_graph


def _derive_face_graph(p: Polyhedron3, incidence: ValidationReport) -> FaceGraph:
    """``FaceGraph`` of a valid polyhedron from its validation report.

    The adjacency table and the face neighbour sets N(x) are read off the
    report's ``face_pairs``, so pairs keep its order.  N(x) and the vertex
    and cusp sets of the faces feed the circuit and flank searches.
    """
    table: dict[tuple[int, int], tuple[Edge, ...]] = {}
    nbrs: list[set[int]] = [set() for _ in p.faces]
    for (a, b), shared in incidence.face_pairs.items():
        table[(a, b)] = table[(b, a)] = tuple(sorted(shared))
        nbrs[a].add(b)
        nbrs[b].add(a)
    vsets = [frozenset(face) for face in p.faces]
    cusps = tuple(p.ideal_vertices & vs for vs in vsets)
    circuits3, circuits4 = _prismatic_circuits(nbrs, vsets)
    return FaceGraph(adjacency=MappingProxyType(table), cusps=cusps,
                     circuits3=circuits3, circuits4=circuits4,
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


def right_angles(p: Polyhedron3) -> dict[Edge, Fraction]:
    """The all-right assignment: every edge gets angle pi/2."""
    return {e: HALF for e in p.edges}


def parse_angles(text: str) -> dict[Edge, Fraction]:
    """Parse an angle file: lines ``angle: u v p q`` meaning edge {u,v} has
    dihedral angle (p/q)*pi.  Each edge takes one line."""
    angles: dict[Edge, Fraction] = {}
    first_line: dict[Edge, int] = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("angle:"):
            raise AngleError(f"unexpected line {line!r}", num)
        parts = line.split(":", 1)[1].split()
        if len(parts) != 4:
            raise AngleError("expected 'angle: u v p q'", num)
        try:
            u, v, pn, qd = (int(t) for t in parts)
        except ValueError:
            raise AngleError("angle tokens must be integers", num) from None
        if qd == 0:
            raise AngleError("angle has a zero denominator", num)
        e = _norm_edge(u, v)
        if e in first_line:
            raise AngleError(f"edge {e} already has an angle on line {first_line[e]}", num)
        first_line[e] = num
        angles[e] = Fraction(pn, qd)
    return angles


def _is_tetrahedron(p: Polyhedron3) -> bool:
    return p.face_count == 4 and p.face_sizes() == [3, 3, 3, 3]


def _is_triangular_prism(p: Polyhedron3) -> bool:
    return p.face_count == 5 and p.face_sizes() == [3, 3, 4, 4, 4]


def check_andreev(p: Polyhedron3, angles: dict[Edge, Fraction]) -> ConditionReport:
    """Evaluate the realizability conditions for an acute-angled almost
    simple polyhedron of finite volume with the given dihedral angles.

    Requires finite vertices of degree 3 and cusps of degree 3 or 4.  The
    tetrahedron and triangular prism types receive the outside-scope
    verdict.  Angle q means q*pi; every edge needs one rational entry in
    (0, 1/2], and no other vertex pair may have one.  Condition (a) asks
    the angles at a finite vertex to sum to more than pi, and at a cusp of
    degree 3 to exactly pi.
    """
    incidence = require_valid(p)
    rotation = incidence.rotation
    edges = p.edges
    # consecutive edges often carry one angle object, checked once
    last = _UNSET
    terms = []
    dens = set()
    for e in edges:
        q = angles.get(e, _UNSET)
        if q is _UNSET:
            raise AngleError(f"missing angle for edge {e}")
        if q is not last:
            if not isinstance(q, Rational):
                raise AngleError(f"angle {q} for edge {e} is not rational")
            n, d = q.numerator, q.denominator
            if not (0 < n and 2 * n <= d):
                raise AngleError(f"angle {q} for edge {e} outside (0, 1/2]")
            dens.add(d)
            last = q
        terms.append((n, d))
    if len(angles) > len(edges):
        known = set(edges)
        stray = next(pair for pair in angles if pair not in known)
        raise AngleError(f"angle given for {stray}, which is not an edge")
    for v, nbrs in enumerate(rotation):
        d = len(nbrs)
        if v in p.ideal_vertices:
            if d not in (3, 4):
                raise Poly3Error(f"cusp {v} has degree {d}, need 3 or 4")
        elif d != 3:
            raise Poly3Error(f"finite vertex {v} has degree {d}, need 3 (almost simple)")

    report = ConditionReport()
    if _is_tetrahedron(p) or _is_triangular_prism(p):
        report.excluded_family = True
        return report

    report.entries = {k: [] for k in ("a", "b", "c", "d", "e")}
    graph = _face_graph(p, incidence)
    table = graph.adjacency
    # each angle as x/L over the common denominator L: pi is L, pi/2 is 2x == L
    L = lcm(*dens)
    x = {e: n * (L // d) for e, (n, d) in zip(edges, terms)}
    total = [0] * len(rotation)
    for (a, b), y in x.items():
        total[a] += y
        total[b] += y

    for v, nbrs in enumerate(rotation):
        if v in p.ideal_vertices:
            if len(nbrs) == 3:
                if total[v] != L:
                    report.entries["a"].append((v, Fraction(total[v], L)))
            # no angle exceeds pi/2, so four sum to 2 pi only when all are pi/2
            elif total[v] != 2 * L:
                at = [_norm_edge(v, u) for u in sorted(nbrs)]
                report.entries["b"].append((v, [e for e in at if 2 * x[e] != L]))
        elif total[v] <= L:
            report.entries["a"].append((v, Fraction(total[v], L)))

    def pair_angles(a: int, b: int):
        return [x[e] for e in table[(a, b)]]

    for circ in graph.circuits3:
        a, b, c = circ
        for xa in pair_angles(a, b):
            for xb in pair_angles(a, c):
                for xc in pair_angles(b, c):
                    if xa + xb + xc >= L:
                        report.entries["c"].append((circ, Fraction(xa + xb + xc, L)))

    # (d): at each flank F_i of a cusp shared by F_j, F_k, some angle is not 1/2
    for i, j, k, cusps in graph.flanks:
        if all(2 * y == L for y in pair_angles(i, j) + pair_angles(i, k)):
            report.entries["d"].append((i, j, k, list(cusps)))

    for circ in graph.circuits4:
        a, b, c, d = circ
        ring = [(a, b), (b, c), (c, d), (d, a)]
        if all(2 * y == L for u, w in ring for y in pair_angles(u, w)):
            report.entries["e"].append((circ,))
    return report


def check_right_angled(p: Polyhedron3) -> ConditionReport:
    """Decide whether a combinatorial type satisfies every requirement of a
    right-angled realization.

    Structural requirements reported directly: each face needs edge count
    plus incident cusp count at least five; adjacent faces share exactly one
    edge; finite vertices have degree three and every cusp degree four.
    The remaining conditions coincide with the all-right angle assignment:
    no prismatic 3- or 4-circuit may exist and no non-adjacent face pair may
    share a cusp avoiding a common neighbour face.
    """
    incidence = require_valid(p)
    report = ConditionReport()
    if _is_tetrahedron(p) or _is_triangular_prism(p):
        report.excluded_family = True
        return report
    report.entries = {k: [] for k in CONDITION_KEYS}
    graph = _face_graph(p, incidence)

    for fi, face in enumerate(p.faces):
        cusps = len(graph.cusps[fi])
        if len(face) + cusps < 5:
            report.entries["face_size"].append((fi, len(face), cusps))

    for (a, b), shared in incidence.face_pairs.items():
        if len(shared) > 1:
            report.entries["single_shared_edge"].append((a, b, sorted(shared)))

    for v, d, _ in validate(p, RIGHT_ANGLED_PROFILE).degree_violations:
        key = "cusp_degree" if v in p.ideal_vertices else "vertex_degree"
        report.entries[key].append((v, d))

    for circ in graph.circuits3:
        report.entries["c"].append((circ, Fraction(3, 2)))
    for circ in graph.circuits4:
        report.entries["e"].append((circ,))
    report.entries["d"].extend((i, j, k, list(cusps)) for i, j, k, cusps in graph.flanks)
    return report
