"""Acute-angled and right-angled realizability checks for 3-polyhedra.

Angles are exact rationals q with 0 < q <= 1/2, read as a dihedral angle of
q*pi; any other angle is refused.  Every condition is an equality or strict
inequality between sums of angles, which ``check_andreev`` takes as integer
numerators over one common denominator, so no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from numbers import Rational

from .core import (FACE_FLOOR, Edge, Polyhedron3, Poly3Error, RIGHT_ANGLED_PROFILE,
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
    graph = p._face_graph
    return list(graph.circuits3 if length == 3 else graph.circuits4)


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


def _outside_scope(p: Polyhedron3) -> bool:
    """Whether ``p`` is a tetrahedron or a triangular prism, the family both
    checks leave out; larger polyhedra are decided without sorting faces."""
    return p.face_count <= 5 and p.face_sizes() in ([3, 3, 3, 3], [3, 3, 4, 4, 4])


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

    if _outside_scope(p):
        return ConditionReport(excluded_family=True)

    entries = {k: [] for k in ("a", "b", "c", "d", "e")}
    graph = p._face_graph
    pairs = incidence.face_pairs
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
                    entries["a"].append((v, Fraction(total[v], L)))
            # no angle exceeds pi/2, so four sum to 2 pi only when all are pi/2
            elif total[v] != 2 * L:
                at = [_norm_edge(v, u) for u in sorted(nbrs)]
                entries["b"].append((v, [e for e in at if 2 * x[e] != L]))
        elif total[v] <= L:
            entries["a"].append((v, Fraction(total[v], L)))

    def pair_angles(a: int, b: int):   # face_pairs keys each pair as a < b
        return [x[e] for e in pairs[_norm_edge(a, b)]]

    for circ in graph.circuits3:
        a, b, c = circ
        for xa in pair_angles(a, b):
            for xb in pair_angles(a, c):
                for xc in pair_angles(b, c):
                    if xa + xb + xc >= L:
                        entries["c"].append((circ, Fraction(xa + xb + xc, L)))

    # (d): at each flank F_i of a cusp shared by F_j, F_k, some angle is not 1/2
    for i, j, k, cusps in graph.flanks:
        if all(2 * y == L for y in pair_angles(i, j) + pair_angles(i, k)):
            entries["d"].append((i, j, k, list(cusps)))

    for circ in graph.circuits4:
        a, b, c, d = circ
        ring = [(a, b), (b, c), (c, d), (d, a)]
        if all(2 * y == L for u, w in ring for y in pair_angles(u, w)):
            entries["e"].append((circ,))
    return ConditionReport(entries)


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
    if _outside_scope(p):
        return ConditionReport(excluded_family=True)
    entries = {k: [] for k in CONDITION_KEYS}
    graph = p._face_graph

    for fi, face in enumerate(p.faces):
        cusps = len(graph.cusps[fi])
        if len(face) + cusps < FACE_FLOOR:
            entries["face_size"].append((fi, len(face), cusps))

    for (a, b), shared in incidence.face_pairs.items():
        if len(shared) > 1:
            entries["single_shared_edge"].append((a, b, list(shared)))

    for v, d, _ in validate(p, RIGHT_ANGLED_PROFILE).degree_violations:
        key = "cusp_degree" if v in p.ideal_vertices else "vertex_degree"
        entries[key].append((v, d))

    for circ in graph.circuits3:
        entries["c"].append((circ, Fraction(3, 2)))
    for circ in graph.circuits4:
        entries["e"].append((circ,))
    entries["d"].extend((i, j, k, list(cusps)) for i, j, k, cusps in graph.flanks)
    return ConditionReport(entries)
