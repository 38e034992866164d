"""Independent brute-force generator used to cross-check the enumeration.

Deliberately shares no code with the package: graphs are produced by
adjacency-matrix backtracking over degree-sorted degree sequences, planarity
and embeddings come from networkx, and isomorphism filtering uses VF2 with
Weisfeiler-Lehman pre-bucketing.  Only suitable for small sizes; the dual
side of a polyhedron with F faces has F vertices here.

It also keeps the references that only tests use: the edge list of a
rotation system, vertex 3-connectivity of a rotation system by removing
every vertex pair, the every-tuple scan for prismatic circuits,
structural validation as it was before the one-pass kernel, with the
rotation builder it called, the face adjacency table and edge
contraction as they were before they read the validation report, the
acute-angled check as it was when it summed ``Fraction`` angles, and
the full vertex code of one rooted traversal of a rotation system.
The acute-angled check reads the package's face graph, ``adjacency`` table
and report type, so only its arithmetic is independent.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import networkx as nx

from orthocusp.andreev import (HALF, AngleError, ConditionReport, _is_tetrahedron,
                               _is_triangular_prism, adjacency)
from orthocusp.core import Edge, Poly3Error, Polyhedron3, ValidationReport, require_valid
from orthocusp.maps import MapError


def _degree_sequences(n: int, total: int, lo: int = 3):
    """Non-increasing degree sequences of length n, entries lo..n-1,
    summing to total."""
    hi = n - 1
    out = []

    def rec(prefix, remaining, cap):
        k = len(prefix)
        if k == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        slots = n - k
        for d in range(min(cap, remaining - lo * (slots - 1)), lo - 1, -1):
            if d * slots < remaining:
                break
            rec(prefix + [d], remaining - d, d)

    rec([], total, hi)
    return out


def _graphs_with_degrees(degrees):
    """All labelled graphs realising the degree sequence, as adjacency
    bitmasks, by row-by-row neighbour choice."""
    n = len(degrees)
    rem = list(degrees)
    mask = [0] * n
    found = []

    def rec(i):
        if i == n:
            found.append(tuple(mask))
            return
        need = rem[i]
        if need == 0:
            rec(i + 1)
            return
        avail = [j for j in range(i + 1, n) if rem[j] > 0]
        if len(avail) < need:
            return
        for pick in combinations(avail, need):
            for j in pick:
                rem[j] -= 1
                mask[i] |= 1 << j
                mask[j] |= 1 << i
            rem[i] = 0
            if sum(rem[j] for j in range(i + 1, n)) % 2 == 0:
                rec(i + 1)
            rem[i] = need
            for j in pick:
                rem[j] += 1
                mask[i] &= ~(1 << j)
                mask[j] &= ~(1 << i)

    rec(0)
    return found


def _connected(mask, n) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= mask[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _triangle_count(mask, n) -> int:
    total = 0
    for u in range(n):
        mu = mask[u]
        m = mu >> (u + 1) << (u + 1)
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            total += (mu & mask[v]).bit_count()
    return total // 3


def _face_sizes(G: nx.Graph):
    """Face-size multiset of a planar embedding, or None when non-planar."""
    ok, emb = nx.check_planarity(G, counterexample=False)
    if not ok:
        return None
    sizes = []
    seen = set()
    for u, v in emb.edges:
        if (u, v) in seen:
            continue
        face = emb.traverse_face(u, v, mark_half_edges=seen)
        sizes.append(len(face))
    return sorted(sizes)


def brute_force_dual_types(n: int, quads: int):
    """All 3-connected planar graphs on n vertices whose faces are all
    triangles except exactly ``quads`` quadrilaterals, up to isomorphism.

    These are the duals of the almost-simple polyhedra with n faces and
    ``quads`` cusps.  Returns a list of nx.Graph representatives.
    """
    target_edges = 3 * n - 6 - quads
    facial_triangles = 2 * n - 4 - 2 * quads
    buckets: dict[str, list[nx.Graph]] = {}
    for seq in _degree_sequences(n, 2 * target_edges):
        for mask in _graphs_with_degrees(seq):
            # every facial triangle is a graph triangle, so this floor is a
            # cheap necessary condition ahead of the planarity test
            if _triangle_count(mask, n) < facial_triangles:
                continue
            if not _connected(mask, n):
                continue
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n)
                             if mask[i] >> j & 1)
            sizes = _face_sizes(G)
            if sizes is None:
                continue
            if quads and sizes != [3] * (facial_triangles) + [4] * quads:
                continue
            # degree labels stand for the first of three WL rounds; the hash
            # is a bucket key only, each match is confirmed by is_isomorphic
            nx.set_node_attributes(G, dict(G.degree), "degree")
            key = nx.weisfeiler_lehman_graph_hash(G, node_attr="degree", iterations=2)
            bucket = buckets.setdefault(key, [])
            if any(nx.is_isomorphic(G, H) for H in bucket):
                continue
            bucket.append(G)
    reps = [G for bucket in buckets.values() for G in bucket]
    return [G for G in reps if nx.node_connectivity(G) >= 3]


def count_dual_types(n: int, quads: int) -> int:
    return len(brute_force_dual_types(n, quads))


def edge_set(rot) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of a rotation system, in row order."""
    return [(v, u) for v, nbrs in enumerate(rot) for u in nbrs if v < u]


def _connected_without(rot, removed) -> bool:
    """Whether the map stays connected once the vertices ``removed`` go."""
    rest = [v for v in range(len(rot)) if v not in removed]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for u in rot[stack.pop()]:
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def is_three_connected(rot) -> bool:
    """Vertex 3-connectivity: at least four vertices, and connected after
    removing no vertex, any one or any two (maps are small)."""
    n = len(rot)
    return n >= 4 and _connected_without(rot, set()) and all(
        _connected_without(rot, {a, b}) for a in range(n) for b in range(a, n))


def encode_reference(rot, marks, u, v, s):
    """``(code, canon_rot, order)`` of the traversal that starts at the
    dart u->v in orientation s, run to the end: u is labelled 0, each
    vertex in label order writes its ring from the vertex it was reached
    from, unlabelled neighbours taking the next label, and the code is
    the marks and degrees of u and v, the rows each ended by 254, then
    the marks in label order.  ``order[i]`` is the vertex labelled i."""
    lab = {u: 0}
    order = [u]
    entry = [v]
    rows = []
    for x, e in zip(order, entry):
        ring = list(rot[x])
        k = ring.index(e)
        ring = ring[k:] + ring[:k]
        if s == -1:
            ring = ring[:1] + ring[:0:-1]
        for w in ring:
            if w not in lab:
                lab[w] = len(order)
                order.append(w)
                entry.append(x)
        rows.append(tuple(lab[w] for w in ring))
    if len(order) != len(rot):
        raise MapError("map is not connected")
    code = bytes((marks[u], len(rot[u]), marks[v], len(rot[v])))
    code += b"".join(bytes(row) + b"\xfe" for row in rows)
    return code + bytes(marks[x] for x in order), tuple(rows), order


def prismatic_circuits_by_scan(faces, length: int):
    """Prismatic 3- or 4-circuits of the polyhedron with these faces, found
    by testing every face triple or quadruple.

    Faces are adjacent when they are the only two faces through some edge.
    A group of 3 or 4 faces is a circuit when each member is adjacent to
    exactly two others in the group (the only 2-regular graphs on 3 and 4
    vertices are the 3- and 4-cycle) and no vertex lies on every member.
    The tuples follow the package's layout: (a, b, c) with a < b < c, or
    (a, b, c, d) with a least, c opposite a and b < d; the list is in
    lexicographic order of the sorted members.
    """
    owners: dict[frozenset, set[int]] = {}
    for fi, face in enumerate(faces):
        for t in range(len(face)):
            owners.setdefault(frozenset((face[t - 1], face[t])), set()).add(fi)
    adj = [0] * len(faces)
    for pair in owners.values():
        if len(pair) == 2:
            x, y = pair
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    vmask = [sum(1 << v for v in set(face)) for face in faces]
    out = []
    for group in combinations(range(len(faces)), length):
        members = sum(1 << x for x in group)
        if any((adj[x] & members).bit_count() != 2 for x in group):
            continue
        common = vmask[group[0]]
        for x in group[1:]:
            common &= vmask[x]
        if common:
            continue
        a = group[0]
        if length == 3:
            out.append(group)
        else:
            b, d = (x for x in group if adj[a] >> x & 1)
            c = next(x for x in group[1:] if not adj[a] >> x & 1)
            out.append((a, b, c, d))
    return out


def rotation_from_faces_reference(n: int, faces):
    """``maps.rotation_from_faces`` before the one-pass validation kernel."""
    succ: dict[tuple[int, int], int] = {}
    for face in faces:
        k = len(face)
        for i in range(k):
            u, v, w = face[i - 1], face[i], face[(i + 1) % k]
            if (u, v) in succ:
                raise MapError(f"dart {u}->{v} traversed twice")
            succ[(u, v)] = w
    for (u, v) in succ:
        if (v, u) not in succ:
            raise MapError(f"edge {{{u},{v}}} traversed in one direction only")
    out_darts: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in succ:
        if not 0 <= u < n:
            raise MapError(f"vertex id {u} out of range")
        out_darts[u].append(v)
    rot = []
    for v in range(n):
        darts = out_darts[v]
        if not darts:
            rot.append(())
            continue
        start = darts[0]
        cycle = [start]
        cur = succ[(start, v)]
        while cur != start:
            cycle.append(cur)
            if len(cycle) > len(darts):
                raise MapError(f"rotation at vertex {v} is not a single cycle")
            cur = succ[(cycle[-1], v)]
        if len(cycle) != len(darts):
            raise MapError(f"rotation at vertex {v} is not a single cycle")
        rot.append(tuple(cycle))
    return tuple(rot)


def validate_reference(p, profile=None) -> ValidationReport:
    """``core.validate`` before the one-pass kernel: a dart table, an edge
    table, a vertex set and a search, then the rotation built apart by
    ``rotation_from_faces_reference``."""
    report = ValidationReport()
    directed: dict[tuple[int, int], list[int]] = {}
    for fi, face in enumerate(p.faces):
        if len(face) < 3:
            report.violations.append(("face-cycle", f"face {fi} has fewer than three vertices"))
            continue
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

    edge_faces: dict[tuple[int, int], list[int]] = {}
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
            # the report is frozen; the copy shares its lists
            report = replace(report, rotation=rotation_from_faces_reference(
                p.vertex_count, p.faces))
        except MapError as exc:
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


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def adjacency_reference(p):
    """``andreev.adjacency`` of a valid polyhedron by a scan of its faces:
    each edge records the faces it lies on, in order of first appearance."""
    edge_owner: dict[tuple[int, int], list[int]] = {}
    for fi, face in enumerate(p.faces):
        k = len(face)
        for t in range(k):
            e = _norm_edge(face[t], face[(t + 1) % k])
            owners = edge_owner.setdefault(e, [])
            if fi not in owners:
                owners.append(fi)
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e, owners in edge_owner.items():
        if len(owners) == 2:
            a, b = owners
            table.setdefault((a, b), []).append(e)
            table.setdefault((b, a), []).append(e)
    for key in table:
        table[key].sort()
    return table


def _edge_on_face(face, u: int, v: int) -> bool:
    k = len(face)
    return any({face[i], face[(i + 1) % k]} == {u, v} for i in range(k))


def _follows(face, u: int, v: int) -> bool:
    k = len(face)
    return any(face[i] == u and face[(i + 1) % k] == v for i in range(k))


def contract_edge_reference(p, e):
    """``core.contract_edge`` of a valid polyhedron, reading the edge list,
    the degrees and the faces through the edge from the face cycles."""
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


def _edges_at_vertices(incidence: ValidationReport) -> list[list[Edge]]:
    """The edges at each vertex of a valid polyhedron, by the other
    endpoint, which is their order in the sorted edge list."""
    return [[_norm_edge(v, u) for u in sorted(nbrs)]
            for v, nbrs in enumerate(incidence.rotation)]


def check_andreev_reference(p: Polyhedron3, angles: dict[Edge, Fraction]) -> ConditionReport:
    """``andreev.check_andreev`` as it was when it summed and compared the
    ``Fraction`` angles themselves, with the edges at each vertex read from
    the rotation system."""
    incidence = require_valid(p)
    for e in p.edges:
        if e not in angles:
            raise AngleError(f"missing angle for edge {e}")
        q = angles[e]
        if not (0 < q <= HALF):
            raise AngleError(f"angle {q} for edge {e} outside (0, 1/2]")
    edges_at = _edges_at_vertices(incidence)
    for v, at in enumerate(edges_at):
        d = len(at)
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
    graph = p._face_graph
    table = adjacency(p)

    for v, at in enumerate(edges_at):
        total = sum(angles[e] for e in at)
        if v in p.ideal_vertices:
            if len(at) == 3:
                if total != 1:
                    report.entries["a"].append((v, total))
            else:
                bad = [e for e in at if angles[e] != HALF]
                if bad:
                    report.entries["b"].append((v, bad))
        elif total <= 1:
            report.entries["a"].append((v, total))

    def pair_angles(a: int, b: int):
        return [angles[e] for e in table[(a, b)]]

    for circ in graph.circuits3:
        a, b, c = circ
        for qa in pair_angles(a, b):
            for qb in pair_angles(a, c):
                for qc in pair_angles(b, c):
                    if qa + qb + qc >= 1:
                        report.entries["c"].append((circ, qa + qb + qc))

    # (d): at each flank F_i of a cusp shared by F_j, F_k, some angle is not 1/2
    for i, j, k, cusps in graph.flanks:
        if all(q == HALF for q in pair_angles(i, j) + pair_angles(i, k)):
            report.entries["d"].append((i, j, k, list(cusps)))

    for circ in graph.circuits4:
        a, b, c, d = circ
        ring = [(a, b), (b, c), (c, d), (d, a)]
        if all(q == HALF for x, y in ring for q in pair_angles(x, y)):
            report.entries["e"].append((circ,))
    return report
