"""Independent brute-force generator used to cross-check the enumeration.

Deliberately shares no code with the package: graphs are produced by
adjacency-matrix backtracking over degree-sorted degree sequences, planarity
and embeddings come from networkx, and isomorphism filtering uses VF2 with
Weisfeiler-Lehman pre-bucketing.  Only suitable for small sizes; the dual
side of a polyhedron with F faces has F vertices here.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


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
            key = nx.weisfeiler_lehman_graph_hash(G, iterations=3)
            bucket = buckets.setdefault(key, [])
            if any(nx.is_isomorphic(G, H) for H in bucket):
                continue
            bucket.append(G)
    reps = [G for bucket in buckets.values() for G in bucket]
    return [G for G in reps if nx.node_connectivity(G) >= 3]


def count_dual_types(n: int, quads: int) -> int:
    return len(brute_force_dual_types(n, quads))


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
