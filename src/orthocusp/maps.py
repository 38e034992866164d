"""Rotation-system engine for embedded spherical maps.

A map is stored as a rotation system: ``rot[v]`` is the tuple of neighbours
of vertex ``v`` in cyclic order.  All maps handled here are simple as graphs
(each vertex pair carries at most one edge), which the face-cycle encoding
of the core module already guarantees.

Convention: in ``rot[v]`` the successor of neighbour ``u`` is the third
corner of the face containing the path ``u -> v -> successor``.  With that,
the face to one side of a dart ``(a, b)`` is traced by stepping to
``(b, rot[b][pos(a) + 1])``.
"""

from __future__ import annotations

from typing import Sequence

Rotation = tuple[tuple[int, ...], ...]


class MapError(ValueError):
    """Raised when data does not describe a single spherical map."""


def rotation_from_faces(n: int, faces: Sequence[Sequence[int]]) -> Rotation:
    """Derive the rotation system from consistently oriented face cycles.

    Each edge must be traversed exactly once in each direction across the
    face cycles; otherwise a MapError is raised.
    """
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


def faces_of_rotation(rot: Rotation) -> list[tuple[int, ...]]:
    """Trace all face cycles of a rotation system.

    Inverse of rotation_from_faces up to face order and starting points:
    every dart belongs to exactly one returned face.
    """
    pos = [{u: i for i, u in enumerate(nbrs)} for nbrs in rot]
    seen: set[tuple[int, int]] = set()
    faces = []
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if (v, u) in seen:
                continue
            cycle = []
            a, b = v, u
            while (a, b) not in seen:
                seen.add((a, b))
                cycle.append(a)
                r = rot[b]
                nxt = r[(pos[b][a] + 1) % len(r)]
                a, b = b, nxt
            faces.append(tuple(cycle))
    return faces


def edge_set(rot: Rotation) -> list[tuple[int, int]]:
    return [(v, u) for v, nbrs in enumerate(rot) for u in nbrs if v < u]


def is_connected(rot: Rotation) -> bool:
    n = len(rot)
    if n == 0:
        return False
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def is_three_connected(rot: Rotation) -> bool:
    """Vertex 3-connectivity by removing every vertex pair (maps are small)."""
    n = len(rot)
    if n < 4:
        return False
    if not is_connected(rot):
        return False
    return all(_connected_without(rot, a, b)
               for a in range(n) for b in range(a + 1, n))


def _connected_without(rot: Rotation, a: int, b: int) -> bool:
    """Whether the map stays connected once vertices ``a`` and ``b`` go."""
    n = len(rot)
    start = next(v for v in range(n) if v != a and v != b)
    seen = {a, b, start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

#: Labels and degrees are written as single bytes below the separators
#: 252, 253 and 254, so codes are injective only up to this many vertices.
MAX_CODE_VERTICES = 252


def _encode(rot, marks, u0, v0, s, best):
    """Encode one rooted traversal; abort (None) once it exceeds ``best``."""
    n = len(rot)
    lab = [-1] * n
    verts = [u0]
    ent = [v0]
    lab[u0] = 0
    nxt = 1
    out = bytearray((marks[u0], len(rot[u0]), marks[v0], len(rot[v0])))
    if best is not None and bytes(out) > best[: len(out)]:
        return None
    seqs = []
    i = 0
    while i < len(verts):
        x = verts[i]
        r = rot[x]
        d = len(r)
        k = r.index(ent[i])
        seq = []
        for t in range(d):
            w = r[(k + s * t) % d]
            if lab[w] < 0:
                lab[w] = nxt
                nxt += 1
                verts.append(w)
                ent.append(x)
            seq.append(lab[w])
        seqs.append(tuple(seq))
        out.extend(seq)
        out.append(254)
        if best is not None and bytes(out) > best[: len(out)]:
            return None
        i += 1
    if len(verts) != n:
        raise MapError("map is not connected")
    out.extend(marks[v] for v in verts)
    return bytes(out), tuple(seqs), verts


def canonical_form(rot: Rotation, marks: Sequence[int] | None = None,
                   face_marks: set[frozenset[int]] | None = None):
    """Canonical byte code of an embedded map with optional vertex/face marks.

    The code is invariant under relabelling and reflection; two maps receive
    equal codes exactly when they are isomorphic as marked embedded
    structures.  Returns ``(code, canon_rot, order)``: ``canon_rot`` is the
    relabelled rotation system determined by the code alone (identical for
    isomorphic inputs) and ``order[i]`` is the original vertex that received
    canonical label ``i``.
    """
    n = len(rot)
    if n == 0:
        raise MapError("empty map")
    if marks is None:
        marks = [0] * n
    deg = [len(nbrs) for nbrs in rot]
    # only darts with the smallest invariant key can open the minimal code
    best_key = None
    starts = []
    for u in range(n):
        mu = marks[u]
        du = deg[u]
        for v in rot[u]:
            key = (mu, du, marks[v], deg[v])
            if best_key is None or key < best_key:
                best_key = key
                starts = [(u, v)]
            elif key == best_key:
                starts.append((u, v))
    if face_marks is None:
        best = None
        best_rot = None
        best_order = None
        for (u, v) in starts:
            for s in (1, -1):
                res = _encode(rot, marks, u, v, s, best)
                if res is not None and (best is None or res[0] < best):
                    best, best_rot, best_order = res
        return best, best_rot, best_order

    # marked faces: the tail depends on the traversal's labelling, and
    # traversals tied on the vertex part may disagree on it (an unmarked
    # automorphism need not respect face marks), so minimise the full code
    faces = [(face, 1 if frozenset(face) in face_marks else 0)
             for face in faces_of_rotation(rot)]
    best = None
    best_rot = None
    best_order = None
    for (u, v) in starts:
        for s in (1, -1):
            res = _encode(rot, marks, u, v, s, None)
            code = res[0] + _face_tail(faces, res[2])
            if best is None or code < best:
                best, best_rot, best_order = code, res[1], res[2]
    return best, best_rot, best_order


def _face_tail(faces, order) -> bytes:
    lab = {v: i for i, v in enumerate(order)}
    keyed = []
    for face, mark in faces:
        cyc = [lab[v] for v in face]
        variants = []
        for seq in (cyc, cyc[::-1]):
            variants.extend(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))
        keyed.append((min(variants), mark))
    keyed.sort()
    tail = bytearray([253])
    for cyc, m in keyed:
        tail.extend(cyc)
        tail.append(252)
        tail.append(m)
    return bytes(tail)


# ---------------------------------------------------------------------------
# local operations used by the enumeration
# ---------------------------------------------------------------------------

def split_vertex(rot: Rotation, v: int, i: int, j: int) -> Rotation:
    """Split vertex ``v`` of a triangulation along hinge positions ``i < j``.

    Vertex ``v`` keeps the rotation arc ``rot[v][i..j]``; a new vertex
    (appended with the next free id) takes the complementary arc; both stay
    adjacent to the two hinge neighbours and gain the edge between them.
    Adds one vertex, three edges and two triangular faces, and always yields
    a simple triangulation again.  Rows the split leaves alone are shared
    with ``rot``.
    """
    nbrs = rot[v]
    w = len(rot)
    arc2 = nbrs[j:] + nbrs[:i + 1]
    hi, hj = nbrs[i], nbrs[j]
    new_rot = list(rot)
    new_rot[v] = nbrs[i:j + 1] + (w,)
    new_rot.append(arc2 + (v,))
    for u in arc2[1:-1]:
        r = rot[u]
        k = r.index(v)
        new_rot[u] = r[:k] + (w,) + r[k + 1:]
    # new triangles (w, v, u_i) and (v, w, u_j): at hinge u_i the new vertex
    # follows v in the rotation, at hinge u_j it precedes v.
    r = rot[hi]
    k = r.index(v) + 1
    new_rot[hi] = r[:k] + (w,) + r[k:]
    r = rot[hj]
    k = r.index(v)
    new_rot[hj] = r[:k] + (w,) + r[k:]
    return tuple(new_rot)


def delete_edge(rot: Rotation, u: int, v: int) -> Rotation:
    new_rot = list(rot)
    ru = list(new_rot[u])
    ru.remove(v)
    new_rot[u] = tuple(ru)
    rv = list(new_rot[v])
    rv.remove(u)
    new_rot[v] = tuple(rv)
    return tuple(new_rot)


TETRAHEDRON: Rotation = rotation_from_faces(
    4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
