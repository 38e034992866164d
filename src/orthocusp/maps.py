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


def _close_rotation(succ: dict[tuple[int, int], int],
                    out_darts: Sequence[Sequence[int]]) -> Rotation:
    """Rotation rows from ``succ[(u, v)]``, the vertex after v on the face
    through the dart u->v, starting row v at ``out_darts[v][0]``; used by
    ``core.validate``, which reads both from the face cycles.  Each dart
    must occur once with its reverse, so x -> succ[(x, v)] permutes v's
    neighbours ``out_darts[v]`` and each row closes."""
    rot = []
    for v, darts in enumerate(out_darts):
        if not darts:
            rot.append(())
            continue
        start = darts[0]
        row = [start]
        cur = succ[(start, v)]
        while cur != start:
            row.append(cur)
            cur = succ[(cur, v)]
        if len(row) != len(darts):
            raise MapError(f"rotation at vertex {v} is not a single cycle")
        rot.append(tuple(row))
    return tuple(rot)


def faces_of_rotation(rot: Rotation) -> tuple[list[tuple[int, ...]], dict[tuple[int, int], int]]:
    """Trace all face cycles of a rotation system.

    Returns ``(faces, face_of)``: ``face_of[(a, b)]`` is the index in
    ``faces`` of the face through the dart a->b, and its keys run in face
    order, each face's darts in cycle order.  Inverse of the rotation
    ``core.validate`` builds from face cycles, up to face order and
    starting points: every dart belongs to exactly one returned face.
    """
    pos = [{u: i for i, u in enumerate(nbrs)} for nbrs in rot]
    face_of: dict[tuple[int, int], int] = {}
    faces = []
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if (v, u) in face_of:
                continue
            fi = len(faces)
            cycle = []
            a, b = v, u
            while (a, b) not in face_of:
                face_of[(a, b)] = fi
                cycle.append(a)
                r = rot[b]
                nxt = r[(pos[b][a] + 1) % len(r)]
                a, b = b, nxt
            faces.append(tuple(cycle))
    return faces, face_of


def _connected_without(rows: Sequence[Sequence[int]], *gone: int) -> bool:
    """Whether the graph with these neighbour rows stays connected once
    the vertices ``gone`` are removed; at least one vertex must stay."""
    n = len(rows)
    start = next(v for v in range(n) if v not in gone)
    seen = {*gone, start}
    stack = [start]
    while stack:
        for u in rows[stack.pop()]:
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
    """Encode one rooted traversal as ``(code, canon_rot, order)``.

    With ``best`` given, each label and separator is compared with the byte
    of ``best`` at the same position as it is written: the traversal is
    abandoned (None) at the first larger byte, and comparing stops at the
    first smaller one.  So the result is None exactly when the code would
    exceed ``best``.
    """
    n = len(rot)
    lab = [-1] * n
    verts = [u0]
    ent = [v0]
    lab[u0] = 0
    nxt = 1
    head = bytes((marks[u0], len(rot[u0]), marks[v0], len(rot[v0])))
    # while pos >= 0 the code so far equals best[:pos]; a byte past the end
    # of best compares as larger, since best is then a proper prefix
    pos = -1
    if best is not None:
        if head > best[:4]:
            return None
        if head == best[:4]:
            pos = 4
            last = len(best)
    seqs = []
    # verts grows while it is iterated: each vertex is visited once labelled
    for i, x in enumerate(verts):
        r = rot[x]
        k = r.index(ent[i])
        # the neighbours of x from its entry vertex on, in orientation s
        ring = r[k:] + r[:k] if s == 1 else r[k::-1] + r[:k:-1]
        seq = []
        for w in ring:
            label = lab[w]
            if label < 0:
                label = lab[w] = nxt
                nxt += 1
                verts.append(w)
                ent.append(x)
            seq.append(label)
            if pos >= 0:
                b = best[pos] if pos < last else -1
                if label > b:
                    return None
                pos = pos + 1 if label == b else -1
        if pos >= 0:
            b = best[pos] if pos < last else -1
            if 254 > b:
                return None
            pos = pos + 1 if b == 254 else -1
        seqs.append(tuple(seq))
    if len(verts) != n:
        raise MapError("map is not connected")
    tail = bytes(marks[v] for v in verts)
    if pos >= 0 and tail > best[pos:]:
        return None
    code = head + b"".join(bytes(seq) + b"\xfe" for seq in seqs) + tail
    return code, tuple(seqs), verts


def canonical_form(rot: Rotation, marks: Sequence[int] | None = None,
                   face_marks: set[frozenset[int]] | None = None):
    """Canonical byte code of an embedded map with optional vertex/face marks.

    The code is invariant under relabelling and reflection; two maps receive
    equal codes exactly when they are isomorphic as marked embedded
    structures.  Returns ``(code, canon_rot, orders)``: ``canon_rot`` is the
    relabelled rotation system determined by the code alone (identical for
    isomorphic inputs), and ``orders`` holds the traversal order of every
    start that reaches the least code, in start order: ``orders[k][i]`` is
    the original vertex that this start labels ``i``, and ``orders[0]``
    fixes the labelling of ``canon_rot``.  Two such starts differ by an
    automorphism of the marked map, and each automorphism, reflections
    included, moves the first start to exactly one of them, so
    ``len(orders)`` is |Aut±| and ``i -> orders[0].index(orders[k][i])``
    are the automorphisms of ``canon_rot``.  No traversal is added for
    them: a start that ties the best code runs to completion anyway.
    Maps with no edge or with more than ``MAX_CODE_VERTICES`` vertices
    raise MapError.

    A traversal starts at a dart (u, v) in an orientation s, and only the
    starts with the least head (marks and degrees of u and v) can give the
    least code.  Before any traversal runs, ``_least_prefix_starts`` ranks
    those starts by rows 1 and 2 of their codes, and ``_encode``, with its
    ``best`` abort, runs only on the starts with the least prefix, in
    their original order.  This is exact.  Every tied start writes the
    same head and the same row 0 (labels ``1..deg u``, then 254), so a
    start with a larger prefix has a larger code.  Every start with the
    least code survives, and as the order is kept, the first of them,
    which sets ``canon_rot`` and ``orders[0]``, is the same as without the
    ranking.  With face marks, the face tail follows a vertex code whose
    length is the same for every start, so the least full code also has
    the least prefix.  Triangulations skip the ranking, so growth, which
    codes only triangulations, pays nothing for it.  There row 1 (v's ring
    from u) reads 0, ``deg u``, the new labels, then 2, whenever (u, v)
    lies on no separating triangle, so it is fixed by the head; row 2
    alone halves the traversals of level-11 growth children, but the
    ranking costs more than the aborted traversals it saves.
    """
    n = len(rot)
    if n == 0:
        raise MapError("empty map")
    if n > MAX_CODE_VERTICES:
        raise MapError(f"canonical codes cover at most {MAX_CODE_VERTICES} "
                       f"vertices, got {n}")
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
    if not starts:
        raise MapError("map has no edges")
    starts = [(u, v, s) for (u, v) in starts for s in (1, -1)]
    # a simple spherical map is a triangulation exactly when 2E = 6n - 12
    if sum(deg) != 6 * n - 12:
        starts = _least_prefix_starts(rot, starts)
    best = None
    best_rot = None
    orders = []
    if face_marks is None:
        for (u, v, s) in starts:
            # with best given, a result is never larger than best
            res = _encode(rot, marks, u, v, s, best)
            if res is None:
                continue
            if best is None or res[0] < best:
                best, best_rot = res[0], res[1]
                orders = [res[2]]
            else:
                orders.append(res[2])
        return best, best_rot, tuple(orders)

    # marked faces: the tail depends on the traversal's labelling, and
    # traversals tied on the vertex part may disagree on it (an unmarked
    # automorphism need not respect face marks), so minimise the full code
    faces = [(face, 1 if frozenset(face) in face_marks else 0)
             for face in faces_of_rotation(rot)[0]]
    for (u, v, s) in starts:
        res = _encode(rot, marks, u, v, s, None)
        code = res[0] + _face_tail(faces, res[2])
        if best is None or code < best:
            best, best_rot = code, res[1]
            orders = [res[2]]
        elif code == best:
            orders.append(res[2])
    return best, best_rot, tuple(orders)


def _least_prefix_starts(rot, starts):
    """The starts ``(u, v, s)``, tied on the head, whose codes open with
    the least rows 1 and 2, in their original order.

    Row 1 is v's ring from u; row 2 is the ring of u's second neighbour
    (label 2), also entered from u.  A vertex of u's ring is labelled by
    its place in u's ring from v in orientation s; the others are labelled
    in order of first appearance from ``deg u + 1`` on.  Row 1 has the
    length ``deg v`` of every tied start; row 2 may not, so its key ends
    with the separator 254, above every label, as in the code.
    """
    pos = [{w: i for i, w in enumerate(nbrs)} for nbrs in rot]
    least = None
    kept = []
    for (u, v, s) in starts:
        pu = pos[u]
        du = len(pu)
        k = pu[v]
        r = rot[v]
        j = pos[v][u]
        ring = r[j + 1:] + r[:j]
        if s == -1:
            ring = ring[::-1]
        new = {}
        key = []
        for w in ring:
            i = pu.get(w)
            if i is None:
                label = new[w] = du + 1 + len(new)
            else:
                label = 1 + (i - k) * s % du
            key.append(label)
        if least is None or key < least:
            least = key
            kept = [(u, v, s, k, new)]
        elif key == least:
            kept.append((u, v, s, k, new))
    # with deg u = 1, label 2 goes to a vertex of row 1, not of u's ring
    if len(kept) == 1 or len(rot[kept[0][0]]) < 2:
        return [start[:3] for start in kept]
    least = None
    survivors = []
    for (u, v, s, k, new) in kept:
        pu = pos[u]
        du = len(pu)
        x = rot[u][(k + s) % du]
        r = rot[x]
        j = pos[x][u]
        ring = r[j + 1:] + r[:j]
        if s == -1:
            ring = ring[::-1]
        key = []
        for w in ring:
            i = pu.get(w)
            if i is not None:
                label = 1 + (i - k) * s % du
            elif w in new:
                label = new[w]
            else:
                label = new[w] = du + 1 + len(new)
            key.append(label)
        key.append(254)
        if least is None or key < least:
            least = key
            survivors = [(u, v, s)]
        elif key == least:
            survivors.append((u, v, s))
    return survivors


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


#: The rotation of the tetrahedron with faces (0 1 2), (0 2 3), (0 3 1)
#: and (1 3 2).
TETRAHEDRON: Rotation = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2))
