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
    through the dart u->v, starting row v at ``out_darts[v][0]``, which
    ``core.validate`` reads from the face cycles once every vertex has a
    dart.  Each dart must occur once with its reverse, so x -> succ[(x, v)]
    permutes v's neighbours ``out_darts[v]`` and each row closes."""
    rot = []
    for v, darts in enumerate(out_darts):
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
                a, b = b, r[(r.index(a) + 1) % len(r)]
            faces.append(tuple(cycle))
    return faces, face_of


def _connected(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the graph with these neighbour rows, at least one, is
    connected."""
    n = len(rows)
    seen = {0}
    stack = [0]
    while stack:
        for u in rows[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

#: Labels and degrees are written as single bytes below 254, the row end,
#: so codes are injective only up to this many vertices.  252 and 253 were
#: the separators of the face tail, which is gone; the limit stays at 252
#: so that the accepted sizes do not change.
MAX_CODE_VERTICES = 252


def canonical_form(rot: Rotation, marks: Sequence[int] | None = None):
    """Canonical byte code of an embedded map with optional vertex marks.

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
    are the automorphisms of ``canon_rot``.  Maps with no edge or with more
    than ``MAX_CODE_VERTICES`` vertices raise MapError, and so do marks
    that are not one byte, 0 to 255, per vertex.

    A traversal starts at a dart (u, v) in an orientation s.  It labels u
    0 and visits the vertices in label order; the row of a vertex is its
    ring from the vertex it was reached from, in orientation s, with each
    unlabelled neighbour taking the next label, and ends with 254.  The
    code is the head (marks and degrees of u and v), the rows and the
    vertex marks in label order.  Only the starts with the least head can
    give the least code.  Each vertex gets one key, its mark and degree
    packed into one int, so the head is found per vertex, not per dart:
    u is any vertex with an edge and the least key, and v any neighbour
    of such a u with the least key among their neighbours.  The key packs
    the degree, so every start writes row 0 as ``1..deg u``: row 0 and the
    labels of u's ring, from v on, are seeded without a traversal.  When
    u and v share no neighbour, row 1 is all new labels, ``deg u + 1`` on,
    the same row for every such start and larger than any row holding a
    label of u's ring, so these starts are traversed only when no start
    has a common neighbour.  The starts taken, each with s = 1 before
    s = -1, run together one row at a time from row 1, and after each row
    only the starts with the least row stay.  This is exact: 254 is above
    every label, so no row is a proper prefix of another and comparing row
    by row is the byte order of the code.  A start dropped at some row has
    a larger code than a start that stays, and the marks take one byte per
    vertex for every start, so they decide among the starts left.  Those
    are exactly the starts with the least code, in start order.
    """
    n = len(rot)
    if n == 0:
        raise MapError("empty map")
    if n > MAX_CODE_VERTICES:
        raise MapError(f"canonical codes cover at most {MAX_CODE_VERTICES} "
                       f"vertices, got {n}")
    deg = [len(nbrs) for nbrs in rot]
    if marks is None:
        key = deg
        marks = [0] * n
    else:
        if len(marks) != n:
            raise MapError(f"{len(marks)} vertex marks for {n} vertices")
        if min(marks) < 0 or max(marks) > 255:
            x = next(x for x, m in enumerate(marks) if not 0 <= m <= 255)
            raise MapError(f"mark {marks[x]} of vertex {x} is outside 0..255")
        # one key per vertex, its (mark, degree) packed: a vertex has at
        # most n - 1 < 256 neighbours
        key = [m * 256 + d for m, d in zip(marks, deg)]
    # only darts from a vertex with the least key to a neighbour with the
    # least key among theirs can open the minimal code; a vertex of degree
    # 0 opens none
    key_u = min((k for k, d in zip(key, deg) if d), default=None)
    if key_u is None:
        raise MapError("map has no edges")
    heads = [u for u in range(n) if key[u] == key_u]
    key_v = min(key[w] for u in heads for w in rot[u])
    # a start whose u and v share no neighbour writes row 1 as all new
    # labels, so it can open the least code only when every start does
    close = []
    apart = []
    for u in heads:
        near = set(rot[u])
        for v in rot[u]:
            if key[v] == key_v:
                (apart if near.isdisjoint(rot[v]) else close).append((u, v))
    live = []
    for u, v in close or apart:
        r = rot[u]
        k = r.index(v)
        for s, ring in ((1, r[k:] + r[:k]), (-1, r[k::-1] + r[:k:-1])):
            lab = [-1] * n
            lab[u] = 0
            for label, w in enumerate(ring, 1):
                lab[w] = label
            live.append((s, lab, [u, *ring], [v] + [u] * len(ring)))
    # every head has the same degree, since the key packs it
    rows = [[*range(1, deg[heads[0]] + 1), 254]]
    for i in range(1, n):
        least = None
        tied = []
        for state in live:
            s, lab, verts, ent = state
            if i == len(verts):
                raise MapError("map is not connected")
            x = verts[i]
            r = rot[x]
            k = r.index(ent[i])
            row = []
            for w in r[k:] + r[:k] if s == 1 else r[k::-1] + r[:k:-1]:
                label = lab[w]
                if label < 0:
                    label = lab[w] = len(verts)
                    verts.append(w)
                    ent.append(x)
                row.append(label)
            row.append(254)
            if least is None or row < least:
                least = row
                tied = [state]
            elif row == least:
                tied.append(state)
        live = tied
        rows.append(least)
    # the starts left share every row, but an automorphism of the unmarked
    # map need not respect the vertex marks
    tails = [bytes(marks[v] for v in state[2]) for state in live]
    least = min(tails)
    head = bytes((key_u >> 8, key_u & 255, key_v >> 8, key_v & 255))
    code = head + b"".join(map(bytes, rows)) + least
    return (code, tuple(tuple(row[:-1]) for row in rows),
            tuple(state[2] for state, tail in zip(live, tails) if tail == least))


# ---------------------------------------------------------------------------
# local operations used by the enumeration
# ---------------------------------------------------------------------------

def _split_rows(rot: Rotation, v: int):
    """What every split of ``rot`` at ``v`` assigns, derived once: v's
    ring twice over; for each position t of the ring, the pair (u, u's row
    with the new vertex in place of v) for u = ring[t], that list twice
    over; and u's row with the new vertex inserted after v, and before v.
    The doubled lists let a split slice an arc that wraps round."""
    nbrs = rot[v]
    w = len(rot)
    swapped, after, before = [], [], []
    for u in nbrs:
        r = rot[u]
        k = r.index(v)
        swapped.append((u, r[:k] + (w,) + r[k + 1:]))
        after.append(r[:k + 1] + (w,) + r[k + 1:])
        before.append(r[:k] + (w,) + r[k:])
    return nbrs + nbrs, swapped + swapped, after, before


def split_vertex(rot: Rotation, v: int, i: int, j: int, rows=None) -> Rotation:
    """Split vertex ``v`` of a triangulation along hinge positions ``i < j``.

    Vertex ``v`` keeps the rotation arc ``rot[v][i..j]``, and a new vertex
    w, with the next free id, takes the arc from ``rot[v][j]`` round to
    ``rot[v][i]``.  Both stay adjacent to the two hinge neighbours and
    gain the edge v–w, so the split adds one vertex, three edges and two
    triangles, and always yields a simple triangulation again.  Only
    v's neighbours change rows besides v and w: a neighbour inside w's
    arc sees w in place of v, and at hinge ``rot[v][i]`` w follows v, at
    hinge ``rot[v][j]`` it precedes v.  ``rows`` is ``_split_rows(rot, v)``,
    which every split at v shares; it is derived when not given.  Rows
    the split leaves alone are shared with ``rot``.
    """
    ring, swapped, after, before = rows or _split_rows(rot, v)
    d = len(rot[v])
    w = len(rot)
    new_rot = list(rot)
    new_rot[v] = ring[i:j + 1] + (w,)
    new_rot.append(ring[j:d + i + 1] + (v,))
    for u, r in swapped[j + 1:d + i]:
        new_rot[u] = r
    new_rot[ring[i]] = after[i]
    new_rot[ring[j]] = before[j]
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
