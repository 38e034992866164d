"""Seeded POLY3 corpus for the ``audit-corpus`` workload.

The generator is self-contained: it imports nothing from ``orthocusp``, so
a change to the program cannot change the inputs it is measured on.

Random items are duals of random sphere triangulations grown from the
tetrahedron by vertex splits (every triangulation with n >= 4 vertices is
simple and 3-connected, so its dual is a simple 3-polytope with n faces).
Seeded contractions of edges between two finite trivalent vertices, whose
two faces have at least four sides, turn some of them into one- and
two-cusp items.  The Löbell polyhedra L(n) (two n-gons, 2n pentagons; L(5)
is the dodecahedron) and their one-cusp contractions are right-angled and
must pass both realizability checkers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: census regime: face counts 8..16, each with this many items per cusp count
CENSUS_FACES = range(8, 17)
CENSUS_PER_CUSP_COUNT = 6
#: Löbell items L(n) for these n, each compact and contracted once
LOEBELL_N = range(5, 9)
#: tail items, 24..40 faces, where the C(F, 4) circuit scan dominates
TAIL_ITEMS = 30
TAIL_MIN_FACES = 24
TAIL_MAX_FACES = 40
#: the benchmark's host-speed reference slice builds one item of this size
REFERENCE_FACES = 16


@dataclass(frozen=True)
class Item:
    """One corpus entry: the POLY3 text, the same type relabelled and
    reflected, whether some face has fewer than five sides and cusps
    together, and whether both checkers must accept it."""

    name: str
    faces: int
    cusps: int
    text: str
    variant: str
    small_face: bool
    must_pass: bool


# ---------------------------------------------------------------------------
# triangulations as rotation systems
#
# rot[v] lists the neighbours of v in cyclic order; the face to the left of
# the dart a -> b continues with b -> rot[b][pos_b(a) + 1].
# ---------------------------------------------------------------------------

def _rotation(n: int, triangles) -> list[list[int]]:
    after: dict[tuple[int, int], int] = {}
    for tri in triangles:
        for k in range(3):
            after[(tri[k - 1], tri[k])] = tri[(k + 1) % 3]
    rot = []
    for v in range(n):
        first = next(u for (u, x) in after if x == v)
        cycle = [first]
        while True:
            nxt = after[(cycle[-1], v)]
            if nxt == first:
                break
            cycle.append(nxt)
        rot.append(cycle)
    return rot


def _tetrahedron() -> list[list[int]]:
    return _rotation(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def _split(rot: list[list[int]], v: int, i: int, j: int) -> None:
    """Split v in place: v keeps the arc rot[v][i..j], a new vertex takes
    the complementary arc, and the two hinge neighbours gain the new
    vertex.  Adds one vertex and two triangles."""
    nbrs = rot[v]
    d = len(nbrs)
    w = len(rot)
    keep = nbrs[i:j + 1]
    give = [nbrs[t % d] for t in range(j, i + d + 1)]
    for u in give[1:-1]:
        r = rot[u]
        r[r.index(v)] = w
    hinge_i, hinge_j = rot[nbrs[i]], rot[nbrs[j]]
    hinge_i.insert(hinge_i.index(v) + 1, w)
    hinge_j.insert(hinge_j.index(v), w)
    rot[v] = keep + [w]
    rot.append(give + [v])


def random_triangulation(n: int, rng: random.Random) -> list[list[int]]:
    rot = _tetrahedron()
    while len(rot) < n:
        v = rng.randrange(len(rot))
        i, j = sorted(rng.sample(range(len(rot[v])), 2))
        _split(rot, v, i, j)
    return rot


def loebell_triangulation(n: int) -> list[list[int]]:
    """Dual of L(n): two apexes over an n-antiprism (the icosahedron at 5)."""
    top, bottom = 0, 1
    up = [2 + i for i in range(n)]
    low = [2 + n + i for i in range(n)]
    tris = []
    for i in range(n):
        k = (i + 1) % n
        tris += [(top, up[i], up[k]), (up[i], low[i], low[k]),
                 (up[i], low[k], up[k]), (bottom, low[k], low[i])]
    return _rotation(2 + 2 * n, tris)


# ---------------------------------------------------------------------------
# polyhedra as face cycles
# ---------------------------------------------------------------------------

def dual_faces(rot: list[list[int]]) -> list[list[int]]:
    """Face cycles of the simple polyhedron dual to a triangulation; the
    triangles are numbered in the order they are traced."""
    pos = [{u: k for k, u in enumerate(nbrs)} for nbrs in rot]
    tri_of: dict[tuple[int, int], int] = {}
    count = 0
    for a, nbrs in enumerate(rot):
        for b in nbrs:
            if (a, b) in tri_of:
                continue
            x, y = a, b
            while (x, y) not in tri_of:
                tri_of[(x, y)] = count
                r = rot[y]
                x, y = y, r[(pos[y][x] + 1) % len(r)]
            count += 1
    return [[tri_of[(u, v)] for u in rot[v]] for v in range(len(rot))]


def _contractible(faces, ideal, x: int, y: int) -> bool:
    if x in ideal or y in ideal:
        return False
    through = 0
    for face in faces:
        if x in face and y in face:
            k = len(face)
            a, b = face.index(x), face.index(y)
            if (a - b) % k not in (1, k - 1) or k < 4:
                return False
            through += 1
    degree = {x: 0, y: 0}
    for face in faces:
        for v in (x, y):
            degree[v] += v in face
    return through == 2 and degree[x] == 3 and degree[y] == 3


def _edges(faces) -> list[tuple[int, int]]:
    return sorted({(min(f[k - 1], f[k]), max(f[k - 1], f[k]))
                   for f in faces for k in range(len(f))})


def contract(faces, ideal: set[int], rng: random.Random):
    """Contract a seeded eligible edge into a cusp; ids are compacted with
    the cusp last.  Returns None when no edge is eligible."""
    eligible = [e for e in _edges(faces) if _contractible(faces, ideal, *e)]
    if not eligible:
        return None
    x, y = rng.choice(eligible)
    n = 1 + max(v for f in faces for v in f)
    keep = [v for v in range(n) if v not in (x, y)]
    new_id = {v: k for k, v in enumerate(keep)}
    new_id[x] = new_id[y] = len(keep)
    out = []
    for face in faces:
        cycle = [new_id[v] for v in face]
        if x in face and y in face:
            cycle.remove(len(keep))
        out.append(cycle)
    return out, {new_id[v] for v in ideal} | {len(keep)}


def poly3_text(faces, ideal, comment: str) -> str:
    n = 1 + max(v for f in faces for v in f)
    lines = [f"# {comment}", "poly3 v1", f"vertices: {n}",
             "ideal: " + " ".join(str(v) for v in sorted(ideal))]
    lines += ["face: " + " ".join(str(v) for v in f) for f in faces]
    return "\n".join(lines) + "\n"


def relabel_and_reflect(faces, ideal, rng: random.Random):
    """The same type under a seeded vertex permutation, reversed face
    orientation, shuffled face order and rotated face starts."""
    n = 1 + max(v for f in faces for v in f)
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for face in faces:
        cycle = [perm[v] for v in reversed(face)]
        s = rng.randrange(len(cycle))
        out.append(cycle[s:] + cycle[:s])
    rng.shuffle(out)
    return out, {perm[v] for v in ideal}


def _item(name, faces, ideal, must_pass, rng) -> Item:
    vfaces, videal = relabel_and_reflect(faces, ideal, rng)
    small = any(len(f) + len(ideal.intersection(f)) < 5 for f in faces)
    return Item(name=name, faces=len(faces), cusps=len(ideal),
                text=poly3_text(faces, ideal, name),
                variant=poly3_text(vfaces, videal, name + " relabelled"),
                small_face=small, must_pass=must_pass)


def _random_item(name: str, n_faces: int, cusps: int, rng: random.Random) -> Item:
    while True:
        faces = dual_faces(random_triangulation(n_faces, rng))
        ideal: set[int] = set()
        for _ in range(cusps):
            step = contract(faces, ideal, rng)
            if step is None:
                break
            faces, ideal = step
        if len(ideal) == cusps:
            return _item(name, faces, ideal, False, rng)


def tail_faces() -> list[int]:
    span = TAIL_MAX_FACES - TAIL_MIN_FACES
    return [TAIL_MIN_FACES + round(span * k / (TAIL_ITEMS - 1)) for k in range(TAIL_ITEMS)]


def generate(seed: int) -> list[Item]:
    """The corpus for one seed; the same seed gives the same items."""
    rng = random.Random(seed)
    items = []
    for f in CENSUS_FACES:
        for cusps in range(3):
            for k in range(CENSUS_PER_CUSP_COUNT):
                items.append(_random_item(f"random-f{f}-c{cusps}-{k}", f, cusps, rng))
    for n in LOEBELL_N:
        faces = dual_faces(loebell_triangulation(n))
        items.append(_item(f"loebell-{n}", faces, set(), True, rng))
        cusped, ideal = contract(faces, set(), rng)
        items.append(_item(f"loebell-{n}-c1", cusped, ideal, True, rng))
    for k, f in enumerate(tail_faces()):
        items.append(_random_item(f"tail-f{f}-c{k % 3}-{k}", f, k % 3, rng))
    return items



def reference_slice() -> None:
    """A fixed slice of pure-Python graph work, under a millisecond, by
    which the benchmark measures how fast the host runs at the moment."""
    _random_item("reference", REFERENCE_FACES, 1, random.Random(0))
