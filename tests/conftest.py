from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orthocusp import Polyhedron3, contract_edge, enum3
from orthocusp.data import FIXTURES, load_fixture


@pytest.fixture(scope="session")
def cube():
    return load_fixture("cube")


@pytest.fixture(scope="session")
def tetrahedron():
    return load_fixture("tetrahedron")


@pytest.fixture(scope="session")
def prism():
    return load_fixture("triangular_prism")


@pytest.fixture(scope="session")
def pyramid():
    return load_fixture("square_pyramid")


@pytest.fixture(scope="session")
def dodecahedron():
    return load_fixture("dodecahedron")


@pytest.fixture(scope="session")
def one_cusp_12(dodecahedron):
    """The unique one-cusp type with 12 faces: an edge-contracted dodecahedron."""
    return contract_edge(dodecahedron, dodecahedron.edges[0])


@pytest.fixture(scope="session")
def k_gonal_prism():
    """Factory for the k-gonal prism, with 2k vertices and k + 2 faces."""
    def build(k: int) -> Polyhedron3:
        bottom = tuple(range(k - 1, -1, -1))
        top = tuple(range(k, 2 * k))
        sides = tuple((i, (i + 1) % k, k + (i + 1) % k, k + i) for i in range(k))
        return Polyhedron3(2 * k, frozenset(), (bottom, top) + sides)
    return build


@pytest.fixture(scope="session")
def loebell():
    """Factory for the Loebell polyhedron L(n), n >= 5: two n-gons, each
    ringed by n pentagons, with 4n vertices and 2n + 2 faces.  L(5) is the
    dodecahedron."""
    def build(n: int) -> Polyhedron3:
        top = tuple(range(n))
        bottom = tuple(3 * n + i for i in range(n - 1, -1, -1))
        upper, lower = [], []
        for i in range(n):
            j = (i + 1) % n
            upper.append((j, i, n + i, 2 * n + i, n + j))
            lower.append((n + j, 2 * n + i, 3 * n + i, 3 * n + j, 2 * n + j))
        return Polyhedron3(4 * n, frozenset(), (top, bottom) + tuple(upper) + tuple(lower))
    return build


@pytest.fixture(scope="session")
def subdivided_cube(cube):
    """The cube with a new vertex 8 on its edge 0-3 and vertex 2 marked
    ideal: faces 0 and 5 through vertex 8 share two edges, and vertex 8
    has degree 2."""
    faces = [list(f) for f in cube.faces]
    faces[0].insert(1, 8)   # on edge 0-3 of faces 0 and 5
    faces[5].insert(1, 8)
    return Polyhedron3(9, frozenset({2}), tuple(map(tuple, faces)))


@pytest.fixture(scope="session")
def enum_all_9():
    """All-almost-simple reports for budget 9, by cusp count 0, 1 and 2."""
    return {c: enum3.enumerate_types(enum3.EnumSpec(9, c)) for c in (0, 1, 2)}


@pytest.fixture(scope="session")
def incidence_corpus(k_gonal_prism, subdivided_cube, enum_all_9):
    """Valid polyhedra for checking incidence readers against the face-scan
    references: the fixtures, every type with at most 9 faces and 0, 1 or
    2 cusps, the k-gonal prisms for k = 3..12 and the subdivided cube."""
    polys = [load_fixture(name) for name in FIXTURES]
    for report in enum_all_9.values():
        polys += [t.polyhedron for t in report.types]
    polys += [k_gonal_prism(k) for k in range(3, 13)]
    polys.append(subdivided_cube)
    return polys


@pytest.fixture(scope="session")
def rng():
    return random.Random(0x5eed)


# expensive enumeration runs shared across test modules; the triangulation
# cache inside enum3 is process-global, so later budgets reuse earlier work

@pytest.fixture(scope="session")
def enum_all_small():
    """All-almost-simple reports for budgets up to 8, all cusp counts."""
    return {c: enum3.enumerate_types(enum3.EnumSpec(8, c)) for c in (0, 1, 2)}


@pytest.fixture(scope="session")
def enum_right_angled_compact_12():
    return enum3.enumerate_types(enum3.EnumSpec(12, 0, enum3.FILTER_RIGHT_ANGLED))


@pytest.fixture(scope="session")
def one_cusp_report():
    return enum3.verify_lemma31()


@pytest.fixture(scope="session")
def two_cusp_report():
    return enum3.two_cusp_minima()


@pytest.fixture(scope="session")
def oracle_counts():
    """Counts from the independent brute-force generator (slow)."""
    from oracle import count_dual_types

    counts = {}
    for quads in (0, 1, 2):
        for n in range(4, 9):
            counts[(n, quads)] = count_dual_types(n, quads)
    return counts
