from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orthocusp import Polyhedron3, contract_edge, enum3
from orthocusp.data import load_fixture


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
    return enum3.two_cusp_minima(budget=10)


@pytest.fixture(scope="session")
def oracle_counts():
    """Counts from the independent brute-force generator (slow)."""
    from oracle import count_dual_types

    counts = {}
    for quads in (0, 1, 2):
        for n in range(4, 9):
            counts[(n, quads)] = count_dual_types(n, quads)
    return counts
