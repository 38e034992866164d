"""Tests of the seeded corpus generator.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
They use only the generator, never the program under test.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpus  # noqa: E402


def _parse(text: str) -> tuple[int, set[int], list[list[int]]]:
    n, ideal, faces = 0, set(), []
    for line in text.splitlines():
        if line.startswith("vertices:"):
            n = int(line.split(":")[1])
        elif line.startswith("ideal:"):
            ideal = {int(t) for t in line.split(":")[1].split()}
        elif line.startswith("face:"):
            faces.append([int(t) for t in line.split(":")[1].split()])
    return n, ideal, faces


def _check_structure(text: str, cusps: int) -> None:
    """Euler's relation, each edge once in each direction, trivalent finite
    vertices, 4-valent cusps, and no vertex repeated inside a face."""
    n, ideal, faces = _parse(text)
    darts = Counter((f[k - 1], f[k]) for f in faces for k in range(len(f)))
    assert all(c == 1 for c in darts.values())
    assert all((v, u) in darts for (u, v) in darts)
    edges = len(darts) // 2
    assert n - edges + len(faces) == 2
    assert all(len(set(f)) == len(f) >= 3 for f in faces)
    degree = Counter(u for (u, _) in darts)
    assert sorted(degree) == list(range(n))
    assert len(ideal) == cusps
    for v in range(n):
        assert degree[v] == (4 if v in ideal else 3)


@pytest.fixture(scope="module")
def items():
    return corpus.generate(7)


def test_same_seed_same_bytes(items):
    again = corpus.generate(7)
    assert [(i.text, i.variant) for i in again] == [(i.text, i.variant) for i in items]


def test_other_seed_other_items(items):
    other = corpus.generate(8)
    assert [i.text for i in other] != [i.text for i in items]
    assert [(i.faces, i.cusps) for i in other] == [(i.faces, i.cusps) for i in items]


def test_euler_and_trivalence(items):
    for item in items:
        _check_structure(item.text, item.cusps)
        _check_structure(item.variant, item.cusps)
        assert len(_parse(item.text)[2]) == item.faces


def test_composition(items):
    assert len(items) == 200
    faces = Counter(i.faces for i in items)
    assert sum(c for f, c in faces.items() if 8 <= f <= 16) >= 160
    assert max(faces) == corpus.TAIL_MAX_FACES
    assert Counter(i.cusps for i in items) == Counter({0: 68, 1: 68, 2: 64})
    assert [i.name for i in items if i.must_pass] == [
        "loebell-5", "loebell-5-c1", "loebell-6", "loebell-6-c1",
        "loebell-7", "loebell-7-c1", "loebell-8", "loebell-8-c1"]


def test_loebell_shape():
    for n in range(5, 9):
        faces = corpus.dual_faces(corpus.loebell_triangulation(n))
        assert sorted(len(f) for f in faces) == [5] * (2 * n) + [n, n]
        _check_structure(corpus.poly3_text(faces, set(), "L"), 0)


def test_variant_is_a_relabelling(items):
    for item in items[:20]:
        n, ideal, faces = _parse(item.text)
        vn, videal, vfaces = _parse(item.variant)
        assert vn == n and len(videal) == len(ideal)
        assert sorted(len(f) for f in vfaces) == sorted(len(f) for f in faces)


def test_random_triangulation_is_simple():
    rot = corpus.random_triangulation(20, random.Random(3))
    assert len(rot) == 20
    assert all(len(set(nbrs)) == len(nbrs) >= 3 for nbrs in rot)
    assert all(v in rot[u] for v, nbrs in enumerate(rot) for u in nbrs)
    assert sum(len(nbrs) for nbrs in rot) == 2 * (3 * 20 - 6)
