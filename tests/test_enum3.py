from __future__ import annotations

import pytest

from orthocusp import EnumSpec, canonical_code, enumerate_types, maps, validate
from orthocusp.core import RIGHT_ANGLED_PROFILE
from orthocusp.enum3 import (FILTER_RIGHT_ANGLED, _candidates,
                             _is_canonical_augmentation, _pool_size, triangulations)


#: Counts frozen from the independent brute-force generator (see oracle.py);
#: keys are (faces, cusps).
ORACLE_FROZEN = {
    (4, 0): 1, (5, 0): 1, (6, 0): 2, (7, 0): 5, (8, 0): 14,
    (4, 1): 0, (5, 1): 1, (6, 1): 2, (7, 1): 8, (8, 1): 38,
    (4, 2): 0, (5, 2): 0, (6, 2): 1, (7, 2): 9, (8, 2): 64,
}


def test_counts_match_frozen_oracle_values(enum_all_small):
    for (faces, cusps), want in ORACLE_FROZEN.items():
        got = enum_all_small[cusps].counts_by_faces.get(faces, 0)
        assert got == want, (faces, cusps, got, want)


def test_counts_match_live_oracle(enum_all_small, oracle_counts):
    for (faces, cusps), want in oracle_counts.items():
        got = enum_all_small[cusps].counts_by_faces.get(faces, 0)
        assert got == want, (faces, cusps)


def test_oracle_agrees_with_frozen():
    # guards the frozen constants themselves against drift
    from oracle import count_dual_types
    assert count_dual_types(7, 1) == ORACLE_FROZEN[(7, 1)]
    assert count_dual_types(7, 2) == ORACLE_FROZEN[(7, 2)]


def test_triangulation_level_counts():
    # OEIS A000109
    known = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}
    for n, want in known.items():
        assert len(triangulations(n)) == want


def _splits(rot):
    """Every vertex split of ``rot`` as (split vertex, child)."""
    for v, nbrs in enumerate(rot):
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                yield v, maps.split_vertex(rot, v, i, j)


def test_growth_matches_canonicalising_every_split():
    """The canonical-augmentation filter drops no class: growth that
    canonicalises every split gives the same levels, tuple for tuple."""
    level = triangulations(4)
    for n in range(5, 11):
        found = {}
        for rot in level:
            for _, child in _splits(rot):
                code, canon, _ = maps.canonical_form(child)
                found.setdefault(code, canon)
        level = tuple(rot for _, rot in sorted(found.items()))
        assert level == triangulations(n), n


def test_augmentation_filter_uses_contractible_edges():
    """The filter keeps a child exactly when no edge of smaller sorted
    degree pair is contractible, i.e. lies only on facial triangles."""
    rejected = 0
    for n in range(4, 10):
        for rot in triangulations(n):
            for v, child in _splits(rot):
                faces = {frozenset(f) for f in maps.faces_of_rotation(child)}
                deg = [len(nbrs) for nbrs in child]
                key = sorted((deg[v], deg[-1]))
                smaller = any(
                    sorted((deg[a], deg[b])) < key
                    and all(frozenset((a, b, x)) in faces
                            for x in set(child[a]) & set(child[b]))
                    for a, b in maps.edge_set(child))
                assert _is_canonical_augmentation(child, v) == (not smaller)
                rejected += smaller
    assert rejected > 0


def test_deficit_screen_matches_prefilter():
    """A triangulation whose deficit exceeds 2c, which the candidate stage
    skips, has no candidate passing the right-angled prefilter."""
    screened = 0
    for n in range(4, 11):
        for rot in triangulations(n):
            deficit = sum(max(0, 5 - len(nbrs)) for nbrs in rot)
            for c in (0, 1, 2):
                if deficit > 2 * c:
                    assert _candidates(rot, c, True) == [], (n, c, rot)
                    screened += 1
    assert screened > 0


def test_pool_size_clamped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _pool_size(10_000, 10_000) == 2
    assert _pool_size(10_000, 1) == 1
    assert _pool_size(1, 10_000) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(10_000, 10_000) == 1


def test_every_type_validates(enum_all_small):
    for cusps, report in enum_all_small.items():
        for t in report.types:
            rep = validate(t.polyhedron, RIGHT_ANGLED_PROFILE)
            assert rep.clean
            assert len(t.polyhedron.ideal_vertices) == cusps


def test_degree_balance(enum_all_small):
    # 2E = 3 * finite vertices + 4 * cusps for the almost-simple profile
    for cusps, report in enum_all_small.items():
        for t in report.types:
            p = t.polyhedron
            finite = p.vertex_count - len(p.ideal_vertices)
            assert 2 * p.edge_count == 3 * finite + 4 * cusps


def test_codes_distinct(enum_all_small):
    for report in enum_all_small.values():
        codes = report.codes
        assert len(codes) == len(set(codes))


def test_codes_injective_against_vf2(enum_all_small):
    """Independent isomorphism cross-check: distinct canonical codes must
    mean non-isomorphic skeletons (marks are degree-determined here)."""
    import networkx as nx

    types = enum_all_small[1].types
    graphs = []
    for t in types:
        if t.faces > 7:
            continue
        G = nx.Graph()
        G.add_nodes_from(range(t.polyhedron.vertex_count))
        G.add_edges_from(t.polyhedron.edges)
        graphs.append((t.code, G))
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            ci, Gi = graphs[i]
            cj, Gj = graphs[j]
            if Gi.number_of_nodes() == Gj.number_of_nodes():
                assert not (ci != cj and nx.is_isomorphic(Gi, Gj))


def test_budget_monotonicity():
    small = enumerate_types(EnumSpec(7, 1))
    large = enumerate_types(EnumSpec(8, 1))
    assert set(small.codes) <= set(large.codes)


def test_deterministic_output():
    a = enumerate_types(EnumSpec(8, 2))
    b = enumerate_types(EnumSpec(8, 2))
    assert a.codes == b.codes
    assert [t.polyhedron for t in a.types] == [t.polyhedron for t in b.types]


def test_worker_partitioning_equivalence():
    try:
        parallel = enumerate_types(EnumSpec(8, 1), workers=2)
    except (OSError, PermissionError) as exc:  # no process pool in sandbox
        pytest.skip(f"process pool unavailable: {exc}")
    serial = enumerate_types(EnumSpec(8, 1))
    assert serial.codes == parallel.codes
    assert [t.polyhedron for t in serial.types] == [t.polyhedron for t in parallel.types]


def test_budget_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_types(EnumSpec(14, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(8, 3)
    with pytest.raises(ValueError):
        EnumSpec(8, 0, "everything")


def test_nonpolyhedral_counted_not_emitted(enum_all_small):
    report = enum_all_small[2]
    assert sum(report.nonpolyhedral_by_faces.values()) > 0
    # emitted types are exactly the 3-connected ones; re-check a sample
    from orthocusp import maps
    for t in report.types[:10]:
        assert maps.is_three_connected(t.polyhedron.rotation())


def test_right_angled_filter_is_a_subset(enum_all_small):
    accepted = enumerate_types(EnumSpec(8, 2, FILTER_RIGHT_ANGLED))
    assert set(accepted.codes) <= set(enum_all_small[2].codes)


def test_one_cusp_report(one_cusp_report):
    assert one_cusp_report.ok
    assert one_cusp_report.counts_by_faces == {12: 1}
    assert one_cusp_report.face_sizes == [4, 4] + [5] * 10
    assert one_cusp_report.cusp_cycle_sizes in ((4, 5, 4, 5), (5, 4, 5, 4))
    assert not one_cusp_report.quads_adjacent
    assert one_cusp_report.matches_contracted_dodecahedron


def test_compact_report(enum_right_angled_compact_12, dodecahedron):
    report = enum_right_angled_compact_12
    assert report.counts_by_faces == {12: 1}
    assert report.types[0].code == canonical_code(dodecahedron)


def test_two_cusp_minima(two_cusp_report):
    assert two_cusp_report.ok
    assert two_cusp_report.floors == {0: 8, 1: 9, 2: 10}
    firsts = {}
    for (cls, faces), _count in sorted(two_cusp_report.counts.items()):
        firsts.setdefault(cls, faces)
    assert firsts == {0: 8, 1: 9, 2: 10}


def test_two_cusp_accepted_counts_regression(two_cusp_report):
    # regression pin of this generator's accepted census at budget 10
    assert dict(two_cusp_report.counts) == {
        (0, 8): 1, (0, 10): 1, (1, 9): 1, (2, 10): 1}
