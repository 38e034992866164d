from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from orthocusp import EnumSpec, canonical_code, enumerate_types, maps, validate
from orthocusp.core import RIGHT_ANGLED_PROFILE
from orthocusp.enum3 import (FILTER_RIGHT_ANGLED, _candidates, _collect_chunk,
                             _is_canonical_augmentation, _pool_size,
                             _quads_keep_three_connected, triangulations)


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


def _assert_growth_matches_canonicalising_every_split(top):
    level = triangulations(4)
    for n in range(5, top + 1):
        found = {}
        for rot in level:
            for _, child in _splits(rot):
                code, canon, _ = maps.canonical_form(child)
                found.setdefault(code, canon)
        level = tuple(rot for _, rot in sorted(found.items()))
        assert level == triangulations(n), n


def test_growth_matches_canonicalising_every_split():
    """The canonical-augmentation filter drops no class: growth that
    canonicalises every split gives the same levels, tuple for tuple."""
    _assert_growth_matches_canonicalising_every_split(10)


@pytest.mark.slow
def test_growth_matches_canonicalising_every_split_to_11():
    _assert_growth_matches_canonicalising_every_split(11)


def test_augmentation_filter_uses_contractible_edges():
    """The filter keeps a child exactly when no edge of smaller key is
    contractible, i.e. lies only on facial triangles.  The key (sorted
    endpoint degrees, then sorted degrees of the two apexes) is read here
    from the traced triangles alone."""
    rejected = 0
    for n in range(4, 10):
        for rot in triangulations(n):
            for v, child in _splits(rot):
                faces = maps.faces_of_rotation(child)
                triangles = {frozenset(f) for f in faces}
                deg = Counter(x for f in faces for x in f)
                apexes: dict[frozenset, list[int]] = {}
                for f in faces:
                    for x in f:
                        apexes.setdefault(frozenset(f) - {x}, []).append(x)

                def key(edge):
                    return (sorted(deg[x] for x in edge)
                            + sorted(deg[x] for x in apexes[edge]))

                new = key(frozenset((v, len(child) - 1)))
                smaller = any(
                    key(edge) < new
                    and all(edge | {x} in triangles
                            for x in set(child[a]) & set(child[b]))
                    for edge in apexes for a, b in [tuple(edge)])
                assert _is_canonical_augmentation(child, v) == (not smaller)
                rejected += smaller
    assert rejected > 0


@pytest.fixture(scope="module")
def unfiltered_candidates():
    """``_collect_chunk`` without the prefilter for 1 and 2 cusps at levels
    4..10, with the number of canonical forms each run computed."""
    triangulations(10)
    out = {}
    calls = 0
    real = maps.canonical_form

    def counting(rot, *args):
        nonlocal calls
        calls += 1
        return real(rot, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "canonical_form", counting)
        for c in (1, 2):
            for n in range(4, 11):
                calls = 0
                found = _collect_chunk((triangulations(n), c, False))
                out[(n, c)] = (found, calls)
    return out


def _every_pick(rot, c):
    """(code, passes the right-angled prefilter) for every deletion of c
    edges sharing no triangle that leaves all degrees at least 3: the
    candidate stage without its least-diagonal rule."""
    triangles = {frozenset(f) for f in maps.faces_of_rotation(rot)}
    out = []
    for pick in combinations(maps.edge_set(rot), c):
        if c == 2 and frozenset(pick[0] + pick[1]) in triangles:
            continue
        cand = rot
        for u, v in pick:
            cand = maps.delete_edge(cand, u, v)
        if min(len(nbrs) for nbrs in cand) < 3:
            continue
        quads = Counter(x for f in maps.faces_of_rotation(cand) if len(f) == 4 for x in f)
        passes = all(len(nbrs) + quads[x] >= 5 for x, nbrs in enumerate(cand))
        out.append((maps.canonical_form(cand)[0], passes))
    return out


def test_least_diagonal_rule_keeps_every_candidate(unfiltered_candidates):
    """The candidate stage finds the same classes, with the prefilter on
    and off, as canonicalising every pick, and its rule drops picks."""
    rejected = 0
    for (n, c), (found, calls) in unfiltered_candidates.items():
        tris = triangulations(n)
        picks = [p for rot in tris for p in _every_pick(rot, c)]
        assert set(found) == {code for code, _ in picks}, (n, c)
        assert set(_collect_chunk((tris, c, True))) == {
            code for code, passes in picks if passes}, (n, c)
        assert calls <= len(picks)
        rejected += len(picks) - calls
    assert rejected > 0


def test_quad_pairs_decide_three_connectivity(unfiltered_candidates):
    """On every deduplicated 1- and 2-cusp candidate up to 10 faces, the
    quadrilateral-corner test agrees with the all-pairs test."""
    verdicts = Counter()
    for found, _ in unfiltered_candidates.values():
        for rot in found.values():
            got = _quads_keep_three_connected(rot, maps.faces_of_rotation(rot))
            assert got == maps.is_three_connected(rot), rot
            verdicts[got] += 1
    assert verdicts == {True: 1672 + 4498, False: 442 + 2349}


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
