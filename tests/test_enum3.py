from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path

import pytest

from orthocusp import (EnumSpec, Polyhedron3, canonical_code, check_right_angled, core, dual,
                       enum3, enumerate_types, maps, to_poly3, validate)
from orthocusp.core import RIGHT_ANGLED_PROFILE
from orthocusp.enum3 import (SpecError, _candidates, _dualize,
                             _is_canonical_augmentation, _level_candidates, triangulations)
from oracle import edge_set, is_three_connected


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


def _groups(n):
    """The recorded automorphisms other than the identity of each
    triangulation with n vertices."""
    triangulations(n)
    return [group for _, group in enum3._LEVELS[n]]


def _tutte_count(n):
    """Rooted simple sphere triangulations with n vertices (Tutte, 1962)."""
    m = n - 3
    return 2 * factorial(4 * m + 1) // (factorial(m + 1) * factorial(3 * m + 2))


def _mass(n):
    """The classes with n vertices weighted by 4E/|Aut±|, with the
    recorded groups: the rooted triangulations they stand for."""
    return sum(Fraction(4 * (3 * n - 6), 1 + len(group)) for group in _groups(n))


def test_tutte_mass_formula():
    """Each level's mass counts the rooted triangulations exactly: a lost
    class lowers the sum and a duplicated one raises it."""
    masses = []
    for n in range(4, 13):
        assert _mass(n) == _tutte_count(n), n
        masses.append(_mass(n))
    assert masses == [1, 3, 13, 68, 399, 2530, 16965, 118668, 857956]


def _cusped_mass_sides(n, c):
    """Both sides of the mass identity for c cusps at level n.

    Left: each triangulation T weighted by 1/|Aut±T| times its picks of c
    pairwise non-cofacial edges that leave every degree at least 3 and
    that the pick verdict of ``_candidates`` calls 3-connected.  Right:
    each 3-connected class Q that ``_level_candidates`` yields, weighted
    by 1/|Aut±Q| times its completions, the choices of one diagonal per
    quadrilateral that is no edge of Q and no other chosen diagonal.  Both
    count the pairs (T, pick) up to isomorphism, each over its stabiliser,
    so a lost class lowers the right side and a repeated one raises it."""
    left = Fraction(0)
    for rot, group in enum3._LEVELS[n]:
        triangles = {frozenset(f) for f in maps.faces_of_rotation(rot)[0]}
        apexes = {(u, v): (nbrs[t - 1], nbrs[(t + 1) % len(nbrs)])
                  for u, nbrs in enumerate(rot) for t, v in enumerate(nbrs) if u < v}
        picks = 0
        for pick in combinations(apexes, c):
            if any(frozenset(e + f) in triangles for e, f in combinations(pick, 2)):
                continue
            lost = Counter(x for e in pick for x in e)
            if any(len(nbrs) - lost[x] < 3 for x, nbrs in enumerate(rot)):
                continue
            pairs = {apexes[e] for e in pick}
            picks += len({frozenset(ab) for ab in pairs}) == c and all(
                b not in rot[a] for a, b in pairs)
        left += Fraction(picks, 1 + len(group))
    right = Fraction(0)
    for _, canon in _level_candidates(enum3._LEVELS[n], c, False):
        if canon is None:
            continue
        edges = {frozenset(e) for e in edge_set(canon)}
        quads = [f for f in maps.faces_of_rotation(canon)[0] if len(f) == 4]
        completions = sum(
            len(set(diagonals)) == c and edges.isdisjoint(diagonals)
            for diagonals in product(*[(frozenset(q[::2]), frozenset(q[1::2])) for q in quads]))
        right += Fraction(completions, len(maps.canonical_form(canon)[2]))
    return left, right


def test_cusped_mass_identity():
    """With 0, 1 and 2 cusps at every level 4..10, the picks weighted by
    the triangulations' groups equal the completions weighted by the
    candidate classes' groups: the candidate stage loses no 3-connected
    class and yields none twice."""
    triangulations(10)
    for c in (0, 1, 2):
        for n in range(4, 11):
            left, right = _cusped_mass_sides(n, c)
            assert left == right, (n, c)
    assert right == Fraction(30225, 2)   # two cusps at level 10


@pytest.mark.slow
def test_level_13_counts_and_tutte_mass():
    """Growth from the stored level 12 to 13 vertices, which no other test
    reaches: the 49,566 classes of OEIS A000109, and a mass equal to
    Tutte's count."""
    assert len(triangulations(13)) == 49566
    assert _mass(13) == _tutte_count(13) == 6369883


def _assert_groups_match_networkx(levels):
    """The recorded automorphisms and the identity are distinct
    edge-preserving permutations as many as the graph's automorphisms,
    which by Whitney's theorem are Aut± for a 3-connected planar graph."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    for n in levels:
        for rot, group in zip(triangulations(n), _groups(n)):
            edges = set(edge_set(rot))
            G = nx.Graph(list(edges))
            perms = {tuple(range(n)), *group}
            assert len(perms) == 1 + len(group), rot
            for g in group:
                assert {tuple(sorted((g[u], g[v]))) for u, v in edges} == edges, (rot, g)
            assert len(perms) == sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter()), rot


def test_automorphism_groups_match_networkx():
    _assert_groups_match_networkx(range(4, 11))


@pytest.mark.slow
def test_automorphism_groups_match_networkx_at_11():
    _assert_groups_match_networkx([11])


@pytest.fixture(scope="module")
def cold_growth():
    """One growth from an empty store to 12 vertices, with the stored levels
    of a warm growth, the number of canonical forms computed, the count of
    ``maps.split_vertex`` calls made inside each ``triangulations(n)`` call,
    and the levels the cold growth stored."""
    triangulations(12)
    warm = dict(enum3._LEVELS)
    forms = 0
    running = []
    splits = Counter()
    real_form, real_split, real_level = maps.canonical_form, maps.split_vertex, enum3.triangulations

    def counting_form(*args):
        nonlocal forms
        forms += 1
        return real_form(*args)

    def counting_split(*args):
        splits[running[-1] if running else None] += 1
        return real_split(*args)

    def level(n):
        running.append(n)
        try:
            return real_level(n)
        finally:
            running.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "canonical_form", counting_form)
        mp.setattr(maps, "split_vertex", counting_split)
        mp.setattr(enum3, "triangulations", level)
        mp.setattr(enum3, "_LEVELS", {})
        classes = sum(len(enum3.triangulations(n)) for n in range(4, 13))
        cold = dict(enum3._LEVELS)
    return warm, classes, forms, dict(splits), cold


def test_cold_growth_form_count(cold_growth):
    """Growth from an empty store to 12 vertices computes 10,514 canonical
    forms for the 9,150 classes and gives the stored levels again, pair
    for pair."""
    warm, classes, forms, _, cold = cold_growth
    assert classes == 9150
    assert forms == 10514
    for n in range(4, 13):
        assert cold[n] == warm[n], n


def test_cold_growth_makes_every_split_in_its_level(cold_growth):
    """Growth from an empty store calls ``maps.split_vertex`` once per
    split of every parent, sum C(deg, 2) over the parent level, and each
    call happens while the ``triangulations(n)`` call that builds level n
    runs: the split counts the benchmark's traced growth gate pins."""
    warm, _, _, splits, _ = cold_growth
    want = {n: sum(comb(len(nbrs), 2) for rot, _ in warm[n - 1] for nbrs in rot)
            for n in range(5, 13)}
    assert want[12] == 150139 and sum(want.values()) == 179583
    assert splits == want


def test_growth_store_digest():
    """The stored levels to 12 vertices, canonical rotations and
    automorphisms, are pinned byte for byte."""
    triangulations(12)
    store = repr([enum3._LEVELS[n] for n in range(4, 13)]).encode()
    assert hashlib.sha256(store).hexdigest() == (
        "9170499b175e176b3c4dc1b62af859fd7a6944148116f56a348bc8580af22ee8")


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


def _assert_far_edge_shortcut_exact(top):
    rejected = 0
    for n in range(4, top):
        for rot in triangulations(n):
            beats = enum3._far_edge_beats(rot)
            for v, nbrs in enumerate(rot):
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        if beats[v][j - i]:
                            assert not _is_canonical_augmentation(
                                maps.split_vertex(rot, v, i, j), v), (rot, v, i, j)
                            rejected += 1
    assert rejected > 0


def test_far_edge_shortcut_rejects_only_failing_splits():
    """Every split up to 10 vertices that growth rejects by a far
    contractible edge, before running the filter, fails the filter."""
    _assert_far_edge_shortcut_exact(10)


@pytest.mark.slow
def test_far_edge_shortcut_rejects_only_failing_splits_to_11():
    _assert_far_edge_shortcut_exact(11)


def test_augmentation_filter_uses_contractible_edges():
    """The filter keeps a child exactly when no edge of smaller key is
    contractible, i.e. lies only on facial triangles.  The key (sorted
    endpoint degrees, then sorted degrees of the two apexes) is read here
    from the traced triangles alone."""
    rejected = 0
    for n in range(4, 10):
        for rot in triangulations(n):
            for v, child in _splits(rot):
                faces, _ = maps.faces_of_rotation(child)
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
    """``_level_candidates`` without the prefilter for 1 and 2 cusps at levels
    4..10, with the number of canonical forms each run computed and every
    (code, canon_rot, 3-connected) triple ``_candidates`` gave it."""
    triangulations(10)
    out = {}
    calls = 0
    picks = []
    real_form, real_candidates = maps.canonical_form, enum3._candidates

    def counting(rot, *args):
        nonlocal calls
        calls += 1
        return real_form(rot, *args)

    def recording(*args):
        got = real_candidates(*args)
        picks.extend(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "canonical_form", counting)
        mp.setattr(enum3, "_candidates", recording)
        for c in (1, 2):
            for n in range(4, 11):
                calls = 0
                picks = []
                found = dict(_level_candidates([(rot, ()) for rot in triangulations(n)], c, False))
                out[(n, c)] = (found, calls, picks)
    return out


def _every_pick(rot, c):
    """(code, passes the right-angled prefilter) for every deletion of c
    edges sharing no triangle that leaves all degrees at least 3: the
    candidate stage without its least-diagonal rule."""
    triangles = {frozenset(f) for f in maps.faces_of_rotation(rot)[0]}
    out = []
    for pick in combinations(edge_set(rot), c):
        if c == 2 and frozenset(pick[0] + pick[1]) in triangles:
            continue
        cand = rot
        for u, v in pick:
            cand = maps.delete_edge(cand, u, v)
        if min(len(nbrs) for nbrs in cand) < 3:
            continue
        quads = Counter(x for f in maps.faces_of_rotation(cand)[0] if len(f) == 4 for x in f)
        passes = all(len(nbrs) + quads[x] >= 5 for x, nbrs in enumerate(cand))
        out.append((maps.canonical_form(cand)[0], passes))
    return out


def test_least_diagonal_rule_keeps_every_candidate(unfiltered_candidates):
    """The candidate stage finds the same classes, with the prefilter on
    and off, as canonicalising every pick, and its rule drops picks."""
    rejected = 0
    for (n, c), (found, calls, _) in unfiltered_candidates.items():
        tris = triangulations(n)
        picks = [p for rot in tris for p in _every_pick(rot, c)]
        assert set(found) == {code for code, _ in picks}, (n, c)
        assert set(dict(_level_candidates([(rot, ()) for rot in tris], c, True))) == {
            code for code, passes in picks if passes}, (n, c)
        assert calls <= len(picks)
        rejected += len(picks) - calls
    assert rejected > 0


def test_orbit_rule_keeps_every_candidate(monkeypatch, unfiltered_candidates):
    """The candidate stage finds the same codes with the recorded Aut±
    as with none, for 0, 1 and 2 cusps at levels 4..10, with the prefilter
    on and off, and computes fewer canonical forms with it.  The runs with
    no group for 1 and 2 cusps without the prefilter are the fixture's."""
    calls = Counter()
    real = maps.canonical_form

    def counting(*args):
        calls[filtered] += 1
        return real(*args)

    monkeypatch.setattr(maps, "canonical_form", counting)
    for c in (0, 1, 2):
        for n in range(4, 11):
            tris = triangulations(n)
            for prefilter in (False, True):
                filtered = True
                got = dict(_level_candidates(enum3._LEVELS[n], c, prefilter))
                if c and not prefilter:
                    want, count, _ = unfiltered_candidates[(n, c)]
                    calls[False] += count
                else:
                    filtered = False
                    want = dict(_level_candidates([(rot, ()) for rot in tris], c, prefilter))
                assert set(got) == set(want), (n, c, prefilter)
    assert calls[True] < calls[False]


def _assert_verdicts_match_oracle(picks):
    """Each verdict in the (code, canon_rot, 3-connected) triples ``picks``
    equals the all-pairs test on its candidate, and every pick of one
    class gets the same.  Returns the verdict of each class, by code."""
    verdicts = {}
    for code, canon, got in picks:
        if code not in verdicts:
            verdicts[code] = got
            assert got == is_three_connected(canon), canon
        assert verdicts[code] == got, canon
    return verdicts


def test_pick_decides_three_connectivity(unfiltered_candidates):
    """On every pick of 1 and 2 edges up to 10 faces that the candidate
    stage canonicalises, the 3-connectivity verdict decided on the pick
    agrees with the all-pairs test, and the deduplicated candidates carry
    those verdicts."""
    verdicts = Counter()
    for (n, c), (found, _, picks) in unfiltered_candidates.items():
        by_code = _assert_verdicts_match_oracle(picks)
        assert {code: rot is not None for code, rot in found.items()} == by_code, (n, c)
        verdicts.update(by_code.values())
    assert verdicts == {True: 1672 + 4498, False: 442 + 2349}


@pytest.mark.slow
def test_pick_decides_three_connectivity_three_cusps():
    """The same with three deleted edges, up to 9 vertices, where two or
    three of them can share an apex pair."""
    verdicts = Counter()
    for n in range(4, 10):
        picks = [p for rot in triangulations(n) for p in _candidates(rot, (), 3, False)]
        verdicts.update(_assert_verdicts_match_oracle(picks).values())
    assert verdicts[True] and verdicts[False]


def _census_rule_verdicts(top):
    """``EnumSpec.admits`` on the dual of every distinct candidate with 1
    or 2 cusps up to ``top`` faces, 3-connected or not, checked against
    the all-pairs test on the candidate; returns the count of each
    verdict."""
    verdicts = Counter()
    triangulations(top)
    for c in (1, 2):
        seen = set()
        for n in range(4, top + 1):
            for rot, group in enum3._LEVELS[n]:
                for code, canon, _ in _candidates(rot, group, c, False):
                    if code in seen:
                        continue
                    seen.add(code)
                    got = EnumSpec(top, c).admits(_dualize(canon, *maps.faces_of_rotation(canon)))
                    assert got == is_three_connected(canon), canon
                    verdicts[got] += 1
    return verdicts


def test_census_rule_decides_three_connectivity():
    """The census membership rule reads 3-connectivity of the dual map off
    the polyhedron, at its cusps, and agrees with the all-pairs test on
    all 1,207 distinct candidates up to 9 faces."""
    assert _census_rule_verdicts(9) == {True: 827, False: 380}


@pytest.mark.slow
def test_census_rule_decides_three_connectivity_to_10():
    assert _census_rule_verdicts(10) == {True: 1672 + 4498, False: 442 + 2349}


@pytest.mark.parametrize("cusps, want", [
    (1, {6: 1, 7: 2, 8: 12, 9: 59, 10: 368}),
    (2, {6: 1, 7: 5, 8: 37, 9: 263, 10: 2043})])
def test_nonpolyhedral_tally_pinned(cusps, want):
    """The candidates up to 10 faces that are not 3-connected, counted per
    face count and never emitted: 442 with one cusp, 2,349 with two."""
    report = enumerate_types(EnumSpec(10, cusps))
    assert report.nonpolyhedral_by_faces == want


def test_dualize_matches_core_dual(unfiltered_candidates):
    """On every deduplicated 0-, 1- and 2-cusp candidate up to 10 faces,
    ``_dualize`` gives the face cycles of ``core.dual`` of the unmarked
    map, each from the same vertex, and its ideal vertices are exactly
    the quadrilateral faces of the map."""
    triangulations(10)
    maps_by_cusps = {0: [rot for n in range(4, 11) for rot in dict(_level_candidates(
        enum3._LEVELS[n], 0, False)).values()]}
    for (_, c), (_, _, picks) in unfiltered_candidates.items():
        # the rotation of every class, 3-connected or not
        maps_by_cusps.setdefault(c, []).extend({code: rot for code, rot, _ in picks}.values())
    for c, rots in maps_by_cusps.items():
        for rot in rots:
            faces, face_of = maps.faces_of_rotation(rot)
            quads = frozenset(i for i, f in enumerate(faces) if len(f) == 4)
            want = dual(Polyhedron3(len(rot), frozenset(), tuple(faces)))
            got = _dualize(rot, faces, face_of)
            assert len(quads) == c
            assert (got.vertex_count, got.faces) == (want.vertex_count, want.faces)
            assert got.ideal_vertices == quads


def test_each_emitted_type_validated_once(monkeypatch):
    """Without the right-angled filter, an enumeration validates each
    emitted type once and closes its rotation system once."""
    triangulations(8)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core, "validate", counted("validate", core.validate))
    monkeypatch.setattr("orthocusp.enum3.validate", core.validate)
    monkeypatch.setattr(maps, "_close_rotation", counted("rotation", maps._close_rotation))
    report = enumerate_types(EnumSpec(8, 2))
    assert calls == {"validate": len(report.types), "rotation": len(report.types)}


@pytest.mark.parametrize("spec", [EnumSpec(8, 2), EnumSpec(9, 2, realizable=True)],
                         ids=["all", "right-angled"])
def test_emitted_types_keep_no_validation(spec):
    """An emitted type parses a fresh instance on each access, so no
    emitted polyhedron holds a cached property, such as the structural pass
    ``validate`` keeps: a census holds thousands of types at once."""
    report = enumerate_types(spec)
    assert report.types
    names = {f.name for f in fields(Polyhedron3)}
    assert all(vars(t.polyhedron).keys() == names for t in report.types)


#: Grows the levels to 10 vertices, then prints the process's peak
#: resident set (``VmHWM``, in kB) before and after the 10-face two-cusp
#: census, and the census's type count.
CENSUS_MEMORY_CHILD = """
from orthocusp.enum3 import EnumSpec, enumerate_types, triangulations

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

triangulations(10)
before = peak_kb()
report = enumerate_types(EnumSpec(10, 2))
print(before, peak_kb(), len(report.types))
"""


def test_census_memory_bounded():
    """A census keeps each level's codes and each type's POLY3 text, not a
    rotation per class or a polyhedron per type: with the levels grown,
    ``enumerate_types(EnumSpec(10, 2))`` raises the peak resident set of a
    fresh process by less than 8 MiB (4.5 MiB here); holding both raised
    it by 11.2 MiB.  The peak is Linux's ``VmHWM`` in ``/proc/self/status``."""
    env = dict(os.environ, PYTHONPATH=str(Path(enum3.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", CENSUS_MEMORY_CHILD], env=env,
                            capture_output=True, text=True, check=True)
    before, after, types = map(int, result.stdout.split())
    assert types == 4498
    assert (after - before) * 1024 < 8 * 2**20


def test_deficit_screen_matches_prefilter():
    """A triangulation whose deficit exceeds 2c, which the candidate stage
    skips, has no candidate passing the right-angled prefilter."""
    screened = 0
    for n in range(4, 11):
        for rot in triangulations(n):
            deficit = sum(max(0, 5 - len(nbrs)) for nbrs in rot)
            for c in (0, 1, 2):
                if deficit > 2 * c:
                    assert _candidates(rot, (), c, True) == [], (n, c, rot)
                    screened += 1
    assert screened > 0


def test_every_type_validates(enum_all_9):
    """Every type up to 9 faces validates, and its kept POLY3 text is that
    of the polyhedron it parses to, with the type's code."""
    for cusps, report in enum_all_9.items():
        for t in report.types:
            p = t.polyhedron
            rep = validate(p, RIGHT_ANGLED_PROFILE)
            assert rep.clean
            assert len(p.ideal_vertices) == cusps
            assert to_poly3(p) == t.poly3
            assert canonical_code(p) == t.code


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


def test_budget_cap_enforced(monkeypatch):
    """Every spec is refused above 13 faces, and the unfiltered two-cusp
    census above 12, before any growth; the right-angled two-cusp census
    keeps 13."""
    def no_growth(n):
        raise AssertionError(f"grew level {n} for a refused spec")

    monkeypatch.setattr(enum3, "triangulations", no_growth)
    for spec, cap in ((EnumSpec(14, 0), 13), (EnumSpec(14, 1, realizable=True), 13),
                      (EnumSpec(13, 2), 12), (EnumSpec(14, 2), 12)):
        with pytest.raises(SpecError, match=f"face budget {spec.max_faces} above cap {cap}$"):
            enumerate_types(spec)
    with pytest.raises(AssertionError, match="grew level 4"):
        enumerate_types(EnumSpec(13, 2, realizable=True))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(8, 3)
    with pytest.raises(ValueError):
        EnumSpec(8, 0, "everything")
    # 1 == True, so the table alone would take it
    with pytest.raises(SpecError, match="^no census covers cusp count 0 with realizable=1$"):
        EnumSpec(8, 0, 1)


def test_nonpolyhedral_counted_not_emitted(enum_all_small):
    report = enum_all_small[2]
    assert sum(report.nonpolyhedral_by_faces.values()) > 0
    # emitted types are exactly the 3-connected ones; re-check a sample
    for t in report.types[:10]:
        assert is_three_connected(core.require_valid(t.polyhedron).rotation)


def test_right_angled_filter_is_a_subset(enum_all_small):
    accepted = enumerate_types(EnumSpec(8, 2, realizable=True))
    assert set(accepted.codes) <= set(enum_all_small[2].codes)


def test_right_angled_filter_keeps_every_passing_type(enum_all_9):
    """The prefilter and the deficit screen drop no type that passes
    ``check_right_angled``: up to 9 faces, with 0, 1 and 2 cusps, the
    right-angled census is exactly the passing unfiltered types, in order."""
    for cusps, report in enum_all_9.items():
        accepted = enumerate_types(EnumSpec(9, cusps, realizable=True))
        passing = [t.code for t in report.types
                   if check_right_angled(t.polyhedron).verdict == "pass"]
        assert accepted.codes == passing, cusps


def test_right_angled_filter_rejects_after_the_prefilter(monkeypatch):
    """At budget 12 with two cusps, one type passes the prefilter and
    3-connectivity but fails ``check_right_angled`` on condition (e), with
    one witness, and is not emitted."""
    real = enum3.check_right_angled
    verdicts = []

    def recording(p):
        report = real(p)
        verdicts.append((len(p.faces), report))
        return report

    monkeypatch.setattr(enum3, "check_right_angled", recording)
    report = enumerate_types(EnumSpec(12, 2, realizable=True))
    assert report.counts_by_faces == {8: 1, 9: 1, 10: 2, 11: 4, 12: 15}
    [(faces, rejected)] = [(f, r) for f, r in verdicts if r.verdict != "pass"]
    assert (faces, rejected.verdict) == (12, "fail")
    assert {k: len(v) for k, v in rejected.entries.items() if v} == {"e": 1}
    assert len(report.types) == len(verdicts) - 1


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


def test_two_cusp_minima_needs_every_floor_reached(two_cusp_report):
    """A floor that no accepted type reaches is not certified."""
    counts = {k: v for k, v in two_cusp_report.counts.items() if k != (2, 10)}
    assert not replace(two_cusp_report, counts=counts).ok


def test_two_cusp_accepted_counts_regression(two_cusp_report):
    # regression pin of this generator's accepted census at budget 10
    assert dict(two_cusp_report.counts) == {
        (0, 8): 1, (0, 10): 1, (1, 9): 1, (2, 10): 1}
