"""Symbolic model of the hyperfaces through one cusp of a right-angled
n-polyhedron.

The 2(n-1) hyperfaces through a cusp come in parallel pairs; hyperface i is
paired with 2(n-1)+1-i (ids run 1..2(n-1)).  A k-face through the cusp is
the intersection of n-k of these hyperfaces, no two of them parallel, so it
is modelled as a pair-free subset.  This file also derives the rows of
surplus 3-faces used by the two-cusp exclusion argument in dimension six,
from the lemma stated in ``derive_rows``, and carries the surplus/deficit
averaging arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from typing import Iterable, Sequence

from . import enum3
from .nikulin import nikulin_rhs


@dataclass(frozen=True)
class CuspLink:
    """The hyperfaces through one cusp with the parallel-pair involution."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")

    @property
    def size(self) -> int:
        return 2 * (self.n - 1)

    def partner(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise ValueError(f"hyperface id {i} outside 1..{self.size}")
        return self.size + 1 - i

    def pair_free(self, s: Iterable[int]) -> bool:
        s = set(s)
        return all(self.partner(i) not in s for i in s)

    def cusp_faces(self, k: int) -> list[frozenset[int]]:
        """All k-faces through the cusp, as hyperface subsets of size n-k."""
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"face dimension {k} outside 1..{self.n - 1}")
        take = self.n - k
        return [frozenset(s) for s in combinations(range(1, self.size + 1), take)
                if self.pair_free(s)]


def count_cusp_faces(n: int, k: int) -> int:
    """Number of k-faces through a cusp of a right-angled n-polyhedron.

    Closed form C(n-1, n-k) * 2^(n-k); cross-checked against the explicit
    subset enumeration before returning.
    """
    link = CuspLink(n)
    formula = comb(n - 1, n - k) * 2 ** (n - k)
    enumerated = len(link.cusp_faces(k))
    if formula != enumerated:
        raise AssertionError(
            f"count mismatch for n={n} k={k}: formula {formula}, enumeration {enumerated}")
    return formula


def faces_through_edge(n: int) -> int:
    """Number of 3-faces containing a fixed edge through the cusp.

    The edge is cut out by n-1 pairwise non-parallel hyperfaces and a
    3-face containing it chooses n-3 of them: C(n-1, n-3).  Cross-checked
    against the link: the 3-faces through the cusp whose hyperfaces all
    belong to the first edge of ``cusp_faces(1)``.
    """
    if n < 4:
        raise ValueError("needs dimension at least 4")
    link = CuspLink(n)
    edge = link.cusp_faces(1)[0]
    formula = comb(n - 1, n - 3)
    enumerated = sum(1 for face in link.cusp_faces(3) if face <= edge)
    if formula != enumerated:
        raise AssertionError(
            f"count mismatch for n={n}: formula {formula}, enumeration {enumerated}")
    return formula


def is_adjacent(link: CuspLink, f: frozenset[int], g: frozenset[int]) -> bool:
    """Whether two equal-dimension cusp faces meet in a face one dimension
    lower: their union must define a face (pair-free) and their overlap must
    miss exactly one hyperface of each."""
    if len(f) != len(g):
        raise ValueError("faces have different dimensions")
    if f == g:
        return False
    return len(f & g) == len(f) - 1 and link.pair_free(f | g)


def carrier(t: int) -> frozenset[int]:
    """Hyperfaces through both cusps in the two-cusp case of class t in
    dimension six: the hyperfaces 1..t+3, so the second cusp lies on a
    common 3-face (t = 0), a common 2-face (t = 1) or an edge running
    between the cusps (t = 2).  A 3-face holding both cusps is a triple
    inside the carrier and lies on t two-cusp 2-faces, one per further
    carrier hyperface: t is the class of ``enum3.TWO_CUSP_FLOORS``."""
    return frozenset(range(1, t + 4))


def two_cusp_faces(t: int) -> set[frozenset[int]]:
    """The 3-faces containing both cusps: all triples inside the carrier."""
    return {frozenset(s) for s in combinations(sorted(carrier(t)), 3)}


# ---------------------------------------------------------------------------
# surplus rows of the two-cusp cases
# ---------------------------------------------------------------------------

#: The two-cusp cases in dimension six by name, each with its class t (see
#: ``carrier``), in ``verify tables`` order.
CASES = {"table1": 1, "table2": 2, "case41": 0}


def case_deficit(t: int) -> int:
    """Total deficit of the two-cusp case of class t: each 3-face through
    both cusps may have as few 2-faces as the census floor of class t, so
    it falls short of the strict average bound ``nikulin_rhs(6, 3, 2)`` by
    at most the ceiling of the difference."""
    strict = nikulin_rhs(6, 3, 2)
    return len(two_cusp_faces(t)) * ceil(strict - enum3.TWO_CUSP_FLOORS[t])


def derive_rows(t: int, count: int) -> list[tuple[frozenset[int], ...]]:
    """Up to ``count`` rows of the two-cusp case of class t with pairwise
    distinct members, each certifying one surplus 3-face by the lemma:

    Lemma.  Let {a, b, x, y, z} be pair-free and let none of the one-cusp
    3-faces {a, b, x}, {a, b, y}, {a, b, z} through the first cusp lie
    inside the carrier.  Then at least one of them has 13 or more 2-faces.

    Proof.  A one-cusp 3-face has at least ``enum3.ONE_CUSP_FLOOR`` = 12
    2-faces, and one with exactly 12 is the contracted dodecahedron
    (``enum3.verify_lemma31``), whose 2-faces around the cusp alternate
    4, 5, 4, 5.  In {a, b, x} the 2-faces {a, b, x, y} and {a, b, x, z} are
    neighbours around the cusp, since y and z are not parallel, so their
    sizes differ; likewise in the other two members.  Three sizes from
    {4, 5} cannot differ pairwise.

    The rows are found by first fit: cores a < b, then petals x < y < z
    from the ids other than a, b and their partners, both in lexicographic
    order; a row is skipped when a member lies inside the carrier or is
    already used.  ``verify_table`` checks the rows it returns.
    """
    link = CuspLink(6)
    shared = carrier(t)
    ids = range(1, link.size + 1)
    rows: list[tuple[frozenset[int], ...]] = []
    used: set[frozenset[int]] = set()
    for a, b in combinations(ids, 2):
        if b == link.partner(a):
            continue
        petals = [i for i in ids if i not in {a, b, link.partner(a), link.partner(b)}]
        for x, y, z in combinations(petals, 3):
            if len(rows) == count:
                return rows
            if not link.pair_free((x, y, z)):
                continue
            row = tuple(frozenset({a, b, p}) for p in (x, y, z))
            if used.isdisjoint(row) and not any(m <= shared for m in row):
                rows.append(row)
                used.update(row)
    return rows


@dataclass
class TableReport:
    t: int
    rows: int
    distinct_faces: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_table(t: int, rows: Sequence[Sequence[frozenset[int]]]) -> TableReport:
    """Check every row against the lemma of ``derive_rows``.

    Every row member must be a genuine 3-face through the first cusp only
    (pair-free triple not inside the carrier); row members must be pairwise
    adjacent and share exactly two hyperfaces, which together make the
    lemma's shape {a, b, x}, {a, b, y}, {a, b, z}; across the whole table
    all members must be distinct, so each row certifies a distinct surplus
    face.
    """
    link = CuspLink(6)
    shared = carrier(t)
    problems: list[str] = []
    if not link.pair_free(shared):
        problems.append(f"carrier {sorted(shared)} contains a parallel pair")
    seen: set[frozenset[int]] = set()
    for ri, row in enumerate(rows):
        if len(row) != 3:
            problems.append(f"row {ri}: expected 3 members, got {len(row)}")
            continue
        for member in row:
            s = sorted(member)
            if len(member) != 3 or not all(1 <= i <= link.size for i in s):
                problems.append(f"row {ri}: {s} is not a triple of hyperface ids")
            elif not link.pair_free(member):
                problems.append(f"row {ri}: {s} contains a parallel pair")
            elif member <= shared:
                problems.append(f"row {ri}: {s} lies inside the carrier (second cusp)")
            if member in seen:
                problems.append(f"row {ri}: {s} repeats an earlier member")
            seen.add(member)
        for a, b in combinations(row, 2):
            if not is_adjacent(link, a, b):
                problems.append(f"row {ri}: {sorted(a)} and {sorted(b)} are not adjacent")
        core = frozenset(row[0]).intersection(*row[1:])
        if len(core) != 2:
            problems.append(f"row {ri}: members share {sorted(core)}, not two hyperfaces")
    return TableReport(t=t, rows=len(rows),
                       distinct_faces=len(seen), problems=problems)


def verify_builtin(name: str) -> TableReport:
    """Derive the rows of the named two-cusp case, as many as its total
    deficit, and check them."""
    t = CASES[name]
    return verify_table(t, derive_rows(t, case_deficit(t)))


# ---------------------------------------------------------------------------
# averaging arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragingVerdict:
    total_bound: Fraction
    deficit_sum: int
    surplus_count: int

    @property
    def contradiction(self) -> bool:
        return self.surplus_count >= self.deficit_sum

    @property
    def margin(self) -> int:
        return self.surplus_count - self.deficit_sum

    def line(self) -> str:
        word = "contradiction" if self.contradiction else "no contradiction"
        return (f"surplus {self.surplus_count} vs deficit {self.deficit_sum}"
                f" against strict average bound {self.total_bound}: {word}")


def averaging_contradiction(total_bound: Fraction | int,
                            deficits: Sequence[int],
                            surplus_count: int) -> AveragingVerdict:
    """Strict-average counting argument.

    The average face count must stay strictly below ``total_bound``; every
    exceptional face may fall short by its deficit, every certified surplus
    face exceeds the bound by at least one.  As soon as the surpluses cover
    the total deficit the average reaches the bound, a contradiction.
    """
    if any(d < 0 for d in deficits):
        raise ValueError("deficits must be non-negative")
    if surplus_count < 0:
        raise ValueError("surplus count must be non-negative")
    return AveragingVerdict(total_bound=Fraction(total_bound),
                            deficit_sum=sum(deficits),
                            surplus_count=surplus_count)
