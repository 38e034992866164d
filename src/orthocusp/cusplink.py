"""Symbolic model of the hyperfaces through one cusp of a right-angled
n-polyhedron.

The 2(n-1) hyperfaces through a cusp come in parallel pairs; hyperface i is
paired with 2(n-1)+1-i (ids run 1..2(n-1)).  A k-face through the cusp is
the intersection of n-k of these hyperfaces, no two of them parallel, so it
is modelled as a pair-free subset.  This file also carries the built-in
adjacency tables used by the two-cusp exclusion argument in dimension six
and the surplus/deficit averaging arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence


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
# built-in tables
# ---------------------------------------------------------------------------

def _rows(spec: Sequence[Sequence[Sequence[int]]]):
    return tuple(tuple(frozenset(m) for m in row) for row in spec)


#: Rows of pairwise-adjacent one-cusp 3-faces for the case of a single
#: shared 2-face (class t = 1, carrier {1,2,3,4}); each row certifies one
#: face that must exceed the twelve-face minimum.
TABLE1 = _rows([
    [(1, 2, 6), (1, 2, 7), (1, 2, 8)],
    [(1, 3, 6), (1, 3, 7), (1, 3, 9)],
    [(1, 4, 6), (1, 4, 8), (1, 4, 9)],
    [(1, 5, 7), (1, 5, 8), (1, 5, 9)],
    [(2, 3, 6), (2, 3, 7), (2, 3, 10)],
    [(2, 4, 6), (2, 4, 8), (2, 4, 10)],
    [(2, 5, 7), (2, 5, 8), (2, 5, 10)],
    [(3, 4, 6), (3, 4, 9), (3, 4, 10)],
    [(3, 5, 7), (3, 5, 9), (3, 5, 10)],
    [(4, 5, 8), (4, 5, 9), (4, 5, 10)],
    [(2, 6, 10), (2, 7, 10), (2, 8, 10)],
    [(3, 6, 10), (3, 7, 10), (3, 9, 10)],
])

#: Rows for the case of an edge joining the two cusps (t = 2, carrier {1,...,5}).
TABLE2 = TABLE1 + _rows([
    [(4, 6, 10), (4, 8, 10), (4, 9, 10)],
    [(5, 7, 10), (5, 8, 10), (5, 9, 10)],
    [(1, 6, 9), (1, 7, 9), (1, 8, 9)],
    [(6, 9, 10), (7, 9, 10), (8, 9, 10)],
    [(1, 7, 8), (2, 7, 8), (5, 7, 8)],
    [(6, 7, 8), (7, 8, 9), (7, 8, 10)],
    [(1, 6, 7), (2, 6, 7), (3, 6, 7)],
    [(2, 6, 8), (4, 6, 8), (6, 8, 10)],
])

#: Rows for the case of a single shared 3-face (t = 0, carrier {1,2,3}).
CASE41_ROWS = _rows([
    [(1, 2, 4), (1, 2, 5), (1, 2, 8)],
    [(1, 4, 5), (2, 4, 5), (4, 5, 8)],
    [(1, 4, 6), (2, 4, 6), (4, 6, 8)],
    [(1, 3, 9), (1, 4, 9), (1, 5, 9)],
])

#: Each table with the class t of its two-cusp case (see ``carrier``).
BUILTIN_TABLES: dict[str, tuple[int, tuple]] = {
    "table1": (1, TABLE1),
    "table2": (2, TABLE2),
    "case41": (0, CASE41_ROWS),
}


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
    """Re-derive the validity of an adjacency table instead of trusting it.

    Every row member must be a genuine 3-face through the first cusp only
    (pair-free triple not inside the carrier); row members must be pairwise
    adjacent; across the whole table all members must be distinct, so each
    row certifies a distinct surplus face.
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
    return TableReport(t=t, rows=len(rows),
                       distinct_faces=len(seen), problems=problems)


def verify_builtin(name: str) -> TableReport:
    t, rows = BUILTIN_TABLES[name]
    return verify_table(t, rows)


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
