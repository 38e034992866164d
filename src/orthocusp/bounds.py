"""Certified cusp-count lower bounds for right-angled hyperbolic polyhedra.

Every entry of the final table is backed by a machine-checkable arithmetic
trail: the dimension-6 entry by the compact exclusion and the one-cusp and
two-cusp averaging contradictions, the dimension-7 entry by a
per-cusp-count polynomial certificate, and dimensions 8 through 12 by an
integer recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import cusplink, enum3
from .nikulin import CompactExclusion, compact_exclusion, nikulin_rhs

#: Dimensions covered by the recursion step.
RECURSION_RANGE = range(8, 13)

#: Least cusp count in dimension six: the dimension-6 certificate excludes
#: one and two cusps.
N6_BOUND = 3


# ---------------------------------------------------------------------------
# dimension 7: polynomial certificate
# ---------------------------------------------------------------------------

def n7_preform(l: int, m: int) -> int:
    """Accumulated deficit/surplus estimate for a 7-polyhedron with m cusps
    whose distinguished 3-face carries l cusps.

    Value of -45*C(m-l,2) - 45*l*(m-l) - 28*C(l,2) + sum_{j=1}^{m-1} 3*(240-15j).
    Twice it is the polynomial 17*l^2 - 17*l - 90*m^2 + 1530*m - 1440; a
    right-angled 7-polyhedron requires it to be strictly negative, so a
    non-negative value rules the cusp count out.
    """
    if not 2 <= l <= m:
        raise ValueError(f"need 2 <= l <= m, got l={l}, m={m}")
    acc = -45 * comb(m - l, 2) - 45 * l * (m - l) - 28 * comb(l, 2)
    acc += sum(3 * (240 - 15 * j) for j in range(1, m))
    return acc


@dataclass(frozen=True)
class N7Entry:
    m: int
    one_cusp_floor: int
    polynomial: int

    @property
    def impossible(self) -> bool:
        """The derivation applies (some 3-face keeps a single cusp) while
        the required strict negativity fails."""
        return self.one_cusp_floor > 0 and self.polynomial >= 0


@dataclass(frozen=True)
class N7Certificate:
    entries: tuple[N7Entry, ...]
    bound: int

    @property
    def complete(self) -> bool:
        return all(e.impossible for e in self.entries)

    def lines(self) -> list[str]:
        out = [f"m={e.m}: one-cusp 3-faces >= {e.one_cusp_floor}"
               f" {'>' if e.one_cusp_floor > 0 else '<='} 0,"
               f" polynomial {e.polynomial} {'>=' if e.polynomial >= 0 else '<'} 0"
               f" -> {'impossible' if e.impossible else 'not excluded'}" for e in self.entries]
        out.append(f"cusp count >= {self.bound}" + ("" if self.complete else " not shown"))
        return out


def n7_certificate() -> N7Certificate:
    """Rule out every cusp count m = ``N6_BOUND``..16 for dimension seven.

    Each facet is a right-angled 6-polyhedron whose cusps are cusps of the
    whole, so m >= ``N6_BOUND``.  For each m the count of 3-faces through a
    fixed cusp carrying no other cusp stays positive (240 - 15*(m-1) > 0,
    from ``count_cusp_faces(7, 3)`` and ``faces_through_edge(7)``), so the
    averaging derivation applies, while the polynomial certificate, twice
    ``n7_preform``, is non-negative at l = 2, hence at every l <= m since
    17l^2 - 17l increases; together those exclude m.  Hence at least 17
    cusps.
    """
    faces = cusplink.count_cusp_faces(7, 3)
    per_cusp = cusplink.faces_through_edge(7)
    bound = 17
    entries = tuple(
        N7Entry(m=m, one_cusp_floor=faces - per_cusp * (m - 1), polynomial=2 * n7_preform(2, m))
        for m in range(N6_BOUND, bound))
    return N7Certificate(entries=entries, bound=bound)


# ---------------------------------------------------------------------------
# dimensions 8..12: recursion
# ---------------------------------------------------------------------------

def lemma61(n: int, m: int) -> int:
    """Cusp floor for an n-polyhedron (8 <= n <= 12) all of whose
    hyperfaces carry at least m cusps: the chained estimate
    2m - 2 + (2n-3)/(m-1) + m(m-2(n-1))/(m-1), which m-1 divides exactly
    to 3m - 2n + 1.

    Refuses m < 2(n-1): the derivation divides by m-1 and needs the
    coefficient (m - 2(n-1))/(m-1) to be non-negative.
    """
    if n not in RECURSION_RANGE:
        raise ValueError("recursion covers dimensions 8..12 only")
    if m < 2 * (n - 1):
        raise ValueError(f"need m >= 2(n-1) = {2 * (n - 1)}, got {m}")
    return 2 * m - 2 + (2 * n - 3 + m * (m - 2 * (n - 1))) // (m - 1)


# ---------------------------------------------------------------------------
# assembled certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class N6Certificate:
    """The five contradictions excluding up to two cusps in dimension six: the
    compact exclusion, the strict face-average bound, and the three two-cusp
    cases on their checked ``tables``."""

    compact: CompactExclusion
    strict_bound: Fraction
    one_cusp_floor: int
    tables: dict[str, cusplink.TableReport]
    cases: tuple[tuple[str, cusplink.AveragingVerdict], ...]

    @property
    def complete(self) -> bool:
        return (self.compact.excluded and all(rep.ok for rep in self.tables.values())
                and self.one_cusp_floor >= self.strict_bound
                and all(v.contradiction for _, v in self.cases))

    def lines(self) -> list[str]:
        out = [f"{head}, average must stay < {bound}: {'' if ok else 'no '}contradiction"
               for head, bound, ok in (
                   (f"no cusp: every 2-face needs >= {self.compact.floor} edges",
                    self.compact.bound, self.compact.excluded),
                   (f"one cusp: every 3-face needs >= {self.one_cusp_floor} 2-faces",
                    self.strict_bound, self.one_cusp_floor >= self.strict_bound))]
        out += [f"two cusps, {name}: {verdict.line()}" for name, verdict in self.cases]
        return out


@dataclass(frozen=True)
class BoundsCertificate:
    table: dict[int, int]
    n6: N6Certificate
    n7: N7Certificate

    @property
    def complete(self) -> bool:
        return self.n6.complete and self.n7.complete

    def lines(self, expand: bool = False) -> list[str]:
        out = [f"n={n} c>={self.table[n]}" for n in sorted(self.table)]
        if expand:
            out.append("")
            for n, part in ((6, self.n6), (7, self.n7)):
                out += [f"dimension {n}:", *("  " + s for s in part.lines())]
            out.append("dimensions 8..12:")
            out.extend(f"  n={n}: 3*{self.table[n - 1]} - {2 * n} + 1 = {self.table[n]}"
                       for n in RECURSION_RANGE)
        return out

    def refusal(self) -> str:
        """The failed row checks, then the trail of each incomplete dimension."""
        out = [f"{name}: {p}" for name, rep in self.n6.tables.items() for p in rep.problems]
        for n, part in ((6, self.n6), (7, self.n7)):
            if not part.complete:
                out += [f"dimension {n}:", *("  " + s for s in part.lines())]
        return "\n".join(out)


def main_bounds() -> BoundsCertificate:
    """Assemble the table for dimensions 6..12 and its trail, checking each case's rows once."""
    strict = nikulin_rhs(6, 3, 2)
    tables = {name: cusplink.verify_builtin(name) for name in cusplink.CASES}
    cases = tuple((name, cusplink.averaging_contradiction(
                      strict, [cusplink.case_deficit(t)], tables[name].rows))
                  for name, t in sorted(cusplink.CASES.items(), key=lambda c: c[1]))
    n6 = N6Certificate(compact=compact_exclusion(6), strict_bound=strict,
                       one_cusp_floor=enum3.ONE_CUSP_FLOOR, tables=tables, cases=cases)
    n7 = n7_certificate()
    table = {6: N6_BOUND, 7: n7.bound}
    for n in RECURSION_RANGE:
        table[n] = lemma61(n, table[n - 1])
    return BoundsCertificate(table=table, n6=n6, n7=n7)
