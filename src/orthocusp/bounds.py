"""Certified cusp-count lower bounds for right-angled hyperbolic polyhedra.

Every entry of the final table is backed by a machine-checkable arithmetic
trail: the dimension-6 entry by the one-cusp and two-cusp averaging
contradictions, the dimension-7 entry by a per-cusp-count polynomial
certificate, and dimensions 8 through 12 by an integer recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from . import cusplink, enum3
from .nikulin import nikulin_rhs

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
    """
    if not 2 <= l <= m:
        raise ValueError(f"need 2 <= l <= m, got l={l}, m={m}")
    acc = -45 * comb(m - l, 2) - 45 * l * (m - l) - 28 * comb(l, 2)
    acc += sum(3 * (240 - 15 * j) for j in range(1, m))
    return acc


def n7_polynomial(l: int, m: int) -> int:
    """Closed form 17*l^2 - 17*l - 90*m^2 + 1530*m - 1440.

    Twice ``n7_preform``; a right-angled 7-polyhedron requires it to be
    strictly negative, so a non-negative value rules the cusp count out.
    """
    return 17 * l * l - 17 * l - 90 * m * m + 1530 * m - 1440


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
        out = []
        for e in self.entries:
            out.append(f"m={e.m}: one-cusp 3-faces >= {e.one_cusp_floor} > 0,"
                       f" polynomial {e.polynomial} >= 0 -> impossible")
        out.append(f"cusp count >= {self.bound}")
        return out


def n7_certificate() -> N7Certificate:
    """Rule out every cusp count m = ``N6_BOUND``..16 for dimension seven.

    Each facet is a right-angled 6-polyhedron whose cusps are cusps of the
    whole, so m >= ``N6_BOUND``.  For each m the count of 3-faces through a
    fixed cusp carrying no other cusp stays positive (240 - 15*(m-1) > 0,
    from ``count_cusp_faces(7, 3)`` and ``faces_through_edge(7)``), so the
    averaging derivation applies, while the polynomial certificate is
    non-negative at l = 2, hence at every l <= m since 17l^2 - 17l
    increases; together those exclude m.  Hence at least 17 cusps.
    """
    faces = cusplink.count_cusp_faces(7, 3)
    per_cusp = cusplink.faces_through_edge(7)
    bound = 17
    entries = tuple(
        N7Entry(m=m, one_cusp_floor=faces - per_cusp * (m - 1), polynomial=n7_polynomial(2, m))
        for m in range(N6_BOUND, bound))
    return N7Certificate(entries=entries, bound=bound)


# ---------------------------------------------------------------------------
# dimensions 8..12: recursion
# ---------------------------------------------------------------------------

def lemma61(n: int, m: int) -> int:
    """Cusp floor 3m - 2n + 1 for an n-polyhedron (8 <= n <= 12) all of
    whose hyperfaces carry at least m cusps.

    Refuses m < 2(n-1): the derivation divides by m-1 and needs the
    coefficient (m - 2(n-1))/(m-1) to be non-negative.
    """
    if n not in RECURSION_RANGE:
        raise ValueError("recursion covers dimensions 8..12 only")
    if m < 2 * (n - 1):
        raise ValueError(f"need m >= 2(n-1) = {2 * (n - 1)}, got {m}")
    return 3 * m - 2 * n + 1


def chained_floor(n: int, m: int) -> Fraction:
    """Exact value of the chained estimate
    2m - 2 + (2n-3)/(m-1) + m(m-2(n-1))/(m-1); algebraically equal to
    3m - 2n + 1, which the tests pin."""
    if m < 2:
        raise ValueError("need m >= 2")
    return (2 * m - 2 + Fraction(2 * n - 3, m - 1)
            + Fraction(m * (m - 2 * (n - 1)), m - 1))


# ---------------------------------------------------------------------------
# assembled certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class N6Certificate:
    """The four contradictions excluding one or two cusps in dimension six:
    the strict face-average bound, and the three two-cusp table cases."""

    strict_bound: Fraction
    one_cusp_floor: int
    cases: tuple[tuple[str, cusplink.AveragingVerdict], ...]

    @property
    def complete(self) -> bool:
        return (self.one_cusp_floor >= self.strict_bound
                and all(v.contradiction for _, v in self.cases))

    def lines(self) -> list[str]:
        out = [f"one cusp: every 3-face needs >= {self.one_cusp_floor} 2-faces,"
               f" average must stay < {self.strict_bound}: contradiction"]
        for name, verdict in self.cases:
            out.append(f"two cusps, {name}: {verdict.line()}")
        return out


@dataclass(frozen=True)
class BoundsCertificate:
    table: dict[int, int]
    n6: N6Certificate
    n7: N7Certificate

    def lines(self, expand: bool = False) -> list[str]:
        out = [f"n={n} c>={self.table[n]}" for n in sorted(self.table)]
        if expand:
            out.append("")
            out.append("dimension 6:")
            out.extend("  " + s for s in self.n6.lines())
            out.append("dimension 7:")
            out.extend("  " + s for s in self.n7.lines())
            out.append("dimensions 8..12:")
            out.extend(f"  n={n}: 3*{self.table[n - 1]} - {2 * n} + 1 = {self.table[n]}"
                       for n in RECURSION_RANGE)
        return out


def main_bounds() -> BoundsCertificate:
    """Assemble the certified lower-bound table for dimensions 6..12."""
    strict = nikulin_rhs(6, 3, 2)
    cases = []
    for name, (t, _) in cusplink.BUILTIN_TABLES.items():
        report = cusplink.verify_builtin(name)
        if not report.ok:
            raise AssertionError(f"built-in table {name} failed verification")
        deficits = [ceil(strict - enum3.TWO_CUSP_FLOORS[t])] * len(cusplink.two_cusp_faces(t))
        cases.append((t, name, cusplink.averaging_contradiction(strict, deficits, report.rows)))
    cases.sort(key=lambda c: c[0])
    n6 = N6Certificate(strict_bound=strict, one_cusp_floor=enum3.ONE_CUSP_FLOOR,
                       cases=tuple((name, verdict) for _, name, verdict in cases))
    if not n6.complete:
        raise AssertionError("dimension-6 certificate incomplete: " + "; ".join(n6.lines()))

    n7 = n7_certificate()
    if not n7.complete:
        raise AssertionError("dimension-7 certificate incomplete")

    table = {6: N6_BOUND, 7: n7.bound}
    for n in RECURSION_RANGE:
        table[n] = lemma61(n, table[n - 1])
    return BoundsCertificate(table=table, n6=n6, n7=n7)
