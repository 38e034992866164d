"""Exact face-average bounds for acute-angled finite-volume polyhedra.

Everything is computed in ``fractions.Fraction``; averages, bounds and the
compact-exclusion certificate are exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import FaceLattice


@dataclass(frozen=True)
class AuditRecord:
    k: int
    l: int
    average: Fraction
    bound: Fraction

    @property
    def strict_ok(self) -> bool:
        """Whether the average lies strictly below the bound (the inequality
        is strict; boundary equality counts as a failure)."""
        return self.average < self.bound


@dataclass(frozen=True)
class NikulinAudit:
    """One record per admissible (k, l) pair, l < k <= floor(n/2)."""

    dimension: int
    records: tuple[AuditRecord, ...]


def face_average(lattice: FaceLattice, k: int, l: int) -> Fraction:
    """Average number of l-faces over all k-faces, as an exact rational.

    Cusps are not faces: a half-infinite edge contributes a single
    0-face, an edge running between two cusps contributes none.
    """
    if not 0 <= l < k <= lattice.dimension - 1:
        raise ValueError(f"need 0 <= l < k <= {lattice.dimension - 1}, got k={k} l={l}")
    count = lattice.a(k)
    if not count:
        raise ValueError(f"lattice has no {k}-dimensional faces")
    return Fraction(sum(lattice.count_below(k, i, l) for i in range(count)), count)


def nikulin_rhs(n: int, k: int, l: int) -> Fraction:
    """Right-hand side of the face-average inequality for an acute-angled
    finite-volume n-polyhedron, valid for l < k <= floor(n/2)."""
    if not 0 <= l < k:
        raise ValueError(f"need 0 <= l < k, got k={k} l={l}")
    if k > n // 2:
        raise ValueError(f"bound only applies for k <= floor(n/2) = {n // 2}")
    lo = n // 2
    hi = (n + 1) // 2
    return Fraction(comb(n - l, n - k) * (comb(lo, l) + comb(hi, l)),
                    comb(lo, k) + comb(hi, k))


def audit(lattice: FaceLattice) -> NikulinAudit:
    """Compare every admissible face average against its strict bound.

    A violated record proves the lattice is not the face lattice of any
    acute-angled finite-volume polyhedron.  Pairs whose k-grade is empty are
    skipped (a lattice with a face in every grade has none).
    """
    n = lattice.dimension
    records = tuple(AuditRecord(k=k, l=l, average=face_average(lattice, k, l),
                                bound=nikulin_rhs(n, k, l))
                    for k in range(1, n // 2 + 1) if lattice.a(k) for l in range(k))
    return NikulinAudit(dimension=n, records=records)


@dataclass(frozen=True)
class SmallDimReport:
    dimension: int
    checks: tuple[tuple[str, int, int, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def lines(self) -> list[str]:
        return [f"{name}: {got} >= {need}: {'ok' if ok else 'FAIL'}"
                for name, got, need, ok in self.checks]


def check_small(lattice: FaceLattice) -> SmallDimReport:
    """Face-count floors in dimensions 2 and 3.

    Dimension 2: edge count plus cusp count at least 5 (so a compact
    polygon needs at least 5 edges).  Dimension 3: at least 6 faces, and
    faces plus twice the cusps at least 12.
    """
    n = lattice.dimension
    if n == 2:
        a1 = lattice.a(1)
        c = lattice.cusp_count()
        checks = [("a1+c", a1 + c, 5, a1 + c >= 5)]
        if c == 0:
            checks.append(("a1 (compact)", a1, 5, a1 >= 5))
        return SmallDimReport(2, tuple(checks))
    if n == 3:
        a2 = lattice.a(2)
        c = lattice.cusp_count()
        return SmallDimReport(3, (
            ("a2", a2, 6, a2 >= 6),
            ("a2+2c", a2 + 2 * c, 12, a2 + 2 * c >= 12),
        ))
    raise ValueError(f"small-dimension checks apply to dimension 2 or 3, got {n}")


@dataclass(frozen=True)
class CompactExclusion:
    dimension: int
    bound: Fraction
    floor: int

    @property
    def excluded(self) -> bool:
        return self.bound <= self.floor


def compact_exclusion(n: int) -> CompactExclusion:
    """Certificate that no compact right-angled n-polyhedron exists.

    Compactness forces every 2-face to carry at least 5 edges, so the
    average a_2^1 is at least 5; whenever the strict bound is at most 5
    this is impossible.  Holds for every n >= 5.  The bound equals the
    floor 5 exactly at n=5 and n=6 and is below it from n=7 on, which is why
    ``excluded`` compares with ``<=``.
    """
    if n < 5:
        raise ValueError("compact exclusion is only claimed for n >= 5")
    return CompactExclusion(dimension=n, bound=nikulin_rhs(n, 2, 1), floor=5)
