"""Long-division oracle for vanishing sums of roots of unity.

The package decides vanishing sums only by the packed VanishingDecision.
This module keeps the independent route the tests compare it with: count the
exponents' residues into an ExponentMultiset, and divide the count
polynomial by Phi_m with poly_divrem.  rows_orthogonal and
is_spectral_pair_by_division apply it to every row pair, the pairwise
reference for is_log_hadamard and is_m_spectral.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from spectratile.cyclotomic import cyclotomic_polynomial
from spectratile.spectral import PhaseMatrix, PointSet

# A polynomial is its tuple of integer coefficients, lowest degree first,
# with no trailing zero; the zero polynomial is the empty tuple.
Poly = tuple[int, ...]


def strip(coefficients: Sequence[int]) -> Poly:
    """The coefficients without trailing zeros."""
    end = len(coefficients)
    while end and coefficients[end - 1] == 0:
        end -= 1
    return tuple(coefficients[:end])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return strip(out)


def poly_divrem(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder: num == quotient * den + remainder.

    The divisor must have leading coefficient 1 or -1 so the quotient stays
    integral; every divisor used here is a monic cyclotomic polynomial.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = den[-1]
    if lead not in (1, -1):
        raise ValueError(f"divisor leading coefficient must be +-1, got {lead}")
    rem = list(num)
    d = len(den) - 1
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * lead  # c // lead for lead in {1, -1}
        quo[i - d] = q
        for j, dc in enumerate(den):
            rem[i - d + j] -= q * dc
    return strip(quo), strip(rem)


@dataclass(frozen=True)
class ExponentMultiset:
    """Counts of each residue class mod m, i.e. a multiset of exponents."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.modulus:
            raise ValueError(
                f"expected {self.modulus} counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_exponents(cls, modulus: int, exponents: Iterable[int]) -> "ExponentMultiset":
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        counts = [0] * modulus
        for e in exponents:
            counts[e % modulus] += 1
        return cls(modulus, tuple(counts))

    def total(self) -> int:
        return sum(self.counts)

    def exponents(self) -> list[int]:
        """Each residue j, repeated counts[j] times, in ascending order."""
        return [j for j, c in enumerate(self.counts) for _ in range(c)]


def divides(counts: Sequence[int]) -> bool:
    """Whether Phi_m divides sum_j counts[j] * x^j, m = len(counts), by long division."""
    _, rem = poly_divrem(strip(counts), cyclotomic_polynomial(len(counts)))
    return not rem


def rows_orthogonal(rows: Sequence[Sequence[int]], m: int) -> bool:
    """Whether every two distinct rows of exponents over m differ by a
    vanishing sum: sum_j e((a_j - b_j)/m) = 0, decided by long division."""
    return all(
        divides(ExponentMultiset.from_exponents(m, map(operator.sub, a, b)).counts)
        for a, b in itertools.combinations(rows, 2)
    )


def is_log_hadamard_by_division(mat: PhaseMatrix) -> bool:
    """Whether the rows of a phase matrix are pairwise orthogonal."""
    return rows_orthogonal([mat.row(i) for i in range(mat.numerators.rows)], mat.denominator)


def is_spectral_pair_by_division(point_set: PointSet, spectrum: PhaseMatrix) -> bool:
    """Whether every two rows l, l' of the spectrum are orthogonal on the set:
    the phases l . t over the points t, for each row, pairwise orthogonal."""
    rows = [spectrum.numerators.row(i) for i in range(spectrum.numerators.rows)]
    phases = [[sum(map(operator.mul, row, t)) for t in point_set.points] for row in rows]
    return rows_orthogonal(phases, spectrum.denominator)
