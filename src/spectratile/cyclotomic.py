"""Exact decision of vanishing sums of roots of unity.

A multiset of m-th roots of unity sums to zero iff the cyclotomic polynomial
of index m divides the integer polynomial whose coefficient at x^j is the
count of the residue j.  That divisibility is decided by exact long division
over the integers, so the trusted path involves no floating point at all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "IntPolynomial",
    "ExponentMultiset",
    "MAX_CYCLOTOMIC_INDEX",
    "cyclotomic_polynomial",
    "poly_divrem",
    "poly_mul",
    "is_vanishing_sum",
]

MAX_CYCLOTOMIC_INDEX = 10_000


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients in ascending degree order.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is the empty tuple.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero() or b.is_zero():
        return IntPolynomial(())
    out = [0] * (len(a.coefficients) + len(b.coefficients) - 1)
    for i, ca in enumerate(a.coefficients):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coefficients):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_divrem(num: IntPolynomial, den: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Exact division with remainder: num == quotient * den + remainder.

    The divisor must have leading coefficient 1 or -1 so the quotient stays
    integral; every divisor used here is a monic cyclotomic polynomial.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead = den.coefficients[-1]
    if lead not in (1, -1):
        raise ValueError(f"divisor leading coefficient must be +-1, got {lead}")
    rem = list(num.coefficients)
    d = den.degree
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * lead  # c // lead for lead in {1, -1}
        quo[i - d] = q
        for j, dc in enumerate(den.coefficients):
            rem[i - d + j] -= q * dc
    return IntPolynomial(tuple(quo)), IntPolynomial(tuple(rem))


def _prime_divisors(m: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


@functools.lru_cache(maxsize=None)
def _cyclotomic(m: int) -> IntPolynomial:
    """Phi_m as the Moebius product of binomials (x^d - 1)^mu(m/d), d | m.

    mu(m/d) is nonzero only when m/d is a product of distinct primes of m.
    The binomials with mu = +1 are multiplied in, then those with mu = -1
    divided out exactly; each step is one O(degree) shift-and-subtract.
    """
    squarefree = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of m
    for p in _prime_divisors(m):
        squarefree += [(e * p, -mu) for e, mu in squarefree]
    coeffs = [1]
    for e, mu in squarefree:
        if mu == 1:
            d = m // e
            product = [0] * d + coeffs  # x^d * P - P
            for i, c in enumerate(coeffs):
                product[i] -= c
            coeffs = product
    for e, mu in squarefree:
        if mu == -1:
            d = m // e
            # Q with (x^d - 1) * Q == P, from the bottom: Q[i] = Q[i - d] - P[i].
            size = len(coeffs) - d
            for i in range(size):
                coeffs[i] = (coeffs[i - d] if i >= d else 0) - coeffs[i]
            # The top d coefficients of P must be Q's, shifted up by d.
            assert coeffs[size:] == [coeffs[i - d] if i >= d else 0 for i in range(size, size + d)]
            del coeffs[size:]
    return IntPolynomial(tuple(coeffs))


def cyclotomic_polynomial(m: int, bound: int = MAX_CYCLOTOMIC_INDEX) -> IntPolynomial:
    """The m-th cyclotomic polynomial, memoized across calls."""
    if not 1 <= m <= bound:
        raise ValueError(f"index must lie in [1, {bound}], got {m}")
    return _cyclotomic(m)


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


def is_vanishing_sum(exps: ExponentMultiset) -> bool:
    """Whether sum_j counts[j] * exp(2*pi*i*j/m) equals zero, decided exactly.

    The empty sum vanishes by convention.
    """
    if exps.total() == 0:
        return True
    poly = IntPolynomial(exps.counts)
    _, rem = poly_divrem(poly, cyclotomic_polynomial(exps.modulus))
    return rem.is_zero()
