"""Exact decision of vanishing sums of roots of unity.

A multiset of m-th roots of unity sums to zero iff the cyclotomic polynomial
of index m divides the integer polynomial whose coefficient at x^j is the
count of the residue j.  Since x^m - 1 is Phi_m times the inverse cyclotomic
polynomial Psi_m = (x^m - 1)/Phi_m, that divisibility holds exactly when the
product with Psi_m vanishes mod x^m - 1.  VanishingDecision decides it on
count polynomials packed into ints: two int products and one comparison, in
integer arithmetic throughout, so the trusted path involves no floating point
at all.  Both Phi_m and Psi_m come from one Moebius product of binomials.
Long division (poly_divrem) stays as public API and as the tests' oracle.
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
    "inverse_cyclotomic_polynomial",
    "VanishingDecision",
    "vanishing_decision",
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
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coefficients", coeffs[:end])

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


def _check_index(m: int, bound: int) -> None:
    if not 1 <= m <= bound:
        raise ValueError(f"index must lie in [1, {bound}], got {m}")


@functools.lru_cache(maxsize=None)
def _moebius_product(m: int, inverse: bool) -> IntPolynomial:
    """Phi_m, or Psi_m = (x^m - 1)/Phi_m when inverse, as a product of binomials.

    Phi_m is the product of (x^(m/e) - 1)^mu(e) over the squarefree divisors e
    of m.  Psi_m is the same product with every exponent negated and e = 1
    left out, where x^m - 1 cancels.  The binomials with exponent +1 are
    multiplied in, then those with exponent -1 divided out exactly; each step
    is one O(degree) shift-and-subtract.
    """
    squarefree = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of m
    for p in _prime_divisors(m):
        squarefree += [(e * p, -mu) for e, mu in squarefree]
    factors = [(m // e, -mu if inverse else mu) for e, mu in squarefree if e > 1 or not inverse]
    coeffs = [1]
    for d, power in factors:
        if power == 1:
            product = [0] * d + coeffs  # x^d * P - P
            for i, c in enumerate(coeffs):
                product[i] -= c
            coeffs = product
    for d, power in factors:
        if power == -1:
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
    _check_index(m, bound)
    return _moebius_product(m, False)


def inverse_cyclotomic_polynomial(m: int) -> IntPolynomial:
    """Psi_m = (x^m - 1)/Phi_m, the product of Phi_d over d | m, d < m; memoized."""
    _check_index(m, MAX_CYCLOTOMIC_INDEX)
    return _moebius_product(m, True)


class VanishingDecision:
    """Whether Phi_m divides a packed count polynomial of total count at most k.

    A count polynomial P = sum c_j x^j of degree below m, with nonnegative
    counts summing to at most the total k the decision was built for, is
    packed as the int sum c_j << (width * j).  Since x^m - 1 = Phi_m * Psi_m,
    Phi_m divides P exactly when P * Psi_m is 0 mod x^m - 1.  Write
    Psi_m = plus - minus with nonnegative parts.  The product has degree
    below 2m, so reducing it mod x^m - 1 is one fold,
    fold(y) = (y mod 2^(m*width)) + (y >> m*width), which adds digit j + m
    onto digit j.  P vanishes exactly when fold(P * plus) == fold(P * minus).
    Every digit of either side is at most k * max(|plus|_1, |minus|_1) <
    2^(width - 1), so no product or sum carries across digits, and comparing
    the two ints compares the folded polynomials coefficient by coefficient:
    two int products and one comparison, exact.
    """

    __slots__ = ("modulus", "width", "_plus", "_minus", "_low", "_high")

    def __init__(self, m: int, total: int) -> None:
        psi = inverse_cyclotomic_polynomial(m).coefficients
        plus = [max(c, 0) for c in psi]
        minus = [max(-c, 0) for c in psi]
        self.modulus = m
        self.width = w = (total * max(sum(plus), sum(minus))).bit_length() + 1
        self._plus = sum(c << w * j for j, c in enumerate(plus) if c)
        self._minus = sum(c << w * j for j, c in enumerate(minus) if c)
        self._high = m * w
        self._low = (1 << m * w) - 1

    def pack(self, exponents: Iterable[int]) -> int:
        """The packed count polynomial of the exponents, reduced mod m."""
        w, m = self.width, self.modulus
        return sum(1 << w * (e % m) for e in exponents)

    def __call__(self, packed: int) -> bool:
        """Whether the packed count polynomial is a vanishing sum."""
        plus = packed * self._plus
        minus = packed * self._minus
        low, high = self._low, self._high
        return (plus & low) + (plus >> high) == (minus & low) + (minus >> high)


@functools.lru_cache(maxsize=128)
def vanishing_decision(m: int, total: int) -> VanishingDecision:
    """The decision for index m and total count `total`, built once per pair."""
    return VanishingDecision(m, total)


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

    The nonzero counts are packed and decided by the VanishingDecision for
    the modulus and the total count.  The empty sum vanishes by convention,
    whatever the modulus.
    """
    total = exps.total()
    if total == 0:
        return True
    decide = vanishing_decision(exps.modulus, total)
    w = decide.width
    return decide(sum(c << w * j for j, c in enumerate(exps.counts) if c))
