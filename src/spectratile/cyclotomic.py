"""Exact decision of vanishing sums of roots of unity.

A multiset of m-th roots of unity sums to zero iff the cyclotomic polynomial
of index m divides the integer polynomial whose coefficient at x^j is the
count of the residue j.  Since x^m - 1 is Phi_m times the inverse cyclotomic
polynomial Psi_m = (x^m - 1)/Phi_m, that divisibility holds exactly when the
product with Psi_m vanishes mod x^m - 1.  VanishingDecision decides it on
count polynomials packed into ints: two int products and one comparison, in
integer arithmetic throughout, so the trusted path involves no floating point
at all.  Both Phi_m and Psi_m come from one Moebius product of binomials,
as tuples of integer coefficients, lowest degree first.
A decision checks its index against MAX_CYCLOTOMIC_INDEX before it
allocates anything, and is built before any exponent is read, so an index
past the bound costs neither work nor memory.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence

__all__ = [
    "MAX_CYCLOTOMIC_INDEX",
    "cyclotomic_polynomial",
    "inverse_cyclotomic_polynomial",
    "VanishingDecision",
    "vanishing_decision",
    "is_vanishing_sum",
]

MAX_CYCLOTOMIC_INDEX = 10_000


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


@functools.lru_cache(maxsize=None, typed=True)
def _moebius_product(m: int, inverse: bool) -> tuple[int, ...]:
    """Phi_m, or Psi_m = (x^m - 1)/Phi_m when inverse, as a product of binomials.

    Phi_m is the product of (x^(m/e) - 1)^mu(e) over the squarefree divisors e
    of m.  Psi_m is the same product with every exponent negated and e = 1
    left out, where x^m - 1 cancels.  The binomials with exponent +1 are
    multiplied in, then those with exponent -1 divided out exactly; each step
    is one O(degree) shift-and-subtract.  An index outside
    [1, MAX_CYCLOTOMIC_INDEX] raises ValueError before any of that, and one
    that is not an int TypeError.  Returns the coefficients, lowest degree
    first; both are monic, so none to strip.
    """
    m = operator.index(m)
    if not 1 <= m <= MAX_CYCLOTOMIC_INDEX:
        raise ValueError(f"index must lie in [1, {MAX_CYCLOTOMIC_INDEX}], got {m}")
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
    return tuple(coeffs)


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial, memoized across calls."""
    return _moebius_product(m, False)


def inverse_cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Psi_m = (x^m - 1)/Phi_m, the product of Phi_d over d | m, d < m; memoized."""
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
        m, total = operator.index(m), operator.index(total)
        psi = inverse_cyclotomic_polynomial(m)
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


# Both caches are typed: 2.0 and 2 are equal keys to an untyped cache, so a
# float index would be refused or served depending on what ran before.  A
# typed cache always misses on a float, and the miss refuses it.
@functools.lru_cache(maxsize=128, typed=True)
def vanishing_decision(m: int, total: int) -> VanishingDecision:
    """The decision for index m and total count `total`, built once per pair."""
    return VanishingDecision(m, total)


def is_vanishing_sum(m: int, exponents: Sequence[int]) -> bool:
    """Whether the sum of exp(2*pi*i*e/m) over the exponents e is zero, exactly.

    The decision for m and the number of exponents is built first, so an m
    beyond the bound is refused before the exponents are read; then they are
    packed and decided.  The empty sum vanishes, whatever the modulus.
    """
    decide = vanishing_decision(m, len(exponents))
    return decide(decide.pack(exponents))
