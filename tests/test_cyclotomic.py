import cmath
import functools
import math

import pytest

from cyclotomic_oracle import ExponentMultiset, poly_divrem, poly_mul, strip
from spectratile.cyclotomic import (
    MAX_CYCLOTOMIC_INDEX,
    cyclotomic_polynomial,
    is_vanishing_sum,
)


def naive_divide(num_coeffs, den_coeffs):
    # Independent long division oracle over the integers, monic divisor only.
    num = list(num_coeffs)
    d = len(den_coeffs) - 1
    quo = [0] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quo[i - d] = c
        for j, dc in enumerate(den_coeffs):
            num[i - d + j] -= c * dc
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def vanishes(exps: ExponentMultiset) -> bool:
    return is_vanishing_sum(exps.modulus, exps.exponents())


def float_sum(exps: ExponentMultiset) -> complex:
    m = exps.modulus
    return sum(
        count * cmath.exp(2j * cmath.pi * j / m) for j, count in enumerate(exps.counts)
    )


class TestCyclotomicPolynomial:
    def test_index_one_is_x_minus_one(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_index_two(self):
        assert cyclotomic_polynomial(2) == (1, 1)

    def test_index_three_derived_by_division(self):
        # Oracle: divide x^3 - 1 by the index-1 polynomial directly.
        quo, rem = naive_divide([-1, 0, 0, 1], [-1, 1])
        assert rem == []
        assert cyclotomic_polynomial(3) == tuple(quo) == (1, 1, 1)

    def test_index_six_derived_by_division(self):
        # Oracle: divide x^6 - 1 by the product of the proper-divisor polynomials.
        prod = (1,)
        for d in (1, 2, 3):
            prod = poly_mul(prod, cyclotomic_polynomial(d))
        quo, rem = naive_divide([-1, 0, 0, 0, 0, 0, 1], list(prod))
        assert rem == []
        assert cyclotomic_polynomial(6) == tuple(quo) == (1, -1, 1)

    def test_index_105_has_coefficient_minus_two(self):
        # Smallest index with a coefficient outside {-1, 0, 1}.
        assert -2 in cyclotomic_polynomial(105)

    def test_divisor_product_recovers_x_m_minus_one(self):
        for m in range(1, 201):
            prod = (1,)
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul(prod, cyclotomic_polynomial(d))
            expected = (-1,) + (0,) * (m - 1) + (1,)
            assert prod == expected, f"divisor product failed at m={m}"

    @pytest.mark.parametrize("m", [0, -1, MAX_CYCLOTOMIC_INDEX + 1])
    def test_bounds(self, m):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(m)


@functools.lru_cache(maxsize=None)
def division_oracle(m):
    # Phi_m as x^m - 1 divided by Phi_d for every proper divisor d.
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = naive_divide(poly, division_oracle(d))
            assert rem == []
    return tuple(poly)


def euler_phi(m):
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


class TestMoebiusProduct:
    def test_matches_division_oracle(self):
        for m in range(1, 401):
            assert cyclotomic_polynomial(m) == division_oracle(m), m

    def test_index_105_coefficients(self):
        coefficients = cyclotomic_polynomial(105)
        assert [i for i, c in enumerate(coefficients) if c == -2] == [7, 41]
        assert set(coefficients) == {-2, -1, 0, 1}

    @pytest.mark.parametrize(
        "ms", [range(1, 1001), (2310, 2520, 4096, 9240, 9699, MAX_CYCLOTOMIC_INDEX)]
    )
    def test_degree_is_euler_phi(self, ms):
        for m in ms:
            poly = cyclotomic_polynomial(m)
            assert len(poly) - 1 == euler_phi(m), m
            assert poly[-1] == 1


class TestPolyDivrem:
    def test_cube_root_split(self):
        quo, rem = poly_divrem((-1, 0, 0, 1), (-1, 1))
        assert quo == (1, 1, 1)
        assert rem == ()

    def test_self_division(self):
        p = (1, 1, 1)
        quo, rem = poly_divrem(p, p)
        assert quo == (1,)
        assert rem == ()

    def test_phi_six_divides_x6_minus_one(self):
        _, rem = poly_divrem((-1, 0, 0, 0, 0, 0, 1), cyclotomic_polynomial(6))
        assert rem == ()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem((1,), ())

    def test_non_unit_leading_rejected(self):
        with pytest.raises(ValueError):
            poly_divrem((1, 1), (1, 2))

    def test_division_law_random(self, rng):
        for _ in range(200):
            num = strip([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
            body = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4)))
            den = body + (rng.choice([1, -1]),)
            quo, rem = poly_divrem(num, den)
            recomposed_coeffs = list(poly_mul(quo, den))
            width = max(len(recomposed_coeffs), len(rem))
            recomposed_coeffs += [0] * (width - len(recomposed_coeffs))
            for i, c in enumerate(rem):
                recomposed_coeffs[i] += c
            assert strip(recomposed_coeffs) == num
            assert len(rem) < len(den)


class TestIsVanishingSum:
    def test_full_orbit_of_cube_roots(self):
        assert is_vanishing_sum(3, [0, 1, 2])

    def test_opposite_fourth_roots(self):
        assert is_vanishing_sum(4, [0, 2])

    def test_two_cube_roots_cannot_cancel(self):
        assert not is_vanishing_sum(3, [0, 1])

    def test_two_cancelling_pairs_order_six(self):
        exps = ExponentMultiset.from_exponents(6, [0, 2, 3, 5])
        assert is_vanishing_sum(6, [0, 2, 3, 5])
        assert abs(float_sum(exps)) < 1e-9

    def test_empty_sum_vanishes(self):
        assert is_vanishing_sum(5, [])
        assert is_vanishing_sum(1, [])

    def test_modulus_one(self):
        assert not is_vanishing_sum(1, [0, 0, 0])

    def test_rotation_invariance(self, rng):
        for _ in range(150):
            m = rng.randint(1, 24)
            exps = ExponentMultiset.from_exponents(
                m, (rng.randrange(m) for _ in range(rng.randint(0, 12)))
            )
            verdict = vanishes(exps)
            shift = rng.randrange(m)
            rotated = ExponentMultiset(
                m, tuple(exps.counts[(j - shift) % m] for j in range(m))
            )
            assert vanishes(rotated) == verdict

    def test_prime_modulus_equal_counts_characterization(self):
        # For prime m a sum vanishes iff every residue occurs equally often.
        for m in (2, 3, 5):
            for total in range(0, 8):
                for combo in _compositions(total, m):
                    expected = len(set(combo)) == 1
                    assert vanishes(ExponentMultiset(m, combo)) == expected

    def test_agrees_with_float_oracle(self, rng):
        for _ in range(200):
            m = rng.randint(1, 36)
            exps = ExponentMultiset.from_exponents(
                m, (rng.randrange(m) for _ in range(rng.randint(0, 24)))
            )
            assert vanishes(exps) == (abs(float_sum(exps)) < 1e-9)


class TestExponentMultiset:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentMultiset(0, ())
        with pytest.raises(ValueError):
            ExponentMultiset(3, (1, 1))
        with pytest.raises(ValueError):
            ExponentMultiset(2, (1, -1))

    def test_from_exponents_wraps(self):
        exps = ExponentMultiset.from_exponents(4, [-1, 5, 3])
        assert exps.counts == (0, 1, 0, 2)
        assert exps.total() == 3


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
