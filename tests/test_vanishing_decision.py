"""The packed vanishing decision against long division by Phi_m."""

import time

import pytest

from cyclotomic_oracle import divides
from spectratile.cyclotomic import (
    MAX_CYCLOTOMIC_INDEX,
    cyclotomic_polynomial,
    inverse_cyclotomic_polynomial,
    is_vanishing_sum,
    vanishing_decision,
)
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import PhaseMatrix, PointSet, is_m_spectral

LARGE = (2310, 2520, 9240, MAX_CYCLOTOMIC_INDEX)


def kronecker(coefficients, bits):
    # The polynomial's value at x = 2^bits, in time linear in its size.
    def packed(parts):
        return int.from_bytes(b"".join(c.to_bytes(bits // 8, "little") for c in parts), "little")

    return packed(max(c, 0) for c in coefficients) - packed(max(-c, 0) for c in coefficients)


def decided(counts):
    # The packed decision at the width of the vector's total, and the public wrapper.
    m = len(counts)
    decide = vanishing_decision(m, sum(counts))
    exponents = [j for j, c in enumerate(counts) for _ in range(c)]
    packed = decide.pack(exponents)
    assert packed == sum(c << decide.width * j for j, c in enumerate(counts))
    verdict = decide(packed)
    assert is_vanishing_sum(m, exponents) == verdict
    return verdict


def prime_divisors(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]


def polygon_sum(m, rng):
    # Rotated regular p-gons for primes p | m, with multiplicity: always vanishing.
    counts = [0] * m
    for _ in range(rng.randint(1, 4) if m > 1 else 0):
        p = rng.choice(prime_divisors(m))
        shift = rng.randrange(m)
        for j in range(p):
            counts[(shift + j * (m // p)) % m] += 1
    return counts


class TestInverseCyclotomic:
    @pytest.mark.parametrize("ms", [range(1, 1001), LARGE])
    def test_times_phi_is_x_m_minus_one(self, ms):
        for m in ms:
            phi = cyclotomic_polynomial(m)
            psi = inverse_cyclotomic_polynomial(m)
            assert len(phi) + len(psi) == m + 2, m
            # Evaluation at 2^bits is injective on coefficients below 2^(bits - 1).
            bound = sum(map(abs, phi)) * max(map(abs, psi)) + 1
            bits = 8 * ((bound.bit_length() + 1) // 8 + 1)
            product = kronecker(phi, bits) * kronecker(psi, bits)
            assert product == (1 << bits * m) - 1, m

    def test_small_cases(self):
        assert inverse_cyclotomic_polynomial(1) == (1,)
        assert inverse_cyclotomic_polynomial(6) == (-1, -1, 0, 1, 1)
        assert inverse_cyclotomic_polynomial(8) == (-1, 0, 0, 0, 1)

    @pytest.mark.parametrize("m", [0, -1, MAX_CYCLOTOMIC_INDEX + 1])
    def test_bounds_share_the_cyclotomic_error(self, m):
        with pytest.raises(ValueError, match=r"index must lie in \[1, 10000\]"):
            inverse_cyclotomic_polynomial(m)
        with pytest.raises(ValueError, match=r"index must lie in \[1, 10000\]"):
            vanishing_decision(m, 3)


class TestAgreesWithLongDivision:
    @pytest.mark.parametrize("ms", [range(1, 121), (210, 2310)])
    def test_random_polygon_and_moved_counts(self, ms, rng):
        for m in ms:
            tries = 2 if m > 1000 else 6
            for _ in range(tries):
                counts = [rng.choice((0, 0, 1, 2, 5)) for _ in range(m)]
                assert decided(counts) == divides(counts), (m, counts)
                polygons = polygon_sum(m, rng)
                assert decided(polygons) and divides(polygons), (m, polygons)
                if m > 1:
                    source = rng.choice([j for j, c in enumerate(polygons) if c])
                    polygons[source] -= 1
                    polygons[(source + rng.randrange(1, m)) % m] += 1
                    assert decided(polygons) == divides(polygons), (m, polygons)

    @pytest.mark.parametrize("m", [1, 2, 6, 30, 105, 120, 210])
    def test_width_edges(self, m):
        # All k on one residue, with k on either side of a power of two.
        for j in range(12):
            for k in (2**j - 1, 2**j):
                for residue in {0, m // 2, m - 1}:
                    counts = [0] * m
                    counts[residue] = k
                    assert decided(counts) == divides(counts) == (k == 0), (m, k)
                    # On top of k full orbits, which vanish, the verdict stays.
                    if m > 1 and k < 64:
                        counts = [c + k for c in counts]
                        assert decided(counts) == divides(counts) == (k == 0), (m, k)


class TestWidth:
    @pytest.mark.parametrize("m", [6, 105, 210, 1155])
    def test_folded_digits_never_carry(self, m, rng):
        # Unpacked at the decision's width, fold(P * plus) and fold(P * minus)
        # must be the exact coefficients of P * Psi_m's parts mod x^m - 1.
        # Psi_1155 is the first with a coefficient 3, so k * 3 outgrows the
        # k.bit_length() + 1 bits that suffice for P itself.
        psi = inverse_cyclotomic_polynomial(m)
        for k in (1, 3, 2**7 - 1, 2**7, 1000):
            spread = [0] * m
            for _ in range(k):
                spread[rng.randrange(min(m, 8))] += 1
            for counts in ([k] + [0] * (m - 1), spread):
                w = vanishing_decision(m, k).width
                digit = (1 << w) - 1
                for part in ([max(c, 0) for c in psi], [max(-c, 0) for c in psi]):
                    product = sum(c << w * j for j, c in enumerate(counts)) * sum(
                        c << w * j for j, c in enumerate(part)
                    )
                    folded = (product & (1 << m * w) - 1) + (product >> m * w)
                    exact = [0] * m
                    for i, c in enumerate(counts):
                        for j, p in enumerate(part if c else ()):
                            exact[(i + j) % m] += c * p
                    assert [folded >> w * j & digit for j in range(m)] == exact, (m, k)
                    assert folded >> w * m == 0


class TestSpeed:
    def test_interval_spectrum_in_z_9240(self):
        # d = 1 and k = 8 take the pointwise path.
        m = 9240
        interval = PointSet(1, tuple((j,) for j in range(8)))
        spectrum = PhaseMatrix(IntMatrix.from_rows([[j * m // 8] for j in range(8)]), m)
        start = time.perf_counter()
        assert is_m_spectral(interval, spectrum)
        assert time.perf_counter() - start < 0.5
