import random
import re

import pytest

from conftest import DATA_DIR
from spectratile import modlinalg
from spectratile.certio import parse
from spectratile.counterexample import (
    HADAMARD_EXPONENTS,
    POINT_COLUMNS,
    SPECTRUM_ROWS,
    run_counterexample,
)
from spectratile.modlinalg import (
    IntMatrix,
    RankFactorization,
    _bareiss,
    _is_prime,
    det_and_adjugate,
    format_matrix,
    is_rank_factorization,
    matmul_mod,
    parse_matrix,
    rank_factorize_mod_p,
    rank_mod_p,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix(rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


def cofactor_det(m: IntMatrix) -> int:
    # Independent oracle: plain Laplace expansion along the first row.
    n = m.rows
    if n == 1:
        return m.at(0, 0)
    total = 0
    for j in range(n):
        sub = IntMatrix.from_rows(
            [[m.at(i, c) for c in range(n) if c != j] for i in range(1, n)]
        )
        term = m.at(0, j) * cofactor_det(sub)
        total += term if j % 2 == 0 else -term
    return total


class TestIntMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix(0, 1, ())
        with pytest.raises(ValueError):
            IntMatrix(1, 0, ())

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_accessors(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.row(1) == (4, 5, 6)
        assert m.column(2) == (3, 6)
        assert m.at(1, 0) == 4
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
        assert m.transpose().transpose() == m

    def test_reduced_mod(self):
        m = IntMatrix.from_rows([[-1, 5], [7, -9]])
        assert m.reduced_mod(4).to_rows() == [[3, 1], [3, 3]]


class TestRankModP:
    def test_fixture_has_rank_4_mod_3(self):
        assert rank_mod_p(HADAMARD_EXPONENTS, 3) == 4

    def test_identity_full_rank(self):
        assert rank_mod_p(IntMatrix.identity(4), 5) == 4

    def test_zero_matrix(self):
        assert rank_mod_p(IntMatrix.zeros(6, 6), 3) == 0

    @pytest.mark.parametrize("p", [1, 4, 6, 9, -3, 0])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError):
            rank_mod_p(IntMatrix.identity(2), p)

    def test_transpose_invariance(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank_mod_p(m, p) == rank_mod_p(m.transpose(), p)

    def test_product_rank_bound(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            b = random_matrix(rng, a.cols, rng.randint(1, 4))
            prod = matmul_mod(a, b, p)
            assert rank_mod_p(prod, p) <= min(rank_mod_p(a, p), rank_mod_p(b, p))


def trial_division_is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_equals_trial_division_below_200000(self):
        assert [n for n in range(200_000) if _is_prime(n)] == [
            n for n in range(200_000) if trial_division_is_prime(n)
        ]

    @pytest.mark.parametrize(
        "n",
        # Strong pseudoprimes to every prime base up to 7, 31 and 37.
        [3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**16 + 61])
    def test_large_primes(self, p):
        assert _is_prime(p)

    def test_refuses_the_bound(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            _is_prime(3_317_044_064_679_887_385_961_981)


class TestRankFactorize:
    def test_fixture_factorization_remultiplies(self):
        fact = rank_factorize_mod_p(HADAMARD_EXPONENTS, 3)
        assert fact.rank == 4
        assert fact.product_mod_p() == HADAMARD_EXPONENTS.reduced_mod(3)
        assert is_rank_factorization(HADAMARD_EXPONENTS, fact)

    def test_published_pair_passes_checker(self):
        published = RankFactorization(
            modulus=3, left=SPECTRUM_ROWS, right=POINT_COLUMNS, rank=4
        )
        assert is_rank_factorization(HADAMARD_EXPONENTS, published)

    def test_identity_factors_as_identity(self):
        fact = rank_factorize_mod_p(IntMatrix.identity(3), 5)
        assert fact.left == IntMatrix.identity(3)
        assert fact.right == IntMatrix.identity(3)
        assert fact.rank == 3

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            rank_factorize_mod_p(IntMatrix.zeros(2, 3), 3)

    def test_deterministic(self):
        a = rank_factorize_mod_p(HADAMARD_EXPONENTS, 3)
        b = rank_factorize_mod_p(HADAMARD_EXPONENTS, 3)
        assert a == b

    def test_random_factorizations_remultiply(self, rng):
        checked = 0
        while checked < 150:
            p = rng.choice([2, 3, 5, 7])
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            if all(x % p == 0 for x in m.entries):
                continue
            fact = rank_factorize_mod_p(m, p)
            assert fact.product_mod_p() == m.reduced_mod(p)
            assert is_rank_factorization(m, fact)
            assert fact.rank == rank_mod_p(m, p)
            checked += 1

    def test_checker_rejects_wrong_product(self):
        fact = RankFactorization(
            modulus=3, left=IntMatrix.identity(2), right=IntMatrix.identity(2), rank=2
        )
        wrong = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert not is_rank_factorization(wrong, fact)


def two_factor_check(matrix, fact):
    """The checker as it was: the product, then the rank of each factor."""
    p = fact.modulus
    return (
        fact.left.rows == matrix.rows
        and fact.right.cols == matrix.cols
        and fact.product_mod_p() == matrix.reduced_mod(p)
        and rank_mod_p(fact.left, p) == fact.rank
        and rank_mod_p(fact.right, p) == fact.rank
    )


def test_one_rank_check_matches_both_factor_ranks(rng):
    # Small primes and an inner dimension that may exceed either outer one
    # draw factors of deficient rank often; half the matrices are the
    # product, half random.
    seen = set()
    for _ in range(600):
        p = rng.choice([2, 3, 5])
        rows, r, cols = (rng.randint(1, 4) for _ in range(3))
        left = random_matrix(rng, rows, r, 0, p - 1)
        right = random_matrix(rng, r, cols, 0, p - 1)
        fact = RankFactorization(p, left, right, r)
        matrix = rng.choice([fact.product_mod_p(), random_matrix(rng, rows, cols, 0, p - 1)])
        verdict = is_rank_factorization(matrix, fact)
        assert verdict == two_factor_check(matrix, fact)
        full = rank_mod_p(left, p) == rank_mod_p(right, p) == r
        seen.add((verdict, full, matrix == fact.product_mod_p()))
    # Both verdicts on a matching product, and a mismatch refused.
    assert {(True, True, True), (False, False, True), (False, True, False)} <= seen


def count_eliminations(monkeypatch):
    calls = []
    elimination = modlinalg._rref_mod_p

    def counted(matrix, p):
        calls.append((matrix.rows, matrix.cols))
        return elimination(matrix, p)

    monkeypatch.setattr(modlinalg, "_rref_mod_p", counted)
    return calls


def test_parsing_the_golden_eliminates_once(monkeypatch):
    # Its two factorizations share the phase matrix's elimination.
    calls = count_eliminations(monkeypatch)
    parse((DATA_DIR / "counterexample_n2.json").read_bytes())
    assert calls == [(6, 6)]


def test_the_pipeline_eliminates_four_times(monkeypatch):
    # The rank step, the factorization and one re-check of each factorization.
    calls = count_eliminations(monkeypatch)
    run_counterexample(2)
    assert calls == [(6, 6)] * 4


class TestDetAndAdjugate:
    def test_identity(self):
        for n in (1, 2, 3, 4):
            det, adj = det_and_adjugate(IntMatrix.identity(n))
            assert det == 1
            assert adj == IntMatrix.identity(n)

    def test_two_by_two_formula(self):
        det, adj = det_and_adjugate(IntMatrix.from_rows([[1, 1], [0, 1]]))
        assert det == 1
        assert adj == IntMatrix.from_rows([[1, -1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_and_adjugate(IntMatrix.zeros(2, 3))

    def test_adjugate_identity_random(self, rng):
        for _ in range(150):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            det, adj = det_and_adjugate(m)
            assert matmul_mod(adj, m, None) == IntMatrix(
                n, n, tuple(det if i == j else 0 for i in range(n) for j in range(n))
            )

    def test_determinant_matches_cofactor_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, -3, 3)
            det, _ = det_and_adjugate(m)
            assert det == cofactor_det(m)

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        det, adj = det_and_adjugate(m)
        assert det == big * big - 1
        assert matmul_mod(adj, m, None) == IntMatrix.from_rows([[det, 0], [0, det]])


class TestMatmulMod:
    def test_fixture_product_is_phase_matrix_mod_3(self):
        assert matmul_mod(SPECTRUM_ROWS, POINT_COLUMNS, 3) == HADAMARD_EXPONENTS.reduced_mod(3)

    def test_identity_neutral(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert matmul_mod(IntMatrix.identity(2), m, None) == m

    def test_zero_annihilates(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert matmul_mod(m, IntMatrix.zeros(2, 2), 7) == IntMatrix.zeros(2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul_mod(IntMatrix.identity(2), IntMatrix.identity(3), None)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            matmul_mod(IntMatrix.identity(2), IntMatrix.identity(2), 0)


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -99, 99)
            assert parse_matrix(format_matrix(m)) == m

    def test_exact_format(self):
        m = IntMatrix.from_rows([[1, -2], [30, 4]])
        assert format_matrix(m) == "2 2\n1 -2\n30 4\n"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_matrix("")
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2\n")
        with pytest.raises(ValueError):
            parse_matrix("1 2\n1 2 3\n")
        with pytest.raises(ValueError):
            parse_matrix("not a header\n1\n")

    @pytest.mark.parametrize(
        "text, token",
        [
            ("1 2\n1_0 3\n", "1_0"),  # int() reads 10
            ("1 2\n1 \u0663\n", "\u0663"),  # int() reads the Arabic-Indic 3
            ("1 2\n+7 3\n", "+7"),
            ("1 1_0\n" + "1 " * 10 + "\n", "1_0"),
            ("\uff11 1\n1\n", "\uff11"),  # a fullwidth 1 in the header
        ],
        ids=["underscore", "arabic-indic", "plus", "header-underscore", "header-fullwidth"],
    )
    def test_refuses_tokens_that_are_not_ascii_decimal(self, text, token):
        with pytest.raises(ValueError, match=re.escape(f"not a decimal integer: {token!r}")):
            parse_matrix(text)


def fraction_rank(m: IntMatrix) -> int:
    # Independent oracle: Gauss-Jordan elimination over Fraction.
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in m.to_rows()]
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(m.rows):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bareiss_rank(m: IntMatrix) -> int:
    return len(_bareiss(m.to_rows())[0])


class TestRankOverRationals:
    def test_identity_and_zero(self):
        assert bareiss_rank(IntMatrix.identity(4)) == 4
        assert bareiss_rank(IntMatrix.zeros(3, 5)) == 0

    def test_zero_columns_are_skipped(self):
        m = IntMatrix.from_rows([[0, 2, 4], [0, 1, 2], [0, 0, 3]])
        assert bareiss_rank(m) == 2

    def test_fixture_rank_drops_mod_3(self):
        # Rank 5 over the rationals, 4 mod 3: the drop the construction uses.
        assert bareiss_rank(HADAMARD_EXPONENTS) == fraction_rank(HADAMARD_EXPONENTS) == 5
        assert rank_mod_p(HADAMARD_EXPONENTS, 3) == 4

    def test_matches_fraction_oracle(self, rng):
        for _ in range(200):
            rows, cols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            m = matmul_mod(random_matrix(rng, rows, inner), random_matrix(rng, inner, cols), None)
            assert bareiss_rank(m) == fraction_rank(m)
            assert bareiss_rank(m.transpose()) == fraction_rank(m)

    def test_determinant_agrees_with_rank(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, -2, 2)
            det, _ = det_and_adjugate(m)
            assert (det != 0) == (bareiss_rank(m) == n)
