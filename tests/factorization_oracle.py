"""A rank factorization checked against its source matrix, as the tests' oracle.

No library path needs it: parse checks a stored factorization by its product
once the rank is matched (see certio._factorization).
"""

from __future__ import annotations

from spectratile.modlinalg import IntMatrix, RankFactorization, rank_mod_p


def is_rank_factorization(matrix: IntMatrix, fact: RankFactorization) -> bool:
    """Check a factorization against its source matrix: product, then rank.

    For L (rows x r) and R (r x cols), rank(L @ R) = r iff both factors have
    rank r: rank(L @ R) <= min(rank L, rank R) <= r, and an injective L after
    an onto R keeps rank r.  So one elimination stands for both factors'.
    """
    if fact.left.rows != matrix.rows or fact.right.cols != matrix.cols:
        return False
    p = fact.modulus
    if fact.product_mod_p() != matrix.reduced_mod(p):
        return False
    return rank_mod_p(matrix, p) == fact.rank
