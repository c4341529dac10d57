"""Exact integer and mod-p linear algebra on dense matrices.

Matrices are immutable and stored row-major as a flat tuple of Python ints,
so every result is exact no matter how large the entries grow.  Determinants
and the first independent columns share one fraction-free (Bareiss)
elimination, whose pivot columns give the latter and whose last pivot gives
the determinant of the block on those columns; adjugates come from cofactors
of Bareiss minors; mod-p routines run plain Gaussian elimination over the
field with p elements with deterministic pivoting (first nonzero entry
scanning columns left to right, rows top to bottom).

The text interchange format is: a first line ``rows cols``, then one line per
row of space-separated decimal integers, each token ``-?[0-9]+`` in ASCII.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "RankFactorization",
    "rank_mod_p",
    "rank_factorize_mod_p",
    "is_rank_factorization",
    "det_and_adjugate",
    "matmul_mod",
    "format_matrix",
    "parse_matrix",
]


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", operator.index(self.rows))
        object.__setattr__(self, "cols", operator.index(self.cols))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        entries = self.entries
        # An exact int tuple is kept as given; bools, other integer types and
        # lists are converted, and a float, str or Fraction raises TypeError.
        if not (type(entries) is tuple and set(map(type, entries)) == {int}):
            entries = tuple(map(operator.index, entries))
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        flat: list[int] = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def reduced_mod(self, m: int) -> "IntMatrix":
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        return IntMatrix(self.rows, self.cols, tuple(x % m for x in self.entries))


@dataclass(frozen=True)
class RankFactorization:
    """A product ``left @ right`` congruent to some matrix mod a prime.

    ``left`` holds the original matrix's pivot columns reduced mod p and
    ``right`` the nonzero rows of its reduced row echelon form, so the shared
    inner dimension equals the mod-p rank.  Use :func:`is_rank_factorization`
    to re-check a stored factorization against its source matrix.
    """

    modulus: int
    left: IntMatrix
    right: IntMatrix
    rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", operator.index(self.modulus))
        object.__setattr__(self, "rank", operator.index(self.rank))
        _require_prime(self.modulus)
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.left.cols != self.rank or self.right.rows != self.rank:
            raise ValueError("inner dimensions must equal the rank")
        for mat in (self.left, self.right):
            if any(not 0 <= x < self.modulus for x in mat.entries):
                raise ValueError("factor entries must lie in [0, p)")

    def product_mod_p(self) -> IntMatrix:
        return matmul_mod(self.left, self.right, self.modulus)


# Miller-Rabin bases, exact below psi_13 (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: exact below _PRIME_BOUND, refused above."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_BOUND}, got {p}")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    twos = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = odd * 2**twos
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> twos, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(twos)):
            return False
    return True


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise ValueError(f"expected a prime modulus, got {p}")


def _rref_mod_p(matrix: IntMatrix, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (rows, pivot columns)."""
    rows = [[x % p for x in matrix.row(i)] for i in range(matrix.rows)]
    n_rows, n_cols = matrix.rows, matrix.cols
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c] % p != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def rank_mod_p(matrix: IntMatrix, p: int) -> int:
    """Rank of the matrix over the field with p elements."""
    _require_prime(p)
    _, pivot_cols = _rref_mod_p(matrix, p)
    return len(pivot_cols)


def rank_factorize_mod_p(matrix: IntMatrix, p: int) -> RankFactorization:
    """Canonical rank factorization mod p: pivot columns times RREF rows.

    Deterministic by construction, so the same input always yields the same
    pair.  A matrix that vanishes identically mod p has no factorization in
    this representation and is rejected.
    """
    _require_prime(p)
    rref, pivot_cols = _rref_mod_p(matrix, p)
    r = len(pivot_cols)
    if r == 0:
        raise ValueError("matrix is zero mod p; no rank factorization exists")
    left = IntMatrix(
        matrix.rows,
        r,
        tuple(matrix.at(i, c) % p for i in range(matrix.rows) for c in pivot_cols),
    )
    right = IntMatrix(r, matrix.cols, tuple(x for row in rref[:r] for x in row))
    return RankFactorization(modulus=p, left=left, right=right, rank=r)


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


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form, in place: (pivot columns, signed last pivot).

    After each step the entries below the pivot row are minors of the
    original matrix, so the division by the previous pivot is exact.  The
    rank is the number of pivot columns.  They are the first maximal set of
    independent columns, scanning left to right: column c gets a pivot
    exactly when it is independent of the columns before it.  When the rank
    equals the number of rows, the last pivot, signed by the row swaps, is
    the determinant of the square block on the pivot columns: each pivot
    is the minor on the pivot rows and pivot columns so far, a column
    without a pivot enters no later minor, and the swaps only reorder the
    rows.  For a square matrix of full rank that block is the matrix
    itself.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    sign, prev, r = 1, 1, 0
    pivot_cols: list[int] = []
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                # Exact division: Bareiss guarantees prev divides the product.
                rows[i][j] = (rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivot_cols.append(c)
        r += 1
    return pivot_cols, sign * prev


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant; mutates its argument."""
    pivot_cols, pivot = _bareiss(rows)
    return pivot if len(pivot_cols) == len(rows) else 0


def _minor_det(matrix: IntMatrix, skip_row: int, skip_col: int) -> int:
    rows = [
        [matrix.at(i, j) for j in range(matrix.cols) if j != skip_col]
        for i in range(matrix.rows)
        if i != skip_row
    ]
    return _det_bareiss(rows)


def det_and_adjugate(matrix: IntMatrix) -> tuple[int, IntMatrix]:
    """Exact determinant and adjugate, satisfying adjugate @ M == det * I."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    if n == 1:
        return matrix.at(0, 0), IntMatrix.identity(1)
    det = _det_bareiss(matrix.to_rows())
    # adj[j][i] is the (i, j) cofactor.
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _minor_det(matrix, i, j)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return det, IntMatrix.from_rows(adj)


def matmul_mod(a: IntMatrix, b: IntMatrix, m: int | None = None) -> IntMatrix:
    """Matrix product, reduced into [0, m) when a modulus is given."""
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions disagree: {a.cols} vs {b.rows}")
    if m is not None and m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    out: list[int] = []
    b_cols = [b.column(j) for j in range(b.cols)]
    for i in range(a.rows):
        row = a.row(i)
        for col in b_cols:
            s = sum(x * y for x, y in zip(row, col))
            out.append(s if m is None else s % m)
    return IntMatrix(a.rows, b.cols, tuple(out))


def _decimal(token: str) -> int:
    """A ``-?[0-9]+`` token as an int; int() alone also reads "1_0", "+7" and "\u0663"."""
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def format_matrix(matrix: IntMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for i in range(matrix.rows):
        lines.append(" ".join(str(x) for x in matrix.row(i)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("matrix header must be 'rows cols'")
    rows, cols = map(_decimal, header)
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
    data: list[list[int]] = []
    for line in lines[1:]:
        values = [_decimal(tok) for tok in line.split()]
        if len(values) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(values)}")
        data.append(values)
    return IntMatrix.from_rows(data)
