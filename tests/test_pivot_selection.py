"""independent_tile selects its coordinates as the pivot columns of one
fraction-free elimination of the points-as-rows matrix.  Pivot columns are
the first maximal independent columns, scanning left to right, so they agree
with the greedy rule: take each coordinate that is independent of those
taken before it, until k are taken."""

from fractions import Fraction

import pytest

from spectratile.modlinalg import IntMatrix, _bareiss, det_and_adjugate, matmul_mod
from spectratile.spectral import PointSet
from spectratile.tiling import independent_tile

# The guard only admits the order M**d; nothing walks Z_M^d here.
GUARD = 10**60


def fraction_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def greedy_chain(point_set):
    """The greedy selection loop independent_tile used before it read pivot
    columns, with an independent rank, and the premises it derived."""
    k = len(point_set)
    d = point_set.dimension
    columns = point_set.to_columns_matrix()
    if fraction_rank(columns.to_rows()) != k:
        raise ValueError("points are not linearly independent over the rationals")
    selected = []
    chosen_rows = []
    for i in range(d):
        candidate = chosen_rows + [list(columns.row(i))]
        if fraction_rank(candidate) > len(chosen_rows):
            selected.append(i)
            chosen_rows.append(list(columns.row(i)))
        if len(selected) == k:
            break
    block = IntMatrix.from_rows(chosen_rows)
    det, adjugate = det_and_adjugate(block)
    sign = 1 if det > 0 else -1
    indices = IntMatrix(1, k, tuple(range(k)))
    row_transform = IntMatrix(
        1, k, tuple(sign * x for x in matmul_mod(indices, adjugate, None).entries)
    )
    return tuple(selected), det, row_transform


def random_set(rng):
    """k <= d points with coordinates in [-3, 3]; often with zero or
    dependent leading coordinates, sometimes with dependent points."""
    while True:
        d = rng.randint(1, 5)
        k = rng.randint(1, d)
        points = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        shape = rng.randrange(4)
        if shape == 0:
            zeros = rng.randint(1, d)
            for p in points:
                p[:zeros] = [0] * zeros
        elif shape == 1 and d > 1:
            a = rng.randint(-2, 2)
            for p in points:
                p[1] = a * p[0]
        elif shape == 2 and k > 1:
            points[-1] = [x - y for x, y in zip(points[0], points[1])]
        if len(set(map(tuple, points))) == k:
            return PointSet(d, tuple(map(tuple, points)))


def outcome(build, point_set):
    try:
        return build(point_set)
    except ValueError as exc:
        return str(exc)


def chain_premises(point_set):
    chain = independent_tile(point_set, GUARD)
    return chain.selected_rows, chain.determinant, chain.row_transform


def test_matches_the_greedy_rule(rng):
    refused = 0
    for _ in range(1500):
        point_set = random_set(rng)
        expected = outcome(greedy_chain, point_set)
        assert outcome(chain_premises, point_set) == expected
        refused += isinstance(expected, str)
    # Both independent and rank-deficient sets were drawn.
    assert 0 < refused < 1500


@pytest.mark.parametrize(
    "points, selected",
    [
        (((0, 0, 1, 2), (0, 0, 3, 4)), (2, 3)),  # zero leading coordinates
        (((1, 2, 0), (2, 4, 1)), (0, 2)),  # the second coordinate is twice the first
        (((1, 1, 5), (2, 2, 7)), (0, 2)),
        (((0, 1, 0), (1, 0, 0)), (0, 1)),  # pivots need a row swap
    ],
)
def test_first_independent_coordinates(points, selected):
    chain = independent_tile(PointSet(len(points[0]), points), GUARD)
    assert chain.selected_rows == selected
    assert greedy_chain(PointSet(len(points[0]), points))[0] == selected


def test_pivot_columns_give_the_rank():
    rows = [[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]]
    pivot_cols, _ = _bareiss([list(r) for r in rows])
    assert pivot_cols == [1, 3]
    assert len(pivot_cols) == fraction_rank(rows)
