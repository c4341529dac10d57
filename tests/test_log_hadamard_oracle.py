"""is_log_hadamard, decided as is_m_spectral of the unit basis, against long
division of every row pair's count polynomial by Phi_m."""

import itertools

import pytest

from cyclotomic_oracle import is_log_hadamard_by_division as by_division
from spectratile import spectral
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import PhaseMatrix, is_log_hadamard

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def fourier(m, a, b):
    """The character table of Z_a x Z_b over denominator m, for a and b dividing m."""
    cells = list(itertools.product(range(a), range(b)))
    return [[(i * j * (m // a) + u * v * (m // b)) % m for j, v in cells] for i, u in cells]


@st.composite
def phase_matrices(draw):
    """Square k x k phase matrices, k in 2..8 and m in 1..30: free entries, or
    a character table of Z_a x Z_b (a, b dividing m) with rows and columns
    shifted, sometimes with one entry moved."""
    m = draw(st.integers(1, 30))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    shapes = [(a, b) for a in divisors for b in divisors if 2 <= a * b <= 8]
    if shapes and draw(st.booleans()):
        a, b = draw(st.sampled_from(shapes))
        rows = fourier(m, a, b)
        k = a * b
        shift = st.lists(st.integers(0, m - 1), min_size=k, max_size=k)
        row_shift, col_shift = draw(shift), draw(shift)
        rows = [
            [(h + r + c) % m for h, c in zip(row, col_shift)]
            for row, r in zip(rows, row_shift)
        ]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[i][j] = (rows[i][j] + draw(st.integers(1, m))) % m
    else:
        k = draw(st.integers(2, 8))
        row = st.lists(st.integers(0, m - 1), min_size=k, max_size=k)
        rows = draw(st.lists(row, min_size=k, max_size=k))
    return PhaseMatrix(IntMatrix.from_rows(rows), m)


def refuse(*args):
    raise AssertionError("the unit basis reached the transform")


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(phase_matrices())
def test_agrees_with_pairwise_long_division(mat):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_Characters", refuse)
        assert is_log_hadamard(mat) == by_division(mat)


@pytest.mark.parametrize("m, a, b", [(12, 2, 3), (12, 2, 4), (12, 1, 6), (30, 2, 3), (30, 5, 1)])
def test_character_tables_over_composite_denominators(monkeypatch, m, a, b):
    monkeypatch.setattr(spectral, "_Characters", refuse)
    rows = fourier(m, a, b)
    mat = PhaseMatrix(IntMatrix.from_rows(rows), m)
    assert is_log_hadamard(mat) and by_division(mat)
    rows[0][1] = (rows[0][1] + 1) % m
    mat = PhaseMatrix(IntMatrix.from_rows(rows), m)
    assert not is_log_hadamard(mat) and not by_division(mat)
