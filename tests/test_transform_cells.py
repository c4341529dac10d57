"""The transform computes only the lines that the cells it is asked for read.

_transform(points, m, d, line, cells) returns the count polynomials of the
listed cells, in the order listed.  After pass a, cell (xi_0..xi_a,
x_(a+1)..x_(d-1)) holds the sum over the points with that suffix of
x^(xi_0*t_0 + ... + xi_a*t_a), so pass a transforms a line only when its
prefix is some listed cell's and its suffix some point's.  These tests
compare the polynomials of the orbit leaders, and of random cells, with each
cell's polynomial packed directly from the points, on both line maps, and
pin how many lines one fourier_zero_set call transforms.
"""

import json
import random
from array import array

import pytest

from conftest import TESTS_DIR
from spectratile import spectral
from spectratile.cyclotomic import vanishing_decision
from spectratile.spectral import (
    PointSet,
    _kernel_line,
    _shift_add_line,
    _transform,
    fourier_zero_set,
)


def packed(points, m, d, w, cells):
    """Each listed cell's count polynomial packed directly, with no transform."""
    strides = spectral._strides(m, d)
    rows = ([j // s % m for s in strides] for j in cells)
    return [sum(1 << w * (sum(a * b for a, b in zip(xi, t)) % m) for t in points) for xi in rows]


def drawn_points(rng, d, k, m):
    """k points with coordinates in [-m, 2m), negative and unreduced, plus
    one more that collides mod m with the first."""
    points = set()
    while len(points) < k:
        points.add(tuple(rng.randrange(-m, 2 * m) for _ in range(d)))
    points = sorted(points)
    return points + [(points[0][0] + 3 * m,) + points[0][1:]]


# (d, m, k), each with k + 1 points.  Z_12^4, with 12 points, is past the
# orbit cache's bound: its leaders are walked lazily, on each call.
SIZES = [
    (1, 1, 1),
    (1, 9, 12),
    (1, 30, 31),
    (2, 6, 10),
    (2, 12, 20),
    (3, 5, 12),
    (3, 8, 8),
    (4, 3, 7),
    (4, 4, 9),
    (4, 12, 11),
]


@pytest.mark.parametrize("make_line", [_kernel_line, _shift_add_line], ids=["kernel", "shift-add"])
@pytest.mark.parametrize("d, m, k", SIZES)
def test_leaders_and_random_cells_equal_their_character_sums(d, m, k, make_line):
    rng = random.Random(m * 100 + d * 10 + k)
    points = drawn_points(rng, d, k, m)
    w = vanishing_decision(m, len(points)).width
    line = make_line(m, w)
    leaders = list(spectral._orbits(m, d).leaders)
    # Out of index order, with the last cell listed twice.
    cells = rng.sample(range(m**d), min(m**d, 40))
    cells.append(cells[-1])
    for wanted in (leaders, cells):
        assert _transform(points, m, d, line, wanted) == packed(points, m, d, w, wanted)


def test_the_largest_size_walks_its_leaders_lazily():
    d, m, k = SIZES[-1]
    assert d * m**d > spectral._CACHED_TORUS_BITS
    assert not isinstance(spectral._orbits(m, d).leaders, array)


def test_no_cells_transform_no_lines():
    def refuse(terms):
        raise AssertionError("a line was transformed")

    assert _transform([(1, 2), (3, 4)], 5, 2, refuse, []) == []


# The 8-point set in Z_8^3 that tests/cli_smoke.sh searches, and one set of
# the spectrum-search pool, read from the benchmark's instance file (never
# written).  Each case: lines per fourier_zero_set call, and lines of the
# full transform, which transforms every line that holds a point.
CLI_Z8 = [(6, 2, 1), (5, 0, 6), (5, 7, 5), (3, 0, 3), (2, 1, 4), (1, 0, 7), (0, 4, 0), (2, 1, 5)]
POOL = {
    inst["id"]: inst
    for inst in json.loads((TESTS_DIR.parent / "perfbench" / "instances.json").read_text())[
        "spectrum-search"
    ]
}
LINE_CASES = {
    "cli-z8d3k8": (CLI_Z8, 8, 58, 128),
    "z6d3k12-0": (list(map(tuple, POOL["z6d3k12-0"]["points"])), 6, 52, 78),
}


@pytest.fixture
def lines(monkeypatch):
    """The number of lines transformed so far, by either line map."""
    made = [0]
    for name in ("_kernel_line", "_shift_add_line"):

        def counting(m, w, original=getattr(spectral, name)):
            line = original(m, w)

            def counted(terms):
                made[0] += 1
                return line(terms)

            return counted

        monkeypatch.setattr(spectral, name, counting)
    return made


@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_lines_per_zero_set_call(case, lines):
    points, m, pruned, full = LINE_CASES[case]
    point_set = PointSet(3, tuple(points))
    mask = fourier_zero_set(point_set, m)
    assert lines[0] == pruned
    lines[0] = 0
    w = vanishing_decision(m, len(points)).width
    _transform(points, m, 3, spectral._kernel_line(m, w), range(m**3))
    assert lines[0] == full
    assert pruned < full
    assert mask == fourier_zero_set(point_set, m, guard=m**3)
