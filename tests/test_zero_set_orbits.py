"""Z(1_T) is built one Galois orbit at a time.

For a unit a mod m, xi lies in Z(1_T) exactly when a*xi does, so _zero_set
decides one leader per orbit of Z_m^d under the units and sets the bits of
the whole orbit.  These tests compare its masks with a per-cell mask decided
by long division, which knows nothing of orbits; check that every mask is
closed under the units; pin the decisions a call makes and the orbits it
walks; and bound the memory of the orbit walk and of the cached orbit tables.
"""

import itertools
import json
import math
import operator
import random
import tracemalloc
from array import array

import pytest

from conftest import TESTS_DIR
from cyclotomic_oracle import ExponentMultiset, divides
from spectratile import spectral
from spectratile.cyclotomic import MAX_CYCLOTOMIC_INDEX, VanishingDecision
from spectratile.spectral import GroupSpec, PointSet, _dense_pays, fourier_zero_set

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODULI = (1, 2, 3, 4, 5, 6, 8, 9, 12, 30)
# Z_30^3 would take the oracle about 27,000 long divisions per example.
MOST_CELLS = 1728


def oracle_mask(points, m, d):
    """Bit j set when the j-th character's sum vanishes, by long division per cell."""
    mask = 0
    for j, xi in enumerate(GroupSpec(m, d).elements()):
        exponents = (sum(map(operator.mul, xi, t)) for t in points)
        if divides(ExponentMultiset.from_exponents(m, exponents).counts):
            mask |= 1 << j
    return mask


def units(m):
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def closed_under_units(mask, m, d):
    """Whether a*xi is in the mask for every xi in it and every unit a."""
    cells = list(GroupSpec(m, d).elements())
    index = {cell: j for j, cell in enumerate(cells)}
    return all(
        mask >> index[tuple(a * c % m for c in cells[j])] & 1
        for j in range(len(cells))
        if mask >> j & 1
        for a in units(m)
    )


@st.composite
def point_sets(draw):
    """A set of distinct residues, each lifted by a multiple of m, and, when
    collide is drawn, further lifts of some of those residues."""
    m = draw(st.sampled_from(MODULI))
    d = draw(st.sampled_from([d for d in (1, 2, 3) if m**d <= MOST_CELLS]))
    k = draw(st.integers(1, min(m**d, 2 * m + 2)))
    residue = st.tuples(*[st.integers(0, m - 1)] * d)
    residues = draw(st.lists(residue, min_size=k, max_size=k, unique=True))
    lift = st.tuples(*[st.integers(-2, 2)] * d)
    lifts = draw(st.lists(lift, min_size=k, max_size=k))
    points = [tuple(c + m * s for c, s in zip(r, l)) for r, l in zip(residues, lifts)]
    collide = draw(st.booleans())
    if collide:
        again = draw(st.lists(st.sampled_from(residues), min_size=1, max_size=k))
        # Lifts of 3 and up along the first axis never meet the ones above.
        points += [(r[0] + m * (3 + i),) + r[1:] for i, r in enumerate(again)]
    return m, d, PointSet(d, tuple(points)), collide


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(point_sets())
def test_both_routes_equal_the_per_cell_oracle(drawn):
    m, d, point_set, collide = drawn
    hypothesis.event(f"collide={collide}")
    want = oracle_mask(point_set.points, m, d)
    # The default guard transforms when m <= k or d >= 3; a guard of m^d cells
    # leaves no room for the transform's m^(d+1) digits, so it evaluates pointwise.
    masks = [fourier_zero_set(point_set, m, guard) for guard in (None, m**d)]
    k = len(point_set)
    if _dense_pays(k, m, d):
        # is_m_spectral's full-mask path: its pair budget is the limit.
        masks.append(spectral._zero_set(point_set, GroupSpec(m, d), 2 * k * (k - 1)))
    for got in masks:
        assert got == want
        assert closed_under_units(got, m, d)


@pytest.mark.parametrize("m, d", [(1, 2), (2, 3), (6, 2), (8, 2), (9, 2), (12, 2), (30, 1), (4, 3)])
def test_orbits_are_the_generator_sets_of_cyclic_subgroups(m, d):
    """The orbits partition the cells, each lists the generators of <xi>
    once with its leader xi first, and the leader is its least index.  The
    cached table holds exactly the orbits of a fresh walk, in the same
    order: leaders, cells and ends, and orbit reads each one back."""
    cells = list(GroupSpec(m, d).elements())
    index = {cell: j for j, cell in enumerate(cells)}
    torus = spectral._torus(m, d)
    walked = list(torus.walk())
    leaders = [orbit[0] for orbit in walked]
    assert list(torus.leaders()) == leaders == sorted(leaders)
    kept, kept_cells, ends = torus.table
    assert list(kept) == leaders
    assert list(kept_cells) == list(itertools.chain.from_iterable(walked))
    assert list(ends) == list(itertools.accumulate(map(len, walked)))
    assert [list(torus.orbit(leader)) for leader in leaders] == walked
    assert sorted(itertools.chain.from_iterable(walked)) == list(range(m**d))
    for orbit in walked:
        xi = cells[orbit[0]]
        generators = {index[tuple(a * c % m for c in xi)] for a in units(m)}
        assert len(orbit) == len(generators) and set(orbit) == generators
        assert orbit[0] == min(orbit)


# Three sets of the spectrum-search pool, read from the benchmark's
# instance file (never written), each taking the transform route, and one
# 5-point set in Z_97^2, which takes the pointwise route over 9,409 cells.
# Each case: decisions per call before orbits were used, and the orbits.
POOL = {
    inst["id"]: inst
    for inst in json.loads((TESTS_DIR.parent / "perfbench" / "instances.json").read_text())[
        "spectrum-search"
    ]
}
DECISION_CASES = {
    "z8d3k8-0": (395, 148),
    "z6d3k12-0": (157, 112),
    "z6d2k6-0": (19, 20),
    "z97d2k5": (9409, 99),
}
Z97_POINTS = [(3, 40), (17, 88), (52, 6), (71, 63), (90, 21)]


@pytest.fixture
def decisions(monkeypatch):
    """The number of VanishingDecision calls made so far."""
    made = [0]
    original = VanishingDecision.__call__

    def counting(self, packed):
        made[0] += 1
        return original(self, packed)

    monkeypatch.setattr(VanishingDecision, "__call__", counting)
    return made


@pytest.mark.parametrize("case", sorted(DECISION_CASES))
def test_one_decision_per_orbit_at_most(case, decisions):
    before, orbits = DECISION_CASES[case]
    if case in POOL:
        points, m = list(map(tuple, POOL[case]["points"])), POOL[case]["m"]
    else:
        points, m = Z97_POINTS, 97
    point_set = PointSet(len(points[0]), tuple(points))
    assert sum(1 for _ in spectral._torus(m, point_set.dimension).walk()) == orbits
    mask = fourier_zero_set(point_set, m)
    assert 0 < decisions[0] <= min(before, orbits)
    assert mask == fourier_zero_set(point_set, m, guard=m**point_set.dimension)


def test_a_group_past_the_cache_bound_walks_in_little_memory():
    """Three points in Z_500^2 (250,000 cells, past the torus cache's bound)
    are decided pointwise, one leader per orbit, walking the 1,870 orbits
    with one byte per cell.  Deciding all 250,000 cells peaked at 33.7 MB of
    traced memory, and keeping each leader's polynomial for reuse 0.8 MB;
    this call peaks at about 0.43 MB: the walk's 250 KB seen map, the mask,
    the torus's 31 KB full mask, and about 80 KB of pairs that CPython
    keeps on its tuple free list, which tracemalloc still counts."""
    rng = random.Random(500)
    drawn = set()
    while len(drawn) < 3:
        drawn.add((rng.randrange(500), rng.randrange(500)))
    points = PointSet(2, tuple(sorted(drawn)))
    assert 2 * 500**2 > spectral._CACHED_TORUS_BITS
    spectral._cached_torus.cache_clear()
    tracemalloc.start()
    try:
        mask = fourier_zero_set(points, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert spectral._cached_torus.cache_info().currsize == 0
    assert mask.bit_length() <= 500**2


class TestOrbitTables:
    """The tables live on the cached single-copy tori and stay small."""

    def test_a_table_is_built_once_per_group(self):
        spectral._cached_torus.cache_clear()
        first = spectral._torus(6, 3).table
        fourier_zero_set(PointSet(3, ((0, 0, 0), (1, 2, 3))), 6)
        assert spectral._torus(6, 3).table is first
        assert spectral._cached_torus.cache_info().currsize == 1

    @pytest.mark.parametrize("m, d", [(128, 2), (10_000, 1), (22, 3), (2, 11)])
    def test_at_most_six_bytes_per_cell(self, m, d):
        """Two bytes per cell, and two per orbit for its leader and two for
        where it ends; the units sieved while walking are dropped."""
        torus = spectral._torus(m, d)
        arrays = torus.table
        assert all(isinstance(a, array) for a in arrays) and not torus.units
        assert len(arrays[1]) == m**d
        assert sum(a.itemsize * len(a) for a in arrays) <= 6 * m**d

    def test_worst_case_is_one_and_a_half_mebibytes(self):
        """Z_128^2 is the largest group the cache keeps that _zero_set can be
        asked about (m is at most the cyclotomic bound), so 16 tables hold at
        most 16 * 6 * 128^2 bytes."""
        bits = spectral._CACHED_TORUS_BITS
        assert 2 * 128**2 <= bits < 2 * 129**2
        largest = 0
        for d in range(1, bits.bit_length()):
            m = 1
            while m < MAX_CYCLOTOMIC_INDEX and d * (m + 1) ** d <= bits:
                m += 1
            largest = max(largest, m**d)
        assert largest == 128**2
        assert spectral._cached_torus.cache_info().maxsize * 6 * 128**2 == 3 << 19

    def test_no_table_past_the_bound(self):
        spectral._cached_torus.cache_clear()
        assert 2 * 129**2 > spectral._CACHED_TORUS_BITS
        torus = spectral._torus(129, 2)
        assert next(iter(torus.leaders())) == 0
        assert not isinstance(torus.leaders(), array)
        assert torus.table is None
        assert spectral._cached_torus.cache_info().currsize == 0
