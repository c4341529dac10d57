"""The product builders and the matrix checks agree with the per-entry
formulas they replaced, which are kept here as oracles, and the extension
report's arithmetic agrees with a count over the extension it describes.
Each value a lemma proves, built without its constructor's checks, equals
the validated construction of the same fields."""

from collections import Counter
from itertools import product

import pytest

from spectratile import tiling
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    composed_set,
    composed_spectrum_rows,
    cube_spectrum,
    find_spectrum,
)
from spectratile.tiling import TilingCertificate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def oracle_composed_points(left, right, m):
    return tuple(
        tuple(tc + m * sc for tc, sc in zip(t, s)) for t in left.points for s in right.points
    )


def oracle_composed_entries(left, right, m, n):
    return tuple(
        (n * lc + qc) % (m * n)
        for l in left.to_rows()
        for q in right.to_rows()
        for lc, qc in zip(l, q)
    )


def oracle_reduction_multiplicity(big, m, base):
    counts = Counter(tuple(c % m for c in p) for p in big.points)
    base_residues = {tuple(c % m for c in p) for p in base.points}
    if set(counts) != base_residues:
        return None
    multiplicities = set(counts.values())
    if len(multiplicities) != 1:
        return None
    return multiplicities.pop()


def exact_ints(values):
    return type(values) is tuple and set(map(type, values)) == {int}


def validated_point_set(point_set):
    points = point_set.points
    assert type(points) is tuple and set(map(type, points)) == {tuple}
    assert all(map(exact_ints, points))
    return PointSet(point_set.dimension, points)


def assert_validated(cert):
    """The certificate equals the one the checking constructors build from
    its fields, and holds exact int tuples throughout."""
    group = GroupSpec(cert.group.modulus, cert.group.dimension)
    if isinstance(cert, TilingCertificate):
        rebuilt = TilingCertificate(
            group, validated_point_set(cert.set), validated_point_set(cert.complement)
        )
    else:
        rows = cert.spectrum.numerators
        assert exact_ints(rows.entries)
        numerators = IntMatrix(rows.rows, rows.cols, rows.entries)
        spectrum = PhaseMatrix(numerators, cert.spectrum.denominator)
        rebuilt = SpectrumCertificate(group, validated_point_set(cert.set), spectrum)
    assert rebuilt == cert


@st.composite
def spectral_parts(draw):
    """Two spectra found in Z_m^d and Z_n^d, m, n <= 4 and d <= 2, of up to
    four points from [-m, 2m)^d each."""
    d = draw(st.integers(1, 2))

    def part():
        m = draw(st.integers(1, 4))
        coordinate = st.integers(-m, 2 * m - 1)
        size = min(4, m**d)
        points = st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=size, unique=True)
        return find_spectrum(PointSet(d, tuple(draw(points))), m)

    return part(), part()


@st.composite
def tiling_parts(draw):
    """Two tilings decided in Z_m^d and Z_n^d, m, n <= 4 and d <= 2, of up to
    four points from [-m, 2m)^d each, their complements moved off [0, m)^d
    by multiples of the modulus, point by point."""
    d = draw(st.integers(1, 2))

    def part():
        m = draw(st.integers(1, 4))
        coordinate = st.integers(-m, 2 * m - 1)
        size = min(4, m**d)
        points = st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=size, unique=True)
        verdict = tiling.decide_m_tile(PointSet(d, tuple(draw(points))), GroupSpec(m, d))
        if not isinstance(verdict, TilingCertificate):
            return None
        shifts = st.tuples(*[st.integers(-1, 1)] * d)
        complement = verdict.complement.points
        moved = tuple(tuple(c + m * s for c, s in zip(p, draw(shifts))) for p in complement)
        return TilingCertificate(verdict.group, verdict.set, PointSet(d, moved))

    return part(), part()


def point_sets(d, max_size=6):
    coordinates = st.tuples(*[st.integers(-9, 9)] * d)
    return st.lists(coordinates, min_size=1, max_size=max_size, unique=True).map(
        lambda points: PointSet(d, tuple(points))
    )


def matrices(rows, cols):
    return st.lists(st.integers(-40, 40), min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: IntMatrix(rows, cols, tuple(entries))
    )


@st.composite
def set_pairs(draw):
    d = draw(st.integers(1, 4))
    return draw(point_sets(d)), draw(point_sets(d)), draw(st.integers(1, 5))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(set_pairs())
def test_composed_set(drawn):
    left, right, m = drawn
    expected = oracle_composed_points(left, right, m)
    if len(set(expected)) != len(expected):
        with pytest.raises(ValueError, match="distinct"):
            composed_set(left, right, m)
    else:
        composed = composed_set(left, right, m)
        assert composed.points == expected
        assert validated_point_set(composed) == composed


@st.composite
def row_pairs(draw):
    d = draw(st.integers(1, 4))
    left = draw(matrices(draw(st.integers(1, 5)), d))
    right = draw(matrices(draw(st.integers(1, 5)), d))
    return left, right, draw(st.integers(1, 5)), draw(st.integers(1, 5))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(row_pairs())
def test_composed_spectrum_rows_on_unreduced_entries(drawn):
    left, right, m, n = drawn
    rows = composed_spectrum_rows(left, right, m, n)
    assert (rows.rows, rows.cols) == (left.rows * right.rows, left.cols)
    assert rows.entries == oracle_composed_entries(left, right, m, n)
    assert exact_ints(rows.entries)


def test_composed_spectrum_rows_refuse_mismatched_widths():
    with pytest.raises(ValueError, match="row width"):
        composed_spectrum_rows(IntMatrix(1, 2, (0, 1)), IntMatrix(1, 3, (0, 1, 2)), 2, 3)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(1, 5)])
def test_cube_spectrum(n, d):
    cube = cube_spectrum(n, d)
    cells = tuple(product(range(n), repeat=d))
    assert cube.set.points == cells
    assert cube.spectrum.numerators.entries == tuple(c for cell in cells for c in cell)
    assert cube.group == GroupSpec(n, d)
    assert_validated(cube)


class TestProvenValuesAsValidated:
    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(spectral_parts())
    def test_compose_spectral(self, parts):
        hypothesis.assume(None not in parts)
        assert_validated(compose_spectral(*parts))

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 12), st.integers(1, 12))
    def test_progression(self, k, step):
        assert_validated(tiling._progression(k, step))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(tiling_parts())
    def test_compose_tile(self, parts):
        """The complement reduced in one pass is the validated reduction of
        the composed complement."""
        hypothesis.assume(None not in parts)
        left, right = parts
        m, n = left.group.modulus, right.group.modulus
        composed = tiling.compose_tile(left, right)
        assert_validated(composed)
        sigma = composed_set(left.complement, right.complement, m).reduced_mod(m * n)
        expected = composed_set(left.set, right.set, m)
        assert composed == TilingCertificate(GroupSpec(m * n, left.set.dimension), expected, sigma)


@st.composite
def extensions(draw):
    """T with distinct residues mod m (representatives in [-m, 2m)^d), m and n."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    cells = st.tuples(*[st.integers(0, m - 1)] * d)
    residues = draw(st.lists(cells, min_size=1, max_size=min(6, m**d), unique=True))
    shifts = st.tuples(*[st.integers(-1, 1)] * d)
    points = [
        tuple(r + m * s for r, s in zip(residue, draw(shifts))) for residue in residues
    ]
    return PointSet(d, tuple(points)), m, draw(st.integers(1, 3))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(extensions())
def test_reduction_multiplicity(drawn):
    """The report's arithmetic equals what T + m*[0,n)^d, built here, shows."""
    base, m, n = drawn
    d = base.dimension
    big = composed_set(base, PointSet(d, tuple(product(range(n), repeat=d))), m)
    report = tiling._obstruction_report(base, m, n, tiling.decide_m_tile(base, GroupSpec(m, d)))
    assert report.extension_size == len(big)
    assert report.size_divides == ((m * n) ** d % len(big) == 0)
    assert report.reduction_multiplicity == oracle_reduction_multiplicity(big, m, base)


class TestReductionMultiplicityCases:
    base = PointSet(2, ((0, 0), (1, -1)))
    cube = PointSet(2, ((0, 0), (0, 1), (1, 0), (1, 1)))

    def test_uniform(self):
        big = composed_set(self.base, self.cube, 3)
        verdict = tiling.decide_m_tile(self.base, GroupSpec(3, 2))
        assert tiling._obstruction_report(self.base, 3, 2, verdict).reduction_multiplicity == 4
        assert oracle_reduction_multiplicity(big, 3, self.base) == 4


class TestIntMatrixEntries:
    def test_list_input_becomes_a_tuple_of_ints(self):
        matrix = IntMatrix(1, 3, [1, -2, 3])
        assert matrix.entries == (1, -2, 3)
        assert type(matrix.entries) is tuple

    def test_bools_become_exact_ints(self):
        matrix = IntMatrix(1, 3, (True, False, 2))
        assert matrix.entries == (1, 0, 2)
        assert [type(x) for x in matrix.entries] == [int, int, int]

    def test_exact_int_tuple_is_kept_as_given(self):
        entries = (4, 5, 6, 7)
        assert IntMatrix(2, 2, entries).entries is entries

    def test_wrong_length_refused(self):
        with pytest.raises(ValueError, match="expected 4 entries"):
            IntMatrix(2, 2, (1, 2, 3))


class TestPhaseMatrixRange:
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_entry_outside_the_range_refused(self, bad):
        with pytest.raises(ValueError, match="reduced into"):
            PhaseMatrix(IntMatrix(1, 3, (0, bad, 4)), 5)

    def test_range_ends_accepted(self):
        assert PhaseMatrix(IntMatrix(1, 2, (0, 4)), 5).numerators.entries == (0, 4)
