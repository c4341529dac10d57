"""The full-group lemma: when k = m^d, a set and a spectrum are a spectral
pair exactly when the k rows are distinct and the k points are distinct
mod m, so is_m_spectral decides without a character sum."""

from itertools import product

import pytest

from cyclotomic_oracle import is_spectral_pair_by_division
from spectratile import spectral
from spectratile.certio import parse, serialize
from spectratile.counterexample import run_counterexample
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    PhaseMatrix,
    PointSet,
    cube_spectrum,
    is_m_spectral,
    verify_spectrum,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SHAPES = [(m, d) for m in range(1, 6) for d in range(1, 4) if m**d <= 64]


def spectrum_of(rows, m, d):
    return PhaseMatrix(IntMatrix(len(rows), d, tuple(c for row in rows for c in row)), m)


@st.composite
def full_groups(draw):
    """All of Z_m^d as points, each shifted by a multiple of m, and all of
    Z_m^d as rows, both shuffled; sometimes with one point moved onto another
    point's residue, or one row repeated."""
    m, d = draw(st.sampled_from(SHAPES))
    cells = list(product(range(m), repeat=d))
    k = len(cells)
    shift = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    shifts = draw(st.lists(shift, min_size=k, max_size=k))
    points = [tuple(c + m * s for c, s in zip(cell, sh)) for cell, sh in zip(cells, shifts)]
    points = list(draw(st.permutations(points)))
    rows = list(draw(st.permutations(cells)))
    flaw = draw(st.sampled_from(["none", "collision", "repeated row"])) if k > 1 else "none"
    if flaw != "none":
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        if flaw == "collision":
            # Every other shift is at most 2 in size, so the point stays distinct.
            points[i] = tuple(c + 7 * m for c in points[j])
        else:
            rows[i] = rows[j]
    return m, d, PointSet(d, tuple(points)), spectrum_of(rows, m, d), flaw


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(full_groups())
def test_agrees_with_the_pairwise_check(drawn):
    m, d, points, spectrum, flaw = drawn
    verdict = is_m_spectral(points, spectrum)
    assert verdict == is_spectral_pair_by_division(points, spectrum)
    assert verdict == (flaw == "none")


@pytest.mark.parametrize("m, d", SHAPES)
def test_cube_is_spectral_and_each_flaw_is_refused(m, d):
    cube = cube_spectrum(m, d)
    assert is_m_spectral(cube.set, cube.spectrum)
    if m**d == 1:
        return
    rows = [cube.spectrum.row(i) for i in range(m**d)]
    repeated = spectrum_of([rows[0]] + rows[:-1], m, d)
    assert not is_m_spectral(cube.set, repeated)
    points = list(cube.set.points)
    points[-1] = tuple(c + m for c in points[0])
    assert not is_m_spectral(PointSet(d, tuple(points)), cube.spectrum)


def test_cube_is_checked_without_character_sums(monkeypatch):
    def refuse(*args):
        raise AssertionError("a character sum was computed")

    cube = cube_spectrum(6, 4)
    monkeypatch.setattr(spectral, "_transform", refuse)
    monkeypatch.setattr(spectral, "_pointwise", refuse)
    assert verify_spectrum(cube)


def test_bundle_parses_without_character_sums_of_the_cube(monkeypatch):
    """parse of the n = 3 bundle computes character sums over one set only,
    the phase matrix's six unit vectors, pointwise: that check and the
    factorization prove the six-point base, and the 81-point cube is all of
    Z_3^4 by construction, so neither is checked again."""
    data = serialize(run_counterexample(3).envelope)
    sets = []

    def refusing(original):
        def build(points, how, *rest):
            # _pointwise is given a decision, _transform the torus.
            m = how.m if isinstance(how, spectral._Torus) else how.modulus
            if len(points) == m ** len(points[0]):
                raise AssertionError("a full group reached a character sum")
            sets.append(tuple(map(tuple, points)))
            return original(points, how, *rest)

        return build

    monkeypatch.setattr(spectral, "_transform", refusing(spectral._transform))
    monkeypatch.setattr(spectral, "_pointwise", refusing(spectral._pointwise))
    parse(data)
    assert sets == [tuple(tuple(int(i == j) for j in range(6)) for i in range(6))]


def test_modulus_past_the_cyclotomic_bound_still_raises():
    m = 10_001
    points = PointSet(1, tuple((t,) for t in range(m)))
    spectrum = spectrum_of([(l,) for l in range(m)], m, 1)
    with pytest.raises(ValueError, match=r"index must lie in \[1, 10000\], got 10001"):
        is_m_spectral(points, spectrum)
