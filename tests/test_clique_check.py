"""is_m_spectral's full-mask path checks the rows as a clique in
Cay(Z_m^d, Z(1_T)) with the step find_spectrum searches by: every row after l
lies in Z(1_T) translated to l."""

from itertools import product

import pytest

from cyclotomic_oracle import is_spectral_pair_by_division
from spectratile import spectral
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    PhaseMatrix,
    PointSet,
    _dense_pays,
    find_spectrum,
    is_m_spectral,
)


def spectrum_of(rows, m, d):
    return PhaseMatrix(IntMatrix(len(rows), d, tuple(c for row in rows for c in row)), m)


def counting_transforms(monkeypatch):
    built = []

    def build(*args):
        built.append(len(args[0]))
        return original(*args)

    original = spectral._transform
    monkeypatch.setattr(spectral, "_transform", build)
    return built


def test_box_spectrum_and_each_late_flaw(monkeypatch):
    """[0, 2) x [0, 4) in Z_4^2 has the spectrum {0, 2} x [0, 4).  Each row
    but the first is moved to every cell, so a broken pair involves a later
    row that only the steps of earlier rows can see."""
    built = counting_transforms(monkeypatch)
    m, d = 4, 2
    point_set = PointSet(d, tuple(product(range(2), range(4))))
    rows = [(2 * a, b) for a in range(2) for b in range(4)]
    assert _dense_pays(len(rows), m, d)
    assert is_m_spectral(point_set, spectrum_of(rows, m, d))
    flaws = 0
    for i in range(1, len(rows)):
        for shift in product(range(m), repeat=d):
            moved = list(rows)
            moved[i] = tuple((c + s) % m for c, s in zip(rows[i], shift))
            spectrum = spectrum_of(moved, m, d)
            verdict = is_m_spectral(point_set, spectrum)
            assert verdict == is_spectral_pair_by_division(point_set, spectrum)
            flaws += not verdict
    assert flaws
    assert built and set(built) == {8}


def test_find_spectrum_results_pass_the_clique_check(rng, monkeypatch):
    """Both sides use one step, so every spectrum the search returns passes,
    in any row order.  The sets are [0, 2) x [0, 4) in Z_4^2 with the two
    points of each column b shifted by 2 * s_b, so each is spectral; k = 8 < 16 and
    4^3 <= 2 * 8 * 7, so the check transforms."""
    built = counting_transforms(monkeypatch)
    m, d = 4, 2
    for _ in range(40):
        points = [
            (a + 2 * s + m * rng.randint(-1, 1), b)
            for b, s in zip(range(4), (rng.randrange(2) for _ in range(4)))
            for a in range(2)
        ]
        rng.shuffle(points)
        point_set = PointSet(d, tuple(points))
        found = find_spectrum(point_set, m)
        assert found is not None
        rows = [found.spectrum.row(i) for i in range(len(points))]
        rng.shuffle(rows)
        built.clear()  # find_spectrum transforms too
        assert is_m_spectral(point_set, spectrum_of(rows, m, d))
        assert built == [8]


def route_counts(monkeypatch):
    """How often _zero_set builds Z(1_T), and how often by a transform."""
    counts = {"mask": 0, "transform": 0}
    for name, key in (("_zero_set", "mask"), ("_transform", "transform")):

        def counting(*args, original=getattr(spectral, name), key=key):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(spectral, name, counting)
    return counts


def without(m, *cells):
    return PointSet(1, tuple((t,) for t in range(m) if t not in cells))


# (set, m, whether the mask is built, whether it is transformed).  The d = 1
# sets with m > k and m^2 <= 2k(k-1) take the pointwise mask: Z_12 and Z_15
# without a coset of order 3 have Z(1_T) = the xi prime to 3, so rows pass
# some pairs before they fail.
ROUTES = [
    (PointSet(2, tuple(product(range(2), range(4)))), 4, True, True),
    (PointSet(1, tuple((t,) for t in range(10))), 13, True, False),
    (without(12, 0, 4, 8), 12, True, False),
    (without(15, 0, 5, 10), 15, True, False),
    (PointSet(1, ((0,), (1,), (2,), (3,))), 13, False, False),
    (PointSet(2, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))), 6, False, False),
]


@pytest.mark.parametrize("point_set, m, mask, transform", ROUTES)
def test_agrees_with_long_division_on_each_route(rng, monkeypatch, point_set, m, mask, transform):
    """On both sides of _dense_pays, and on the full-mask side whether or not
    m <= k, the clique check gives the long-division verdict."""
    k, d = len(point_set), point_set.dimension
    assert _dense_pays(k, m, d) == mask
    assert transform == (mask and m <= k)
    cells = list(product(range(m), repeat=d))
    candidates = [rng.sample(cells, k) for _ in range(40)]
    found = find_spectrum(point_set, m)
    if found is not None:
        candidates.append([found.spectrum.row(i) for i in range(k)])
    counts = route_counts(monkeypatch)
    verdicts = set()
    for rows in candidates:
        spectrum = spectrum_of(rows, m, d)
        verdict = is_m_spectral(point_set, spectrum)
        assert verdict == is_spectral_pair_by_division(point_set, spectrum)
        verdicts.add(verdict)
    assert counts == {"mask": mask * len(candidates), "transform": transform * len(candidates)}
    assert verdicts == ({True, False} if found is not None else {False})
