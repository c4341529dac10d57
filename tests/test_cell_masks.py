"""Cell bitmasks: the one bit-setting loop behind _Torus.mask and the zero
set, tilings checked and lifted on them, the coverage check's memory, and
the guard on the orders they walk."""

import random
import tracemalloc
from itertools import compress, count

import pytest

from spectratile import certio
from spectratile.cli import main
from spectratile.guard import GuardExceeded
from spectratile.modlinalg import IntMatrix
from spectratile.spectral import (
    GroupSpec,
    PointSet,
    _cell_mask,
    _Torus,
    format_point_set,
    fourier_zero_set,
)
from spectratile.tiling import TilingCertificate, lift_tile, verify_tiling


def line_tiling(n: int) -> TilingCertificate:
    """The line {(i, 0)} with complement {(0, j)}: a tiling of Z_n^2."""
    return TilingCertificate(
        GroupSpec(n, 2),
        PointSet(2, tuple((i, 0) for i in range(n))),
        PointSet(2, tuple((0, j) for j in range(n))),
    )


@pytest.mark.parametrize("m, d", [(1, 3), (2, 3), (3, 2), (4, 3), (5, 1), (6, 2)])
def test_mask_sets_each_listed_cell_once(m, d):
    """Unreduced and repeated coordinates set the bit of their cell's
    position in lexicographic order, once."""
    rng = random.Random(m * 10 + d)
    order = list(GroupSpec(m, d).elements())
    torus = _Torus(m, d)
    for _ in range(8):
        size = rng.randint(1, m**d + 3)
        points = [tuple(rng.randrange(-2 * m, 2 * m) for _ in range(d)) for _ in range(size)]
        cells = {tuple(c % m for c in p) for p in points}
        assert torus.mask(zip(*points)) == sum(1 << order.index(cell) for cell in cells)


@pytest.mark.parametrize("m, d", [(1, 4), (2, 4), (3, 3), (4, 4), (5, 2), (6, 3), (7, 1)])
def test_cells_are_the_indices_of_the_reduced_rows(m, d):
    """Unreduced and negative coordinates give, in the order listed and
    repeats kept, the index of their reduced row, its position in
    lexicographic order."""
    rng = random.Random(m * 100 + d)
    order = list(GroupSpec(m, d).elements())
    torus = _Torus(m, d)
    points = [tuple(rng.randrange(-3 * m, 3 * m) for _ in range(d)) for _ in range(20)]
    points += points[:3]
    reduced = [tuple(c % m for c in p) for p in points]
    assert list(torus.cells(zip(*points))) == list(map(torus.index, reduced))
    assert list(map(torus.index, reduced)) == list(map(order.index, reduced))


class TestVerifyTilingMemory:
    """Coverage is counted on one bit per cell, not one int per cell."""

    def test_line_tiling_of_z1000_squared(self):
        cert = line_tiling(1000)
        tracemalloc.start()
        try:
            assert verify_tiling(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A set of the 10**6 cell indices peaked at 70 MB.
        assert peak < 8_000_000

    def test_repeated_complement_residue_leaves_a_cell_uncovered(self):
        cert = line_tiling(6)
        repeated = (0, 6)  # (0, 0) again, mod 6
        complement = PointSet(2, cert.complement.points[:-1] + (repeated,))
        assert not verify_tiling(TilingCertificate(cert.group, cert.set, complement))


class TestTilingGuard:
    """A tiling's sizes multiply to its order, which the guard bounds before
    anything walks it."""

    @pytest.fixture
    def envelope(self, tmp_path):
        """The Z_100^2 line tiling as tile decide writes it."""
        set_file = tmp_path / "line.txt"
        set_file.write_text(format_point_set(line_tiling(100).complement))
        out = tmp_path / "line.json"
        argv = ["tile", "decide", "--set", str(set_file), "-m", "100", "--json", str(out)]
        assert main(argv) == 0
        return out

    def test_parse_refuses_over_the_guard(self, envelope, monkeypatch):
        data = envelope.read_bytes()
        assert certio.parse(data).kind == "tiling"
        monkeypatch.setenv("SPECTRATILE_GUARD", "1000")
        with pytest.raises(GuardExceeded, match="exceeds the guard of 1000"):
            certio.parse(data)

    def test_tile_verify_exits_two(self, envelope, monkeypatch, capsys):
        monkeypatch.setenv("SPECTRATILE_GUARD", "1000")
        assert main(["tile", "verify", str(envelope)]) == 2
        captured = capsys.readouterr()
        assert "exceeds the guard of 1000" in captured.err
        assert "verifies" not in captured.out

    def test_lift_checks_the_base_order(self):
        # phi(x) = (x, 0) pulls the line tiling of Z_100^2 back to Z_100.
        points = PointSet(1, tuple((i,) for i in range(100)))
        phi = IntMatrix.from_rows([[1], [0]])
        base = line_tiling(100)
        assert lift_tile(points, phi, base, guard=10_000).complement.points == ((0,),)
        with pytest.raises(GuardExceeded, match="exceeds the guard of 1000"):
            lift_tile(points, phi, base, guard=1000)


@pytest.mark.parametrize("m, d", [(1, 2), (2, 3), (3, 2), (5, 1), (6, 2)])
def test_flag_mask_equals_listed_mask(m, d):
    """_zero_set's mask from the indices of its true flags is the mask of
    the flagged cells listed by coordinates, with none, all, and repeated
    or unreduced cells."""
    rng = random.Random(m * 10 + d)
    order = list(GroupSpec(m, d).elements())
    torus = _Torus(m, d)
    draws = [[rng.random() < 0.5 for _ in order] for _ in range(6)]
    for flags in [[False] * len(order), [True] * len(order)] + draws:
        listed = [cell for cell, flag in zip(order, flags) if flag]
        again = [tuple(c + m * rng.randint(-2, 2) for c in cell) for cell in listed]
        built = _cell_mask(compress(count(), flags), torus.width)
        assert built == torus.mask(zip(*listed)) == torus.mask(zip(*(listed + again)))
        assert built.bit_count() == len(listed)


@pytest.mark.parametrize("m, d", [(2, 3), (4, 2), (6, 1)])
def test_zero_set_of_a_point_and_of_the_whole_group(m, d):
    """One point's sum never vanishes: the empty mask.  The whole group,
    once or with each cell twice, vanishes at every xi but 0.  Both routes."""
    cells = list(GroupSpec(m, d).elements())
    twice = cells + [tuple(c + m for c in cell) for cell in cells]
    for guard in (None, m**d):  # m**d cells leave no room for the transform
        assert fourier_zero_set(PointSet(d, (cells[-1],)), m, guard) == 0
        for points in (cells, twice):
            assert fourier_zero_set(PointSet(d, tuple(points)), m, guard) == (1 << m**d) - 2


class TestLiftBaseMask:
    """lift_tile checks its base on the complement mask it walks."""

    @pytest.fixture
    def masks(self, monkeypatch):
        built = []
        original = _Torus.mask

        def counting(torus, columns):
            built.append(torus.m)
            return original(torus, columns)

        monkeypatch.setattr(_Torus, "mask", counting)
        return built

    def test_one_base_mask_per_lift(self, masks):
        points = PointSet(1, tuple((i,) for i in range(6)))
        phi = IntMatrix.from_rows([[1], [0]])
        lifted = lift_tile(points, phi, line_tiling(6))
        assert lifted.complement.points == ((0,),)
        assert masks == [6]

    def test_base_that_does_not_tile_raises(self, masks):
        base = line_tiling(6)
        overlapping = PointSet(2, base.complement.points[:-1] + ((0, 6),))
        base = TilingCertificate(base.group, base.set, overlapping)
        points = PointSet(1, tuple((i,) for i in range(6)))
        with pytest.raises(ValueError, match="base tiling fails verification"):
            lift_tile(points, IntMatrix.from_rows([[1], [0]]), base)
        assert masks == [6]
