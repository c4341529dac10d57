"""_Torus.translate against a per-cell reference, on tori that keep their
rotations and on tori that build each one afresh, and the bound on what
the kept rotations hold.

The reference moves each set cell of each copy by the row, coordinate by
coordinate mod m, so a wrong kept rotation fails here even though every
translate on that torus reads the same one."""

import itertools
import random
import sys

import pytest

from spectratile import spectral

# The bound the docstrings of _Torus.rotations and _shared state, per torus.
TABLE_BYTES = 40 * 1024


def reference_translate(torus, mask, row):
    """Each set cell of each copy moved by row, one cell at a time."""
    m, d = torus.m, len(torus.strides)
    cells = list(itertools.product(range(m), repeat=d))
    index = {cell: j for j, cell in enumerate(cells)}
    moved = 0
    for copy in range(len(torus.cuts)):
        base = copy * torus.width * 8
        for j, cell in enumerate(cells):
            if mask >> base + j & 1:
                target = tuple((c + r) % m for c, r in zip(cell, row))
                moved |= 1 << base + index[target]
    return moved


def random_stack(rng, torus):
    return torus.stack([rng.getrandbits(torus.m ** len(torus.strides)) for _ in torus.cuts])


def kept(m, d, copies):
    return spectral._shared(m, d, copies * (m - 1))


SHARED = [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2), (6, 2), (3, 4), (4, 3), (5, 3)]


@pytest.mark.parametrize("copies", [1, 2, 5])
@pytest.mark.parametrize("m, d", SHARED)
def test_every_amount_on_every_axis_matches_the_reference(m, d, copies):
    """Amounts from -m to 2m - 1 on each axis, each row translated twice so
    that the second reads what the first kept, then rows on all axes."""
    torus = spectral._torus(m, d, copies)
    assert spectral._shared(m, d, copies)
    rng = random.Random(m * 100 + d * 10 + copies)
    mask = random_stack(rng, torus)
    for axis in range(d):
        for amount in range(-m, 2 * m):
            row = [0] * d
            row[axis] = amount
            expected = reference_translate(torus, mask, row)
            assert torus.translate(mask, row) == expected, (axis, amount)
            assert torus.translate(mask, iter(row)) == expected, (axis, amount)
    for _ in range(8):
        row = [rng.randrange(-2 * m, 3 * m) for _ in range(d)]
        assert torus.translate(mask, row) == reference_translate(torus, mask, row), row
    if kept(m, d, copies):
        assert [len(rotations) for rotations in torus.rotations] == [m - 1] * d
    else:
        assert not any(torus.rotations)


@pytest.mark.parametrize(
    "m, d, copies",
    [
        (2, 8, 17),  # past _shared's bound: built per call
        (100, 2, 1),  # shared, but its 2 * 99 rotations of 10^4 bits are not kept
        (6, 4, 5),  # shared, and 4 * 5 * 5 rotations of 1,296 bits are past the bound
    ],
)
def test_a_torus_past_the_bound_keeps_no_rotation(m, d, copies):
    torus = spectral._torus(m, d, copies)
    assert not kept(m, d, copies)
    assert (torus is spectral._torus(m, d, copies)) == spectral._shared(m, d, copies)
    rng = random.Random(m + d + copies)
    mask = random_stack(rng, torus)
    for _ in range(3):
        row = [rng.randrange(-m, 2 * m) for _ in range(d)]
        assert torus.translate(mask, row) == reference_translate(torus, mask, row), row
    assert not any(torus.rotations)


def kept_tori():
    """Every (m, d, copies) whose rotations a torus keeps, m >= 2 and at most
    m^d copies, as every caller asks for: 1,973 of them."""
    for d in itertools.takewhile(lambda d: kept(2, d, 1), itertools.count(1)):
        for m in itertools.takewhile(lambda m: kept(m, d, 1), itertools.count(2)):
            copies = itertools.takewhile(lambda c: kept(m, d, c), range(1, m**d + 1))
            yield from ((m, d, c) for c in copies)


def table_bytes(torus):
    """sys.getsizeof of the per-axis dicts, their tuples and the ints in them."""
    size = sys.getsizeof
    return sum(
        size(rotations) + sum(size(entry) + sum(map(size, entry)) for entry in rotations.values())
        for rotations in torus.rotations
    )


def test_the_fullest_tables_stay_within_the_stated_bound():
    """Each kept torus with every rotation made; the worst is Z_181 with one
    copy, 180 rotations of 181 bits, about 37 KB by sys.getsizeof."""
    worst = (0, None)
    count = 0
    for m, d, copies in kept_tori():
        torus = spectral._Torus(m, d, copies)
        for axis, amount in itertools.product(range(d), range(1, m)):
            torus.translate(0, [amount if a == axis else 0 for a in range(d)])
        assert [len(rotations) for rotations in torus.rotations] == [m - 1] * d
        worst = max(worst, (table_bytes(torus), (m, d, copies)))
        count += 1
    assert count == 1973
    assert worst[1] == (181, 1, 1)
    assert worst[0] <= TABLE_BYTES
    assert spectral._cached_torus.cache_info().maxsize * TABLE_BYTES == 640 * 1024
