"""The exact-cover engine, whose rows are one stacked translate each,
against the tuple-keyed lex-first oracle: same first cover, same node count
and the same limit rule, in the paper's dimension d = 4, in the trivial
group m = 1, and for the stacked rotation itself.  Its rows hold only the
masks anchored at their cell, and every mask the search tries is one."""

import builtins
import itertools
import random
import time

import pytest

from spectratile import spectral, tiling
from spectratile.counterexample import base_point_set
from spectratile.spectral import GroupSpec, PointSet, _Torus
from test_tiling import lex_first_oracle


def check_against_oracle(residues, m, d):
    """The engine's (cover, nodes) equals the oracle's, and under each limit
    it stops exactly as its rule says."""
    expected = lex_first_oracle(residues, m, d)
    nodes = expected[1]
    # The search stops without a cover on visiting node limit + 1, so a
    # faulty engine fails these bounded runs before the unbounded one.
    assert tiling._exact_cover(residues, m, d, limit=1) == (None, 2)
    assert tiling._exact_cover(residues, m, d, limit=nodes - 1) == (None, nodes)
    assert tiling._exact_cover(residues, m, d, limit=nodes) == expected
    assert tiling._exact_cover(residues, m, d) == expected
    return expected[0] is not None


def graph_set(rng, m, d):
    """{(x, f(x))} for a random f: Z_m^(d-1) -> Z_m, a tile (complement: the last axis)."""
    return [x + (rng.randrange(m),) for x in itertools.product(range(m), repeat=d - 1)]


CASES = [(m, d) for m in range(2, 7) for d in range(1, 5) if m**d % 8]


@pytest.mark.parametrize("m, d", CASES)
def test_stacked_rotation_matches_one_translate_per_copy(m, d):
    """Copies padded to whole bytes rotate as one translate each would, and
    the padding between them stays clear."""
    rng = random.Random(m * 10 + d)
    single = _Torus(m, d)
    for copies in (1, 2, 5):
        stacked = _Torus(m, d, copies)
        for _ in range(6):
            masks = [rng.getrandbits(m**d) for _ in range(copies)]
            row = [rng.randrange(-m, 2 * m) for _ in range(d)]
            expected = [single.translate(mask, row) for mask in masks]
            moved = stacked.translate(stacked.stack(masks), row)
            assert stacked.unstack(moved) == expected
            assert moved == stacked.stack(expected)


class TestDimensionFour:
    # Set sizes, dividing m^4 or not.  In Z_3^4 a random 4-point set can
    # take 30,000 nodes, so that size is left out.
    SIZES = {2: range(2, 16), 3: [3, 5, 6, 7, 8, 9, 10, 12, 16, 20, 27]}

    @pytest.mark.parametrize("m", SIZES)
    def test_random_sets(self, m):
        rng = random.Random(0x5EC7 + m)
        cells = list(itertools.product(range(m), repeat=4))
        sizes = self.SIZES[m]
        dividing = [k for k in sizes if len(cells) % k == 0]
        assert dividing and len(dividing) < len(sizes)
        outcomes = set()
        for k in sizes:
            for _ in range(3):
                tiles = check_against_oracle(rng.sample(cells, k), m, 4)
                outcomes.add((k in dividing, tiles))
        assert (True, True) in outcomes and (False, False) in outcomes

    @pytest.mark.parametrize("m", [2, 3])
    def test_graph_sets_tile(self, m):
        rng = random.Random(m)
        for _ in range(4):
            points = graph_set(rng, m, 4)
            rng.shuffle(points)
            assert check_against_oracle(points, m, 4)

    def test_the_base_set(self):
        residues = [tuple(c % 3 for c in p) for p in base_point_set().points]
        assert not check_against_oracle(residues, 3, 4)
        assert tiling._exact_cover(residues, 3, 4) == (None, 750)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trivial_group(d):
    assert check_against_oracle([(0,) * d], 1, d)
    assert tiling._exact_cover([(0,) * d], 1, d) == ([(0,) * d], 2)


def test_large_set_rows_cost_linear_bit_work():
    """The block [0,12)^2 x {0} of 144 points tiles Z_12^3 in 13 nodes.  Its
    rows are 144 masks of 1728 bits each.  Built one placement at a time,
    at O(k^2 * m^d) bit work per row, the search took 1.4 s on a 2-vCPU
    x86_64 VM; one stacked translate per row takes about 4 ms there.  The
    budget is ten times that, met by the best of three runs so that one
    stall of the machine does not fail it."""
    block = PointSet(3, tuple((a, b, 0) for a in range(12) for b in range(12)))
    assert tiling._exact_cover(block.points, 12, 3)[1] == 13
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        verdict = tiling.decide_m_tile(block, GroupSpec(12, 3))
        elapsed.append(time.perf_counter() - start)
    assert verdict.complement.points == tuple((0, 0, c) for c in range(12))
    assert min(elapsed) < 0.04


class TestAnchoredRows:
    """A row keeps the masks whose least set bit is its cell; a mask with a
    lower cell would fail its AND at every node that branches on the cell,
    so the tree and its node counts stay the lex engine's."""

    # z5d3k5-142 of the benchmark pool: the deepest exhausted search there.
    DEEP = [(2, 4, 1), (3, 3, 1), (4, 1, 1), (3, 0, 0), (0, 3, 2)]

    @pytest.fixture
    def search(self, monkeypatch):
        """_exact_cover, returning with its result the number of masks it
        tried and of rows it built, having checked that each mask tried is
        anchored at the cell of its row, and that each row is built once
        and holds the anchored masks of the whole row."""
        anchors = {}  # a row's masks -> its cell
        counts = {}
        unstack = spectral._Torus.unstack

        def rows(torus, stack, skip=0):
            floor = skip.bit_length()  # the row's cell: skip holds the cells below it
            assert skip == (1 << floor) - 1
            kept, whole = unstack(torus, stack, skip), unstack(torus, stack)
            # Every placement in the row of cell floor covers that cell.
            assert all(mask >> floor & 1 for mask in whole)
            assert kept == [mask for mask in whole if mask & -mask == 1 << floor]
            assert tuple(kept) not in anchors or not kept, "a row was built twice"
            anchors[tuple(kept)] = floor
            counts["rows"] += 1
            return kept

        def entries_of(entries):
            if not isinstance(entries, list):
                return builtins.iter(entries)  # an empty row, kept as an empty iterator
            # Before any row is built the list is the rooted root's, at cell 0.
            cell = anchors[tuple(entries)] if anchors else 0

            def tried():
                for mask in entries:
                    assert mask & -mask == 1 << cell
                    counts["tried"] += 1
                    yield mask

            return tried()

        def run(*args, **kwargs):
            anchors.clear()
            counts.update(tried=0, rows=0)
            return tiling._exact_cover(*args, **kwargs), dict(counts)

        monkeypatch.setattr(spectral._Torus, "unstack", rows)
        monkeypatch.setattr(tiling, "iter", entries_of, raising=False)
        return run

    def test_the_base_set(self, search):
        residues = [tuple(c % 3 for c in p) for p in base_point_set().points]
        # Unanchored, the 19 rows' 6 masks each made 4,500 tests.
        assert search(residues, 3, 4) == ((None, 750), {"tried": 2_592, "rows": 19})
        assert search(residues, 3, 4, rooted=True)[0] == (None, 137)

    def test_the_deepest_pool_search(self, search):
        assert search(self.DEEP, 5, 3)[0] == (None, 160_299)
        assert search(self.DEEP, 5, 3, rooted=True)[0] == (None, 29_257)
