"""The exact-cover engine's setup: both rules against a recursive oracle on
every small set, rows that share their masks, tori shared between searches
in one group, and the guard on the k copies of the group a search builds."""

import itertools
import random
import tracemalloc

import pytest

from spectratile import certio, spectral, tiling
from spectratile.cli import main
from spectratile.guard import GuardExceeded
from spectratile.spectral import GroupSpec, PointSet
from spectratile.tiling import (
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    decide_m_tile,
    replay_search,
)
from test_tiling import lex_first_oracle


def search_tree(residues, m, d, rooted):
    """The first cover and node count of the search, by recursion on sets of
    cells: branch on the least uncovered cell, try the points in order, and,
    rooted, try only the first point at the root.  Each call is one node."""
    cells = list(itertools.product(range(m), repeat=d))
    nodes = 0

    def visit(covered, chosen):
        nonlocal nodes
        nodes += 1
        if len(covered) == len(cells):
            return chosen
        cell = next(c for c in cells if c not in covered)
        for t in residues[:1] if rooted and not chosen else residues:
            sigma = tuple((a - b) % m for a, b in zip(cell, t))
            placed = {tuple((s + u) % m for s, u in zip(sigma, p)) for p in residues}
            if not placed & covered:
                cover = visit(covered | placed, chosen + [sigma])
                if cover is not None:
                    return cover
        return None

    return visit(frozenset(), []), nodes


def subsets_with_zero(m, d, k):
    """Every k-subset of Z_m^d that contains 0, with 0 first and last."""
    cells = list(itertools.product(range(m), repeat=d))
    for rest in itertools.combinations(cells[1:], k - 1):
        yield [cells[0], *rest]
        yield [*rest, cells[0]]


@pytest.mark.parametrize("m, d, k", [(4, 2, 2), (4, 2, 4), (2, 3, 2), (2, 3, 4)])
def test_both_rules_on_every_subset_with_zero(m, d, k):
    """Cover, node count and both limit stops, for each rule.  The oracle's
    lex tree is lex_first_oracle's; its rooted tree is that tree's first
    root branch: the same cover when the lex tree finds one, and fewer
    nodes when it exhausts, since each of the k root branches is a node."""
    outcomes = set()
    for residues in subsets_with_zero(m, d, k):
        lex = search_tree(residues, m, d, rooted=False)
        assert lex == lex_first_oracle(residues, m, d), residues
        rooted = search_tree(residues, m, d, rooted=True)
        if lex[0] is None:
            assert rooted[0] is None and rooted[1] < lex[1], residues
        else:
            assert rooted == lex, residues
        for expected, rule in ((lex, False), (rooted, True)):
            nodes = expected[1]
            run = tiling._exact_cover
            assert run(residues, m, d, rooted=rule) == expected, residues
            assert run(residues, m, d, nodes - 1, rooted=rule) == (None, nodes), residues
            assert run(residues, m, d, nodes, rooted=rule) == expected, residues
        outcomes.add(lex[0] is not None)
    # Every pair tiles, and so does every 4-subset of Z_2^3 with 0; 288 of
    # the 910 ordered 4-subsets of Z_4^2 with 0 do not.
    assert outcomes == ({True, False} if (m, k) == (4, 4) else {True})


def test_a_translate_invariant_set_gets_its_first_point():
    """The subgroup {0, 2}^2 of Z_4^2 is its own difference shape from each
    point, so every row holds one mask four times.  Each placement in the
    cover is the first point's, c - (2, 2) at the cells c = (0, 0), (0, 1),
    (1, 0) and (1, 1), as the search tried them."""
    points = [(2, 2), (0, 2), (2, 0), (0, 0)]
    expected = search_tree(points, 4, 2, rooted=False)
    assert tiling._exact_cover(points, 4, 2) == expected
    assert expected[0] == [(2, 2), (2, 3), (3, 2), (3, 3)]


def line(n):
    """The line {0} x Z_n of Z_n^2: every row is n copies of one mask."""
    return [(0, j) for j in range(n)]


def test_rows_share_equal_masks():
    """The rooted search of the Z_100^2 line builds 100 rows of 100 equal
    masks of 10^4 bits.  Shared, they peak at about 1.2 MB of traced memory;
    one int per row entry peaked at 7.6 MB."""
    tracemalloc.start()
    try:
        cover, nodes = tiling._exact_cover(line(100), 100, 2, rooted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 101 and cover == [(i, 0) for i in range(100)]
    assert peak < 4_000_000


class TestToriShared:
    def test_a_small_group_builds_its_tori_once(self):
        assert tiling._torus(4, 3) is tiling._torus(4, 3)
        assert tiling._torus(4, 3, 8) is tiling._torus(4, 3, 8)
        assert tiling._torus(4, 3, 8) is not tiling._torus(4, 3, 4)

    def test_cache_is_bounded_in_entries_and_in_entry_size(self):
        assert spectral._cached_torus.cache_info().maxsize <= 16
        # d * copies * m^d bits: Z_2^8 with 16 copies is at the limit.
        assert 8 * 16 * 2**8 == spectral._CACHED_TORUS_BITS
        assert tiling._torus(2, 8, 16) is tiling._torus(2, 8, 16)
        assert tiling._torus(2, 8, 17) is not tiling._torus(2, 8, 17)
        # The Z_100^2 line's rows are 100 copies of 10^4 bits: only the
        # single copy is kept after its search.
        spectral._cached_torus.cache_clear()
        tiling._exact_cover(line(100), 100, 2, rooted=True)
        assert spectral._cached_torus.cache_info().currsize == 1
        assert tiling._torus(100, 2) is tiling._torus(100, 2)


class TestSearchGuard:
    """The search builds k copies of Z_m^d, so k * m^d bits count against
    the guard before any of them is built."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        original = tiling._exact_cover

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tiling, "_exact_cover", recording)
        return calls

    def test_decide_counts_the_copies(self, spy):
        points = PointSet(2, tuple(line(100)))
        group = GroupSpec(100, 2)
        with pytest.raises(GuardExceeded, match="1000000 cells"):
            decide_m_tile(points, group, guard=999_999)
        assert spy == []
        assert isinstance(decide_m_tile(points, group, guard=1_000_000), TilingCertificate)
        assert len(spy) == 1

    def test_replay_counts_the_copies(self, spy):
        cert = NonTilingCertificate(
            GroupSpec(6, 1), PointSet(1, ((0,), (1,), (3,))), ExhaustedSearch(2, "rooted")
        )
        with pytest.raises(GuardExceeded, match="18 cells"):
            replay_search(cert, guard=17)
        assert spy == []
        assert replay_search(cert, guard=18)

    def test_refusals_that_build_nothing_are_not_counted(self):
        # A duplicate pair and a size that does not divide the order are
        # refused before the search, whatever k * m^d is.
        duplicate = PointSet(1, ((0,), (4,), (1,)))
        assert not isinstance(decide_m_tile(duplicate, GroupSpec(4, 1), guard=4), TilingCertificate)
        odd = PointSet(1, ((0,), (1,), (2,)))
        assert not isinstance(decide_m_tile(odd, GroupSpec(4, 1), guard=4), TilingCertificate)

    def test_hostile_replay_envelope_exits_two(self, tmp_path, capsys):
        """2,000 points of Z_200^2 with a claim of one node: the rows would
        hold 8 * 10^7 bits each, past the default guard, so the replay is
        refused as a usage error.  It raised peak memory by 49 MB when only
        the group's 40,000 cells were guarded."""
        rng = random.Random(2000)
        cells = rng.sample(range(200 * 200), 2000)
        points = PointSet(2, tuple(divmod(c, 200) for c in cells))
        cert = NonTilingCertificate(GroupSpec(200, 2), points, ExhaustedSearch(1, "rooted"))
        envelope = certio.CertificateEnvelope(
            certio.SCHEMA_VERSION,
            "non-tiling",
            cert,
            (certio.ProvenanceEntry("decide_m_tile", ("set",)),),
        )
        path = tmp_path / "hostile.json"
        path.write_bytes(certio.serialize(envelope))
        tracemalloc.start()
        try:
            status = main(["tile", "verify", str(path), "--replay"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert "80000000 cells exceeds the guard" in capsys.readouterr().err
        assert peak < 10_000_000
