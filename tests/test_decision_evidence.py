"""A tiling decision's one pass over its points: refusals that stay O(k)
in a large group, the duplicate pair it names, and the certificates of the
search, built by _proven, equal to what the checking constructors build."""

import itertools
import tracemalloc

import pytest

from spectratile.counterexample import base_point_set
from spectratile.guard import GUARD_ENV_VAR
from spectratile.spectral import GroupSpec, PointSet
from spectratile.tiling import (
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    decide_m_tile,
    replay_search,
)
from test_product_kernels import exact_ints, validated_point_set

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class TestRefusalsBuildNothing:
    """Z_3000^2 has 9 * 10^6 cells, within the default guard; one mask of
    them is 1.1 MB.  A refusal reads the points' indices alone."""

    GROUP = GroupSpec(3000, 2)

    @pytest.fixture(autouse=True)
    def default_guard(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV_VAR, raising=False)

    def refuse(self, points):
        point_set = PointSet(2, points)
        tracemalloc.start()
        try:
            verdict = decide_m_tile(point_set, self.GROUP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        return verdict.reason

    def test_a_colliding_pair(self):
        reason = self.refuse(((0, 0), (1, 2), (3000, 0)))
        assert reason == DuplicateResidues((0, 0), (3000, 0))

    def test_a_size_that_does_not_divide_the_order(self):
        points = tuple((i, i * i) for i in range(7))
        assert self.refuse(points) == DivisibilityObstruction(7, 9_000_000)


def first_collision(points, m):
    """The first point whose residue repeats an earlier one, after that earlier point."""
    seen = {}
    for p in points:
        residue = tuple(c % m for c in p)
        if residue in seen:
            return seen[residue], p
        seen[residue] = p
    return None


def test_every_three_points_of_the_square_name_the_first_collision():
    """[0, 8)^2 taken mod 4, each 3-subset in both orders: 3 does not
    divide 16, so a set without a collision is refused for its size."""
    group = GroupSpec(4, 2)
    kinds = set()
    for subset in itertools.combinations(itertools.product(range(8), repeat=2), 3):
        for points in (subset, subset[::-1]):
            reason = decide_m_tile(PointSet(2, points), group).reason
            pair = first_collision(points, 4)
            expected = DuplicateResidues(*pair) if pair else DivisibilityObstruction(3, 16)
            assert reason == expected, points
            kinds.add(type(reason))
    assert kinds == {DuplicateResidues, DivisibilityObstruction}


def validated(cert):
    """The certificate the checking constructors build from cert's fields."""
    group = GroupSpec(cert.group.modulus, cert.group.dimension)
    point_set = validated_point_set(cert.set)
    if isinstance(cert, TilingCertificate):
        return TilingCertificate(group, point_set, validated_point_set(cert.complement))
    reason = cert.reason
    if isinstance(reason, ExhaustedSearch):
        assert type(reason.nodes) is int and type(reason.rule) is str
        reason = ExhaustedSearch(reason.nodes, reason.rule)
    return NonTilingCertificate(group, point_set, reason)


def outcome(cert):
    if isinstance(cert, TilingCertificate):
        return "tiling"
    reason = cert.reason
    return reason.rule if isinstance(reason, ExhaustedSearch) else type(reason).__name__


def check_decisions(point_set, group):
    """Both rules' certificates equal their validated rebuilds, and an
    exhausted search replays; the outcome of each rule is returned."""
    outcomes = []
    for shortcut in (True, False):
        cert = decide_m_tile(point_set, group, divisibility_shortcut=shortcut)
        assert validated(cert) == cert
        if isinstance(cert, TilingCertificate):
            assert all(map(exact_ints, cert.complement.points))
        elif isinstance(cert.reason, ExhaustedSearch):
            assert replay_search(cert)
        outcomes.append(outcome(cert))
    return outcomes


class TestProvenSearchCertificates:
    def test_the_base_set(self):
        base = base_point_set()
        assert check_decisions(base, GroupSpec(3, 4)) == ["DivisibilityObstruction", "lex"]
        lex = decide_m_tile(base, GroupSpec(3, 4), divisibility_shortcut=False)
        assert lex.reason == ExhaustedSearch(750, "lex")

    def test_fixed_sets_reach_every_outcome(self):
        group = GroupSpec(4, 2)
        tile = PointSet(2, ((0, 0), (4, 1), (-3, 2), (1, 7)))  # a column of Z_4^2, unreduced
        stuck = PointSet(2, ((0, 0), (1, 0), (0, 1), (2, 2)))  # no tiling of Z_4^2
        assert check_decisions(tile, group) == ["tiling", "tiling"]
        assert check_decisions(stuck, group) == ["rooted", "lex"]

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def test_small_sets(self, data):
        """Up to six points from [-m, 2m)^d, d <= 3 and m <= 4."""
        d = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 4))
        cells = st.tuples(*[st.integers(-m, 2 * m - 1)] * d)
        points = data.draw(st.lists(cells, min_size=1, max_size=min(6, m**d), unique=True))
        check_decisions(PointSet(d, tuple(points)), GroupSpec(m, d))
