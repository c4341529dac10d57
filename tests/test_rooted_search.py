"""The rooted exact-cover rule: decide_m_tile fixes the search's root to
the first point's placement, by the translation lemma in _exact_cover's
docstring, and records the rule with the node count so a replay runs the
same search.  The lex rule stays the engine's default and the rule of
decide_m_tile without its divisibility shortcut."""

import json

import pytest

import spectratile.tiling as tiling_module
from conftest import TESTS_DIR
from spectratile import certio
from spectratile.counterexample import base_point_set
from spectratile.spectral import GroupSpec, PointSet
from spectratile.tiling import (
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    decide_m_tile,
    replay_search,
)

POOL = json.loads((TESTS_DIR.parent / "perfbench" / "instances.json").read_text())["tile-decide"]
COST_CUT_MS = 50
# Every recorded tile-decide refusal by an exhausted search that is cheap
# enough for tier-1.  The file is read, never written.
EXHAUSTED = [e for e in POOL if e["expect"] == "exhausted" and e["cost_ms"] <= COST_CUT_MS]


def line_set(*values):
    return PointSet(1, tuple((v,) for v in values))


def rooted(point_set, group, nodes):
    return NonTilingCertificate(group, point_set, ExhaustedSearch(nodes, rule="rooted"))


@pytest.mark.parametrize("family", sorted({e["family"] for e in EXHAUSTED}))
def test_recorded_refusals_agree_with_the_lex_engine(family):
    entries = [e for e in EXHAUSTED if e["family"] == family]
    assert entries
    for entry in entries:
        points = tuple(map(tuple, entry["points"]))
        d, m = len(points[0]), entry["m"]
        verdict = decide_m_tile(PointSet(d, points), GroupSpec(m, d))
        assert isinstance(verdict, NonTilingCertificate), entry["id"]
        reason = verdict.reason
        assert reason.rule == "rooted", entry["id"]
        assert replay_search(verdict), entry["id"]
        residues = [tuple(c % m for c in p) for p in points]
        lex_cover, lex_nodes = tiling_module._exact_cover(residues, m, d)
        assert lex_cover is None, entry["id"]
        assert reason.nodes <= lex_nodes, entry["id"]


class TestNodePins:
    def test_counterexample_base(self):
        base = base_point_set()
        assert tiling_module._exact_cover(base.points, 3, 4, rooted=True) == (None, 137)
        assert tiling_module._exact_cover(base.points, 3, 4) == (None, 750)

    def test_without_the_shortcut_the_rule_stays_lex(self):
        verdict = decide_m_tile(base_point_set(), GroupSpec(3, 4), divisibility_shortcut=False)
        assert verdict.reason == ExhaustedSearch(750)
        assert verdict.reason.rule == "lex"

    @pytest.mark.parametrize(
        "points, m",
        [
            (((0,), (1,)), 4),
            (((0,), (2,)), 8),
            (((0, 0), (1, 0), (0, 1), (1, 1)), 4),
            (((0, 0, 0), (1, 2, 3), (2, 1, 1), (3, 3, 2)), 4),
        ],
    )
    def test_a_tiling_is_the_lex_first_cover(self, points, m):
        # The rooted tree is the lex tree's first root branch, and a tiling
        # that exists puts t_0 at cell 0, so both return one cover.
        d = len(points[0])
        rooted_run = tiling_module._exact_cover(points, m, d, rooted=True)
        assert rooted_run == tiling_module._exact_cover(points, m, d)
        assert isinstance(decide_m_tile(PointSet(d, points), GroupSpec(m, d)), TilingCertificate)


class TestRootedReplay:
    def test_only_the_exact_count_replays(self):
        verdict = decide_m_tile(line_set(0, 2, 4, 7), GroupSpec(12, 1))
        nodes = verdict.reason.nodes
        assert verdict.reason == ExhaustedSearch(5, rule="rooted")
        assert replay_search(verdict)
        for claim in (nodes - 1, nodes + 1):
            assert not replay_search(rooted(verdict.set, verdict.group, claim)), claim
        # The lex search visits 13 nodes, so the same claim does not replay lex.
        lex = NonTilingCertificate(verdict.group, verdict.set, ExhaustedSearch(nodes))
        assert not replay_search(lex)

    def test_a_tiling_set_does_not_replay(self):
        for nodes in (1, 2, 3, 5):
            assert not replay_search(rooted(line_set(0, 1), GroupSpec(4, 1), nodes))


class TestRuleField:
    def test_default_is_lex(self):
        assert ExhaustedSearch(750) == ExhaustedSearch(750, rule="lex")
        assert ExhaustedSearch(750) != ExhaustedSearch(750, rule="rooted")

    @pytest.mark.parametrize("rule", ["", "Lex", "mrv", None, 0])
    def test_unknown_rule_is_refused(self, rule):
        with pytest.raises(ValueError):
            ExhaustedSearch(3, rule=rule)

    def test_each_rule_has_its_reason_kind(self):
        group, points = GroupSpec(6, 1), line_set(0, 1, 3)
        for rule, kind in (("lex", "exhausted-search"), ("rooted", "rooted-search")):
            cert = NonTilingCertificate(group, points, ExhaustedSearch(2, rule=rule))
            envelope = certio.CertificateEnvelope(
                certio.SCHEMA_VERSION,
                "non-tiling",
                cert,
                (certio.ProvenanceEntry("decide_m_tile", ("set",)),),
            )
            data = certio.serialize(envelope)
            assert json.loads(data)["payload"]["reason"] == {"kind": kind, "nodes": "2"}
            parsed = certio.parse(data)
            assert parsed.payload.reason == cert.reason
            assert certio.trust_marker(parsed) == "replay-required"
