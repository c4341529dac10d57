"""The tile-decide verdicts recorded in perfbench/instances.json, re-derived
from the library: a change to the exact-cover engine that turns a tiling
into a refusal, or the reverse, fails here, before the benchmark runs.
Every dup, div and z4d3k8 entry is decided, and the z5d3k5 entries whose
recorded cost is below COST_CUT_MS (the deep searches above it take most of
the pool's time).  The file is read, never written."""

import json
from collections import Counter

import pytest

from conftest import TESTS_DIR
from spectratile.spectral import GroupSpec, PointSet
from spectratile.tiling import decide_m_tile, verify_tiling

INSTANCES = TESTS_DIR.parent / "perfbench" / "instances.json"
POOL = json.loads(INSTANCES.read_text())["tile-decide"]
COST_CUT_MS = 50
REASONS = {
    "DivisibilityObstruction": "divisibility",
    "DuplicateResidues": "duplicate",
    "ExhaustedSearch": "exhausted",
}


def verdict_class(entry):
    points = tuple(map(tuple, entry["points"]))
    d = len(points[0])
    verdict = decide_m_tile(PointSet(d, points), GroupSpec(entry["m"], d))
    if not hasattr(verdict, "reason"):
        assert verify_tiling(verdict), entry["id"]
        return "tiling"
    return REASONS[type(verdict.reason).__name__]


# The verdict mix of each family's decided entries.
EXPECTED = {
    "dup": {"exhausted": 126, "duplicate": 58, "tiling": 16},
    "div": {"divisibility": 200},
    "z4d3k8": {"exhausted": 349, "tiling": 51},
    "z5d3k5": {"tiling": 243, "exhausted": 46},
}


@pytest.mark.parametrize("family", EXPECTED)
def test_recorded_verdicts(family):
    entries = [e for e in POOL if e["family"] == family]
    if family == "z5d3k5":
        entries = [e for e in entries if e["cost_ms"] < COST_CUT_MS]
    seen = Counter()
    for entry in entries:
        got = verdict_class(entry)
        assert got == entry["expect"], entry["id"]
        seen[got] += 1
    assert seen == EXPECTED[family]
