"""The independence-chain verdicts recorded in perfbench/instances.json,
re-derived from the library: a change to independent_tile that moves a
selected row, a determinant, a modulus or a complement fails here, before
the benchmark runs.  The file is read, never written."""

import json

import pytest

from conftest import TESTS_DIR
from spectratile.guard import GuardExceeded
from spectratile.spectral import PointSet
from spectratile.tiling import independent_tile

INSTANCES = TESTS_DIR.parent / "perfbench" / "instances.json"
GUARD = 200_000  # the benchmark's independence-chain guard
POOL = json.loads(INSTANCES.read_text())["independence-chain"]
# Every tenth entry also reads final, which walks Z_M^d.
WALKED = POOL[::10]


def point_set(entry):
    points = tuple(map(tuple, entry["points"]))
    return PointSet(len(points[0]), points)


def test_every_recorded_verdict():
    assert len(POOL) == 600
    refused = 0
    for entry in POOL:
        expect = entry["expect"]
        if expect == "refusal":
            with pytest.raises(GuardExceeded):
                independent_tile(point_set(entry), GUARD)
            refused += 1
            continue
        chain = independent_tile(point_set(entry), GUARD)
        got = [list(chain.selected_rows), chain.determinant, chain.modulus]
        assert got == [expect["selected"], expect["determinant"], expect["modulus"]], entry["id"]
        d, k = len(entry["points"][0]), len(entry["points"])
        assert expect["complement"] * k == chain.modulus**d, entry["id"]
    assert refused == 28


def test_recorded_complements_of_a_fixed_subset():
    walked = 0
    for entry in WALKED:
        if entry["expect"] == "refusal":
            continue
        chain = independent_tile(point_set(entry), GUARD)
        assert len(chain.final.complement) == entry["expect"]["complement"], entry["id"]
        walked += 1
    assert walked == 58  # the 60 entries hold two refusals
