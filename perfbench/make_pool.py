"""Build perfbench/instances.json: the seeded instance pools and their verdicts.

    python3 perfbench/make_pool.py

Each family draws a fixed number of random sets from its own named stream
of ``random.Random``, certifies each one with the library through the same
workload code the benchmark runs, and records the verdict, the time the
certification took and the size of the serialized certificate.  The
benchmark later draws each run's batch from these pools with ``--seed`` and
checks every verdict against the one recorded here.  Time and size are used
only to choose that draw (see ``Workload.select``).  The time is in the
benchmark's scaled seconds (see ``clock.py``), the least of TIMING_PASSES
passes over the whole pool made after the pool is built, with the pool
itself frozen out of the garbage collector as the benchmark does.

A draw whose certification takes longer than CAP_S is left out of the pool
and counted in ``meta.excluded``: one such instance would be most of a batch.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spectratile as lib  # noqa: E402
from clock import Clock  # noqa: E402
from workloads import WORKLOADS, Instance, Refusal  # noqa: E402

CAP_S = 2.5
TIMING_PASSES = 3

# family -> (workload, modulus, dimension, set size, coordinate range, draws)
FAMILIES = {
    # deep lex-first searches; both tilings and exhausted non-tilings occur
    "z5d3k5": ("tile-decide", 5, 3, 5, 5, 400),
    # shallow searches
    "z4d3k8": ("tile-decide", 4, 3, 8, 4, 400),
    # points from [0, 2m)^d: colliding residues in about a third of the draws
    "dup": ("tile-decide", 4, 3, 8, 8, 200),
    # 6 does not divide 4^3
    "div": ("tile-decide", 4, 3, 6, 4, 200),
    "z8d3k8": ("spectrum-search", 8, 3, 8, 8, 300),
    "z6d2k6": ("spectrum-search", 6, 2, 6, 6, 300),
    "z6d3k12": ("spectrum-search", 6, 3, 12, 6, 150),
}
INDEPENDENT_DRAWS = 600


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def draw_cells(rng, side, dimension, k):
    cells = list(itertools.product(range(side), repeat=dimension))
    return [list(p) for p in rng.sample(cells, k)]


def draw_independent(rng):
    """One draw by the tier-1 rule: d in {2, 3}, k <= d, coordinates in [-3, 3]."""
    d = rng.choice([2, 3])
    k = rng.randint(1, min(d, 3))
    return [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]


def measure(workload, raw: dict, id_: str):
    """The pool entry for one draw, or None when it runs past CAP_S."""
    inst = Instance(id_, "", None, raw)
    workload.prepare(lib, inst)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    start = time.perf_counter()
    try:
        outcome = workload.certify(lib, inst)
    except Refusal:
        outcome = None
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    cost = time.perf_counter() - start
    env = workload.envelope(lib, inst, outcome) if outcome is not None else None
    return {
        "id": id_,
        **raw,
        "expect": workload.verdict(outcome),
        "cost_ms": round(cost * 1000, 2),
        "bytes": len(lib.serialize(env)) if env is not None else 0,
    }


def build() -> dict:
    pools: dict[str, list] = {"tile-decide": [], "spectrum-search": [], "independence-chain": []}
    excluded: dict[str, int] = {}

    def add(workload_name, entry, family):
        if entry is None:
            excluded[family] = excluded.get(family, 0) + 1
        else:
            pools[workload_name].append(entry)

    for family, (name, m, d, k, side, draws) in FAMILIES.items():
        rng = random.Random(family)
        for i in range(draws):
            raw = {"family": family, "m": m, "points": draw_cells(rng, side, d, k)}
            add(name, measure(WORKLOADS[name], raw, f"{family}-{i}"), family)
        print(family, "done", file=sys.stderr)

    rng = random.Random("independent")
    accepted = i = 0
    while accepted < INDEPENDENT_DRAWS:
        points = draw_independent(rng)
        i += 1
        if len({tuple(p) for p in points}) != len(points):
            continue
        try:
            entry = measure(WORKLOADS["independence-chain"], {"family": "indep", "points": points}, f"indep-{i}")
        except ValueError:
            continue  # linearly dependent draw
        accepted += 1
        add("independence-chain", entry, "indep")
    return {
        "meta": {
            "cap_s": CAP_S,
            "timing_passes": TIMING_PASSES,
            "excluded": excluded,
            "families": {**{f: list(v) for f, v in FAMILIES.items()}, "indep": ["independence-chain", INDEPENDENT_DRAWS]},
        },
        **pools,
    }


def retime(pool: dict, clock: Clock, first: bool) -> None:
    """Set each recorded cost to the fastest scaled time seen so far."""
    for name in ("tile-decide", "spectrum-search", "independence-chain"):
        workload = WORKLOADS[name]
        for entry in pool[name]:
            inst = Instance(entry["id"], "", None, entry)
            workload.prepare(lib, inst)
            start = clock.mark()
            try:
                workload.certify(lib, inst)
            except Refusal:
                pass
            cost = round(clock.elapsed(start)[0] * 1000, 3)
            entry["cost_ms"] = cost if first else min(entry["cost_ms"], cost)


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    pool = build()
    gc.collect()
    gc.freeze()
    with Clock() as clock:
        for n in range(TIMING_PASSES):
            retime(pool, clock, first=n == 0)
    path = HERE / "instances.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
