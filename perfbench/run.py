"""Certify-and-verify benchmark for spectratile.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One process runs one workload, so the
library's caches and the peak memory start cold, as they do for a CLI user.
A run draws its batch from ``--seed``, then repeats the batch in rounds for
``--seconds`` seconds (always at least one round, and no further round that
would end past the limit).  Every round checks every output; an instance
fails on an exception other than an explicit refusal, a wrong verdict, a
failing pipeline step, a golden-file mismatch, or a serialize -> parse ->
serialize round trip that is not byte-identical.  Any failure makes the run
exit with status 1.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` one traced round runs first, cold, and the last line holds the
per-layer metrics of that round plus the tracing overhead against the
untraced rounds that follow.  The spans go to ``perfbench/out/``.
See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from spans import EXACT_COUNT_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Refusal, percentile, verdict_mix  # noqa: E402

PACKAGE = "spectratile"
SRC = Path("src")
OUT = HERE / "out"
SETUP_REPEATS = 7
HASH_SEED = "0"


def setup(workload, batch):
    """Import the library afresh, then build the batch's program inputs."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module(PACKAGE)
    if Path(lib.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {lib.__file__}, not from {SRC}")
    for inst in batch:
        workload.prepare(lib, inst)
    return lib


def run_instance(workload, lib, inst, clock, tracer=None) -> dict:
    """Certify one instance, then serialize and parse its certificate.

    Only timings, the verdict and counts leave this function, so one
    instance's certificate is garbage before the next instance starts.
    """
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    out = {"certify": (0.0, 0.0), "verify": (0.0, 0.0), "bytes": 0, "refused": 0, "verdict": None, "problems": []}
    out["counts"], out["steps"] = {}, {}
    try:
        outcome = data = None
        start = clock.mark()
        try:
            with span("certify"):
                outcome = workload.certify(lib, inst)
        except Refusal:
            out["refused"] = 1
        out["certify"] = clock.elapsed(start)
        env = workload.envelope(lib, inst, outcome) if outcome is not None else None
        if env is not None:
            start = clock.mark()
            with span("verify"):
                data = lib.serialize(env)
                parsed = lib.parse(data)
                lib.trust_marker(parsed)
            out["verify"] = clock.elapsed(start)
            out["bytes"] = len(data)
            if tracer:
                tracer.on = False
            if lib.serialize(parsed) != data:
                out["problems"].append("serialize -> parse -> serialize is not byte-identical")
        out["verdict"] = workload.verdict(outcome)
        if out["verdict"] != inst.expect:
            out["problems"].append(f"verdict {out['verdict']!r}, recorded {inst.expect!r}")
        out["problems"] += workload.check(inst, outcome, data)
        out["counts"] = workload.count(outcome)
        out["steps"] = {step.name: step.seconds for step in getattr(outcome, "steps", ())}
    except Exception:  # any other exception is a failed instance
        out["problems"].append(traceback.format_exc())
    finally:
        if tracer:
            tracer.on = True
    return out


def run_round(workload, lib, batch, clock, tracer=None) -> dict:
    """One pass over the batch; timings are (scaled, wall) pairs."""
    gc.collect()
    results = []
    for inst in batch:
        if tracer:
            tracer.instance = inst.id
        results.append(run_instance(workload, lib, inst, clock, tracer))
    counts, steps = Counter(), Counter()
    for r in results:
        counts.update(r["counts"])
        steps.update(r["steps"])
    verdicts = [[inst.id, r["verdict"]] for inst, r in zip(batch, results)]
    return {
        "certify": [r["certify"] for r in results],
        "verify": [r["verify"] for r in results],
        "problems": [f"{inst.id}: {p}" for inst, r in zip(batch, results) for p in r["problems"]],
        "failed": sum(bool(r["problems"]) for r in results),
        "steps": steps,
        "counts": {
            "attempted": len(batch),
            "refusals": sum(r["refused"] for r in results),
            "cert_bytes": sum(r["bytes"] for r in results),
            "verdict_digest": hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest(),
            **counts,
        },
    }


def source_hash() -> str:
    """Identifies the program and benchmark code that produced a set of counts."""
    digest = hashlib.sha256()
    for root in (SRC / PACKAGE, HERE):
        for path in sorted(root.rglob("*")):
            if path.suffix in (".py", ".txt", ".json") and "out" not in path.relative_to(root).parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(args, counts: dict) -> list[str]:
    """Compare exact counts with an earlier run of the same seed and code."""
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [
            f"exact count {key} is {counts.get(key)}, an earlier run of this seed had {value}"
            for key, value in earlier.items()
            if counts.get(key) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n")
    return []


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes set the layout of every str-keyed dict (module
        # namespaces, decoded JSON), so a random hash seed per process makes
        # identical work run at different speeds in different runs.  The
        # process replaces itself; it starts no other.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    pool = json.loads((HERE / "instances.json").read_bytes())
    batch = workload.select(pool, random.Random(args.seed))
    with Clock() as clock:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = clock.mark()
            lib = setup(workload, batch)
            setup_times.append(clock.elapsed(start))
        # The benchmark's own long-lived objects stay out of the collector's way.
        gc.collect()
        gc.freeze()

        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install(PACKAGE)
            traced = run_round(workload, lib, batch, clock, tracer)
            tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        began = time.perf_counter()
        rounds = []
        while True:
            start = time.perf_counter()
            rounds.append(run_round(workload, lib, batch, clock))
            took = time.perf_counter() - start
            if time.perf_counter() - began + took > args.seconds:
                break

    all_rounds = rounds + ([traced] if traced else [])
    problems = [p for r in all_rounds for p in r["problems"]]
    first = rounds[0]["counts"]
    for r in all_rounds[1:]:
        if r["counts"] != first:
            problems.append(f"exact counts differ between rounds: {r['counts']} vs {first}")

    def per_instance(key, which=0):
        """Each instance's median over the untraced rounds."""
        return [statistics.median(r[key][i][which] for r in rounds) for i in range(len(batch))]

    # Batch totals are sums of per-instance medians, so a pause that hits one
    # instance in one round does not move them.
    certify_s = sum(per_instance("certify"))
    attempted = sum(r["counts"]["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)

    if args.trace:
        metrics = layer_metrics(tracer, traced["steps"])
        traced_certify_s = sum(scaled for scaled, _ in traced["certify"])
        metrics["trace.certify_s"] = (traced_certify_s, "s")
        metrics["trace.untraced_certify_s"] = (certify_s, "s")
        metrics["trace.overhead_s"] = (traced_certify_s - certify_s, "s")
        metrics["trace.overhead_share"] = ((traced_certify_s - certify_s) / certify_s, "ratio")
        metrics["trace.spans"] = (len(tracer.nodes), "count")
        problems += check_repeat(args, {**first, **{name: metrics[name][0] for name in EXACT_COUNT_METRICS}})
    else:
        problems += check_repeat(args, first)
        per_instance_ms = [s * 1000 for s in per_instance("certify")]
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setup_times), "s"),
            "certify_s": (certify_s, "s"),
            "verify_s": (sum(per_instance("verify")), "s"),
            "certify_ms.p50": (percentile(per_instance_ms, 50), "ms"),
            "certify_ms.p90": (percentile(per_instance_ms, 90), "ms"),
            "cert_bytes": (first["cert_bytes"], "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  instances {len(batch)}  rounds {len(rounds)}"
          f"{'  + 1 traced' if traced else ''}")
    print(f"verdict mix {json.dumps(verdict_mix(batch))}")
    print(f"exact counts {json.dumps(first, sort_keys=True)}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} attempted; "
          f"{first['refusals']} refusals per round)")
    print(f"machine speed {clock.speed():.3f} x reference; unscaled wall seconds: "
          f"setup {statistics.median(w for _, w in setup_times):.6g}, "
          f"certify {sum(per_instance('certify', 1)):.6g}, verify {sum(per_instance('verify', 1)):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
