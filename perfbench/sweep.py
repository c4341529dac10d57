"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Runs are made one after another, from the repository root, with the
``run_seconds`` of BENCHMARK.json.  For every workload and metric it prints
the median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  ``--out`` writes the same summary as
JSON; ``perfbench/baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads(Path("BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    summary, ok = {}, True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = BENCHMARK["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(command, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode or not result.get("correct"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(metric) if not args.trace else None
            note = "" if bound is None else f"  bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE' if spread <= bound else 'OVER'}"
            print(f"  {name:20s} {metric:32s} median {med:14.6g}  spread {spread:.4f}{note}")
    if args.out:
        doc = {
            "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
            "run_seconds": BENCHMARK["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
