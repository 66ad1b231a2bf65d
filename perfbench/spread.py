#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload interval --seeds 1-10 [--seconds 30]
        [--trace 0] [--out results.jsonl]

Runs are sequential.  For each metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, which is what BENCHMARK.json's bounds are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="append each run's result line to this file")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)
    print(f"failed share and correctness across runs: {sorted(shares)}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
