#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 suitebench/spread.py --workload certify_verify --seeds 1 2 3 4 5
    python3 suitebench/spread.py --workload certify_verify --seeds 1 1 1 1 1

Runs ``run.py --trace 0`` once per seed (in this order), with
``run_seconds`` from BENCHMARK.json, and prints, for each metric, the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  It also splits the runs into two interleaved sets (odd and
even positions) and prints how far the second set's median is from the
first's, as a share of the first's: two sets of the same code should agree
within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        first, second = statistics.median(vals[0::2]), statistics.median(vals[1::2])
        print(f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.4f}  sets {first:.6g}/{second:.6g} "
              f"differ {(second - first) / first:+.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
