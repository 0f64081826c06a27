#!/usr/bin/env python3
"""Suite benchmark for fejerflow: three workloads, end to end and per layer.

    python3 suitebench/run.py --workload rk4_builtins --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``rk4_builtins``, ``semigroup_builtins`` and
``certify_verify``.  One client runs the operations closed loop, in one
worker process, with no threads.

With ``--trace 0`` the benchmark starts the worker twice for set-up only and
once for the timed passes, and reports the end-to-end metrics: ``setup_s``
(median of the three process starts to first operation ready), ``wall_s``
(median pass), ``op_p50_s``, ``op_p90_s``, ``ok_frac`` (1 - failed_frac) and
``peak_rss_mib``.  The times are taken on the host-speed clock of
``hostclock.py``, which leaves out the slowdowns other tenants of a shared
host cause; the raw times are printed beside them.  With ``--trace 1`` it
reports the per-layer metrics of a traced set-up and pass instead.  Every
output is checked against ``reference.json`` and, for certificates, against
the independent oracles in ``tests/oracles.py``.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("rk4_builtins", "semigroup_builtins", "certify_verify")
SETUP_PROBES = 2
# room beyond --seconds for the set-up probes and the last pass that starts
# within --seconds (an rk4_builtins pass is longer than --seconds itself)
DEADLINE_SLACK_S = 140.0


def git_sha() -> str:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns the process and the perf_counter reading just
    before it started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True), t0


def finish_worker(proc: subprocess.Popen, timeout: float) -> dict:
    """Wait for the worker; returns its report, the last line of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the benchmark deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(report: dict, t0: float) -> tuple[float, float]:
    """(host-speed, raw) set-up seconds: process start to the worker's
    clock, raw, plus the worker's own set-up time.  perf_counter is the
    system-wide monotonic clock, so the two processes' readings compare."""
    before = report["clock_origin"] - t0
    return before + report["setup_s"], before + report["setup_raw_s"]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "fejerflow" / "__init__.py",
                           ROOT / "tests" / "oracles.py", BENCH / "reference.json")
               if not p.is_file()]
    if missing:
        print(f"suitebench: missing {', '.join(str(p) for p in missing)}; run from a "
              "fejerflow checkout", file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    try:
        setups, setups_raw = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, t0 = start_worker(args, setup_only=True)
                setup, raw = setup_seconds(finish_worker(proc, timeout=60), t0)
                setups.append(setup)
                setups_raw.append(raw)
        proc, t0 = start_worker(args, setup_only=False)
        deadline = args.seconds + DEADLINE_SLACK_S
        report = finish_worker(proc, timeout=deadline - (time.perf_counter() - t_begin))
        if not args.trace:
            setup, raw = setup_seconds(report, t0)
            setups.append(setup)
            setups_raw.append(raw)
    except (RuntimeError, ValueError, IndexError, KeyError) as exc:
        print(f"suitebench: {exc}", file=sys.stderr)
        return 1

    checks = report["checks"]
    failed_keys = {c["key"] for c in checks if c["failed"]}
    op_failed = report["op_failed"]
    attempted = len(op_failed)
    failed = sum(op_failed)
    correct = all(c["correct"] for c in checks)
    lat = report["latencies"]
    env = {"git_sha": git_sha(), **report["environment"]}

    print(f"# suitebench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {len(report['passes'])} of {report['ops_per_pass']} operations: "
          + " ".join(f"{w:.3f}s" for w in report["passes"]))
    if args.trace:
        import layers

        summary = report["trace_summary"]
        overhead = report["trace_overhead_s"]
        coverage = summary["root_s"] / report["traced_wall"]
        metrics = layers.per_layer_metrics(summary, overhead, coverage)
        correct = correct and report["trace_restored"]
        print(f"traced pass {report['traced_wall']:.3f}s, {summary['spans']} spans "
              f"written to {report['spans_file']}")
        print(f"self-test: wrapped names restored: {report['trace_restored']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(report["passes"]), "unit": "s"},
            "op_p50_s": {"value": percentile(lat, 0.5), "unit": "s"},
            "op_p90_s": {"value": percentile(lat, 0.9), "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
            "peak_rss_mib": {"value": report["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
        print("setup runs " + " ".join(f"{s:.3f}s" for s in setups)
              + " (raw " + " ".join(f"{s:.3f}s" for s in setups_raw) + ")")
        print("raw passes " + " ".join(f"{w:.3f}s" for w in report["passes_raw"])
              + f"; raw op_p50 {percentile(report['latencies_raw'], 0.5):.6g}s")
        probes = report["probes"]
        print(f"host-speed probes {probes['count']}, duration percentiles (ms) "
              + " ".join(f"p{q}={x:.4f}" for q, x in probes["percentiles_ms"].items()))
        print(f"operations {len(lat)}; beyond p90: "
              f"{sum(1 for x in lat if x > metrics['op_p90_s']['value'])}")
        print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for c in checks:
        if c["failed"] or not c["correct"]:
            tag = "known failure" if c["correct"] else "WRONG"
            print(f"  {tag}: {c['key']}: {c['reason']}")
    print(f"reference check: {'pass' if correct else 'FAIL'} "
          f"({sum(c['oracle_checked'] for c in checks)} values also checked by the oracle; "
          f"{len(failed_keys)} distinct failing operations)")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_runs": setups, "setup_runs_raw": setups_raw,
              "passes": report["passes"], "passes_raw": report.get("passes_raw", report["passes"]),
              "latencies": [[p, k, x] for (p, k), x in zip(report["op_keys"], lat)],
              "checks": checks}
    if args.trace:
        detail["trace_summary"] = report["trace_summary"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
