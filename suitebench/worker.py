"""One benchmark process: set up a workload, run its timed passes, check.

Protocol on stdout: one JSON line at the end, with the set-up time, the
passes, per-operation latencies, the reference check and, for a traced run,
the per-layer metrics.  ``--setup-only`` reports the set-up time only.

A pass runs every operation of the workload once, closed loop, one client.
Passes repeat while another pass of the last pass's length still fits in
``--seconds``; there is always at least one.  A traced run makes set-up and
one pass under the tracer, and estimates the tracer's overhead as the
pass's span count times the wrapper's cost per call.

An untraced run times set-up, passes and operations on the host-speed
clock (``hostclock.py``), from the start of ``main`` to the end of the last
pass, and reports the raw ``perf_counter`` times beside them.  A traced run
reports raw times only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import hostclock  # noqa: E402
import workloads  # noqa: E402
from catalogue import TIME_LIMIT_S  # noqa: E402

TIMEOUT = {"error": "timeout"}


def run_pass(workload) -> tuple[tuple[float, float], list[tuple[float, float, bool]], dict]:
    """One pass; returns its (start, end) and each operation's (start, end,
    whether its time limit cut it off), as perf_counter readings, and the
    results by operation key."""
    results, spans = {}, []
    t_pass = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failing operation is counted, not fatal
            result = {"error": type(exc).__name__}
        spans.append((t0, time.perf_counter(), result == TIMEOUT))
        results[workload.key(op)] = result
    return (t_pass, time.perf_counter()), spans, results


def span_overhead_s(rounds: int = 5, calls: int = 2000) -> float:
    """The time the tracer's wrapper adds to one call: a traced minus a
    plain call of a no-op, median of ``rounds`` rounds."""
    from tracer import Tracer

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop", "noop")
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[rounds // 2]


def traced_run(workload, spans_path: Path) -> tuple[dict, dict]:
    """Set-up and one pass under the tracer; returns the report and the
    results by operation key."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.patched_names()
    try:
        workload.prepare()
        (a, b), spans, results = run_pass(workload)
    finally:
        tracer.restore()
    restored = all(vars(owner)[attr] is original for owner, attr, original in patched)
    summary = tracer.summary(since=a)
    tracer.write(spans_path)
    report = {"pass_spans": [(a, b)], "passes": [b - a],
              "latencies": [t1 - t0 for t0, t1, _ in spans],
              "traced_wall": b - a, "trace_summary": summary, "trace_restored": restored,
              "trace_overhead_s": summary["spans_since"] * span_overhead_s(),
              "spans_file": str(spans_path.relative_to(BENCH.parent))}
    return report, results


def timed_run(workload, args, clock: hostclock.HostClock, t_ready: float) -> tuple[dict, dict]:
    """Untraced passes, repeated while another fits in ``--seconds``;
    returns the report and the results by operation key."""
    pass_spans, op_spans, results = [], [], None
    t_begin = time.perf_counter()
    while True:
        (a, b), spans, res = run_pass(workload)
        pass_spans.append((a, b))
        op_spans.extend(spans)
        if results is None:
            results = res
        for key, result in res.items():
            if results[key] != result:
                results[key] = {"error": "results differ between passes"}
        if time.perf_counter() - t_begin + (b - a) > args.seconds:
            break
    # A request cut off by its time limit ran for TIME_LIMIT_S of wall
    # time, whatever the host's speed: it counts at that limit.
    clock.stop()
    measured = [clock.seconds(a, b) for a, b, _ in op_spans]
    latencies = [TIME_LIMIT_S if cut else m for (_, _, cut), m in zip(op_spans, measured)]
    n = len(workload.ops)
    passes = [clock.seconds(a, b) + sum(latencies[i * n:(i + 1) * n])
              - sum(measured[i * n:(i + 1) * n]) for i, (a, b) in enumerate(pass_spans)]
    report = {"pass_spans": pass_spans, "passes": passes, "latencies": latencies,
              "passes_raw": [b - a for a, b in pass_spans],
              "latencies_raw": [b - a for a, b, _ in op_spans],
              "clock_origin": clock.origin,
              "setup_s": clock.seconds(clock.origin, t_ready),
              "setup_raw_s": t_ready - clock.origin,
              "probes": clock.probe_summary()}
    return report, results


def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": have_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = None
    if not args.trace:
        clock = hostclock.HostClock()
        clock.start()
    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        report, results = traced_run(
            workload, workloads.OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        workload.prepare()
        t_ready = time.perf_counter()
        if args.setup_only:
            workload.close()
            clock.stop()
            print(json.dumps({"clock_origin": clock.origin,
                              "setup_s": clock.seconds(clock.origin, t_ready),
                              "setup_raw_s": t_ready - clock.origin}), flush=True)
            return 0
        report, results = timed_run(workload, args, clock, t_ready)
    report["ops_per_pass"] = len(workload.ops)
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n_passes = len(report.pop("pass_spans"))

    reference = workloads.load_reference()
    oracles = workloads.load_oracles()
    checks = []
    for key, result in results.items():
        oracle = workload.oracle(key, result, oracles, reference)
        correct, failed, reason = workload.check(key, result, reference, oracle)
        checks.append({"key": key, "correct": correct, "failed": failed, "reason": reason,
                       "oracle": oracle, "oracle_checked": isinstance(oracle, int)})
    workload.close()
    failed = {c["key"]: c["failed"] for c in checks}
    report["checks"] = checks
    report["op_keys"] = [[i, workload.key(op)] for i in range(n_passes) for op in workload.ops]
    report["op_failed"] = [failed[workload.key(op)] for _ in range(n_passes) for op in workload.ops]
    report["environment"] = environment()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
