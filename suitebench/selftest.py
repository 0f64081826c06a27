#!/usr/bin/env python3
"""Self-test of the suite benchmark (about 15 s).

    python3 suitebench/selftest.py

Checks that
* the tracer's self-time arithmetic is right on nested calls of known cost;
* a traced and an untraced pass give identical statuses and certificate
  values, on a slice of the ``certify_verify`` stream and on the
  ``gradient_flow_quadratic`` scenario;
* every name the traced run rebinds is back to its original object after
  the trace, and no other attribute of the patched modules and classes moved;
* every request of both documented seeds has a reference;
* the reference check rejects a wrong certificate, also on a request
  recorded as a failure;
* the host-speed clock leaves the probes out, scales by the probes'
  duration, and restores the SIGPROF handler and the garbage collector.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import gc
import signal
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import catalogue  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def check_self_times() -> list[str]:
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    ns = types.SimpleNamespace()
    ns.inner = lambda: busy(0.05)

    def outer():
        busy(0.03)
        ns.inner()
        ns.inner()

    ns.outer = outer
    tracer = Tracer()
    tracer.patch(ns, "inner", "inner")
    tracer.patch(ns, "outer", "outer")
    ns.outer()
    tracer.restore()
    layers_ = tracer.summary()["layers"]
    problems = []
    if not 0.025 <= layers_["outer"]["self_s"] <= 0.05:
        problems.append(f"outer self time {layers_['outer']['self_s']:.4f}s, expected 0.03s")
    if not 0.095 <= layers_["inner"]["self_s"] <= 0.13:
        problems.append(f"inner self time {layers_['inner']['self_s']:.4f}s, expected 0.10s")
    if layers_["inner"]["calls"] != 2:
        problems.append("inner call count is not 2")
    if ns.outer is not outer:
        problems.append("synthetic patch not restored")
    return problems


def snapshot() -> dict:
    """Every attribute of every namespace the traced run rebinds."""
    from fejerflow import cli, flows, moduli, scenarios, verify
    from fejerflow.exact import Real
    from fejerflow.flows import Trajectory

    owners = (cli, flows, moduli, scenarios, verify, Real, Trajectory)
    return {id(owner): dict(vars(owner)) for owner in owners}


def traced_equals_untraced(workload, ops) -> list[str]:
    workload.prepare()
    plain = {workload.key(op): workload.run(op) for op in ops}
    before = snapshot()
    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.patched_names()
    try:
        workload.prepare()
        traced = {workload.key(op): workload.run(op) for op in ops}
    finally:
        tracer.restore()
    problems = [f"traced outcome differs: {key}" for key in plain if plain[key] != traced[key]]
    if not all(vars(owner)[attr] is original for owner, attr, original in patched):
        problems.append("a wrapped name was not restored")
    after = snapshot()
    for owner_id, attrs in before.items():
        moved = [name for name, value in attrs.items() if after[owner_id].get(name) is not value]
        if moved:
            problems.append(f"attributes changed by the trace: {moved}")
    if tracer.summary()["spans"] == 0:
        problems.append("the traced pass recorded no spans")
    return problems


def references_complete() -> list[str]:
    reference = workloads.load_reference()
    problems = []
    for seed in (catalogue.DEFAULT_SEED, catalogue.HOLDOUT_SEED):
        stream, _ = catalogue.generate(seed)
        for spec in stream:
            key = catalogue.request_key({k: v for k, v in spec.items() if k != "slow"})
            if key not in reference["certify_verify"]:
                problems.append(f"seed {seed}: no reference for {key}")
    for name in workloads.RK4_BUILTINS + workloads.SEMIGROUP_BUILTINS:
        if name not in reference["builtins"]:
            problems.append(f"no reference for builtin {name}")
    return problems


def check_rules() -> list[str]:
    """The reference check on made-up results of recorded requests."""
    reference = workloads.load_reference()
    oracles = workloads.load_oracles()
    cv = workloads.CertifyVerify(catalogue.DEFAULT_SEED)
    entries = reference["certify_verify"]
    timed_out = next(k for k, v in entries.items() if v.get("error") == "timeout")
    checked = next(k for k, v in entries.items()
                   if isinstance(v.get("oracle"), int) and v["oracle_s"] < workloads.ORACLE_BUDGET_S)
    cases = [  # (key, result, expected (correct, failed))
        (timed_out, {"error": "timeout"}, (True, True)),
        (timed_out, {"value": 12345, "status": "inconclusive"}, (True, True)),
        (timed_out, {"value": 12345, "status": "violated"}, (False, True)),
        (checked, {"value": entries[checked]["value"], "status": entries[checked]["status"]},
         (True, False)),
        (checked, {"value": entries[checked]["value"] + 1, "status": entries[checked]["status"]},
         (False, True)),
    ]
    problems = []
    for key, result, want in cases:
        correct, failed, _ = cv.check(key, result, reference,
                                      cv.oracle(key, result, oracles, reference))
        if (correct, failed) != want:
            problems.append(f"check gives {(correct, failed)} for {result} on {key}, "
                            f"expected {want}")
    cv.close()
    return problems


def check_host_clock() -> list[str]:
    problems = []
    # made-up probes: 10 ms long, one every second, warm part 1x or 2x nominal
    for factor in (1.0, 2.0):
        clock = hostclock.HostClock()
        clock.origin = 0.0
        clock.starts = [float(k) for k in range(1, 6)]
        clock.ends = [t + 0.01 for t in clock.starts]
        clock.speeds = [factor * hostclock.PROBE_NOMINAL_S] * 5
        clock._build()
        got, want = clock.seconds(0.5, 3.5), (3.0 - 3 * 0.01) / factor
        if abs(got - want) > 1e-9:
            problems.append(f"host clock at {factor}x nominal gives {got:.6f}s, expected {want:.6f}s")
    before = signal.getsignal(signal.SIGPROF)
    clock = hostclock.HostClock()
    clock.start()
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
    clock.stop()
    if len(clock.speeds) < 5:
        problems.append(f"only {len(clock.speeds)} host-speed probes in 0.2 s of CPU time")
    if signal.getsignal(signal.SIGPROF) is not before or not gc.isenabled():
        problems.append("the host clock did not restore SIGPROF or the garbage collector")
    return problems


def main() -> int:
    problems = check_host_clock()
    problems += check_self_times()
    problems += references_complete()
    problems += check_rules()
    cv = workloads.CertifyVerify(catalogue.DEFAULT_SEED)
    fast = [op for op in cv.ops if not op["slow"]][:40]
    problems += traced_equals_untraced(cv, fast)
    cv.close()
    builtins = workloads.Builtins(("gradient_flow_quadratic",), seed=0)
    problems += traced_equals_untraced(builtins, builtins.ops)
    builtins.close()
    for line in problems:
        print("FAIL", line)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
