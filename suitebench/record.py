"""Record reference.json: the seed's outcomes that later runs are checked against.

    python3 suitebench/record.py

For the builtins it stores every claim status and certificate value, the
sample count, horizon, error estimate and final state of every trajectory,
and the artifact file names with each CSV's row count.  For
``certify_verify`` it runs every request any seed can draw, with a long time
limit, and stores its certificate value and verification status, or the
error it raised, or ``timeout``.  Wherever ``tests/oracles.py`` has a route
for the request and the certificate is not ``overflow``, it also stores the
oracle's outcome (``oracle``: its value, ``rejects`` or ``timeout``) and its
time (``oracle_s``, null on timeout), and lists the requests the oracle
could not give a value for.  Recording
refuses a catalogue where a request that should be fast takes more than a
quarter of the per-request limit, where a slow slot finishes within the long
limit, where a verification is violated, or where the oracle disagrees.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import catalogue  # noqa: E402
import workloads  # noqa: E402

RECORD_LIMIT_S = 8.0
ORACLE_LIMIT_S = 5.0


def record_builtins() -> dict:
    out = {}
    names = workloads.RK4_BUILTINS + workloads.SEMIGROUP_BUILTINS
    bench = workloads.Builtins(names, seed=0)
    for op in bench.ops:
        t0 = time.perf_counter()
        out[op[0]] = bench.run(op)
        print(f"{time.perf_counter() - t0:8.2f}s  {op[0]}", flush=True)
    bench.close()
    return dict(sorted(out.items()))


def oracle_disagrees(key: str, value, oracle: int) -> list[str]:
    """A certificate value the oracle's value contradicts."""
    if value is None or value == oracle:
        return []
    return [f"oracle gives {oracle}, got {value}: {key}"]


def record_requests(oracles) -> tuple[dict, list[str], list[str]]:
    bench = workloads.CertifyVerify(catalogue.DEFAULT_SEED)
    bench.prepare()
    out, problems, unconfirmed = {}, [], []
    for slot in catalogue.SLOTS:
        for spec in catalogue.alternatives(slot):
            key = catalogue.request_key(spec)
            if key in out:
                continue
            t0 = time.perf_counter()
            result = bench.run(spec, limit_s=RECORD_LIMIT_S)
            cost = time.perf_counter() - t0
            entry = dict(result)
            t1 = time.perf_counter()
            # an overflow certificate is not put to the oracle: its literal
            # loops cannot reach the certificate budget in time
            oracle = None if result.get("value") == "overflow" else \
                workloads.safe_oracle(oracles, json.loads(key), ORACLE_LIMIT_S)
            if oracle is not None:
                entry["oracle"] = oracle
                entry["oracle_s"] = (None if oracle == "timeout"
                                     else round(time.perf_counter() - t1, 4))
                if isinstance(oracle, int):
                    problems += oracle_disagrees(key, result.get("value"), oracle)
                else:
                    unconfirmed.append(f"oracle {oracle}: {key} -> {json.dumps(result)}")
            if result.get("status") == "violated":
                problems.append(f"violated: {key}")
            if slot["slow"] and result.get("error") != "timeout":
                problems.append(f"slow slot finished in {cost:.2f}s: {key}")
            if not slot["slow"] and cost > catalogue.TIME_LIMIT_S / 4:
                problems.append(f"fast slot took {cost:.2f}s: {key}")
            entry["record_s"] = round(cost, 4)
            out[key] = entry
            print(f"{cost:8.4f}s  {key} -> {json.dumps(result)[:80]}", flush=True)
    bench.close()
    return out, problems, unconfirmed


def main() -> int:
    reference = {"time_limit_s": catalogue.TIME_LIMIT_S, "builtins": record_builtins()}
    reference["certify_verify"], problems, unconfirmed = record_requests(
        workloads.load_oracles())
    for line in unconfirmed:
        print("NO ORACLE VALUE", line)
    for line in problems:
        print("PROBLEM", line)
    if problems:
        return 1
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
