"""The three workloads: set-up, one operation, and the reference check.

``rk4_builtins``        the five RK4-integrated builtin scenarios
``semigroup_builtins``  the two exponential-formula semigroup scenarios
``certify_verify``      a seeded stream of certificate requests

An operation on the builtins workloads is ``run_scenario`` followed by
``cli.write_artifacts`` into a fresh directory; on ``certify_verify`` it is
one request (certificate plus verification) under a per-request time limit.
Every call into fejerflow goes through module or class attributes, so the
traced run sees it.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import shutil
import signal
import tempfile
from pathlib import Path

import numpy as np

import catalogue

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

RK4_BUILTINS = ("first_order_contraction_1d", "first_order_contraction_2d",
                "forward_backward_first_order", "forward_backward_second_order",
                "second_order_linear")
SEMIGROUP_BUILTINS = ("gradient_flow_quadratic", "stojkovic_negation")
WORKLOADS = ("rk4_builtins", "semigroup_builtins", "certify_verify")
ORACLE_BUDGET_S = 0.25


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def load_oracles():
    """tests/oracles.py, imported read-only from its file."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _json_value(value):
    """Certificate values as stored in reference.json (ints, floats, strings)."""
    return json.loads(json.dumps(value))


def _trajectory_summary(traj) -> dict:
    """Sample count, horizon, error estimate and final state of a trajectory."""
    final = list(traj.xs[-1]) + (list(traj.vs[-1]) if traj.vs is not None else [])
    return {"samples": len(traj.ts), "horizon": traj.horizon, "est_err": traj.est_err,
            "final": [float(x) for x in final]}


def _trajectories_differ(got: dict, expected: dict) -> str:
    """Why the trajectories differ from the reference, or "" when they agree:
    the same sample counts and horizons, an error estimate no larger than
    the reference's, and final states within the two error estimates."""
    if sorted(got) != sorted(expected):
        return f"trajectories {sorted(got)}, reference {sorted(expected)}"
    for name, exp in expected.items():
        g = got[name]
        if g["samples"] != exp["samples"] or not math.isclose(g["horizon"], exp["horizon"],
                                                              rel_tol=1e-12):
            return (f"trajectory {name}: {g['samples']} samples to t={g['horizon']}, "
                    f"reference {exp['samples']} to t={exp['horizon']}")
        if g["est_err"] > exp["est_err"] * (1 + 1e-9):
            return f"trajectory {name}: est_err {g['est_err']:.3g} > reference {exp['est_err']:.3g}"
        tol = g["est_err"] + exp["est_err"]
        if len(g["final"]) != len(exp["final"]) or any(
                abs(a - b) > tol + 1e-12 * (1 + abs(b)) for a, b in zip(g["final"], exp["final"])):
            return f"trajectory {name}: final state {g['final']}, reference {exp['final']}"
    return ""


def _artifact_summary(directory: Path, trajectories: dict) -> tuple[dict, list[str]]:
    """Every file written, with the data-row count of each CSV (None for
    other files), and the trajectory CSVs whose last row is not the
    trajectory's final sample."""
    files, stale = {}, []
    for path in sorted(directory.iterdir()):
        if path.suffix != ".csv":
            files[path.name] = None
            continue
        data = path.read_bytes()
        files[path.name] = data.count(b"\n") - 1
        traj = trajectories.get(path.stem)
        if traj is None:
            continue
        last = [float(x) for x in data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")]
        final = [traj.ts[-1], *traj.xs[-1], *(traj.vs[-1] if traj.vs is not None else ())]
        if not np.allclose(last, final, rtol=1e-10, atol=1e-12):
            stale.append(path.name)
    return files, stale


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


class Builtins:
    def __init__(self, names, seed: int):
        from fejerflow import scenarios

        registry = scenarios.builtin_scenarios()
        order = list(names)
        random.Random(seed).shuffle(order)
        self.ops = [(name, registry[name].config) for name in order]
        OUT.mkdir(parents=True, exist_ok=True)
        self._scratch = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT))

    def prepare(self) -> None:
        """Nothing beyond the registry; kept for a uniform interface."""

    def key(self, op) -> str:
        return op[0]

    def run(self, op) -> dict:
        from fejerflow import cli, scenarios

        name, config = op
        outcome = scenarios.run_scenario(config)
        directory = self._scratch / name
        cli.write_artifacts(outcome, directory)
        artifacts, stale = _artifact_summary(directory, outcome.trajectories)
        shutil.rmtree(directory)
        return {
            "statuses": [[r.claim, r.status] for r in outcome.reports],
            "certificates": [[c["theorem"], _json_value(c["value"])]
                             for c in outcome.certificates],
            "trajectories": {n: _trajectory_summary(t)
                             for n, t in sorted(outcome.trajectories.items())},
            "artifacts": artifacts,
            "csv_not_final": stale,
        }

    def oracle(self, key: str, result: dict, oracles, reference=None):
        return None

    def check(self, key: str, result: dict, reference: dict, oracle) -> tuple[bool, bool, str]:
        """(correct, failed, reason if failed)."""
        if "error" in result:
            return False, True, result["error"]
        expected = reference["builtins"][key]
        if result["statuses"] != expected["statuses"]:
            return False, True, "statuses differ from the reference"
        if result["certificates"] != expected["certificates"]:
            return False, True, "certificate values differ from the reference"
        reason = _trajectories_differ(result["trajectories"], expected["trajectories"])
        if reason:
            return False, True, reason
        if result["artifacts"] != expected["artifacts"]:
            return False, True, (f"artifact files or CSV row counts {result['artifacts']} differ "
                                 f"from the reference {expected['artifacts']}")
        if result["csv_not_final"]:
            return False, True, (f"the last row of {result['csv_not_final']} is not the "
                                 "trajectory's final sample")
        return True, False, ""

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# certify_verify
# ---------------------------------------------------------------------------


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request; a BaseException so that no
    ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise RequestTimeout()


class CertifyVerify:
    def __init__(self, seed: int):
        self.ops, self.orientation = catalogue.generate(seed)
        self.trajs: dict = {}
        signal.signal(signal.SIGALRM, _alarm)

    def prepare(self) -> None:
        self.trajs = catalogue.integrate(self.orientation)

    def key(self, op) -> str:
        return catalogue.request_key({k: v for k, v in op.items() if k != "slow"})

    def run(self, op, limit_s: float = catalogue.TIME_LIMIT_S) -> dict:
        spec = {k: v for k, v in op.items() if k != "slow"}
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            value, status = catalogue.execute(spec, self.trajs)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            return {"error": "timeout"}
        except Exception as exc:  # a request that raises is a recorded failure
            signal.setitimer(signal.ITIMER_REAL, 0)
            return {"error": type(exc).__name__}
        return {"value": value, "status": status}

    def oracle(self, key: str, result: dict, oracles, reference=None):
        """The independent oracle's outcome for a certificate value this run
        computed (see safe_oracle), or None when it is not asked.  Against a
        reference that holds a value, the oracle is asked again only where
        it took under ORACLE_BUDGET_S when the reference was recorded: the
        reference value was compared with it then, and reference.json lists
        the requests it timed out on or rejected.  A request recorded as a
        failure that now returns a value is always put to the oracle."""
        if not isinstance(result.get("value"), int):
            return None
        if reference is not None:
            expected = reference["certify_verify"].get(key, {})
            if "error" not in expected and not (isinstance(expected.get("oracle"), int)
                                                and expected["oracle_s"] < ORACLE_BUDGET_S):
                return None
        return safe_oracle(oracles, json.loads(key))

    def check(self, key: str, result: dict, reference: dict, oracle) -> tuple[bool, bool, str]:
        """(correct, failed, reason if failed).  A recorded failure that
        recurs is correct but still a failed operation."""
        expected = reference["certify_verify"].get(key)
        if expected is None:
            return False, True, "no reference for this request"
        if "error" in result:
            if result["error"] == expected.get("error"):
                return True, True, result["error"]
            return False, True, f"{result['error']} (reference: {expected})"
        if result["status"] == "violated":
            return False, True, "verification violated"
        if isinstance(oracle, int) and oracle != result["value"]:
            return False, True, f"oracle gives {oracle}, got {result['value']}"
        if "error" in expected:
            # a recorded failure that now returns a value passes when the
            # oracle confirms it, or else when its claim verifies
            if not isinstance(oracle, int) and result["status"] != "holds":
                return True, True, (f"unconfirmed {result['value']}/{result['status']} "
                                    f"(oracle: {oracle or 'none'}; reference: "
                                    f"{expected['error']})")
            return True, False, ""
        if result["value"] != expected["value"] or result["status"] != expected["status"]:
            return False, True, (f"got {result['value']}/{result['status']}, reference "
                                 f"{expected['value']}/{expected['status']}")
        return True, False, ""

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def safe_oracle(oracles, spec: dict, limit_s: float = 5.0):
    """The oracle's certificate value (an int); "rejects" when it declines
    the request (its literal loops cap their size, and it refuses an
    interval too wide to fix a ceiling); "timeout" past limit_s; None when
    it has no route for the request."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        value = catalogue.oracle_value(oracles, spec)
        signal.setitimer(signal.ITIMER_REAL, 0)
        return value
    except RequestTimeout:
        return "timeout"
    except (AssertionError, ValueError, ZeroDivisionError, OverflowError):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return "rejects"


def make(workload: str, seed: int):
    if workload == "rk4_builtins":
        return Builtins(RK4_BUILTINS, seed)
    if workload == "semigroup_builtins":
        return Builtins(SEMIGROUP_BUILTINS, seed)
    if workload == "certify_verify":
        return CertifyVerify(seed)
    raise ValueError(f"unknown workload {workload!r}")
