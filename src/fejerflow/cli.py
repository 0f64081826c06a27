"""Command-line interface: scenario ingestion, experiment orchestration,
report emission.

Subcommands:
    run <config.json> [--out DIR]   simulate + certify + verify; exit 0 iff
                                    no check violated, 2 on config errors
    list [filter]                   builtin scenario registry
    certify <theorem> --param k=v   direct access to the certificate calculators
    report <dir> [--format ...]     re-emit reports as json, csv or text

Environment: FEJERFLOW_BUDGET_BITS (certificate overflow budget).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import moduli
from .counterfunctions import Counterfunction
from .flows import IntegrationError
from .operators import OperatorError
from .scenarios import ConfigError, ScenarioOutcome, builtin_scenarios, run_scenario
from .space import SpaceError

# theorem ids that must be exercised by at least one builtin scenario
REQUIRED_COVERAGE = {
    "delta_first_order",
    "delta_first_order_fb",
    "second_order_constants",
    "lambda_capital",
    "delta_second_order",
    "sfb_b_rate",
    "theta_uniform_monotone",
    "delta_gradient_flow",
    "delta_stojkovic",
    "fast_linear_rate",
}


# ---------------------------------------------------------------------------
# serialization helpers (deterministic artifacts)
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)  # and rounded like any float below
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def write_artifacts(outcome: ScenarioOutcome, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, traj in outcome.trajectories.items():
        (directory / f"{name}.csv").write_text(traj.to_csv())
        _dump_json(traj.meta.to_json(), directory / f"{name}_meta.json")
    _dump_json(outcome.certificates, directory / "certificates.json")
    _dump_json([r.to_json() for r in outcome.reports], directory / "reports.json")
    lines = []
    csv_lines = ["claim,status,margin,tolerance,witness"]
    for r in outcome.reports:
        margin = "" if math.isnan(r.margin) else f"{r.margin:.6g}"
        tol = "" if math.isnan(r.tolerance) else f"{r.tolerance:.6g}"
        witness = "" if r.witness is None else str(r.witness)
        lines.append(f"{r.status:28s} {r.claim:48s} margin={margin or '-':>12s} "
                     f"witness={witness or '-'}")
        csv_lines.append(f"{r.claim},{r.status},{margin},{tol},{witness}")
    (directory / "summary.txt").write_text("\n".join(lines) + "\n")
    (directory / "summary.csv").write_text("\n".join(csv_lines) + "\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _outcome_exit(outcomes) -> int:
    return 0 if all(o.ok for o in outcomes) else 1


def _run_one(config: dict, out_root: Path) -> ScenarioOutcome:
    outcome = run_scenario(config)
    write_artifacts(outcome, out_root / outcome.name)
    return outcome


def run_suite(out_root: Path, exclude=()) -> list[ScenarioOutcome]:
    """Run every non-negative builtin scenario, writing artifacts + summary."""
    registry = builtin_scenarios()
    names = [n for n in sorted(registry)
             if n not in set(exclude) and not n.startswith("negative_")]
    outcomes = [_run_one(registry[n].config, out_root) for n in names]
    _write_suite_summary(outcomes, out_root, registry)
    return outcomes


def cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_root = Path(args.out)
    registry = builtin_scenarios()
    try:
        if "suite" in config:
            outcomes = run_suite(out_root, exclude=config.get("exclude", []))
        elif "builtin" in config:
            name = config["builtin"]
            if name not in registry:
                raise ConfigError(f"unknown builtin scenario {name!r}")
            base = dict(registry[name].config)
            base.update(config.get("overrides", {}))
            outcomes = [_run_one(base, out_root)]
        else:
            outcomes = [_run_one(config, out_root)]
    except (ConfigError, IntegrationError, OperatorError, SpaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        status = "OK" if outcome.ok else "VIOLATED"
        print(f"{outcome.name}: {status} "
              f"({len(outcome.reports)} checks, {len(outcome.certificates)} certificates)")
    return _outcome_exit(outcomes)


def _write_suite_summary(outcomes, out_root: Path, registry) -> None:
    rows = []
    exercised = set()
    for o in sorted(outcomes, key=lambda o: o.name):
        for cert in o.certificates:
            exercised.add(cert["theorem"])
        statuses = [r.status for r in o.reports]
        rows.append({
            "scenario": o.name,
            "ok": o.ok,
            "checks": len(o.reports),
            "violated": statuses.count("violated"),
            "inconclusive": sum(s.startswith("inconclusive") for s in statuses),
        })
    missing = sorted(REQUIRED_COVERAGE - exercised)
    _dump_json({"scenarios": rows, "coverage_missing": missing},
               out_root / "suite_summary.json")
    lines = [f"{r['scenario']:36s} ok={r['ok']} checks={r['checks']} "
             f"violated={r['violated']} inconclusive={r['inconclusive']}" for r in rows]
    lines.append(f"coverage: missing={missing or 'none'}")
    (out_root / "suite_summary.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    registry = builtin_scenarios()
    needle = (args.filter or "").lower()
    for name in sorted(registry):
        if needle and needle not in name.lower():
            continue
        print(f"{name:36s} {registry[name].description}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _parse_param(value: str):
    """int, "inf", float, exact fraction ("1/2"), else JSON."""
    if value.lstrip("-").isdigit():
        return int(value)
    if value == "inf":
        return value
    for parse in (float, Fraction):
        try:
            return parse(value)
        except ValueError:
            pass
        except ZeroDivisionError:
            raise ConfigError(f"zero denominator in {value!r}") from None
    return json.loads(value)


def _param_dict(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = _parse_param(value)
    return params


# the --param keys each theorem reads; any other key is rejected, so a typo
# cannot silently leave a parameter at its default
_SECOND_ORDER_PARAMS = frozenset({"b", "c", "dB", "lambda_lo", "lambda_hi", "gamma_lo",
                                  "gamma_hi", "theta", "beta", "l_variant", "eps", "f"})
_CERTIFY_PARAMS = {
    "fast_linear_rate": frozenset({"beta", "k", "p"}),
    "ball_total_boundedness": frozenset({"d", "b", "eps"}),
    "aas1_metastability": frozenset({"b", "c", "B", "eps", "f"}),
    "aas2_metastability": frozenset({"c", "A", "B", "p", "r", "eps", "f"}),
    "delta_first_order": frozenset({"d", "b", "lambda_lo", "eps", "f"}),
    "delta_gradient_flow": frozenset({"d", "b", "eps", "f"}),
    "delta_stojkovic": frozenset({"d", "b", "eps", "f"}),
    "lambda_capital": _SECOND_ORDER_PARAMS,
    "delta_second_order": _SECOND_ORDER_PARAMS | {"dim"},
}


def _reject_unknown_params(theorem: str, params: dict) -> None:
    accepted = _CERTIFY_PARAMS.get(theorem)
    if accepted is None:
        return  # _certify_dispatch names the unknown theorem
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ConfigError(f"unknown --param {', '.join(unknown)} for {theorem} "
                          f"(accepted: {', '.join(sorted(accepted))})")


def _counterfn(params, key="f") -> Counterfunction:
    return Counterfunction.from_spec(params.get(key, 0))


def _certify_dispatch(theorem: str, params: dict):
    if theorem == "fast_linear_rate":
        return moduli.fast_linear_rate(params["beta"], params["k"],
                                       params.get("p", 1.0)), None
    if theorem == "ball_total_boundedness":
        return moduli.ball_total_boundedness(params["d"], params["b"],
                                             params["eps"]), None
    if theorem == "aas1_metastability":
        return moduli.aas1_metastability(params["b"], params["c"], params["B"],
                                         params["eps"], _counterfn(params)), None
    if theorem == "aas2_metastability":
        r = params.get("r", "inf")
        r = None if r == "inf" else Fraction(str(r))
        return moduli.aas2_metastability(params["c"], params["A"], params["B"],
                                         Fraction(str(params["p"])), r,
                                         params["eps"], _counterfn(params)), None
    if theorem == "delta_first_order":
        trace: dict = {}
        value = moduli.delta_first_order(
            params["d"], params["b"], {"lower_witness": params["lambda_lo"]},
            params["eps"], _counterfn(params), trace=trace)
        return value, trace
    if theorem in ("delta_gradient_flow", "delta_stojkovic"):
        trace = {}
        gamma_tb = moduli.ball_modulus(params.get("d", 1), params["b"])
        fn = moduli.delta_gradient_flow if theorem == "delta_gradient_flow" \
            else moduli.delta_stojkovic
        value = fn(params["b"], gamma_tb, params["eps"], _counterfn(params),
                   trace=trace)
        return value, trace
    if theorem in ("lambda_capital", "delta_second_order"):
        consts = moduli.second_order_constants(
            params["b"], params["c"], params["dB"],
            Fraction(str(params["lambda_lo"])), Fraction(str(params["lambda_hi"])),
            Fraction(str(params["gamma_lo"])), Fraction(str(params["gamma_hi"])),
            Fraction(str(params["theta"])), Fraction(str(params["beta"])),
            l_variant=params.get("l_variant", "multiply"))
        if theorem == "lambda_capital":
            return moduli.lambda_capital(consts, params["eps"], _counterfn(params)), \
                consts.describe()
        trace = {}
        value = moduli.delta_second_order(consts, params.get("dim", 1),
                                          params["eps"], _counterfn(params),
                                          trace=trace)
        trace["constants"] = consts.describe()
        return value, trace
    raise ConfigError(f"unknown theorem {theorem!r}")


def cmd_certify(args) -> int:
    try:
        params = _param_dict(args.param)
        _reject_unknown_params(args.theorem, params)
        value, trace = _certify_dispatch(args.theorem, params)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"certify error: {exc}", file=sys.stderr)
        return 2
    entry = {"theorem": args.theorem, "inputs": params}
    entry["value"] = value.to_json() if hasattr(value, "to_json") else value
    if trace:
        entry["trace"] = trace
    print(json.dumps(_sanitize(entry), sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.exists():
        print(f"report error: no such directory {root}", file=sys.stderr)
        return 2
    collected = []
    for reports_file in sorted(root.glob("**/reports.json")):
        scenario = reports_file.parent.name
        for entry in json.loads(reports_file.read_text()):
            collected.append({"scenario": scenario, **entry})
    if args.format == "json":
        print(json.dumps(_sanitize(collected), sort_keys=True, indent=2))
    elif args.format == "csv":
        print("scenario,claim,status,margin,witness")
        for e in collected:
            print(f"{e['scenario']},{e['claim']},{e['status']},"
                  f"{e.get('margin', '')},{e.get('witness', '')}")
    else:
        for e in collected:
            print(f"{e['scenario']:32s} {e['status']:26s} {e['claim']}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fejerflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="artifacts")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.add_argument("filter", nargs="?")
    p_list.set_defaults(fn=cmd_list)

    p_cert = sub.add_parser("certify", help="evaluate a certificate directly")
    p_cert.add_argument("theorem")
    p_cert.add_argument("--param", action="append")
    p_cert.set_defaults(fn=cmd_certify)

    p_rep = sub.add_parser("report", help="re-emit reports from an artifact dir")
    p_rep.add_argument("dir")
    p_rep.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
