"""Command-line interface: scenario ingestion, experiment orchestration,
report emission.

Subcommands:
    run <config.json> [--out DIR]   simulate + certify + verify; exit 0 iff
                                    no check violated, 2 on config errors
    list [filter]                   builtin scenario registry
    certify <theorem> --param k=v   direct access to the certificate calculators
    report <dir> [--format ...]     re-emit reports as json, csv or text; exit 2
                                    when <dir> holds no reports.json

Environment: FEJERFLOW_BUDGET_BITS (certificate overflow budget in bits, an
integer >= 8), read once by ``main``; any other value exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import moduli
from .config import Config, ConfigError
from .counterfunctions import Counterfunction
from .exact import set_budget_bits
from .flows import IntegrationError
from .operators import IterationBudgetError
from .scenarios import ScenarioOutcome, builtin_scenarios, run_scenario

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
        _dump_json(asdict(traj.meta), directory / f"{name}_meta.json")
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
    _write_suite_summary(outcomes, out_root)
    return outcomes


def cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # JSON past its limits too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_root = Path(args.out)
    try:
        cfg = Config.of(config)
        if "suite" in cfg:
            exclude = cfg.entries("exclude", [])
            outcomes = run_suite(out_root, exclude=[exclude.text(i) for i in exclude])
        elif "builtin" in cfg:
            base = {**cfg.choice("builtin", builtin_scenarios()).config,
                    **cfg.spec("overrides", {})}
            outcomes = [_run_one(base, out_root)]
        else:
            outcomes = [_run_one(config, out_root)]
    except (ValueError, IntegrationError, IterationBudgetError) as exc:
        # ValueError covers ConfigError, OperatorError, SpaceError and bad values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        status = "OK" if outcome.ok else "VIOLATED"
        print(f"{outcome.name}: {status} "
              f"({len(outcome.reports)} checks, {len(outcome.certificates)} certificates)")
    return 0 if all(o.ok for o in outcomes) else 1


def _write_suite_summary(outcomes, out_root: Path) -> None:
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
        if needle in name.lower():
            print(f"{name:36s} {registry[name].description}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _parse_param(value: str):
    """JSON with each decimal kept as its text, else the raw text: the
    theorem's typed reads take it from there, as they take a config value
    ("1/2" and 0.1 are the rationals 1/2 and 1/10, and 1e-400, which no
    float holds, is 10^-400).  JSON past the parser's limits (digits,
    nesting) is raw text too."""
    try:
        return json.loads(value, parse_float=str)
    except (ValueError, RecursionError):
        return value


def _param_dict(pairs) -> Config:
    params = Config({})
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = _parse_param(value)
    return params


def _counterfn(params: Config) -> Counterfunction:
    return Counterfunction.from_spec(params.spec("f", 0, Config.NATURAL))


def _aas2(params: Config):
    r = None if params.get("r", "inf") == "inf" else params.rational("r")
    return moduli.aas2_metastability(
        *(params.rational(k) for k in ("c", "A", "B", "p")), r,
        params.rational("eps"), _counterfn(params))


def _semigroup(calc, params: Config):
    b = params.rational("b")
    gamma_tb = moduli.ball_modulus(params.get("d", 1), b)
    return calc(b, gamma_tb, params.rational("eps"), _counterfn(params))


def _second_order(calc, params: Config, *args):
    """``calc(consts, *args, eps, f)``, with the derived constants in its trace."""
    consts = moduli.second_order_constants(
        *(params.rational(k) for k in ("b", "c", "dB", "lambda_lo", "lambda_hi",
                                       "gamma_lo", "gamma_hi", "theta", "beta")),
        l_variant=params.text("l_variant", "multiply"))
    value = calc(consts, *args, params.rational("eps"), _counterfn(params))
    value.trace["constants"] = consts.describe()
    return value


# theorem -> (the --param keys it reads, its evaluation); any other key is
# rejected, so a typo cannot silently leave a parameter at its default
_SECOND_ORDER_PARAMS = frozenset({"b", "c", "dB", "lambda_lo", "lambda_hi", "gamma_lo",
                                  "gamma_hi", "theta", "beta", "l_variant", "eps", "f"})
_THEOREMS = {
    "fast_linear_rate": (
        {"beta", "k", "p"},
        lambda p: moduli.fast_linear_rate(float(p.real("beta")), float(p.real("k")),
                                          float(p.real("p", 1)))),
    "ball_total_boundedness": (
        {"d", "b", "eps"},
        lambda p: moduli.ball_total_boundedness(p["d"], p.rational("b"), p.rational("eps"))),
    "aas1_metastability": (
        {"b", "c", "B", "eps", "f"},
        lambda p: moduli.aas1_metastability(*(p.rational(k) for k in ("b", "c", "B", "eps")),
                                            _counterfn(p))),
    "aas2_metastability": ({"c", "A", "B", "p", "r", "eps", "f"}, _aas2),
    "delta_first_order": (
        {"d", "b", "lambda_lo", "eps", "f"},
        lambda p: moduli.delta_first_order(p["d"], p.rational("b"),
                                           {"lower_witness": p.rational("lambda_lo")},
                                           p.rational("eps"), _counterfn(p))),
    "delta_gradient_flow": (
        {"d", "b", "eps", "f"}, lambda p: _semigroup(moduli.delta_gradient_flow, p)),
    "delta_stojkovic": (
        {"d", "b", "eps", "f"}, lambda p: _semigroup(moduli.delta_stojkovic, p)),
    "lambda_capital": (
        _SECOND_ORDER_PARAMS, lambda p: _second_order(moduli.lambda_capital, p)),
    "delta_second_order": (
        _SECOND_ORDER_PARAMS | {"dim"},
        lambda p: _second_order(moduli.delta_second_order, p, p.get("dim", 1))),
}


def cmd_certify(args) -> int:
    try:
        params = _param_dict(args.param)
        if args.theorem not in _THEOREMS:
            raise ConfigError(f"unknown theorem {args.theorem!r}")
        accepted, evaluate = _THEOREMS[args.theorem]
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ConfigError(f"unknown --param {', '.join(unknown)} for {args.theorem} "
                              f"(accepted: {', '.join(sorted(accepted))})")
        value = evaluate(params)
    except (KeyError, ValueError) as exc:
        print(f"certify error: {exc}", file=sys.stderr)
        return 2
    entry = ScenarioOutcome(args.theorem).certify(args.theorem, params, value)
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
    reports_files = sorted(root.glob("**/reports.json"))
    if not reports_files:
        print(f"report error: no reports.json under {root}", file=sys.stderr)
        return 2
    collected = []
    for reports_file in reports_files:
        try:
            entries = json.loads(reports_file.read_text())
            if not (isinstance(entries, list) and all(
                    isinstance(e, dict) and {"claim", "status"} <= e.keys() for e in entries)):
                raise ValueError("not a list of reports, each with a claim and a status")
        except (OSError, ValueError) as exc:
            print(f"report error: {reports_file}: {exc}", file=sys.stderr)
            return 2
        collected += [{"scenario": reports_file.parent.name, **e} for e in entries]
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
    bits = os.environ.get("FEJERFLOW_BUDGET_BITS")
    if bits is not None:
        try:
            set_budget_bits(int(bits))
        except ValueError as exc:
            print(f"config error: FEJERFLOW_BUDGET_BITS={bits!r}: {exc}", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
