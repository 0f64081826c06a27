"""The fejerflow layers the traced run times, and the per-layer metrics.

Each layer is named after its module.  Spans are recorded at calls into a
layer's public functions, through the names the calling modules use:

* the names ``fejerflow.scenarios`` imports (flows, verify, operators and
  ``second_order_constants``), and ``scenarios.run_scenario`` itself;
* every public function attribute of ``fejerflow.moduli``, and the
  counterfunction helpers it imports;
* ``verify.oscillation``, the kernel names imported into ``verify``, and the
  verify/flows functions the benchmark calls through their modules;
* the dense-output ``Trajectory`` methods and the enclosure-forcing ``Real``
  methods;
* ``cli.write_artifacts``.
"""

from __future__ import annotations

import inspect
from pathlib import Path

from tracer import Tracer

RK4 = ("integrate_first_order", "integrate_second_order", "integrate_forward_backward")
SEMIGROUP = ("gradient_flow_semigroup", "stojkovic_semigroup")
VERIFY = ("check_asymptotic_regularity", "check_b_convergence", "check_convergence_rate",
          "check_fejer", "check_mayer_inequality", "check_second_order_bounds",
          "check_semigroup_fixed_point_bound", "extract_approximate_zero",
          "verify_metastability", "verify_residual_metastability")
OPERATORS = ("ball_samples", "check_cocoercive", "check_nonexpansive",
             "forward_backward_map", "make_cocoercive", "make_convex_function",
             "make_monotone", "make_nonexpansive", "stojkovic_resolvent")
COUNTERFUNCTIONS = ("iterate_tilde", "max_on", "max_tilde_on")
KERNELS = ("pairwise_max_distance", "prefix_min_violation")
DENSE = ("eval", "eval_velocity")
FORCING = ("bounds", "ceil", "ceil_upper", "floor", "is_positive", "lt", "to_float",
           "to_fraction_upper")

# name -> (unit, layer metric); the order is the order of BENCHMARK.json
PER_LAYER = {
    "flows.rk4.self_s": "s",
    "flows.rk4.steps": "count",
    "flows.semigroup.self_s": "s",
    "flows.semigroup.calls": "count",
    "flows.semigroup.n_used_sum": "count",
    "flows.semigroup.unconverged": "count",
    "flows.dense.self_s": "s",
    "flows.dense.calls": "count",
    "verify.self_s": "s",
    "verify.calls": "count",
    "verify.oscillation.calls": "count",
    "kernels.self_s": "s",
    "kernels.points": "count",
    "moduli.self_s": "s",
    "moduli.calls": "count",
    "moduli.overflow": "count",
    "exact.self_s": "s",
    "exact.force_calls": "count",
    "counterfunctions.self_s": "s",
    "operators.self_s": "s",
    "operators.calls": "count",
    "cli.artifacts.self_s": "s",
    "cli.artifacts.bytes": "count",
    "scenarios.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
    "trace.spans": "count",
}
LAYERS = ("flows.rk4", "flows.semigroup", "flows.dense", "verify", "kernels", "moduli",
          "exact", "counterfunctions", "operators", "cli.artifacts", "scenarios")


def install(tracer: Tracer) -> None:
    """Rebind every traced name; :meth:`Tracer.restore` undoes it."""
    from fejerflow import cli, flows, moduli, scenarios, verify
    from fejerflow.exact import ExtendedNatural, Real
    from fejerflow.flows import Trajectory

    def rk4_steps(args, kwargs, traj):
        # coarse run of n steps plus fine run of 2n steps; the trajectory is fine
        tracer.count("flows.rk4.steps", 3 * (len(traj.ts) - 1) // 2)

    def semigroup_point(args, kwargs, point):
        tracer.count("flows.semigroup.n_used_sum", point.n_used)
        tracer.count("flows.semigroup.unconverged", int(not point.converged))

    def overflow(args, kwargs, value):
        if isinstance(value, ExtendedNatural) and value.is_overflow:
            tracer.count("moduli.overflow")

    def kernel_rows(args, kwargs, value):
        tracer.count("kernels.points", len(args[0]))

    def artifact_bytes(args, kwargs, value):
        directory = Path(args[1])
        tracer.count("cli.artifacts.bytes",
                     sum(p.stat().st_size for p in directory.iterdir() if p.is_file()))

    for name in RK4:
        tracer.patch(scenarios, name, "flows.rk4", on_result=rk4_steps)
    for name in RK4[:2]:
        tracer.patch(flows, name, "flows.rk4", on_result=rk4_steps)
    for name in SEMIGROUP:
        tracer.patch(scenarios, name, "flows.semigroup", on_result=semigroup_point)
    for name in VERIFY:
        tracer.patch(scenarios, name, "verify")
    for name in ("verify_metastability", "verify_residual_metastability"):
        tracer.patch(verify, name, "verify")
    tracer.patch(verify, "oscillation", "verify", name="verify.oscillation")
    for name in KERNELS:
        tracer.patch(verify, name, "kernels", on_result=kernel_rows)
    for name in OPERATORS:
        tracer.patch(scenarios, name, "operators")
    tracer.patch(scenarios, "second_order_constants", "moduli", on_result=overflow)
    for name in moduli.__all__:
        if inspect.isfunction(vars(moduli)[name]):
            tracer.patch(moduli, name, "moduli", on_result=overflow)
    for name in COUNTERFUNCTIONS:
        tracer.patch(moduli, name, "counterfunctions")
    for name in DENSE:
        tracer.patch(Trajectory, name, "flows.dense")
    for name in FORCING:
        tracer.patch(Real, name, "exact")
    tracer.patch(cli, "write_artifacts", "cli.artifacts", on_result=artifact_bytes)
    tracer.patch(scenarios, "run_scenario", "scenarios")


def per_layer_metrics(summary: dict, overhead_s: float, coverage: float) -> dict:
    layers = summary["layers"]
    counts = summary["counts"]
    names = summary["names"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    values = {f"{layer}.self_s": self_s(layer) for layer in LAYERS}
    values.update({
        "flows.rk4.steps": counts.get("flows.rk4.steps", 0),
        "flows.semigroup.calls": calls("flows.semigroup"),
        "flows.semigroup.n_used_sum": counts.get("flows.semigroup.n_used_sum", 0),
        "flows.semigroup.unconverged": counts.get("flows.semigroup.unconverged", 0),
        "flows.dense.calls": calls("flows.dense"),
        "verify.calls": calls("verify"),
        "verify.oscillation.calls": names.get("verify.oscillation", {}).get("calls", 0),
        "kernels.points": counts.get("kernels.points", 0),
        "moduli.calls": calls("moduli"),
        "moduli.overflow": counts.get("moduli.overflow", 0),
        "exact.force_calls": calls("exact"),
        "operators.calls": calls("operators"),
        "cli.artifacts.bytes": counts.get("cli.artifacts.bytes", 0),
        "trace.overhead_s": overhead_s,
        "trace.coverage": coverage,
        "trace.spans": summary["spans"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
