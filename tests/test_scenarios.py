"""Scenario registry and config validation (the heavy pipelines are
exercised by the acceptance gate)."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fejerflow import flows, moduli, operators, scenarios
from fejerflow.config import Config
from fejerflow.counterfunctions import Counterfunction
from fejerflow.exact import R
from fejerflow.flows import ParameterCurve, SemigroupPoint
from fejerflow.scenarios import (
    ConfigError,
    SCHEMA_VERSION,
    ScenarioOutcome,
    _semigroup_run,
    builtin_scenarios,
    run_scenario,
)
from fejerflow.space import SpaceDescriptor
from fejerflow.verify import HOLDS, INCONCLUSIVE, VIOLATED


class TestRegistry:
    def test_all_families_present(self):
        names = set(builtin_scenarios())
        assert {"first_order_contraction_1d", "first_order_contraction_2d",
                "second_order_linear", "forward_backward_first_order",
                "forward_backward_second_order", "gradient_flow_quadratic",
                "stojkovic_negation", "negative_wrong_beta"} <= names

    def test_configs_declare_schema(self):
        for scenario in builtin_scenarios().values():
            assert scenario.config["schema_version"] == SCHEMA_VERSION
            assert scenario.config["name"] == scenario.name
            assert scenario.description

    def test_names_are_stable(self):
        assert sorted(builtin_scenarios()) == sorted(builtin_scenarios())


class TestValidation:
    def test_missing_schema_version(self):
        with pytest.raises(ConfigError):
            run_scenario({"kind": "first_order", "name": "x", "space": {}})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_scenario({"schema_version": SCHEMA_VERSION, "kind": "nope",
                          "name": "x", "space": {}})

    def test_bad_solution_bound_rejected(self):
        cfg = dict(builtin_scenarios()["first_order_contraction_1d"].config)
        cfg["solution"] = {"point": [0.0], "b": 0.1}  # does not bound ||x0||
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_property_check_scenario_runs(self):
        out = run_scenario({
            "schema_version": SCHEMA_VERSION,
            "name": "tiny",
            "kind": "property_check",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"T": {"op": "identity"}},
        })
        assert out.ok and out.reports[0].claim == "operator_nonexpansive"

    def test_negative_scenario_violates(self):
        out = run_scenario(builtin_scenarios()["negative_wrong_beta"].config)
        assert not out.ok


class TestSemigroupSampling:
    def test_unconverged_sample_is_inconclusive(self):
        # a stub sampler whose exponential formula fails at t = 0.5 only
        def samples(op, xs, ts, tol, n_max):
            return [SemigroupPoint(point=math.exp(-t) * x0,
                                   achieved_tol=row_tol / 2 if t != 0.5 else math.inf,
                                   n_used=64, converged=t != 0.5)
                    for x0, t, row_tol in zip(xs, ts, tol)]

        space = SpaceDescriptor(dimension=1)
        out = ScenarioOutcome(name="stub")
        traj, _ = _semigroup_run(Config({"horizon": 1.0}), out, space, samples,
                                 flows.gradient_flow_semigroup, None, np.array([1.0]), 0.25,
                                 1e-3)
        assert len(traj.ts) == 5 and traj.est_err == 1e-3
        [report] = out.reports
        assert report.status == INCONCLUSIVE
        assert report.details["unconverged_times"] == [0.5]
        assert "did not converge" in report.details["reason"]

    def test_converged_samples_add_no_report(self):
        def samples(op, xs, ts, tol, n_max):
            return [SemigroupPoint(point=math.exp(-t) * x0, achieved_tol=row_tol / 2,
                                   n_used=64, converged=True)
                    for x0, t, row_tol in zip(xs, ts, tol)]

        out = ScenarioOutcome(name="stub")
        _semigroup_run(Config({"horizon": 1.0}), out, SpaceDescriptor(dimension=1), samples,
                       flows.gradient_flow_semigroup, None, np.array([1.0]), 0.25, 1e-3)
        assert out.reports == []

    def test_grid_error_comes_before_an_extra_rows_error(self):
        # both fail; the extra row at n = 8, the grid row t = 0.25 at n = 32
        def picky(t, x):
            if np.count_nonzero(t < 0.01):
                raise operators.OperatorError(f"prox step {float(np.min(t))} below 0.01")
            return x / (1.0 + t)

        phi = operators.ConvexFunction(value=lambda x: 0.5 * np.vecdot(x, x), prox=picky)
        with pytest.raises(operators.OperatorError, match=r"^prox step 0\.0078125 below"):
            _semigroup_run(Config({"horizon": 1.0}), ScenarioOutcome(name="stub"),
                           SpaceDescriptor(dimension=1), flows.gradient_flow_samples,
                           flows.gradient_flow_semigroup, phi, np.array([1.0]), 0.25, 1e-300,
                           [(np.array([2.0]), 0.05, 1e-300)])

    @pytest.mark.parametrize("name, stacked, separate", [
        ("stojkovic_negation", 2040, 3032), ("gradient_flow_quadratic", 2040, 2544)])
    def test_one_stack_needs_only_the_match_rows_steps(self, monkeypatch, name, stacked,
                                                       separate):
        # a step is one resolvent or prox step of the semigroup stack; the
        # match row alone takes its levels n = 8, ..., 1024
        steps = []

        def counted(f):
            return lambda *args, **kwargs: steps.append(1) or f(*args, **kwargs)

        for attr in ("stojkovic_resolvent", "_resolvent_loop"):
            monkeypatch.setattr(flows, attr, counted(getattr(flows, attr)))
        make = scenarios.make_convex_function

        def counted_phi(space, spec):
            phi = make(space, spec)
            return dataclasses.replace(phi, prox=counted(phi.prox))

        monkeypatch.setattr(scenarios, "make_convex_function", counted_phi)
        cfg = builtin_scenarios()[name].config
        run_scenario(cfg)
        assert len(steps) == stacked

        # the same rows as one grid call and one call per further row
        steps.clear()
        if name == "stojkovic_negation":
            op, samples = operators.NonexpansiveMap.negation(), flows.stojkovic_samples
            further = [(x, t, 1e-4) for x, t in cfg["fixed_point_samples"]]
        else:
            op, samples = scenarios.make_convex_function(
                SpaceDescriptor(dimension=1), cfg["operators"]["phi"]), flows.gradient_flow_samples
            further = []
        ts = np.arange(0.0, cfg["horizon"] + 0.125, 0.25)
        samples(op, cfg["initial"]["x0"], ts, tol=cfg["sampling"]["tol"])
        for x, t, tol in [(cfg["initial"]["x0"], 1.0, 1e-6), *further]:
            samples(op, x, [t], tol=tol)
        assert len(steps) == separate


class TestUnconvergedSemigroupChecks:
    # the driver's n budget, not the formula, stops these runs: no violation
    def test_unconverged_match_is_inconclusive(self):
        cfg = {**builtin_scenarios()["gradient_flow_quadratic"].config,
               "match": {"t": 1.0, "tol": 1e-6, "n_max": 16}}
        out = run_scenario(cfg)
        [report] = [r for r in out.reports if r.claim == "exponential_formula_match"]
        assert report.status == INCONCLUSIVE and out.ok
        assert report.details["n_used"] == 16
        assert "did not converge" in report.details["reason"]

    def test_unconverged_fixed_point_lemma_is_inconclusive(self, monkeypatch):
        # the fixed-point samples are the stack's last three rows
        def capped(F, xs, ts, n_max, tol):
            return flows.stojkovic_samples(F, xs, ts, n_max=[*n_max[:-3], 16, 16, 16], tol=tol)

        monkeypatch.setattr(scenarios, "stojkovic_samples", capped)
        out = run_scenario({**builtin_scenarios()["stojkovic_negation"].config,
                            "horizon": 1.0})
        [report] = [r for r in out.reports if r.claim == "fixed_point_bound"]
        assert report.status == INCONCLUSIVE and out.ok
        assert report.details["n_used"] == [16, 16, 16]


class TestClosedForms:
    """The exponential-formula match compares with the closed-form flow of
    the configured operator, at ``match.tol``."""

    @pytest.mark.parametrize("name, overrides", [
        ("gradient_flow_quadratic", {"operators": {"phi": {"op": "quadratic", "scale": 2.0}}}),
        ("gradient_flow_quadratic", {"operators": {"phi": {"op": "quadratic", "center": [0.3]}},
                                     "solution": {"point": [0.3], "b": 1}}),
        ("stojkovic_negation", {"operators": {"F": {"op": "scalar", "c": 0.5}}}),
        ("gradient_flow_quadratic", {"match": {"t": 1.0, "tol": 1e-2}}),
        ("stojkovic_negation", {"match": {"t": 1.0, "tol": 1e-2}}),
    ], ids=["quadratic_scale_2", "quadratic_center", "scalar_half", "gradient_tol_1e-2",
            "stojkovic_tol_1e-2"])
    def test_match_holds(self, name, overrides):
        cfg = {**builtin_scenarios()[name].config, **overrides}
        out = run_scenario(cfg)
        assert out.ok
        [report] = [r for r in out.reports if r.claim == "exponential_formula_match"]
        assert report.status == HOLDS and report.tolerance == cfg["match"]["tol"]
        assert report.details["error"] <= report.tolerance


@pytest.mark.parametrize("kinds, slope", [
    # the builtin's c = 1/2, and metric subregularity with k = 2: tau(eps) = eps / 2
    ([{"kind": "quasi_contraction", "c": 0.5}, {"kind": "metric_subregular", "k": 2}], 0.5),
    ([{"kind": "quasi_contraction", "c": 0.75}, {"kind": "metric_subregular", "k": 4},
      {"kind": "strongly_accretive", "beta": 0.25}], 0.25),
], ids=["slope_half", "slope_quarter"])
def test_linear_regularity_kinds_give_one_exponential_rate(kinds, slope):
    # the fast linear rate takes its k from the slope of tau, whatever the kind
    base = _short("first_order_contraction_1d")
    assert base["regularity"] == {"kind": "quasi_contraction", "c": 0.5}
    outs = [run_scenario({**base, "regularity": reg}) for reg in kinds]
    reports = [next(dataclasses.asdict(r) for r in o.reports if r.claim == "exponential_rate")
               for o in outs]
    certs = [next(c for c in o.certificates if c["theorem"] == "fast_linear_rate")
             for o in outs]
    assert all(r == reports[0] for r in reports) and all(c == certs[0] for c in certs)
    assert certs[0]["inputs"]["k"] == slope


def test_closed_form_match_states_the_trajectory_error():
    # at step 0.25 the error exceeds 1e-6; the tolerance is the trajectory's own
    out = run_scenario({**_short("second_order_linear"), "step": 0.25})
    [report] = [r for r in out.reports if r.claim == "closed_form_match"]
    traj = out.trajectories["trajectory"]
    assert report.tolerance == 3 * traj.est_err > report.details["max_error"] > 1e-6
    assert report.status == HOLDS


class TestNestedKeys:
    @pytest.mark.parametrize("name, section, key", [
        ("first_order_contraction_1d", "solution", "b"),
        ("gradient_flow_quadratic", "operators", "phi"),
        ("stojkovic_negation", "initial", "x0"),
    ])
    def test_missing_nested_key_names_its_path(self, name, section, key):
        cfg = dict(builtin_scenarios()[name].config)
        cfg[section] = {k: v for k, v in cfg[section].items() if k != key}
        with pytest.raises(ConfigError, match=f"'{section}.{key}'"):
            run_scenario(cfg)


def _short(name: str) -> dict:
    """A builtin config cut to horizon 6 (the oracle times reach 5), with a
    short ``long_check`` where it has one."""
    cfg = {**builtin_scenarios()[name].config, "horizon": 6.0, "step": 0.01}
    if "long_check" in cfg:
        cfg["long_check"] = {"horizon": 10.0, "step": 0.5}
    return cfg


@pytest.mark.parametrize("name, runs", [
    ("first_order_contraction_1d", 2),  # the main run and long_check
    ("first_order_contraction_2d", 2),
    ("second_order_linear", 1),
    ("forward_backward_first_order", 1),
    ("forward_backward_second_order", 1),
])
def test_each_flow_is_integrated_once(monkeypatch, name, runs):
    # one core call per run; both first-order pipelines reach RK4 through
    # the name scenarios imports, the one a tracer rebinds
    core, first_order = [], []
    integrate, integrate_first_order = flows._integrate, scenarios.integrate_first_order
    monkeypatch.setattr(flows, "_integrate",
                        lambda *args, **kwargs: core.append(1) or integrate(*args, **kwargs))
    monkeypatch.setattr(scenarios, "integrate_first_order",
                        lambda *args, **kwargs: first_order.append(1)
                        or integrate_first_order(*args, **kwargs))
    run_scenario(_short(name))
    assert len(core) == runs
    assert len(first_order) == (runs if "first_order" in name else 0)


@pytest.mark.parametrize("name", ["first_order_contraction_1d", "first_order_contraction_2d",
                                  "second_order_linear", "forward_backward_first_order",
                                  "forward_backward_second_order"])
def test_each_builtin_flow_steps_on_floats(monkeypatch, name):
    # every RK4 builtin's field is coordinatewise and holds at most 2 chains a run
    def numpy_steps(*args):
        raise AssertionError("a builtin flow stepped on numpy")

    monkeypatch.setattr(flows, "_step_block", numpy_steps)
    assert run_scenario(_short(name)).ok


@pytest.mark.parametrize("name, listed, theorem", [
    ("gradient_flow_quadratic", [0, 1, 2], "delta_gradient_flow"),
    ("stojkovic_negation", [0, {"kind": "identity_plus", "k": 0}], "delta_stojkovic"),
])
def test_every_listed_counterfunction_is_certified(name, listed, theorem):
    config = builtin_scenarios()[name].config
    out = run_scenario({**config, "metastability": {"eps": 1.0, "counterfunctions": listed}})
    certified = [c["inputs"]["f"] for c in out.certificates if c["theorem"] == theorem]
    assert certified == [Counterfunction.from_spec(f).to_spec() for f in listed]
    claims = {r.claim for r in out.reports}
    assert {f"metastability[f={f}]" for f in certified} <= claims


def test_divergence_modulus_is_exact_at_a_decimal_lambda():
    # lambda = 0.1: tau_lo = 9/100, where the float 0.1 * 0.9 lies above it
    tau_lo, eta = scenarios._divergence_modulus(ParameterCurve.constant(0.1))
    assert tau_lo == 0.09
    K = Fraction(9, 100) * (10 ** 6 + Fraction(1, 10 ** 11))
    assert eta(R(K)) == 1_000_001


def test_forward_backward_delta_is_exact():
    # beta / gamma = 2/3: delta = 7/6, where the floats give 1.1666666666666665
    out = run_scenario({**_short("forward_backward_first_order"), "gamma": 1.5})
    (cert,) = out.certificates
    assert cert["inputs"]["delta"] == float(Fraction(7, 6))


def _sign_flipped(A, B, gamma):
    """The forward-backward map with its forward step taken uphill,
    x -> J_{gamma A}(x + gamma B x)."""
    T = operators.forward_backward_map(A, B, gamma)
    return dataclasses.replace(T, fn=lambda x: A.resolvent(gamma, x + gamma * B.fn(x)))


@pytest.mark.parametrize("mutated", [False, True])
def test_fb_reduction_checks_the_map_against_a_and_b(monkeypatch, mutated):
    if mutated:
        monkeypatch.setattr(scenarios, "forward_backward_map", _sign_flipped)
    out = run_scenario(_short("forward_backward_first_order"))
    report = next(r for r in out.reports if r.claim == "fb_reduces_to_first_order")
    if mutated:
        assert report.status == VIOLATED and report.details["max_deviation"] > 0.1
    else:
        assert report.status == HOLDS and report.margin == 0.0


# ---------------------------------------------------------------------------
# the tail checks evaluate the certified rates of moduli
# ---------------------------------------------------------------------------


def _captured_rates(monkeypatch, config: dict) -> dict:
    """claim -> (rate, eps list) that the pipeline hands to the three tail
    checks."""
    captured = {}
    for check in ("check_asymptotic_regularity", "check_b_convergence",
                  "check_convergence_rate"):
        original = getattr(scenarios, check)

        def recording(*args, claim, original=original):
            captured[claim] = (args[-2], args[-1])
            return original(*args, claim=claim)

        monkeypatch.setattr(scenarios, check, recording)
    run_scenario(config)
    return captured


def _eta(tau):
    return lambda K: (K / R(tau)).ceil_upper()


def _at(eps):
    return R(Fraction(str(eps)))


def test_first_order_checks_use_the_certified_rates(monkeypatch):
    captured = _captured_rates(monkeypatch, _short("first_order_contraction_1d"))
    divergence = moduli.asymptotic_regularity_rate(1, divergence_modulus=_eta(Fraction(1, 4)))
    witness = moduli.asymptotic_regularity_rate(1, lower_witness=Fraction(1, 2))
    for claim, expected in (("asymptotic_regularity_divergence", divergence),
                            ("asymptotic_regularity_witness", witness),
                            ("asymptotic_regularity_divergence_long", divergence),
                            ("asymptotic_regularity_witness_long", witness)):
        rate, eps_list = captured[claim]
        assert eps_list == [0.5, 0.1, 0.02]
        assert [rate(e) for e in eps_list] == [expected(_at(e)) for e in eps_list]


def test_forward_backward_psi_uses_the_certified_rate(monkeypatch):
    psi, eps_list = _captured_rates(
        monkeypatch, _short("forward_backward_first_order"))["b_convergence_psi_rate"]
    # A = 0, B = Id, gamma = 1: delta = 3/2, lambda = 1/2, tau_lo = 1/2, b = 1/10
    b = Fraction(1, 10)
    phi1 = moduli.asymptotic_regularity_rate(b, divergence_modulus=_eta(Fraction(1, 2)),
                                             averaged_delta=Fraction(3, 2))
    assert [psi(e) for e in eps_list] == [phi1(_at(e) * _at(e) / (3 * b)) for e in eps_list]
    assert psi(0.1) == 27


def test_gradient_flow_rho_is_the_zero_error_regular_rate(monkeypatch):
    rho, eps_list = _captured_rates(
        monkeypatch, builtin_scenarios()["gradient_flow_quadratic"].config
    )["regularity_convergence_rate"]
    bundle = dataclasses.replace(
        moduli.gradient_flow_bundle(1, moduli.ball_modulus(1, 1)),
        tau=moduli.regularity_modulus("strongly_quasiconvex", rho=1))
    assert [rho(e) for e in eps_list] == \
        [moduli.rho_convergence_regular(bundle, _at(e)).value for e in eps_list]
    assert [rho(e) for e in eps_list] == [9, 33]
    # 2 / 1e-80 is past the 256-bit budget: infinite, beyond every horizon
    assert rho(1e-40) == math.inf
