"""Builtin scenarios and the simulate -> certify -> verify pipelines.

A scenario is a declarative config (JSON-compatible, schema_version 1); the
registry ships one scenario per case-study family.  Each pipeline validates
operator contracts first, integrates or samples the flow, computes the
requested certificates exactly, and verifies every claim against the
trajectory with tolerances derived from the integrator error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import moduli
from .counterfunctions import Counterfunction
from .exact import BudgetExceeded, ExtendedNatural, R, Real, guard
from .flows import (
    ParameterCurve,
    Trajectory,
    gradient_flow_semigroup,
    integrate_first_order,
    integrate_forward_backward,
    integrate_second_order,
    stojkovic_semigroup,
)
from .moduli import PerturbationPair, second_order_constants
from .operators import (
    CocoerciveMap,
    NonexpansiveMap,
    ball_samples,
    check_cocoercive,
    check_nonexpansive,
    forward_backward_map,
    make_cocoercive,
    make_convex_function,
    make_monotone,
    make_nonexpansive,
    stojkovic_resolvent,
)
from .space import SpaceDescriptor, row_norm
from .verify import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    SolutionFunction,
    VerificationReport,
    _base_tolerance,
    _window_points,
    check_asymptotic_regularity,
    check_b_convergence,
    check_convergence_rate,
    check_fejer,
    check_mayer_inequality,
    check_second_order_bounds,
    check_semigroup_fixed_point_bound,
    extract_approximate_zero,
    report_from_margin,
    verify_metastability,
    verify_residual_metastability,
)

SCHEMA_VERSION = 1

__all__ = ["Scenario", "ScenarioOutcome", "builtin_scenarios", "run_scenario",
           "ConfigError", "SCHEMA_VERSION"]


class ConfigError(ValueError):
    pass


class _Config(dict):
    """A scenario config as its pipeline reads it: a missing key raises
    ``ConfigError`` naming its full path (``solution.b``,
    ``metastability.counterfunctions[0].k``), not a bare ``KeyError``.
    Nested mappings, list items included, are wrapped as they are read.

    A present null is never a value: ``cfg[key]`` and ``cfg.get(key,
    default)`` refuse it, and only ``cfg.get(key)`` reads it as absent (so
    a null section is switched off).  A value read with a mapping or list
    default must be a mapping or a list."""

    def __init__(self, data, path: str = ""):
        super().__init__(data)
        self._path = path

    def _wrap(self, key, value):
        if isinstance(value, dict):
            return _Config(value, f"{self._path}{key}.")
        if isinstance(value, list):
            return [_Config(v, f"{self._path}{key}[{i}].") if isinstance(v, dict) else v
                    for i, v in enumerate(value)]
        return value

    def _refuse(self, key, value, want: str):
        raise ConfigError(f"config key '{self._path}{key}' must be {want}, got {value!r}")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if value is None:
            self._refuse(key, value, "a value, not null")
        return self._wrap(key, value)

    def __missing__(self, key):
        raise ConfigError(f"config missing required key '{self._path}{key}'")

    def get(self, key, default=None):
        if default is None or key not in self:
            return self._wrap(key, super().get(key, default))
        value = self[key]
        if isinstance(default, (dict, list)) and not isinstance(value, type(default)):
            self._refuse(key, value, "a mapping" if isinstance(default, dict) else "a list")
        return value

    def section(self, *keys) -> "_Config":
        """The mapping at the required key path ``keys``."""
        cfg = self
        for key in keys:
            value = cfg[key]
            if not isinstance(value, dict):
                cfg._refuse(key, value, "a mapping")
            cfg = value
        return cfg


def _number(cfg: dict, key: str, default: Optional[float] = None) -> float:
    """The finite float at ``cfg[key]``, or ``default`` when the key is absent
    (required when ``default`` is None); anything else is a ``ConfigError``
    naming the key's path."""
    value = cfg[key] if default is None else cfg.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        path = getattr(cfg, "_path", "")
        raise ConfigError(f"config key '{path}{key}' must be a finite number, got {value!r}")
    return number


@dataclass
class Scenario:
    name: str
    description: str
    config: dict


@dataclass
class ScenarioOutcome:
    name: str
    reports: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    trajectories: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.status != VIOLATED for r in self.reports)

    def add(self, report: VerificationReport) -> VerificationReport:
        self.reports.append(report)
        return report

    def certify(self, theorem: str, inputs: dict, value, trace: Optional[dict] = None):
        """Record a certificate.  An ExtendedNatural brings its own trace;
        ``trace`` is for a value that has none (derived constants)."""
        entry = {"theorem": theorem, "inputs": inputs}
        if isinstance(value, ExtendedNatural):
            entry["value"] = value.to_json()
            trace = value.trace
        else:
            entry["value"] = value
        if trace:
            entry["trace"] = {k: (list(v) if isinstance(v, list) else v)
                              for k, v in trace.items()}
        self.certificates.append(entry)
        return entry


def _contract_report(space: SpaceDescriptor, op) -> VerificationReport:
    """Report of the sampled contract check of a cocoercive or a
    nonexpansive operator."""
    if isinstance(op, CocoerciveMap):
        claim, prop = "operator_cocoercive", check_cocoercive(op, space)
    else:
        claim, prop = "operator_nonexpansive", check_nonexpansive(op, space)
    return VerificationReport(claim, HOLDS if prop.passed else VIOLATED,
                              margin=prop.max_ratio - 1.0, tolerance=prop.tol,
                              details=asdict(prop))


def _tail_rate(rate: Callable[[Real], object]) -> Callable[[float], float]:
    """A certified rate as the tail checks read it: evaluated exactly at the
    decimal value of eps, and infinite, beyond every horizon, once it is
    past the budget (``BudgetExceeded`` or an overflow ExtendedNatural)."""

    def at(eps: float) -> float:
        try:
            value = rate(R(Fraction(str(eps))))
        except BudgetExceeded:
            return math.inf
        if isinstance(value, ExtendedNatural):
            return math.inf if value.is_overflow else value.value
        return value

    return at


def _cocoercive(space: SpaceDescriptor, cfg: dict) -> CocoerciveMap:
    """Operator B, with its cocoercivity constant replaced by ``beta_claim``
    when the config declares one."""
    B = make_cocoercive(space, cfg.section("operators", "B"))
    if "beta_claim" in cfg:
        B = CocoerciveMap(fn=B.fn, beta=_number(cfg, "beta_claim"),
                          name=B.name + "[claimed]")
    return B


def _curve(cfg: dict, key: str) -> ParameterCurve:
    """The curve ``curves.<key>``.  Its certificates are built from its
    declared range, so both ends of that range must be declared."""
    curve = ParameterCurve.from_spec(cfg.section("curves")[key])
    if curve.lower is None or curve.upper is None:
        raise ConfigError(f"config key 'curves.{key}' needs 'lower' and 'upper' bounds")
    return curve


def _second_order_consts(cfg: dict, lam: ParameterCurve, gam: ParameterCurve,
                         theta: float, beta: float):
    """Boundedness constants of a second-order flow from the config bounds
    and the declared parameter ranges."""
    bounds = cfg.section("bounds")
    return second_order_constants(
        bounds["b"], bounds["c"], bounds["d"],
        Fraction(str(lam.lower)), Fraction(str(lam.upper)),
        Fraction(str(gam.lower)), Fraction(str(gam.upper)),
        Fraction(str(theta)), Fraction(str(beta)))


def _counterfunctions(cfg: dict) -> list[Counterfunction]:
    return [Counterfunction.from_spec(s) for s in cfg.get(
        "counterfunctions",
        [{"kind": "constant", "k": 0}, {"kind": "constant", "k": 1},
         {"kind": "identity_plus", "k": 0}],
    )]


def _perturbed_level_points(y: np.ndarray, residual: SolutionFunction,
                            radii=(1e-3, 1e-2, 0.05)):
    """Perturb a known solution in coordinate directions; residuals of the
    perturbed points come from the closed-form operator evaluation, without
    the ball restriction."""
    zs = np.vstack([y + r * np.eye(len(y)) for r in radii] + [y])
    return list(zip(zs, residual.residual(zs)))


def _distance_monotone_report(traj: Trajectory, y: np.ndarray,
                              claim: str = "fejer_distance_monotone") -> VerificationReport:
    dist = np.linalg.norm(traj.xs - y[None, :], axis=1)
    increase = float(np.diff(dist).max()) if len(dist) > 1 else 0.0
    return report_from_margin(claim, increase, _base_tolerance(traj),
                              {"max_increase": increase})


def _derivative_bound_report(traj: Trajectory, T: NonexpansiveMap,
                             claim: str = "derivative_residual_bound") -> VerificationReport:
    stride = max(1, len(traj.ts) // 512)
    xs = traj.xs[::stride]
    worst = float((row_norm(traj.dxs[::stride]) - row_norm(T(xs) - xs)).max())
    return report_from_margin(claim, worst, _base_tolerance(traj))


# ---------------------------------------------------------------------------
# first-order pipeline
# ---------------------------------------------------------------------------


def _divergence_modulus(lam: ParameterCurve, delta: float = 1.0):
    """(tau_lo, eta): tau_lo is the inf of lambda (delta - lambda) over the
    declared range of lambda, attained at an endpoint since the map is
    concave, and eta(K) = ceil(K / tau_lo) is the exact divergence modulus
    of its integral."""
    tau_lo = min(lam.lower * (delta - lam.lower), lam.upper * (delta - lam.upper))
    if tau_lo <= 0:
        raise ConfigError("divergence modulus needs lambda (delta - lambda) "
                          "bounded away from zero")
    tau = R(Fraction(str(tau_lo)))
    return tau_lo, lambda K: (K / tau).ceil_upper()


def _run_first_order(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    T = make_nonexpansive(space, cfg.section("operators", "T"))
    lam = _curve(cfg, "lambda")
    solution = cfg.section("solution")
    x0 = space.point(cfg.section("initial")["x0"])
    y = space.point(solution["point"])
    b = _number(solution, "b")
    if space.distance(x0, y) > b + 1e-12:
        raise ConfigError("declared b does not bound ||x0 - y||")

    out.add(_contract_report(space, T))

    traj = integrate_first_order(T, lam, x0, _number(cfg, "horizon"),
                                 _number(cfg, "step"), space=space)
    out.trajectories["trajectory"] = traj

    out.add(_distance_monotone_report(traj, y))
    out.add(_derivative_bound_report(traj, T))

    residual = SolutionFunction.fixed_point_residual(T, center=y, radius=b)
    chi = lambda e, n, m: e / (4 * b * m)
    level_points = _perturbed_level_points(y, residual)
    out.add(check_fejer(traj, residual, level_points, PerturbationPair.squares(),
                        chi))

    # the witness-form check and the metastability certificates share one rate
    tau_lo, eta = _divergence_modulus(lam)
    witness = {"lower_witness": Fraction(lam.lower)}
    b_exact = Fraction(str(b))
    phi1 = _tail_rate(moduli.asymptotic_regularity_rate(b_exact, divergence_modulus=eta))
    phi2 = _tail_rate(moduli.asymptotic_regularity_rate(b_exact, **witness))
    eps_reg = cfg.get("eps_regularity", [0.5, 0.1, 0.02])
    out.add(check_asymptotic_regularity(traj, residual, phi1, eps_reg,
                                        claim="asymptotic_regularity_divergence"))
    out.add(check_asymptotic_regularity(traj, residual, phi2, eps_reg,
                                        claim="asymptotic_regularity_witness"))
    inf_rate = _tail_rate(lambda e: guard(eta(b_exact * b_exact / (e * e))))
    out.add(check_asymptotic_regularity(traj, residual, inf_rate, eps_reg,
                                        claim="asymptotic_regularity_inf_form"))

    long_cfg = cfg.get("long_check")
    if long_cfg:
        long_traj = integrate_first_order(T, lam, x0, _number(long_cfg, "horizon"),
                                          _number(long_cfg, "step"), space=space)
        out.trajectories["trajectory_long"] = long_traj
        out.add(check_asymptotic_regularity(long_traj, residual, phi1, eps_reg,
                                            claim="asymptotic_regularity_divergence_long"))
        out.add(check_asymptotic_regularity(long_traj, residual, phi2, eps_reg,
                                            claim="asymptotic_regularity_witness_long"))

    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 1.0)
    for fc in _counterfunctions(meta_cfg):
        cert = moduli.delta_first_order(space.dimension, Fraction(solution["b"]), witness,
                                        Fraction(eps) / 4, fc)
        out.certify("delta_first_order",
                    {"d": space.dimension, "b": solution["b"],
                     "lambda_lo": lam.lower, "eps": eps / 4,
                     "f": fc.to_spec()}, cert)
        out.add(verify_metastability(traj, eps, fc, cert, residual=residual,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    reg = cfg.get("regularity")
    if reg:
        k = 1.0 - _number(reg, "c")
        c_rate = moduli.fast_linear_rate(tau_lo, k, 2)
        out.certify("fast_linear_rate",
                    {"beta": tau_lo, "k": k, "p": 2}, c_rate)
        d0 = space.distance(x0, y)
        times = np.linspace(0.0, min(20.0, traj.horizon), 400)
        bound = c_rate ** np.floor(times) * d0 * (1 + 1e-6)
        worst = float((row_norm(_window_points(traj, times) - y) - bound).max())
        out.add(report_from_margin("exponential_rate", worst, _base_tolerance(traj),
                                   {"c": c_rate}))


# ---------------------------------------------------------------------------
# second-order pipeline
# ---------------------------------------------------------------------------


def _second_order_error_model(consts, traj: Trajectory):
    gam_lo = float(consts.gam_lo)
    lam_lo = float(consts.lam_lo)
    gam_hi = float(consts.gam_hi)
    beta = float(consts.beta)
    K = consts.K.to_float()

    def s_part(t):
        v = float(np.linalg.norm(traj.eval_velocity(t)))
        return 2 * beta / gam_lo * (gam_hi / lam_lo) * v * v + 2 / gam_lo * K * v

    def t_part(t):
        v = float(np.linalg.norm(traj.eval_velocity(t)))
        return 2 / gam_lo * K * v

    return s_part, t_part


def _run_second_order(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    B = _cocoercive(space, cfg)
    lam = _curve(cfg, "lambda")
    gam = _curve(cfg, "gamma")
    theta = _number(cfg, "theta")
    initial = cfg.section("initial")
    u0 = space.point(initial["x0"])
    v0 = space.point(initial["v0"])
    z = space.point(cfg.section("solution")["point"])

    prop = out.add(_contract_report(space, B))
    if prop.status == VIOLATED:
        return

    traj = integrate_second_order(B, lam, gam, u0, v0, _number(cfg, "horizon"),
                                  _number(cfg, "step"), theta=theta, space=space)
    out.trajectories["trajectory"] = traj

    oracle = cfg.get("oracle")
    if oracle:
        times = np.asarray(oracle.get("times", [0.5, 1.0, 2.0, 5.0]), dtype=float)
        value = sum(coef * np.exp(rate * times) for coef, rate in oracle["terms"])
        worst = np.abs(_window_points(traj, times)[:, 0] - value).max()
        out.add(report_from_margin("closed_form_match", worst - 1e-6, 1e-6,
                                   {"max_error": worst}))

    consts = _second_order_consts(cfg, lam, gam, theta, B.beta)
    out.certify("second_order_constants", {k: cfg.section("bounds")[k] for k in "bcd"},
                None, trace=consts.describe())
    out.add(check_second_order_bounds(traj, consts, z, B))

    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 0.2)
    for fc in _counterfunctions(meta_cfg):
        cert = moduli.lambda_capital(consts, Fraction(str(eps)), fc)
        out.certify("lambda_capital", {"eps": eps, "f": fc.to_spec()}, cert)
        residual_t = lambda t: max(
            float(np.linalg.norm(traj.eval_velocity(t))),
            float(np.linalg.norm(B(traj.eval(t)))))
        out.add(verify_residual_metastability(
            traj, residual_t, eps, fc, cert,
            claim=f"lambda_metastability[f={fc.to_spec()}]"))

    residual = SolutionFunction.operator_norm_residual(
        B, center=z, radius=consts.K.to_float())
    K = consts.K.to_float()
    chi = lambda e, n, m: float(consts.gam_lo) * e / (m * float(consts.lam_hi) * 8 * K)
    level_points = _perturbed_level_points(z, residual)
    pair = PerturbationPair.squares(Fraction(consts.gam_hi, consts.gam_lo))
    out.add(check_fejer(traj, residual, level_points, pair, chi,
                        error_model=_second_order_error_model(consts, traj),
                        claim="uniform_quasi_fejer"))

    # the full Delta recursion; small eps overflows by design, so surface it
    cert_cfg = cfg.get("delta", {})
    eps_d = Fraction(str(cert_cfg.get("eps", eps)))
    fc = Counterfunction.from_spec(cert_cfg.get("counterfunction", 0))
    scaled = min(eps_d, Fraction(str(B.beta)) * eps_d / 2)
    cert = moduli.delta_second_order(consts, space.dimension, scaled, fc)
    out.certify("delta_second_order",
                {"eps": float(eps_d), "scaled_eps": float(scaled),
                 "f": fc.to_spec()}, cert)
    out.add(verify_metastability(traj, float(eps_d), fc, cert,
                                 claim="metastability_second_order"))


# ---------------------------------------------------------------------------
# forward-backward pipelines
# ---------------------------------------------------------------------------


def _run_forward_backward_first(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    A = make_monotone(space, cfg.section("operators", "A"))
    B = make_cocoercive(space, cfg.section("operators", "B"))
    gamma = _number(cfg, "gamma")
    lam = _curve(cfg, "lambda")
    solution = cfg.section("solution")
    x0 = space.point(cfg.section("initial")["x0"])
    y = space.point(solution["point"])
    b = _number(solution, "b")

    T = forward_backward_map(A, B, gamma)
    delta = T.averaged_delta
    traj = integrate_forward_backward("first", A, B, gamma, lam, x0,
                                      _number(cfg, "horizon"), _number(cfg, "step"),
                                      space=space)
    out.trajectories["trajectory"] = traj

    # structural reduction: the stored derivatives are lambda(t) (T x - x), T rebuilt from A, B
    xs = traj.xs
    dev = float(np.abs(lam(traj.ts)[:, None] * (A.resolve(gamma, xs - gamma * B(xs)) - xs)
                       - traj.dxs).max())
    out.add(report_from_margin("fb_reduces_to_first_order", dev, 1e-14,
                               {"max_deviation": dev}))

    out.add(_distance_monotone_report(traj, y))

    # approximate zeros of A + B from arbitrary points
    pts = ball_samples(space, 100, radius=2.0, seed=7)
    _, w, bound = extract_approximate_zero(pts, A, B, gamma, B.beta)
    excess = row_norm(w) - bound
    out.add(report_from_margin("approximate_zero_bound", float(excess.max()), 1e-12,
                               {"min_margin": float((-excess).min()),
                                "n_points": len(pts)}))

    # key inequality behind the B-convergence rate
    zpts = pts[:32]
    lhs = gamma * B.beta * row_norm(B(zpts) - B(y)) ** 2
    rhs = (1 + gamma / B.beta) * row_norm(zpts - y) * row_norm(T(zpts) - zpts)
    out.add(report_from_margin("fb_b_inequality", float((lhs - rhs).max()), 1e-9))

    # the psi check and the metastability certificate share one rate
    b_exact = Fraction(str(b))
    rate_info = {"divergence_modulus": _divergence_modulus(lam, delta)[1],
                 "averaged_delta": Fraction(str(delta))}
    phi1 = moduli.asymptotic_regularity_rate(b_exact, **rate_info)
    scale = R(Fraction(str(gamma))) * R(Fraction(str(B.beta))) / (3 * b_exact)
    psi = _tail_rate(lambda e: phi1(scale * e * e))
    out.add(check_b_convergence(traj, B, y, psi, cfg.get("eps_b", [0.5, 0.1]),
                                claim="b_convergence_psi_rate"))

    residual = SolutionFunction.fixed_point_residual(T, center=y, radius=b)
    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 0.5)
    for fc in _counterfunctions(meta_cfg)[:1]:
        cert = moduli.delta_first_order(space.dimension, b_exact, rate_info,
                                        Fraction(str(eps)) / 4, fc)
        out.certify("delta_first_order_fb",
                    {"d": space.dimension, "b": b, "delta": delta,
                     "eps": eps / 4, "f": fc.to_spec()}, cert)
        out.add(verify_metastability(traj, eps, fc, cert, residual=residual,
                                     claim="metastability_fb"))


def _run_forward_backward_second(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    A = make_monotone(space, cfg.section("operators", "A"))
    B = make_cocoercive(space, cfg.section("operators", "B"))
    eta_step = _number(cfg, "eta")
    lam = _curve(cfg, "lambda")
    gam = _curve(cfg, "gamma")
    theta = _number(cfg, "theta")
    initial = cfg.section("initial")
    u0 = space.point(initial["x0"])
    v0 = space.point(initial["v0"])
    y = space.point(cfg.section("solution")["point"])

    traj = integrate_forward_backward("second", A, B, eta_step, lam, u0,
                                      _number(cfg, "horizon"), _number(cfg, "step"),
                                      gam=gam, v0=v0, theta=theta, space=space)
    out.trajectories["trajectory"] = traj

    consts = _second_order_consts(cfg, lam, gam, theta, B.beta)
    out.certify("second_order_constants_fb", {k: cfg.section("bounds")[k] for k in "bcd"},
                None, trace=consts.describe())

    K = consts.K
    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 0.5)
    fc = _counterfunctions(meta_cfg)[0]
    arg = R(Fraction(str(eps))) * R(Fraction(str(eps))) \
        * R(Fraction(str(eta_step))) * R(Fraction(str(B.beta))) / (3 * K)
    cert = moduli.lambda_capital(consts, arg, fc)
    out.certify("sfb_b_rate", {"eps": eps, "f": fc.to_spec()}, cert)
    by = B(y)
    residual_t = lambda t: float(np.linalg.norm(B(traj.eval(t)) - by))
    out.add(verify_residual_metastability(traj, residual_t, eps, fc, cert,
                                          claim="b_convergence_metastability"))

    # strong monotonicity of B = Id gives the Theta bound
    if cfg.get("uniform_monotone_who") == "B":
        phi_fn = lambda e: e * e
        cert2 = moduli.fb_uniform_monotone_rate(
            "second", "B", phi_fn, Fraction(str(eps)),
            consts=consts, eta_step=Fraction(str(eta_step)), f=fc)
        out.certify("theta_uniform_monotone", {"eps": eps, "who": "B"}, cert2)
        dist_t = lambda t: float(np.linalg.norm(traj.eval(t) - y))
        out.add(verify_residual_metastability(traj, dist_t, eps, fc, cert2,
                                              claim="theta_metastability"))

    pts = ball_samples(space, 50, radius=1.0, seed=11)
    _, w, bound = extract_approximate_zero(pts, A, B, eta_step, B.beta)
    out.add(report_from_margin("approximate_zero_bound",
                               float((row_norm(w) - bound).max()), 1e-12))


# ---------------------------------------------------------------------------
# Hadamard semigroup pipelines
# ---------------------------------------------------------------------------


def _unconverged_report(claim: str, tol: float, **details) -> VerificationReport:
    """``inconclusive`` for a claim checked on semigroup points whose
    exponential formula did not converge: they carry no error bound."""
    return VerificationReport(
        claim, INCONCLUSIVE, tolerance=tol,
        details={"reason": "exponential formula did not converge within n_max",
                 **details})


def _semigroup_run(cfg: dict, out: ScenarioOutcome, space: SpaceDescriptor,
                   semigroup: Callable, op, x0: np.ndarray, grid: float,
                   point_tol: float, decay: int, method: str) -> Trajectory:
    """Sample t -> semigroup(op, x0, t) on the grid over [0, horizon] into the
    scenario trajectory, and check the optional ``match`` entry against the
    closed form e^{-decay t} x0.  Samples whose exponential formula did not
    converge have no error bound; they are named in one ``inconclusive``
    report, and a match that did not converge is ``inconclusive`` too."""
    if not grid > 0:
        raise ConfigError(f"sampling.grid must be positive, got {grid}")
    ts = np.arange(0.0, _number(cfg, "horizon") + grid / 2, grid)
    samples = []
    achieved = 0.0
    unconverged = []
    for t in ts:
        res = semigroup(op, x0, float(t), tol=point_tol)
        samples.append(res.point)
        if res.converged:
            achieved = max(achieved, res.achieved_tol)
        else:
            unconverged.append(float(t))
    traj = Trajectory.from_samples(space, ts, np.array(samples),
                                   est_err=max(achieved, point_tol), method=method)
    out.trajectories["trajectory"] = traj
    if unconverged:
        out.add(_unconverged_report("semigroup_samples_converged", point_tol,
                                    unconverged_times=unconverged))

    match = cfg.get("match")
    if match:
        t_ref = _number(match, "t", 1.0)
        res = semigroup(op, x0, t_ref, tol=_number(match, "tol", 1e-6),
                        n_max=int(_number(match, "n_max", 2 ** 20)))
        if not res.converged:
            out.add(_unconverged_report("exponential_formula_match", 1e-6,
                                        n_used=res.n_used))
        else:
            err = float(np.linalg.norm(res.point - math.exp(-decay * t_ref) * x0))
            out.add(report_from_margin("exponential_formula_match", err - 1e-6, 1e-6,
                                       {"error": err, "n_used": res.n_used,
                                        "extrapolated": res.extrapolated}))
    return traj


def _run_gradient_flow(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    phi = make_convex_function(space, cfg.section("operators", "phi"))
    solution = cfg.section("solution")
    x0 = space.point(cfg.section("initial")["x0"])
    y = space.point(solution["point"])
    b = _number(solution, "b")
    sample_cfg = cfg.get("sampling", {})
    grid = _number(sample_cfg, "grid", 0.25)
    traj = _semigroup_run(cfg, out, space, gradient_flow_semigroup, phi, x0, grid,
                          _number(sample_cfg, "tol", 1e-4), 1,
                          "gradient_flow_semigroup")
    ts = traj.ts

    # Mayer inequality on sampled (s, t, z)
    stride = max(1, len(ts) // 12)
    mayer_pts = [(float(ts[i]), traj.xs[i]) for i in range(0, len(ts), stride)]
    zs = [y, y + 0.5, x0, 0.5 * (x0 + y)] if space.dimension == 1 else [y, x0]
    out.add(check_mayer_inequality(mayer_pts, phi, zs, tol=_base_tolerance(traj)))

    # objective decay phi(S_t x) - mu <= b^2 / (2 t)
    times = np.asarray(cfg.get("objective_times", [1.0, 2.0, 10.0]), dtype=float)
    gap = phi(_window_points(traj, times)) - phi.mu
    out.add(report_from_margin("objective_rate", float((gap - b * b / (2 * times)).max()),
                               _base_tolerance(traj)))

    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 1.0)
    gamma_tb = moduli.ball_modulus(space.dimension, Fraction(str(b)))
    for fc in _counterfunctions(meta_cfg)[:2]:
        cert = moduli.delta_gradient_flow(Fraction(str(b)), gamma_tb,
                                          Fraction(str(eps)), fc)
        out.certify("delta_gradient_flow", {"b": b, "eps": eps, "f": fc.to_spec()},
                    cert)
        out.add(verify_metastability(traj, eps, fc, cert, grid=grid,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    # regularity-based convergence: strongly convex objective
    reg = cfg.get("regularity")
    if reg:
        tau = moduli.regularity_modulus(reg["kind"], **{k: v for k, v in reg.items()
                                                        if k != "kind"})
        bundle = replace(moduli.gradient_flow_bundle(Fraction(str(b)), gamma_tb), tau=tau)
        rho = _tail_rate(lambda e: moduli.rho_convergence_regular(bundle, e))
        out.add(check_convergence_rate(traj, y, rho, cfg.get("eps_rho", [0.5, 0.25]),
                                       claim="regularity_convergence_rate"))


def _run_stojkovic(cfg: dict, out: ScenarioOutcome) -> None:
    space = SpaceDescriptor.from_json(cfg.section("space"))
    F = make_nonexpansive(space, cfg.section("operators", "F"))
    solution = cfg.section("solution")
    x0 = space.point(cfg.section("initial")["x0"])
    y = space.point(solution["point"])
    b = _number(solution, "b")
    sample_cfg = cfg.get("sampling", {})
    grid = _number(sample_cfg, "grid", 0.25)
    traj = _semigroup_run(cfg, out, space, stojkovic_semigroup, F, x0, grid,
                          _number(sample_cfg, "tol", 1e-3), 2, "stojkovic_semigroup")

    # resolvent inequality d(z, R_lam z) <= lam d(z, F z) on samples
    worst = -math.inf
    for zval in sample_cfg.get("resolvent_points", [[0.5], [-0.3], [1.0]]):
        z = space.point(zval if isinstance(zval, list) else [zval])
        for lam_t in (0.25, 1.0, 3.0):
            rz = stojkovic_resolvent(F, lam_t, z, tol=1e-12)
            worst = max(worst,
                        space.distance(z, rz) - lam_t * space.distance(z, F(z)))
    out.add(report_from_margin("resolvent_inequality", worst, 1e-9))

    # fixed-point lemma d(x, T_t x) <= d(x, Fx) (e^{2t}-1)/2
    fp_samples = [(space.point(p), float(t))
                  for p, t in cfg.get("fixed_point_samples",
                                      [([0.5], 0.5), ([-0.25], 1.0), ([1.0], 1.5)])]
    runs = []

    def semigroup(x, t):
        runs.append(stojkovic_semigroup(F, x, t, tol=1e-4))
        return runs[-1].point

    report = check_semigroup_fixed_point_bound(F, semigroup, fp_samples, tol=3e-4)
    unconverged = [r for r in runs if not r.converged]
    out.add(_unconverged_report(report.claim, 3e-4,
                                n_used=[r.n_used for r in unconverged])
            if unconverged else report)

    gamma_tb = moduli.ball_modulus(space.dimension, Fraction(str(b)))
    meta_cfg = cfg.get("metastability", {})
    eps = _number(meta_cfg, "eps", 1.0)
    for fc in _counterfunctions(meta_cfg)[:1]:
        cert = moduli.delta_stojkovic(Fraction(str(b)), gamma_tb,
                                      Fraction(str(eps)), fc)
        out.certify("delta_stojkovic", {"b": b, "eps": eps, "f": fc.to_spec()}, cert)
        out.add(verify_metastability(traj, eps, fc, cert, grid=grid,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    # the tower overflows quickly: surface the sentinel, not a failure
    ov_cfg = cfg.get("overflow_probe", {"eps": "1/1000",
                                        "counterfunction": {"kind": "identity_plus", "k": 0}})
    fc_ov = Counterfunction.from_spec(ov_cfg["counterfunction"])
    cert_ov = moduli.delta_stojkovic(Fraction(str(b)), gamma_tb,
                                     Fraction(ov_cfg["eps"]), fc_ov)
    out.certify("delta_stojkovic_overflow_probe",
                {"b": b, "eps": ov_cfg["eps"], "f": fc_ov.to_spec()}, cert_ov)
    out.add(verify_metastability(traj, float(Fraction(ov_cfg["eps"])), fc_ov,
                                 cert_ov, grid=grid,
                                 claim="metastability_overflow_probe"))


def _run_property_check(cfg: dict, out: ScenarioOutcome) -> None:
    """Pure operator-contract scenario (used for negative tests)."""
    space = SpaceDescriptor.from_json(cfg.section("space"))
    operators = cfg.section("operators")
    if "B" in operators:
        out.add(_contract_report(space, _cocoercive(space, cfg)))
    if "T" in operators:
        out.add(_contract_report(space, make_nonexpansive(space, operators.section("T"))))


# kind -> (pipeline, top-level config keys it reads besides name and space)
_FLOW_KEYS = ("operators", "initial", "solution", "horizon")
_RK4_KEYS = _FLOW_KEYS + ("curves", "step")
_PIPELINES: dict[str, tuple[Callable[[dict, ScenarioOutcome], None], tuple]] = {
    "first_order": (_run_first_order, _RK4_KEYS),
    "second_order": (_run_second_order, _RK4_KEYS + ("theta", "bounds")),
    "forward_backward_first": (_run_forward_backward_first, _RK4_KEYS + ("gamma",)),
    "forward_backward_second": (_run_forward_backward_second,
                                _RK4_KEYS + ("eta", "theta", "bounds")),
    "gradient_flow": (_run_gradient_flow, _FLOW_KEYS),
    "stojkovic": (_run_stojkovic, _FLOW_KEYS),
    "property_check": (_run_property_check, ("operators",)),
}


def run_scenario(config: dict) -> ScenarioOutcome:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    kind = config.get("kind")
    if kind not in _PIPELINES:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    pipeline, keys = _PIPELINES[kind]
    for key in ("name", "space") + keys:
        if key not in config:
            raise ConfigError(f"config missing required key {key!r}")
    out = ScenarioOutcome(name=config["name"])
    pipeline(_Config(config), out)
    return out


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------


def _first_order_config(name: str, dimension: int, x0) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "kind": "first_order",
        "space": {"kind": "euclidean", "dimension": dimension},
        "operators": {"T": {"op": "scalar", "c": 0.5}},
        "curves": {"lambda": {"kind": "constant", "c": 0.5}},
        "initial": {"x0": x0},
        "solution": {"point": [0.0] * dimension, "b": 1},
        "horizon": 40.0,
        "step": 1e-3,
        "eps_regularity": [0.5, 0.1, 0.02],
        "long_check": {"horizon": 40001.0, "step": 0.5},
        "metastability": {
            "eps": 1.0,
            "counterfunctions": [
                {"kind": "constant", "k": 0},
                {"kind": "constant", "k": 1},
                {"kind": "identity_plus", "k": 0},
            ],
        },
        "regularity": {"kind": "quasi_contraction", "c": 0.5},
    }


def builtin_scenarios() -> dict[str, Scenario]:
    registry = {}

    def add(name, description, config):
        registry[name] = Scenario(name=name, description=description, config=config)

    add("first_order_contraction_1d",
        "first-order flow over a 0.5-contraction in R^1: Fejer, regularity "
        "rates, metastability certificates, exponential rate",
        _first_order_config("first_order_contraction_1d", 1, [1.0]))

    add("first_order_contraction_2d",
        "same system in R^2",
        _first_order_config("first_order_contraction_2d", 2, [0.6, 0.8]))

    add("second_order_linear",
        "second-order flow x'' + 3x' + 2x = 0 over B = Id: closed form, "
        "boundedness constants (both L variants), Lambda metastability",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "second_order_linear",
            "kind": "second_order",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"B": {"op": "identity"}},
            "curves": {"lambda": {"kind": "constant", "c": 2.0},
                       "gamma": {"kind": "constant", "c": 3.0}},
            "theta": 3.5,
            "initial": {"x0": [1.0], "v0": [0.0]},
            "solution": {"point": [0.0]},
            "bounds": {"b": 1, "c": 0, "d": 1},
            "horizon": 30.0,
            "step": 1e-3,
            "oracle": {"terms": [[2.0, -1.0], [-1.0, -2.0]],
                       "times": [0.5, 1.0, 2.0, 5.0]},
            "metastability": {"eps": 0.2,
                              "counterfunctions": [{"kind": "constant", "k": 0}]},
            "delta": {"eps": 1.0, "counterfunction": {"kind": "constant", "k": 0}},
        })

    add("forward_backward_first_order",
        "first-order forward-backward with A = 0, B = Id, gamma = 1: "
        "approximate zeros, psi-rate for B(x(t)), metastability",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "forward_backward_first_order",
            "kind": "forward_backward_first",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"A": {"op": "zero"}, "B": {"op": "identity"}},
            "gamma": 1.0,
            "curves": {"lambda": {"kind": "constant", "c": 0.5}},
            "initial": {"x0": [0.1]},
            "solution": {"point": [0.0], "b": 0.1},
            "horizon": 40.0,
            "step": 1e-3,
            "eps_b": [0.5, 0.1],
            "metastability": {"eps": 0.5,
                              "counterfunctions": [{"kind": "constant", "k": 1}]},
        })

    add("forward_backward_second_order",
        "second-order forward-backward with A = 0, B = Id, eta = 1: "
        "B-convergence via Lambda windows, Theta under strong monotonicity",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "forward_backward_second_order",
            "kind": "forward_backward_second",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"A": {"op": "zero"}, "B": {"op": "identity"}},
            "eta": 1.0,
            "curves": {"lambda": {"kind": "constant", "c": 1.0},
                       "gamma": {"kind": "constant", "c": 3.0}},
            "theta": 0.5,
            "initial": {"x0": [0.5], "v0": [0.0]},
            "solution": {"point": [0.0]},
            "bounds": {"b": 1, "c": 0, "d": 1},
            "horizon": 30.0,
            "step": 1e-3,
            "uniform_monotone_who": "B",
            "metastability": {"eps": 0.5,
                              "counterfunctions": [{"kind": "constant", "k": 0}]},
        })

    add("gradient_flow_quadratic",
        "gradient-flow semigroup of phi = ||x||^2/2 via the exponential "
        "formula: Mayer inequality, objective rate, Delta certificate",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "gradient_flow_quadratic",
            "kind": "gradient_flow",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"phi": {"op": "quadratic", "scale": 1.0}},
            "initial": {"x0": [1.0]},
            "solution": {"point": [0.0], "b": 1},
            "horizon": 30.0,
            "sampling": {"grid": 0.25, "tol": 1e-4},
            "match": {"t": 1.0, "tol": 1e-6, "n_max": 1048576},
            "objective_times": [1.0, 2.0, 10.0],
            "metastability": {"eps": 1.0,
                              "counterfunctions": [{"kind": "constant", "k": 0},
                                                   {"kind": "constant", "k": 2}]},
            "regularity": {"kind": "strongly_quasiconvex", "rho": 1},
            "eps_rho": [0.5, 0.25],
        })

    add("stojkovic_negation",
        "semigroup of the nonexpansive map F = -Id via implicit resolvents: "
        "exponential formula, fixed-point lemma, tower certificate + overflow",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "stojkovic_negation",
            "kind": "stojkovic",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"F": {"op": "negation"}},
            "initial": {"x0": [1.0]},
            "solution": {"point": [0.0], "b": 1},
            "horizon": 20.0,
            "sampling": {"grid": 0.25, "tol": 1e-3},
            "match": {"t": 1.0, "tol": 1e-6, "n_max": 1048576},
            "fixed_point_samples": [[[0.5], 0.5], [[-0.25], 1.0], [[1.0], 1.5]],
            "metastability": {"eps": 1.0,
                              "counterfunctions": [{"kind": "constant", "k": 0}]},
            "overflow_probe": {"eps": "1/1000",
                               "counterfunction": {"kind": "identity_plus", "k": 0}},
        })

    add("negative_wrong_beta",
        "deliberately wrong cocoercivity claim (beta = 2 for B = Id): the "
        "sampled checker must report a violation",
        {
            "schema_version": SCHEMA_VERSION,
            "name": "negative_wrong_beta",
            "kind": "property_check",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"B": {"op": "identity"}},
            "beta_claim": 2.0,
        })

    return registry
