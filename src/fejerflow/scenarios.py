"""Builtin scenarios and the simulate -> certify -> verify pipelines.

A scenario is a declarative config (JSON-compatible, schema_version 1); the
registry ships one scenario per case-study family.  Each pipeline validates
operator contracts first, integrates or samples the flow, computes the
requested certificates exactly, and verifies every claim against the
trajectory with tolerances derived from the integrator error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import moduli
from .config import Config, ConfigError, _rational
from .counterfunctions import Counterfunction
from .exact import BudgetExceeded, ExtendedNatural, R, Real
from .flows import (
    EstimateOverflowError,
    ParameterCurve,
    SampleMemoryError,
    Trajectory,
    coarse_steps,
    gradient_flow_samples,
    gradient_flow_semigroup,
    integrate_first_order,
    integrate_forward_backward,
    integrate_second_order,
    stojkovic_samples,
    stojkovic_semigroup,
)
from .moduli import second_order_constants
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
    VIOLATED,
    SolutionFunction,
    VerificationReport,
    _base_tolerance,
    _unconverged_report,
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
            value = rate(R(_rational(eps)))
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
    beta = cfg.number("beta_claim", None)
    if beta is not None:
        B = CocoerciveMap(fn=B.fn, beta=beta, name=B.name + "[claimed]")
    return B


def _curve(cfg: dict, key: str) -> ParameterCurve:
    """The curve ``curves.<key>``.  Its certificates are built from its
    declared range, so both ends of that range must be declared."""
    curve = ParameterCurve.from_spec(cfg.section("curves").spec(key, scalar=Config.NUMBER))
    if curve.lower is None or curve.upper is None:
        raise ConfigError(f"config key 'curves.{key}' needs 'lower' and 'upper' bounds")
    return curve


def _second_order_consts(cfg: Config, out: ScenarioOutcome, theorem: str,
                         lam: ParameterCurve, gam: ParameterCurve, beta: float):
    """Boundedness constants of a second-order flow from the config bounds
    and the declared parameter ranges, certified as ``theorem``.  They need
    no trajectory, so the pipelines read them, and refuse bad bounds,
    before the flow is generated."""
    bounds = cfg.section("bounds")
    bcd = [bounds.rational(key) for key in "bcd"]
    for key, value in zip("bcd", bcd):
        if value < 0:
            bounds.refuse(key, bounds[key], "a nonnegative number")
    consts = second_order_constants(
        *bcd, *map(_rational, (lam.lower, lam.upper, gam.lower, gam.upper)),
        cfg.rational("theta"), _rational(beta))
    out.certify(theorem, {k: bounds[k] for k in "bcd"}, None, trace=consts.describe())
    return consts


# the largest coordinate of a start or solution point: squared distances stay floats
_COORDINATE_MAX = 1e150


def _flow(cfg: Config, *initial: str) -> tuple:
    """The space of a flow config, then its initial values ``initial.<key>``
    and its solution point, as points of that space."""
    space = SpaceDescriptor.from_json(cfg.section("space"))
    keys = [(cfg.section("initial"), key) for key in initial] + [(cfg.section("solution"), "point")]
    points = [section.vector(key, space.dimension) for section, key in keys]
    for (section, key), point in zip(keys, points):
        if np.abs(point).max() > _COORDINATE_MAX:
            section.refuse(key, section[key], f"a point with coordinates up to {_COORDINATE_MAX:g}")
    return (space, *points)


def _ball(cfg: Config) -> tuple:
    """``_flow(cfg, "x0")`` and the exact radius ``solution.b``; the
    certificates hold on the ball of radius b around y, which must hold x0."""
    space, x0, y = _flow(cfg, "x0")
    solution = cfg.section("solution")
    b = solution.real("b")
    if (dist := space.distance(x0, y)) > b + 1e-12:
        solution.refuse("b", solution["b"], f"at least ||x0 - y|| = {dist:.12g}")
    return space, x0, y, b


def _metastability(cfg: Config, eps: Fraction,
                   default: tuple = (0, 1, {"kind": "identity_plus", "k": 0}),
                   single: bool = False) -> tuple[Fraction, float, list[Counterfunction]]:
    """The exact eps (``eps`` when absent), its float, and the
    counterfunctions to certify: each one listed, else ``default``.  A
    ``single`` pipeline's claim names carry no f, so it refuses a second."""
    meta = cfg.spec("metastability", {})
    specs = meta.specs("counterfunctions", default, scalar=Config.NATURAL)
    if single and len(specs) > 1:
        meta.refuse("counterfunctions", meta["counterfunctions"], "a list of one counterfunction")
    eps = meta.real("eps", eps)
    return eps, float(eps), [Counterfunction.from_spec(s) for s in specs]


def _times(cfg: Config, key: str, default: list, horizon: float,
           read=Config.number) -> np.ndarray:
    """The times at ``key``, each refused naming ``key[i]`` unless the
    trajectory's ``eval`` reaches it: read before the flow is generated,
    against the ``horizon`` its last sample will have."""
    items = cfg.entries(key, default)
    for i in items:
        if not 0.0 <= read(items, i) <= horizon + 1e-12:
            items.refuse(i, items[i], f"a time in [0, {horizon}]")
    return np.array([read(items, i) for i in items])


def _regularity(cfg: Config) -> Optional[moduli.TauModulus]:
    """The catalogued modulus of regularity of the optional ``regularity``
    section, its one parameter read exactly."""
    if not (reg := cfg.spec("regularity", None)):
        return None
    name = reg.choice("kind", moduli.REGULARITY_PARAMETER)
    params = {name: reg.real(name)} if name else {}
    try:
        return moduli.regularity_modulus(reg["kind"], **params)
    except ValueError as exc:  # the parameter lies outside the kind's domain
        reg.refuse(name, reg[name], f"in the domain of {reg['kind']} ({exc})")


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


def _divergence_modulus(lam: ParameterCurve, delta: Fraction = Fraction(1)):
    """(tau_lo, eta): tau_lo is the inf of lambda (delta - lambda) over the
    declared range of lambda, attained at an endpoint since the map is
    concave, and eta(K) = ceil(K / tau_lo) is the exact divergence modulus
    of its integral.  tau_lo is exact from the decimal ends of the range;
    it is returned as the float a certificate input records."""
    tau_lo = min(v * (delta - v) for v in map(_rational, (lam.lower, lam.upper)))
    if tau_lo <= 0:
        raise ConfigError("divergence modulus needs lambda (delta - lambda) "
                          "bounded away from zero")
    tau = R(tau_lo)
    return float(tau_lo), lambda K: (K / tau).ceil_upper()


def _window(node: Config) -> tuple[float, float]:
    """The (horizon, step) of the RK4 run at ``node``; its horizon is refused
    unless the run takes a finite, nonzero count of coarse steps."""
    horizon, step = node.positive("horizon"), node.positive("step")
    if math.isinf(horizon / step) or not coarse_steps(horizon, step):
        node.refuse("horizon", node["horizon"],
                    f"a horizon of a finite, nonzero count of steps of {step}")
    return horizon, step


def _integrated(node: Config, integrate: Callable, *args, **kwargs):
    """``integrate(*args, **kwargs)``, whose run has its horizon and step at
    ``node``: a run whose samples cannot be allocated refuses its horizon,
    and one whose error estimate overflows refuses its step."""
    try:
        return integrate(*args, **kwargs)
    except SampleMemoryError as exc:
        node.refuse("horizon", node["horizon"], f"a horizon whose samples fit in memory ({exc})")
    except EstimateOverflowError as exc:
        node.refuse("step", node["step"], f"a step whose error estimate stays finite ({exc})")


def _run_first_order(cfg: Config, out: ScenarioOutcome) -> None:
    space, x0, y, b = _ball(cfg)
    T = make_nonexpansive(space, cfg.section("operators", "T"))
    lam = _curve(cfg, "lambda")
    # the exponential rate takes its k from the slope of a linear tau
    if (tau := _regularity(cfg)) and tau.slope is None:
        cfg.section("regularity").refuse("kind", tau.kind, "a kind with a linear modulus")

    out.add(_contract_report(space, T))

    # the main run, then the long_check run; both are read before the first step
    long_cfg = cfg.spec("long_check", None)
    runs = [(node, _window(node)) for node in (cfg, long_cfg) if node]
    traj, *long_run = [_integrated(node, integrate_first_order, T, lam, x0, *window, space=space)
                       for node, window in runs]
    out.trajectories["trajectory"] = traj

    out.add(_distance_monotone_report(traj, y))
    out.add(_derivative_bound_report(traj, T))

    # the Fejer check, the witness-form check and the certificates share one rate
    tau_lo, eta = _divergence_modulus(lam)
    witness = {"lower_witness": _rational(lam.lower)}
    residual = SolutionFunction.fixed_point_residual(T, center=y, radius=float(b))
    level_points = _perturbed_level_points(y, residual)
    out.add(check_fejer(traj, level_points,
                        moduli.first_order_bundle(space.dimension, b, witness)))

    phi1 = _tail_rate(moduli.asymptotic_regularity_rate(b, divergence_modulus=eta))
    phi2 = _tail_rate(moduli.asymptotic_regularity_rate(b, **witness))
    eps_reg = cfg.numbers("eps_regularity", [0.5, 0.1, 0.02], Config.positive)
    out.add(check_asymptotic_regularity(traj, residual, phi1, eps_reg,
                                        claim="asymptotic_regularity_divergence"))
    out.add(check_asymptotic_regularity(traj, residual, phi2, eps_reg,
                                        claim="asymptotic_regularity_witness"))
    # the inf form eta(b^2 / eps^2) is the divergence-modulus rate at delta = 1
    out.add(check_asymptotic_regularity(traj, residual, phi1, eps_reg,
                                        claim="asymptotic_regularity_inf_form"))

    for long_traj in long_run:
        out.trajectories["trajectory_long"] = long_traj
        out.add(check_asymptotic_regularity(long_traj, residual, phi1, eps_reg,
                                            claim="asymptotic_regularity_divergence_long"))
        out.add(check_asymptotic_regularity(long_traj, residual, phi2, eps_reg,
                                            claim="asymptotic_regularity_witness_long"))

    eps_q, eps, fcs = _metastability(cfg, 1)
    for fc in fcs:
        cert = moduli.delta_first_order(space.dimension, b, witness, eps_q / 4, fc)
        out.certify("delta_first_order",
                    {"d": space.dimension, "b": cfg.section("solution")["b"],
                     "lambda_lo": lam.lower, "eps": eps / 4,
                     "f": fc.to_spec()}, cert)
        out.add(verify_metastability(traj, eps, fc, cert, residual=residual,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    if tau:
        k = float(tau.slope)
        c_rate = moduli.fast_linear_rate(tau_lo, k, 2)
        out.certify("fast_linear_rate",
                    {"beta": tau_lo, "k": k, "p": 2}, c_rate)
        d0 = space.distance(x0, y)
        times = np.linspace(0.0, min(20.0, traj.horizon), 400)
        bound = c_rate ** np.floor(times) * d0 * (1 + 1e-6)
        worst = float((row_norm(traj.eval(times) - y) - bound).max())
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

    def error_model(times):
        v = row_norm(traj.eval_velocity(times))
        t_err = 2 / gam_lo * K * v
        return 2 * beta / gam_lo * (gam_hi / lam_lo) * v * v + t_err, t_err

    return error_model


def _run_second_order(cfg: Config, out: ScenarioOutcome) -> None:
    space, u0, v0, z = _flow(cfg, "x0", "v0")
    B = _cocoercive(space, cfg)
    lam = _curve(cfg, "lambda")
    gam = _curve(cfg, "gamma")
    theta = cfg.number("theta")

    prop = out.add(_contract_report(space, B))
    if prop.status == VIOLATED:
        return

    horizon, step = _window(cfg)
    if oracle := cfg.spec("oracle", None):
        times = _times(oracle, "times", [0.5, 1.0, 2.0, 5.0], coarse_steps(horizon, step) * step)
        terms = [(term.number(0), term.number(1)) for term in oracle.pairs("terms")]

    consts = _second_order_consts(cfg, out, "second_order_constants", lam, gam, B.beta)
    # the bounds check compares the trajectory with K and L in floats; K is at
    # most the larger L
    if max(consts.L_mult, consts.L_div) > sys.float_info.max:
        raise ConfigError("config keys 'bounds.b' and 'bounds.c' must keep the constants K "
                          "and L within the float range")

    traj = _integrated(cfg, integrate_second_order, B, lam, gam, u0, v0, horizon, step,
                       theta=theta, space=space)
    out.trajectories["trajectory"] = traj

    if oracle:
        value = sum(c * np.exp(rate * times) for c, rate in terms)
        worst = np.abs(traj.eval(times)[:, 0] - value).max()
        tol = max(1e-6, _base_tolerance(traj))
        out.add(report_from_margin("closed_form_match", worst - tol, tol, {"max_error": worst}))

    out.add(check_second_order_bounds(traj, consts, z, B))

    eps_q, eps, fcs = _metastability(cfg, Fraction(1, 5))
    for fc in fcs:
        cert = moduli.lambda_capital(consts, eps_q, fc)
        out.certify("lambda_capital", {"eps": eps, "f": fc.to_spec()}, cert)
        residual_t = lambda t: max(
            float(np.linalg.norm(traj.eval_velocity(t))),
            float(np.linalg.norm(B(traj.eval(t)))))
        out.add(verify_residual_metastability(
            traj, residual_t, eps, fc, cert,
            claim=f"lambda_metastability[f={fc.to_spec()}]"))

    residual = SolutionFunction.operator_norm_residual(
        B, center=z, radius=consts.K.to_float())
    level_points = _perturbed_level_points(z, residual)
    out.add(check_fejer(traj, level_points, moduli.second_order_bundle(consts, space.dimension),
                        error_model=_second_order_error_model(consts, traj),
                        claim="uniform_quasi_fejer"))

    # the full Delta recursion; small eps overflows by design, so surface it
    cert_cfg = cfg.spec("delta", {})
    eps_d = cert_cfg.real("eps", eps_q)
    fc = Counterfunction.from_spec(cert_cfg.spec("counterfunction", 0, Config.NATURAL))
    scaled = min(eps_d, _rational(B.beta) * eps_d / 2)
    cert = moduli.delta_second_order(consts, space.dimension, scaled, fc)
    out.certify("delta_second_order",
                {"eps": float(eps_d), "scaled_eps": float(scaled),
                 "f": fc.to_spec()}, cert)
    out.add(verify_metastability(traj, float(eps_d), fc, cert,
                                 claim="metastability_second_order"))


# ---------------------------------------------------------------------------
# forward-backward pipelines
# ---------------------------------------------------------------------------


def _run_forward_backward_first(cfg: Config, out: ScenarioOutcome) -> None:
    space, x0, y, b = _ball(cfg)
    A = make_monotone(space, cfg.section("operators", "A"))
    B = make_cocoercive(space, cfg.section("operators", "B"))
    gamma_q = cfg.real("gamma")
    gamma = float(gamma_q)
    lam = _curve(cfg, "lambda")

    T = forward_backward_map(A, B, gamma)
    delta = min(1, _rational(B.beta) / gamma_q) + Fraction(1, 2)  # T's averagedness cap
    traj = _integrated(cfg, integrate_first_order, T, lam, x0, *_window(cfg), space=space)
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
    rate_info = {"divergence_modulus": _divergence_modulus(lam, delta)[1],
                 "averaged_delta": delta}
    phi1 = moduli.asymptotic_regularity_rate(b, **rate_info)
    psi = _tail_rate(lambda e: moduli.fb_psi_rate(phi1, b, gamma_q, _rational(B.beta), e))
    eps_b = cfg.numbers("eps_b", [0.5, 0.1], Config.positive)
    out.add(check_b_convergence(traj, B, y, psi, eps_b, claim="b_convergence_psi_rate"))

    residual = SolutionFunction.fixed_point_residual(T, center=y, radius=float(b))
    eps_q, eps, (fc,) = _metastability(cfg, Fraction(1, 2), (0,), single=True)
    cert = moduli.delta_first_order(space.dimension, b, rate_info, eps_q / 4, fc)
    out.certify("delta_first_order_fb",
                {"d": space.dimension, "b": float(b), "delta": float(delta),
                 "eps": eps / 4, "f": fc.to_spec()}, cert)
    out.add(verify_metastability(traj, eps, fc, cert, residual=residual,
                                 claim="metastability_fb"))


def _run_forward_backward_second(cfg: Config, out: ScenarioOutcome) -> None:
    space, u0, v0, y = _flow(cfg, "x0", "v0")
    A = make_monotone(space, cfg.section("operators", "A"))
    B = make_cocoercive(space, cfg.section("operators", "B"))
    eta_q = cfg.real("eta")
    eta_step = float(eta_q)
    lam = _curve(cfg, "lambda")
    gam = _curve(cfg, "gamma")
    theta = cfg.number("theta")

    consts = _second_order_consts(cfg, out, "second_order_constants_fb", lam, gam, B.beta)
    traj = _integrated(cfg, integrate_forward_backward, A, B, eta_step, lam, gam, u0, v0,
                       *_window(cfg), theta=theta, space=space)
    out.trajectories["trajectory"] = traj

    eps_q, eps, (fc,) = _metastability(cfg, Fraction(1, 2), (0,), single=True)
    cert = moduli.sfb_b_rate(consts, eta_q, eps_q, fc)
    out.certify("sfb_b_rate", {"eps": eps, "f": fc.to_spec()}, cert)
    by = B(y)
    residual_t = lambda t: float(np.linalg.norm(B(traj.eval(t)) - by))
    out.add(verify_residual_metastability(traj, residual_t, eps, fc, cert,
                                          claim="b_convergence_metastability"))

    # strong monotonicity of B = Id gives the Theta bound
    if (who := cfg.text("uniform_monotone_who", None)) not in (None, "B"):
        cfg.refuse("uniform_monotone_who", who, "'B' (strong monotonicity of B)")
    if who:
        phi_fn = lambda e: e * e
        cert2 = moduli.fb_uniform_monotone_rate(
            "second", "B", phi_fn, eps_q, consts=consts, eta_step=eta_q, f=fc)
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


def _sample_times(cfg: Config, grid: float) -> np.ndarray:
    """The semigroup sample times: the grid over [0, horizon], at least two."""
    horizon = cfg.positive("horizon")
    try:
        ts = np.arange(0.0, horizon + grid / 2, grid)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        cfg.refuse("horizon", horizon, f"a horizon whose grid of {grid} fits in memory")
    if len(ts) < 2:
        raise ConfigError(f"config keys 'horizon' and 'sampling.grid' leave one sample, "
                          f"at t = 0, for grid {grid}")
    return ts


def _semigroup_run(cfg: Config, out: ScenarioOutcome, space: SpaceDescriptor,
                   samples: Callable, semigroup: Callable, op, x0: np.ndarray,
                   grid: float, point_tol: float, extra: Sequence[tuple] = ()) -> tuple:
    """Sample t -> semigroup(op, x0, t) on the grid over [0, horizon] into the
    scenario trajectory, and check the optional ``match`` entry against the
    closed-form flow of ``op`` at ``match.tol``.  One call of ``samples``
    runs every row in one stack: the grid times, then the match, then the
    ``extra`` rows (x, t, tol), whose points it returns with the trajectory.
    Samples whose exponential formula did not converge have no error bound;
    they are named in one ``inconclusive`` report, and a match that did not
    converge is too."""
    if (match := cfg.spec("match", None)) and op.flow is None:
        cfg.refuse("match", match, f"null: {op.name} has no closed-form flow to match")
    ts = _sample_times(cfg, grid)
    rows = [(x0, t, point_tol, 2 ** 20) for t in ts]
    if match:
        t_ref, match_tol = match.nonnegative("t", 1.0), match.positive("tol", 1e-6)
        rows.append((x0, t_ref, match_tol, match.positive_integer("n_max", 2 ** 20)))
    rows += [(x, t, tol, 2 ** 20) for x, t, tol in extra]
    starts, times, tols, caps = zip(*rows)
    points = samples(op, np.array(starts), times, n_max=caps, tol=tols)
    runs = points[:len(ts)]
    achieved = max((run.achieved_tol for run in runs if run.converged), default=0.0)
    traj = Trajectory.from_samples(space, ts, np.array([run.point for run in runs]),
                                   est_err=max(achieved, point_tol), method=semigroup.__name__)
    out.trajectories["trajectory"] = traj
    if unconverged := [float(t) for t, run in zip(ts, runs) if not run.converged]:
        out.add(_unconverged_report("semigroup_samples_converged", point_tol,
                                    unconverged_times=unconverged))

    if match:
        res = points[len(ts)]
        if not res.converged:
            out.add(_unconverged_report("exponential_formula_match", match_tol,
                                        n_used=res.n_used))
        else:
            err = float(np.linalg.norm(res.point - op.flow(t_ref, x0)))
            out.add(report_from_margin("exponential_formula_match", err - match_tol, match_tol,
                                       {"error": err, "n_used": res.n_used,
                                        "extrapolated": res.extrapolated}))
    return traj, points[len(rows) - len(extra):]


def _run_gradient_flow(cfg: Config, out: ScenarioOutcome) -> None:
    space, x0, y, b = _ball(cfg)
    phi = make_convex_function(space, cfg.section("operators", "phi"))
    if not math.isfinite(phi(y)):
        cfg.section("solution").refuse("point", y.tolist(), "a point of dom phi (phi(y) < inf)")
    tau = _regularity(cfg)
    sample_cfg = cfg.spec("sampling", {})
    grid = sample_cfg.positive("grid", 0.25)
    times = _times(cfg, "objective_times", [1.0, 2.0, 10.0],
                   float(_sample_times(cfg, grid)[-1]), Config.positive)
    traj, _ = _semigroup_run(cfg, out, space, gradient_flow_samples, gradient_flow_semigroup,
                             phi, x0, grid, sample_cfg.positive("tol", 1e-4))
    ts = traj.ts

    # Mayer inequality on sampled (s, t, z)
    stride = max(1, len(ts) // 12)
    mayer_pts = [(float(ts[i]), traj.xs[i]) for i in range(0, len(ts), stride)]
    zs = [y, y + 0.5, x0, 0.5 * (x0 + y)] if space.dimension == 1 else [y, x0]
    out.add(check_mayer_inequality(mayer_pts, phi, zs, tol=_base_tolerance(traj)))

    # Mayer's estimate at z = y: phi(S_t x) - phi(y) <= d(x, y)^2 / (2 t) <= b^2 / (2 t)
    excess = phi(traj.eval(times)) - phi(y) - R(b * b).to_float() / (2 * times)
    out.add(report_from_margin("objective_rate", float(excess.max()), _base_tolerance(traj)))

    eps_q, eps, fcs = _metastability(cfg, 1, (0, 1))
    gamma_tb = moduli.ball_modulus(space.dimension, b)
    for fc in fcs:
        cert = moduli.delta_gradient_flow(b, gamma_tb, eps_q, fc)
        out.certify("delta_gradient_flow", {"b": float(b), "eps": eps, "f": fc.to_spec()},
                    cert)
        out.add(verify_metastability(traj, eps, fc, cert, grid=grid,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    # regularity-based convergence: strongly convex objective
    if tau:
        bundle = replace(moduli.gradient_flow_bundle(b, gamma_tb), tau=tau)
        rho = _tail_rate(lambda e: moduli.rho_convergence_regular(bundle, e))
        eps_rho = cfg.numbers("eps_rho", [0.5, 0.25], Config.positive)
        out.add(check_convergence_rate(traj, y, rho, eps_rho, claim="regularity_convergence_rate"))


def _run_stojkovic(cfg: Config, out: ScenarioOutcome) -> None:
    space, x0, y, b = _ball(cfg)
    d = space.dimension
    F = make_nonexpansive(space, cfg.section("operators", "F"))
    sample_cfg = cfg.spec("sampling", {})
    grid = sample_cfg.positive("grid", 0.25)
    # the resolvent points and fixed-point samples, by default on the first
    # axis of R^d, are read before the semigroup runs
    pad = [0.0] * (d - 1)
    points = sample_cfg.entries("resolvent_points", [[0.5, *pad], [-0.3, *pad], [1.0, *pad]])
    zs = [points.vector(i, d) for i in points]
    fp_samples = [(pair.vector(0, d), pair.nonnegative(1)) for pair in cfg.pairs(
        "fixed_point_samples", [([0.5, *pad], 0.5), ([-0.25, *pad], 1.0), ([1.0, *pad], 1.5)])]
    traj, fp_runs = _semigroup_run(cfg, out, space, stojkovic_samples, stojkovic_semigroup,
                                   F, x0, grid, sample_cfg.positive("tol", 1e-3),
                                   [(x, t, 1e-4) for x, t in fp_samples])

    # resolvent inequality d(z, R_lam z) <= lam d(z, F z) on samples, every
    # (z, lam) a row of one resolvent stack
    lams = [lam for _ in zs for lam in (0.25, 1.0, 3.0)]
    stack = np.repeat(np.reshape(zs, (-1, d)), 3, axis=0)
    rzs = stojkovic_resolvent(F, np.array(lams)[:, None], stack, tol=1e-12)
    worst = max((space.distance(z, rz) - lam * space.distance(z, F(z))
                 for z, lam, rz in zip(stack, lams, rzs)), default=-math.inf)
    out.add(report_from_margin("resolvent_inequality", worst, 1e-9))

    # fixed-point lemma d(x, T_t x) <= d(x, Fx) (e^{2t}-1)/2
    out.add(check_semigroup_fixed_point_bound(F, fp_samples, fp_runs, tol=3e-4))

    gamma_tb = moduli.ball_modulus(space.dimension, b)
    eps_q, eps, fcs = _metastability(cfg, 1, (0,))
    for fc in fcs:
        cert = moduli.delta_stojkovic(b, gamma_tb, eps_q, fc)
        out.certify("delta_stojkovic", {"b": float(b), "eps": eps, "f": fc.to_spec()},
                    cert)
        out.add(verify_metastability(traj, eps, fc, cert, grid=grid,
                                     claim=f"metastability[f={fc.to_spec()}]"))

    # the tower overflows quickly: surface the sentinel, not a failure
    ov_cfg = cfg.spec("overflow_probe", {"eps": "1/1000",
                                         "counterfunction": {"kind": "identity_plus", "k": 0}})
    fc_ov = Counterfunction.from_spec(ov_cfg.spec("counterfunction", scalar=Config.NATURAL))
    eps_ov = ov_cfg.real("eps")
    cert_ov = moduli.delta_stojkovic(b, gamma_tb, eps_ov, fc_ov)
    out.certify("delta_stojkovic_overflow_probe",
                {"b": float(b), "eps": ov_cfg["eps"], "f": fc_ov.to_spec()}, cert_ov)
    out.add(verify_metastability(traj, float(eps_ov), fc_ov, cert_ov, grid=grid,
                                 claim="metastability_overflow_probe"))


def _run_property_check(cfg: Config, out: ScenarioOutcome) -> None:
    """Pure operator-contract scenario (used for negative tests)."""
    space = SpaceDescriptor.from_json(cfg.section("space"))
    operators = cfg.section("operators")
    if "B" in operators:
        out.add(_contract_report(space, _cocoercive(space, cfg)))
    if "T" in operators:
        out.add(_contract_report(space, make_nonexpansive(space, operators.section("T"))))


_PIPELINES: dict[str, Callable[[Config, ScenarioOutcome], None]] = {
    "first_order": _run_first_order,
    "second_order": _run_second_order,
    "forward_backward_first": _run_forward_backward_first,
    "forward_backward_second": _run_forward_backward_second,
    "gradient_flow": _run_gradient_flow,
    "stojkovic": _run_stojkovic,
    "property_check": _run_property_check,
}


def run_scenario(config: dict) -> ScenarioOutcome:
    cfg = Config.of(config)
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    pipeline = cfg.choice("kind", _PIPELINES)
    out = ScenarioOutcome(name=cfg.text("name"))
    pipeline(cfg, out)
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
