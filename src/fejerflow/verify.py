"""Empirical verification harness: checks the Fejer/regularity/metastability
claims and their certificates against simulated trajectories.

Tolerance discipline: every assertion uses tol = max(3 * est_err, grid slack)
where est_err comes from the integrator and the grid slack is certified from
the trajectory's Lipschitz estimate (slack = Lip * grid).  A claim is reported
violated only when the margin exceeds 3x the derived tolerance; beyond-horizon
outcomes are inconclusive, never violations.

Solution functions, tail values and the separable error model of
``check_fejer`` take stacks: every window is one ``Trajectory.eval`` on its
array of grid times.  The pointwise residual of
``verify_residual_metastability`` stays scalar: a pure function of time,
called at most once per distinct grid time of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .counterfunctions import Counterfunction
from .exact import ExtendedNatural
from .flows import SemigroupPoint, Trajectory
from .moduli import ModulusBundle, PerturbationFn, SecondOrderConstants
from .operators import CocoerciveMap, MonotoneOperator, NonexpansiveMap, forward_backward_map
from .space import row_norm

__all__ = [
    "SolutionFunction",
    "VerificationReport",
    "NeedsLongerTrajectory",
    "report_from_margin",
    "pairwise_max_distance",
    "prefix_min_violation",
    "oscillation",
    "verify_metastability",
    "verify_residual_metastability",
    "check_fejer",
    "check_asymptotic_regularity",
    "check_convergence_rate",
    "extract_approximate_zero",
    "check_b_convergence",
    "check_second_order_bounds",
    "check_mayer_inequality",
    "check_semigroup_fixed_point_bound",
]


class NeedsLongerTrajectory(RuntimeError):
    """The requested window reaches past the trajectory horizon."""


HOLDS = "holds"
HOLDS_TOL = "holds_within_tolerance"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
INCONCLUSIVE_OVERFLOW = "inconclusive_overflow"


@dataclass
class SolutionFunction:
    """Nonnegative residual whose zero set encodes the solutions, restricted
    to a ball (infinite outside).  It takes one point (a float answer) or a
    stack of points (one answer per row)."""

    kind: str
    residual: Callable[[np.ndarray], np.ndarray]
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        value = np.asarray(self.residual(z), dtype=float)
        if self.center is not None and self.radius is not None:
            value = np.where(row_norm(z - self.center) > self.radius + 1e-9,
                             math.inf, value)
        if (value < 0).any():
            raise ValueError("solution functions are nonnegative")
        return float(value) if value.ndim == 0 else value

    @classmethod
    def fixed_point_residual(cls, T: NonexpansiveMap, center=None, radius=None):
        return cls(kind="fixed_point_residual",
                   residual=lambda z: row_norm(z - T(z)),
                   center=None if center is None else np.asarray(center, dtype=float),
                   radius=radius)

    @classmethod
    def operator_norm_residual(cls, B: CocoerciveMap, center=None, radius=None):
        return cls(kind="operator_norm_residual",
                   residual=lambda z: row_norm(B(z)),
                   center=None if center is None else np.asarray(center, dtype=float),
                   radius=radius)


@dataclass
class VerificationReport:
    claim: str
    status: str
    margin: float = math.nan
    tolerance: float = math.nan
    witness: Optional[int] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        data = {
            "claim": self.claim,
            "status": self.status,
            "margin": None if math.isnan(self.margin) else self.margin,
            "tolerance": None if math.isnan(self.tolerance) else self.tolerance,
            "witness": self.witness,
        }
        if self.details:
            data["details"] = self.details
        return data


def report_from_margin(claim: str, margin: float, tol: float,
                       details: Optional[dict] = None) -> VerificationReport:
    """Report a scalar margin: holds at <= 0, within tolerance up to 3 tol,
    violated beyond."""
    status = HOLDS if margin <= 0 else HOLDS_TOL if margin <= 3 * tol else VIOLATED
    return VerificationReport(claim, status, margin=margin, tolerance=tol,
                              details=details or {})


def _base_tolerance(traj: Trajectory, slack: float = 0.0) -> float:
    return max(3 * traj.est_err, slack)


# ---------------------------------------------------------------------------
# kernels: window diameter and the prefix-min Fejer scan
# ---------------------------------------------------------------------------

_PAIRWISE_BLOCK = 1024  # rows per side of one distance block; bounds memory


def pairwise_max_distance(xs: np.ndarray) -> float:
    """Max pairwise euclidean distance among the rows of xs."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = xs.shape[0]
    if n < 2:
        return 0.0
    if xs.shape[1] == 1:
        # rounding is monotone and sqrt(fl(x * x)) == |x| unless x * x under-
        # or overflows, so this has the bits of the block scan for diameters
        # in about [1.5e-154, 1.3e154]; outside it, it is the exact fl(max - min)
        # where the scan loses bits or returns inf
        return float(xs.max() - xs.min())
    best = 0.0
    for i in range(0, n, _PAIRWISE_BLOCK):
        a = xs[i:i + _PAIRWISE_BLOCK]
        for j in range(i, n, _PAIRWISE_BLOCK):
            b = xs[j:j + _PAIRWISE_BLOCK]
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
            best = np.maximum(best, d2.max())  # a NaN row makes it NaN
    return float(np.sqrt(best))


def prefix_min_violation(h_vals: np.ndarray, g_vals: np.ndarray,
                         s_err: np.ndarray, t_err: np.ndarray) -> float:
    """max over pairs s <= t of  H(d(x(t),z)) - G(d(x(s),z)) - e(s,t)

    for separable errors e(s, t) = s_err[s] + t_err[t]; the quasi-Fejer
    inequality holds on the window up to eps iff this is <= eps.
    """
    h_vals, g_vals, s_err, t_err = (np.asarray(v, dtype=np.float64)
                                    for v in (h_vals, g_vals, s_err, t_err))
    lower = np.minimum.accumulate(g_vals + s_err)
    return float((h_vals - t_err - lower).max())


# ---------------------------------------------------------------------------
# oscillation and metastability
# ---------------------------------------------------------------------------


def _window_times(traj: Trajectory, start: float, length: float, grid: float) -> np.ndarray:
    stop = start + length
    if stop > traj.horizon + 1e-9:
        raise NeedsLongerTrajectory(
            f"window [{start}, {stop}] exceeds horizon {traj.horizon}"
        )
    count = max(int(math.ceil(length / grid)), 1)
    return np.linspace(start, min(stop, traj.horizon), count + 1)


def oscillation(traj: Trajectory, n: int, f: Counterfunction,
                grid: float = 0.01) -> tuple[float, float]:
    """(sup over grid pairs of d(x(s), x(t)) on [n, n+f(n)], certified slack).

    The slack combines the Lipschitz bound for off-grid times with the dense
    output error folded into est_err.
    """
    if f(n) == 0:
        return 0.0, 0.0
    pts = traj.eval(_scan_times(traj, n, f, grid))
    return pairwise_max_distance(pts), traj.lipschitz_estimate() * grid


def _scan_windows(traj: Trajectory, eps: float, f: Counterfunction,
                  certificate: ExtendedNatural, grid: float, claim: str,
                  window: Callable[[int], tuple[bool, float, float]],
                  tol: float, value_key: str) -> VerificationReport:
    """Scan n = 0, 1, 2, ... for the least witness whose window [n, n+f(n)]
    passes ``window(n) -> (ok, value, tol)``, whose value is read only when
    it passes; the reported tolerance is the one of the last window scanned
    (``tol`` if none fits).  The certificate
    (when finite and within horizon reach) must dominate the witness."""
    horizon = traj.horizon
    witness = value_at_witness = None
    last_scanned = -1
    for n in range(0, int(horizon) + 1):
        if n + f(n) > horizon:
            break
        ok, value, tol = window(n)
        last_scanned = n
        if ok:
            witness, value_at_witness = n, value
            break
    details = {"certificate": certificate.to_json(), "eps": eps, "grid": grid}
    if witness is None:
        if not certificate.is_overflow and last_scanned >= certificate.value:
            # every n <= certificate fits in the horizon and failed
            return VerificationReport(claim, VIOLATED, margin=math.inf,
                                      tolerance=tol, details=details)
        return VerificationReport(claim, INCONCLUSIVE, tolerance=tol,
                                  details={**details, "reason": "horizon too short"})
    details[value_key] = value_at_witness
    if certificate.is_overflow:
        return VerificationReport(claim, INCONCLUSIVE_OVERFLOW, margin=0.0,
                                  tolerance=tol, witness=witness, details=details)
    if witness <= certificate.value:
        details["certificate_slack"] = certificate.value - witness
        return VerificationReport(claim, HOLDS, margin=0.0, tolerance=tol,
                                  witness=witness, details=details)
    # an empirical witness exists but only beyond the certificate
    return VerificationReport(claim, VIOLATED, margin=float(witness - certificate.value),
                              tolerance=tol, witness=witness, details=details)


def _scan_times(traj: Trajectory, n: int, f: Counterfunction, grid: float) -> np.ndarray:
    """The grid times of the window [n, n+f(n)]; just n when f(n) = 0."""
    return _window_times(traj, float(n), float(f(n)), grid) \
        if f(n) > 0 else np.array([float(n)])


def verify_metastability(traj: Trajectory, eps: float, f: Counterfunction,
                         certificate: ExtendedNatural,
                         grid: float = 0.01,
                         claim: str = "metastability",
                         residual: Optional[SolutionFunction] = None,
                         ) -> VerificationReport:
    """Least witness n with oscillation <= eps on [n, n+f(n)]; the
    certificate (when finite and within horizon reach) must dominate the
    witness.  ``residual`` optionally also requires F(x(t)) <= eps on the
    window (the uniform-continuity variants)."""

    lip_slack = traj.lipschitz_estimate() * grid

    def window(n):
        # one stack serves oscillation and residual; f(n) = 0 leaves no slack
        pts = traj.eval(_scan_times(traj, n, f, grid))
        sup = pairwise_max_distance(pts)
        slack = lip_slack if f(n) > 0 else 0.0
        tol = _base_tolerance(traj, slack)
        ok = sup + slack <= eps + tol
        if ok and residual is not None:
            ok = float(residual(pts).max()) <= eps + tol
        return ok, sup, tol

    return _scan_windows(traj, eps, f, certificate, grid, claim, window,
                         _base_tolerance(traj), "oscillation_at_witness")


def verify_residual_metastability(traj: Trajectory,
                                  residual: Callable[[float], float],
                                  eps: float, f: Counterfunction,
                                  certificate: ExtendedNatural,
                                  grid: float = 0.01,
                                  claim: str = "residual_metastability",
                                  ) -> VerificationReport:
    """Least n with residual(t) <= eps for all t in [n, n+f(n)]; the
    certificate must dominate it (same semantics as verify_metastability).

    ``residual`` must be a pure function of time along the trajectory: it is
    called with a float, at most once per distinct grid time of the scan,
    and windows that share a time reuse its value.  A window walks its times
    in order and fails at the first value that is not <= eps + tol (a NaN
    fails it too), so only the witness window evaluates all of its times and
    takes their max."""
    tol = _base_tolerance(traj, traj.lipschitz_estimate() * grid)
    bound = eps + tol
    seen: dict[float, float] = {}

    def at(t: float) -> float:
        value = seen.get(t)
        if value is None:
            value = seen[t] = residual(t)
        return value

    def window(n):
        values = []
        for t in _scan_times(traj, n, f, grid).tolist():
            values.append(at(t))
            if not values[-1] <= bound:
                return False, values[-1], tol
        return True, max(values), tol

    return _scan_windows(traj, eps, f, certificate, grid, claim, window,
                         tol, "residual_at_witness")


# ---------------------------------------------------------------------------
# quasi-Fejer monotonicity
# ---------------------------------------------------------------------------


def _perturb(fn: PerturbationFn, a: np.ndarray) -> np.ndarray:
    """One side of a perturbation pair, coef a^p, on an array of float
    distances.  For p = 2 and coef 1 each value has the bits of the exact
    square rounded to a float; the identity gives a back bit for bit."""
    return float(fn.coef) * a ** float(fn.p)


def check_fejer(traj: Trajectory,
                level_points: Sequence[tuple[np.ndarray, float]],
                bundle: ModulusBundle,
                eps_list: Sequence[float] = (0.5, 0.1),
                windows: Sequence[tuple[int, int]] = ((0, 4), (2, 8), (10, 16)),
                error_model: Optional[Callable] = None,
                grid: float = 0.01,
                claim: str = "uniform_fejer") -> VerificationReport:
    """Check H(d(x(t), z)) <= G(d(x(s), z)) + e(s, t) + eps for z in the
    chi(eps, n, m) sublevel set, over sampled windows [n, n+m], with G, H
    and chi the moduli of the certificate's ``bundle``.

    ``level_points`` are (point, certified residual) pairs; points whose
    residual exceeds the guard are skipped (vacuous).  ``error_model`` gives
    separable errors e(s, t) = s_err(s) + t_err(t): it takes a window's array
    of times and answers the pair (s_err, t_err), one value per time each.
    """
    worst = -math.inf
    checked = 0
    slack = traj.lipschitz_estimate() * grid
    for n, m in windows:
        if n + m > traj.horizon:
            continue
        times = _window_times(traj, float(n), float(m), grid)
        pts = traj.eval(times)
        if error_model is None:
            s_err = t_err = np.zeros(len(times))
        else:
            s_err, t_err = error_model(times)
        for eps in eps_list:
            guard = bundle.chi.at_float(eps, m)
            for z, res in level_points:
                if res > guard:
                    continue
                dists = np.linalg.norm(pts - np.asarray(z)[None, :], axis=1)
                viol = prefix_min_violation(_perturb(bundle.pair.H, dists),
                                            _perturb(bundle.pair.G, dists), s_err, t_err) - eps
                worst = max(worst, viol)
                checked += 1
    tol = _base_tolerance(traj, slack)
    if checked == 0:
        return VerificationReport(claim, INCONCLUSIVE, tolerance=tol,
                                  details={"reason": "no qualifying level points"})
    return report_from_margin(claim, worst - tol, tol, {"pairs_checked": checked})


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _check_tail(traj: Trajectory, value: Callable[[np.ndarray], np.ndarray],
                rate: Callable[[float], float], eps_list: Sequence[float],
                claim: str) -> VerificationReport:
    """Assert value(x(t)) <= eps for all sampled t >= rate(eps); ``value``
    takes the stack of the 200 sampled points of each eps."""
    tol = _base_tolerance(traj)
    worst = -math.inf
    checked = 0
    skipped = []
    for eps in eps_list:
        t0 = float(rate(eps))
        if t0 > traj.horizon:
            skipped.append(eps)
            continue
        times = np.linspace(t0, traj.horizon, 200)
        worst = max(worst, float((value(traj.eval(times)) - eps).max()))
        checked += len(times)
    details = {"eps_list": list(eps_list), "skipped_beyond_horizon": skipped}
    if checked == 0:
        return VerificationReport(claim, INCONCLUSIVE, tolerance=tol, details=details)
    return report_from_margin(claim, worst - tol, tol, details)


def check_asymptotic_regularity(traj: Trajectory, residual: SolutionFunction,
                                rate: Callable[[float], float],
                                eps_list: Sequence[float],
                                claim: str = "asymptotic_regularity",
                                ) -> VerificationReport:
    """Assert residual(x(t)) <= eps for all sampled t >= rate(eps)."""
    return _check_tail(traj, residual, rate, eps_list, claim)


def check_convergence_rate(traj: Trajectory, target: np.ndarray,
                           rho: Callable[[float], float],
                           eps_list: Sequence[float],
                           claim: str = "convergence_rate") -> VerificationReport:
    """Assert ||x(t) - target|| <= eps for all sampled t >= rho(eps)."""
    point = np.asarray(target, dtype=float)
    return _check_tail(traj, lambda x: row_norm(x - point), rho, eps_list, claim)


# ---------------------------------------------------------------------------
# forward-backward extras
# ---------------------------------------------------------------------------


def extract_approximate_zero(x, A: MonotoneOperator, B: CocoerciveMap,
                             gamma: float, beta: float):
    """From any x, produce v = T(x) and w in (A+B)(v) with the certified bound
    ||w|| <= (1/gamma + 1/beta) ||x - T(x)||.  On a stack of points, v and w
    are stacks and the bound has one entry per row."""
    x = np.asarray(x, dtype=float)
    T = forward_backward_map(A, B, gamma)
    v = T(x)
    w = (x - v) / gamma + B(v) - B(x)
    bound = (1.0 / gamma + 1.0 / beta) * row_norm(x - v)
    return v, w, bound


def check_b_convergence(traj: Trajectory, B: CocoerciveMap, y,
                        psi: Callable[[float], float],
                        eps_list: Sequence[float],
                        claim: str = "b_convergence") -> VerificationReport:
    """Assert ||B(x(t)) - B(y)|| <= eps for sampled t >= psi(eps)."""
    y = np.asarray(y, dtype=float)
    by = B(y)
    return _check_tail(traj, lambda x: row_norm(B(x) - by), psi,
                       eps_list, claim)


# ---------------------------------------------------------------------------
# second-order bounds
# ---------------------------------------------------------------------------


def check_second_order_bounds(traj: Trajectory, consts: SecondOrderConstants,
                              z, B: CocoerciveMap,
                              claim: str = "second_order_bounds") -> VerificationReport:
    """Pointwise and quadrature boundedness checks for second-order
    trajectories.  Both L variants are evaluated; the report shows which
    pointwise derivative bound holds empirically."""
    if traj.vs is None:
        raise ValueError("second-order bounds need a trajectory with velocity")
    z = np.asarray(z, dtype=float)
    tol = _base_tolerance(traj)
    dist = np.linalg.norm(traj.xs - z[None, :], axis=1)
    speed = np.linalg.norm(traj.vs, axis=1)
    accel = np.linalg.norm(traj.dvs, axis=1)
    bnorm = np.linalg.norm(B(traj.xs), axis=1)
    K = consts.K.to_float()
    checks = {
        "dist_le_K": float(dist.max()) - K,
        "speed_le_L_mult": float(speed.max()) - consts.L_mult,
        "speed_le_L_div": float(speed.max()) - consts.L_div,
    }
    # quadrature estimates of the L2 norms on [0, horizon]
    l2 = lambda vals: math.sqrt(float(np.trapezoid(vals ** 2, traj.ts)))
    checks["speed_l2_le_a0"] = l2(speed) - consts.a0.to_float()
    checks["accel_l2_le_a1"] = l2(accel) - consts.a1.to_float()
    checks["bnorm_l2_le_a2"] = l2(bnorm) - consts.a2.to_float()
    l_failures = [k for k in ("speed_le_L_mult", "speed_le_L_div") if checks[k] > tol]
    # one failing L variant is reported, not held against the claim
    both_fail = len(l_failures) == 2
    worst = max(v for k, v in checks.items() if both_fail or k not in l_failures)
    report = report_from_margin(claim, worst - tol, tol,
                                {"checks": checks, "l_variant_failing": l_failures,
                                 "l_mult": consts.L_mult, "l_div": consts.L_div})
    if both_fail:
        report.status = VIOLATED
    return report


# ---------------------------------------------------------------------------
# semigroup inequalities
# ---------------------------------------------------------------------------


def check_mayer_inequality(points: Sequence[tuple[float, np.ndarray]],
                           phi, zs: Sequence[np.ndarray], tol: float,
                           claim: str = "mayer_inequality") -> VerificationReport:
    """d^2(S_t x, z) <= d^2(S_s x, z) - 2 (t - s)(phi(S_t x) - phi(z)) for all
    sampled s < t and reference points z; ``points`` are (t, S_t x) pairs.
    ``phi`` takes a stack of points and returns one value per row, or one
    value for all of them."""
    pts = sorted(points, key=lambda p: p[0])
    ts = np.array([t for t, _ in pts])
    xs = np.array([x for _, x in pts])
    zs = np.asarray(zs, dtype=float)
    diff = xs[None, :, :] - zs[:, None, :]
    d2 = np.vecdot(diff, diff)  # (z, sample)
    gap = np.broadcast_to(phi(xs), ts.shape) - np.broadcast_to(phi(zs), (len(zs),))[:, None]
    i, j = np.triu_indices(len(ts), k=1)  # the pairs s = ts[i] < t = ts[j]
    lhs = d2[:, j] - (d2[:, i] - 2 * (ts[j] - ts[i]) * gap[:, j])
    worst = float(lhs.max(initial=-math.inf))
    return report_from_margin(claim, worst - tol, tol)


def _unconverged_report(claim: str, tol: float, **details) -> VerificationReport:
    """``inconclusive`` for a claim checked on semigroup points whose
    exponential formula did not converge: they carry no error bound."""
    return VerificationReport(
        claim, INCONCLUSIVE, tolerance=tol,
        details={"reason": "exponential formula did not converge within n_max",
                 **details})


def check_semigroup_fixed_point_bound(F: NonexpansiveMap,
                                      samples: Sequence[tuple[np.ndarray, float]],
                                      runs: Sequence[SemigroupPoint],
                                      tol: float,
                                      claim: str = "fixed_point_bound",
                                      ) -> VerificationReport:
    """d(x, T_t(x)) <= d(x, F(x)) (e^{2t} - 1)/2 on the given (x, t) samples,
    with T_t(x) the semigroup run ``runs[i]`` of sample i; ``inconclusive``,
    naming their ``n_used``, if some runs did not converge.  Past the float
    range of e^{2t} the bound is +inf, and 0 where d(x, F(x)) = 0."""
    worst = -math.inf
    for (x, t), run in zip(samples, runs, strict=True):
        x = np.asarray(x, dtype=float)
        delta = float(np.linalg.norm(x - F(x)))
        lhs = float(np.linalg.norm(x - run.point))
        try:
            growth = math.exp(2 * t) - 1
        except OverflowError:  # t from about 354.9 on
            growth = math.inf
        bound = delta * growth / 2 if delta else 0.0
        worst = max(worst, lhs - bound)
    if unconverged := [run.n_used for run in runs if not run.converged]:
        return _unconverged_report(claim, tol, n_used=unconverged)
    return report_from_margin(claim, worst - tol, tol)
