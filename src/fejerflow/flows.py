"""Trajectory generation: fixed-step integration of the first- and
second-order systems, the forward-backward variants, and the Hadamard
semigroups built from their exponential formulas.

Integration is classical RK4 with a fixed step plus a Richardson global-error
estimate from a second run at half the step; verification tolerances derive
from that estimate, so adaptive stepping is deliberately avoided.  One core
(``_rk4``) advances coarse step i and fine step 2i as one batch, then fine
step 2i+1 alone; with curves tabled per block of 1,024 coarse steps and
closures that answer rows with single-point bits, each run keeps the bits of
a separate run.  Each block checks the state's finiteness, and the error
names the first non-finite sample.  Dense output is local cubic Hermite
interpolation using stored derivatives.

The semigroups double the step count n of their exponential formulas under
one driver (``_semigroup``), which returns the Richardson extrapolant
2 y_n - y_{n/2} when successive extrapolants show a second-order error, and
otherwise the plain run with a geometric tail bound on its error.  The
gradient-flow semigroup steps with the closed-form prox of its function, the
Stojkovic semigroup with ``operators.stojkovic_resolvent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import Config
from .operators import (
    CocoerciveMap,
    ConvexFunction,
    MonotoneOperator,
    NonexpansiveMap,
    forward_backward_map,
    forward_backward_residual,
    stojkovic_resolvent,
)
from .space import SpaceDescriptor

__all__ = [
    "ParameterCurve",
    "IntegratorMeta",
    "Trajectory",
    "SemigroupPoint",
    "integrate_first_order",
    "integrate_second_order",
    "integrate_forward_backward",
    "gradient_flow_semigroup",
    "stojkovic_semigroup",
]


class IntegrationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# parameter curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterCurve:
    """Time-dependent scalar parameter with declared bounds.

    Kinds: constant(c); affine(a, b) evaluating a*t + b; piecewise
    (breaks, values) right-continuous step function; table (ts, values)
    linear interpolation.  A curve takes one time or an array of times and
    answers elementwise.
    """

    kind: str = "constant"
    c: float = 0.0
    a: float = 0.0
    b: float = 0.0
    breaks: tuple = ()
    values: tuple = ()
    lower: Optional[float] = None
    upper: Optional[float] = None

    def __call__(self, t):
        if self.kind == "constant":
            return self.c + 0.0 * t  # broadcasts; a float time costs two float ops
        if self.kind == "affine":
            return self.a * t + self.b
        if self.kind == "piecewise":
            idx = np.searchsorted(self.breaks, t, side="right")
            return np.asarray(self.values, dtype=float)[np.minimum(idx, len(self.values) - 1)]
        if self.kind == "table":
            return np.interp(t, self.breaks, self.values)
        raise ValueError(f"unknown curve kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float) -> "ParameterCurve":
        return cls(kind="constant", c=float(c), lower=float(c), upper=float(c))

    @classmethod
    def affine(cls, a: float, b: float, lower=None, upper=None) -> "ParameterCurve":
        return cls(kind="affine", a=float(a), b=float(b), lower=lower, upper=upper)

    @classmethod
    def piecewise(cls, breaks, values, lower=None, upper=None) -> "ParameterCurve":
        lo = min(values) if lower is None else lower
        hi = max(values) if upper is None else upper
        return cls(kind="piecewise", breaks=tuple(breaks), values=tuple(values),
                   lower=lo, upper=hi)

    @classmethod
    def table(cls, ts, values, lower=None, upper=None) -> "ParameterCurve":
        lo = min(values) if lower is None else lower
        hi = max(values) if upper is None else upper
        return cls(kind="table", breaks=tuple(ts), values=tuple(values),
                   lower=lo, upper=hi)

    @classmethod
    def from_spec(cls, spec) -> "ParameterCurve":
        """Build from the declarative config form: a mapping, read through
        ``config.Config``, or a number c for ``constant(c)``."""
        if isinstance(spec, (int, float)):
            return cls.constant(spec)
        return Config.of(spec).build("kind", _SPEC_KINDS)

    def validate_bounds(self, ts: np.ndarray) -> None:
        vals = self(np.asarray(ts, dtype=float))
        if self.lower is not None and vals.min() < self.lower - 1e-12:
            raise IntegrationError(
                f"declared lower bound {self.lower} violated: min {vals.min()}"
            )
        if self.upper is not None and vals.max() > self.upper + 1e-12:
            raise IntegrationError(
                f"declared upper bound {self.upper} violated: max {vals.max()}"
            )


def _range(s: Config) -> tuple:
    return s.number("lower", None), s.number("upper", None)


# config kind -> (constructor, read of its typed parameters)
_SPEC_KINDS = {
    "constant": (ParameterCurve.constant, lambda s: (s.number("c"),)),
    "affine": (ParameterCurve.affine, lambda s: (s.number("a"), s.number("b"), *_range(s))),
    "piecewise": (ParameterCurve.piecewise,
                  lambda s: (s.numbers("breaks"), s.numbers("values"), *_range(s))),
    "table": (ParameterCurve.table, lambda s: (s.numbers("ts"), s.numbers("values"), *_range(s))),
}


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

_CSV_BLOCK = 4096  # rows formatted per string operation in Trajectory.to_csv


@dataclass
class IntegratorMeta:
    method: str
    step: float
    grid_step: float
    est_err: float
    richardson_err: float
    interp_slack: float


@dataclass
class Trajectory:
    """A time-sampled curve with dense output and a recorded error estimate."""

    space: SpaceDescriptor
    ts: np.ndarray
    xs: np.ndarray
    dxs: np.ndarray
    meta: IntegratorMeta
    vs: Optional[np.ndarray] = None
    dvs: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (np.diff(self.ts) > 0).all():
            raise IntegrationError("sample times must be strictly increasing")
        if not np.isfinite(self.meta.est_err):
            raise IntegrationError("error estimate must be finite")

    @classmethod
    def from_samples(cls, space: SpaceDescriptor, ts, xs, est_err: float,
                     method: str = "sampled") -> "Trajectory":
        """Trajectory from pointwise samples (e.g. semigroup evaluations);
        derivatives for dense output come from finite differences, so checks
        against it are sampled, not certified."""
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        dxs = np.gradient(xs, ts, axis=0)
        grid = float(np.diff(ts).max())
        meta = IntegratorMeta(method=method, step=grid, grid_step=grid,
                              est_err=max(est_err, 1e-15), richardson_err=0.0,
                              interp_slack=0.0)
        return cls(space=space, ts=ts, xs=xs, dxs=dxs, meta=meta)

    @property
    def horizon(self) -> float:
        return float(self.ts[-1])

    @property
    def est_err(self) -> float:
        return self.meta.est_err

    def _hermite(self, ys: np.ndarray, dys: np.ndarray, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.ts, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = t1 - t0
        s = (t - t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * ys[idx] + h10 * h * dys[idx]
                + h01 * ys[idx + 1] + h11 * h * dys[idx + 1])

    def _dense(self, ys: np.ndarray, dys: np.ndarray, t: float) -> np.ndarray:
        """ys at time t: the stored sample when t is a sample time, else the
        Hermite interpolant; times up to 1e-12 past the horizon clamp to it."""
        if not 0.0 <= t <= self.horizon + 1e-12:
            raise IntegrationError(f"time {t} outside [0, {self.horizon}]")
        t = min(t, self.horizon)
        exact = np.searchsorted(self.ts, t)
        if exact < len(self.ts) and self.ts[exact] == t:
            return ys[exact].copy()
        return self._hermite(ys, dys, t)

    def eval(self, t: float) -> np.ndarray:
        """Dense output; interpolation error is folded into est_err."""
        return self._dense(self.xs, self.dxs, t)

    def eval_velocity(self, t: float) -> np.ndarray:
        if self.vs is None:
            raise IntegrationError("trajectory carries no velocity")
        return self._dense(self.vs, self.dvs, t)

    def lipschitz_estimate(self) -> float:
        """Max observed speed; grid slack for sup-approximations derives
        from it."""
        return float(np.linalg.norm(self.dxs, axis=1).max())

    def to_csv(self) -> str:
        """One header line, then one ``%.12g`` row per sample.  Rows are
        formatted a block at a time, so no whole-array Python list is built."""
        d = self.xs.shape[1]
        cols = ["t"] + [f"x{i}" for i in range(d)]
        parts = [self.ts[:, None], self.xs]
        if self.vs is not None:
            cols += [f"v{i}" for i in range(d)]
            parts.append(self.vs)
        row = ",".join(["%.12g"] * len(cols)) + "\n"
        chunks = [",".join(cols) + "\n"]
        for a in range(0, len(self.ts), _CSV_BLOCK):
            block = np.hstack([p[a:a + _CSV_BLOCK] for p in parts])
            chunks.append((row * len(block)) % tuple(block.ravel().tolist()))
        return "".join(chunks)


# ---------------------------------------------------------------------------
# RK4 with Richardson error estimate
# ---------------------------------------------------------------------------


_BLOCK = 1024  # coarse steps per curve table and per finiteness check


# a divergent run overflows quietly until its block's finiteness check raises
@np.errstate(over="ignore", invalid="ignore")
def _rk4(rhs: Callable[..., np.ndarray], curves: tuple, width: int, y0: np.ndarray,
         n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coarse (n steps of h) and fine (2n steps of h/2) RK4 runs of
    y' = rhs(y, *curve values) from y0, each value shaped like the state with
    the last axis ``width`` wide.  Returns the coarse samples and the fine
    times, samples and derivatives."""
    q = h / 2
    Y = np.stack([y0, y0])
    # each factor has the shape it multiplies: faster than a broadcast or a float
    steps = np.array([h, q]).reshape((2,) + (1,) * y0.ndim) + np.zeros_like(Y)
    halves, sixths, twos = steps / 2, steps / 6, np.full_like(Y, 2.0)
    q1, q2, q6, two = steps[1], halves[1], sixths[1], twos[1]
    # stage times as separate runs form them, by (stage, row): i h + (0, h/2, h) coarse,
    # 2i q + (0, q/2, q) paired fine (2i q is i h exactly), (2i+1) q + (0, q/2, q) lone
    offsets = np.array([[0.0, 0.0, 0.0], [h / 2, q / 2, q / 2], [h, q, q]])
    ys_c = np.empty((n + 1,) + y0.shape)
    # the fine run's samples and derivatives, as (coarse step, half step)
    fine, dfine = np.empty((2, n + 1, 2) + y0.shape)
    ys_c[0] = fine[0, 0] = y0
    ys_f, dys_f = (a.reshape((2 * n + 2,) + y0.shape)[:-1] for a in (fine, dfine))
    for lo in range(0, n, _BLOCK):
        block = np.arange(lo, min(lo + _BLOCK, n))
        times = np.stack([block * h, block * h, (2 * block + 1) * q], axis=-1)[:, None] + offsets
        values = np.multiply.outer(np.stack([c(times) for c in curves], axis=2),
                                   np.ones(y0.shape[:-1] + (width,)))
        for i, (a, b, c), (a1, b1, c1) in zip(block.tolist(), values[:, :, :, :2],
                                              values[:, :, :, 2]):
            K1 = rhs(Y, *a)
            dfine[i, 0] = K1[1]
            K2 = rhs(Y + halves * K1, *b)
            K3 = rhs(Y + halves * K2, *b)
            K4 = rhs(Y + steps * K3, *c)
            Y = Y + sixths * (K1 + twos * K2 + twos * K3 + K4)
            y = fine[i, 1] = Y[1]
            k1 = dfine[i, 1] = rhs(y, *a1)
            k2 = rhs(y + q2 * k1, *b1)
            k3 = rhs(y + q2 * k2, *b1)
            k4 = rhs(y + q1 * k3, *c1)
            Y[1] = y + q6 * (k1 + two * k2 + two * k3 + k4)
            ys_c[i + 1], fine[i + 1, 0] = Y
        # a non-finite state stays non-finite, so the first bad sample is the
        # step where a run left the reals; the coarse run is named first
        if not np.isfinite(Y).all():
            for ys, step in ((ys_c[1:i + 2], h), (ys_f[1:2 * i + 3], q)):
                bad = np.flatnonzero(~np.isfinite(ys.reshape(len(ys), -1)).all(axis=1))
                if bad.size:
                    raise IntegrationError(f"non-finite state at t={int(bad[0]) * step + step}")
    dfine[n, 0] = rhs(Y[1], *(c(2 * n * q) for c in curves))
    return ys_c, np.arange(2 * n + 1) * q, ys_f, dys_f


def _integrate(rhs, curves: tuple, width: int, y0: np.ndarray, horizon: float, step: float,
               method: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, IntegratorMeta]:
    if step <= 0:
        raise IntegrationError("step must be positive")
    if horizon <= 0:
        raise IntegrationError("horizon must be positive")
    # n coarse steps cover the horizon (the last one may end past it); the
    # fine run takes exactly 2n half steps, so both end at the same time
    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        n = math.ceil(horizon / step)
    ys_c, ts_f, ys_f, dys_f = _rk4(rhs, curves, width, y0, n, step)
    shared = ys_f[::2]
    richardson = float(np.linalg.norm(ys_c - shared, axis=1).max())
    # Hermite reconstruction of fine midpoints from the coarse subsamples
    # bounds the dense-output slack on the fine grid from above.
    mid = ys_f[1::2]
    interp = 0.5 * shared[:-1] + 0.5 * shared[1:] + step / 8 * (dys_f[:-1:2] - dys_f[2::2])
    interp_slack = float(np.linalg.norm(interp - mid, axis=1).max())
    est = richardson + interp_slack
    meta = IntegratorMeta(method=method, step=step, grid_step=step / 2,
                          est_err=max(est, 1e-15), richardson_err=richardson,
                          interp_slack=interp_slack)
    return ts_f, ys_f, dys_f, meta


def integrate_first_order(T: NonexpansiveMap, lam: ParameterCurve, x0,
                          horizon: float, step: float,
                          space: Optional[SpaceDescriptor] = None) -> Trajectory:
    """Solve x'(t) = lambda(t) (T(x(t)) - x(t)) on [0, horizon], 0 <= lambda <= T's cap."""
    x0 = np.asarray(x0, dtype=float)
    if space is None:
        space = SpaceDescriptor(dimension=x0.size)
    cap = T.averaged_delta
    if (lam.lower is not None and lam.lower < -1e-12) or \
            (lam.upper is not None and lam.upper > cap + 1e-12):
        raise IntegrationError(f"lambda must map into [0, {cap}]")

    fn = T.fn  # raw closure; the validating wrapper is per-call overhead here

    def rhs(y, lam_t):
        return lam_t * (fn(y) - y)

    ts, ys, dys, meta = _integrate(rhs, (lam,), x0.size, x0, horizon, step, "rk4/first_order")
    lam.validate_bounds(ts)
    return Trajectory(space=space, ts=ts, xs=ys, dxs=dys, meta=meta)


def integrate_second_order(B: CocoerciveMap, lam: ParameterCurve,
                           gam: ParameterCurve, u0, v0, horizon: float,
                           step: float, theta: Optional[float] = None,
                           space: Optional[SpaceDescriptor] = None) -> Trajectory:
    """Solve x''(t) + gamma(t) x'(t) + lambda(t) B(x(t)) = 0."""
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    d = u0.size
    if space is None:
        space = SpaceDescriptor(dimension=d)

    fn = B.fn

    def rhs(y, lam_t, gam_t):
        x, v = y[..., :d], y[..., d:]
        return np.concatenate([v, -gam_t * v - lam_t * fn(x)], axis=-1)

    y0 = np.concatenate([u0, v0])
    ts, ys, dys, meta = _integrate(rhs, (lam, gam), d, y0, horizon, step, "rk4/second_order")
    lam.validate_bounds(ts)
    gam.validate_bounds(ts)
    if theta is not None:
        bad = gam(ts) ** 2 / lam(ts) < (1 + theta) / B.beta - 1e-9
        if bad.any():
            raise IntegrationError("parameter assumption gamma^2/lambda >= (1+theta)/beta "
                                   f"fails at t={ts[bad.argmax()]}")
    return Trajectory(space=space, ts=ts, xs=ys[:, :d], dxs=dys[:, :d],
                      vs=ys[:, d:], dvs=dys[:, d:], meta=meta)


def integrate_forward_backward(order: str, A: MonotoneOperator, B: CocoerciveMap,
                               gamma: float, lam: ParameterCurve, x0,
                               horizon: float, step: float,
                               gam: Optional[ParameterCurve] = None,
                               v0=None, theta: Optional[float] = None,
                               space: Optional[SpaceDescriptor] = None) -> Trajectory:
    """Forward-backward flows: the first-order system over the averaged map
    T = J_{gamma A} o (Id - gamma B), or the second-order system over Id - T,
    x'' + gamma(t) x' + lambda(t) (x - T x) = 0."""
    if order == "first":
        return integrate_first_order(forward_backward_map(A, B, gamma), lam, x0,
                                     horizon, step, space=space)
    if order != "second":
        raise ValueError("order is first|second")
    if gam is None or v0 is None:
        raise IntegrationError("second-order forward-backward needs gam and v0")
    return integrate_second_order(forward_backward_residual(A, B, gamma), lam, gam,
                                  x0, v0, horizon, step, theta=theta, space=space)


# ---------------------------------------------------------------------------
# Hadamard semigroups via exponential formulas
# ---------------------------------------------------------------------------


@dataclass
class SemigroupPoint:
    point: np.ndarray
    achieved_tol: float
    n_used: int
    converged: bool
    extrapolated: bool = False


def _tail_bound(d: float, d_prev: float) -> float:
    """Bound on the distance from the newest plain run to the limit: the
    geometric tail d r/(1-r) of the Cauchy differences, r = d/d_prev, and
    never less than d itself.  Where the differences do not contract
    (rounding noise, or runs that agree exactly) there is no tail to sum
    and the bound is d."""
    r = d / d_prev if d_prev > 0 else math.inf
    return d * max(1.0, r / (1.0 - r)) if r < 1.0 else d


def _semigroup(run: Callable[[np.ndarray, int], np.ndarray], x, t: float,
               n_max: int, tol: float) -> SemigroupPoint:
    """Doubling driver of the exponential formulas, with Richardson
    extrapolation and a fallback to the plain scheme.

    ``run(x, n)`` takes n steps of size t/n from x, and n doubles from 8; a
    run that leaves the reals raises.  Each doubling compares the newest run
    y_n with y_{n/2}: the plain Cauchy difference d = |y_n - y_{n/2}|, and
    the extrapolant E_n = 2 y_n - y_{n/2} with its difference
    |E_n - E_{n/2}| from the previous extrapolant.  When the error of the scheme
    expands in 1/n (smooth phi or F), E_n is second order and the
    extrapolant differences shrink about 4x per doubling.  The driver
    returns E_n only in that regime: its difference is below tol, below d/2,
    and at most a third of the previous extrapolant difference.  Otherwise
    (nonsmooth phi such as l1 or an indicator, where the error need not
    expand in 1/n) it returns the plain run y_n once the tail bound of the
    Cauchy differences (``_tail_bound``, which needs two of them) is below
    tol.  The achieved tolerance is the difference (extrapolated) or tail
    bound (plain) of the returned point; for an extrapolant it is
    conservative, since its error is about a third of its difference.

    The extrapolant is the point at parameter 2 on the line from y_{n/2}
    through y_n.  It is formed in coordinates, which is sound only because
    ``SpaceDescriptor`` is Euclidean-only: a geodesic extrapolation past
    parameter 1 is not defined in a general Hadamard space."""
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise IntegrationError("semigroup time must be nonnegative")
    if t == 0:
        return SemigroupPoint(point=x.copy(), achieved_tol=0.0, n_used=0, converged=True)

    def finite_run(n: int) -> np.ndarray:
        y = run(x, n)
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite semigroup point at t={t}, n={n}")
        return y

    n = 8
    prev = finite_run(n)
    d_prev = ext_prev = de_prev = None
    while n < n_max:
        n *= 2
        cur = finite_run(n)
        d = float(np.linalg.norm(prev - cur))
        ext = 2.0 * cur - prev
        de = None if ext_prev is None else float(np.linalg.norm(ext_prev - ext))
        if de_prev is not None and de < tol and 2 * de < d and 3 * de <= de_prev:
            return SemigroupPoint(point=ext, achieved_tol=de, n_used=n,
                                  converged=True, extrapolated=True)
        if d_prev is not None:
            bound = _tail_bound(d, d_prev)
            if bound < tol:
                return SemigroupPoint(point=cur, achieved_tol=bound, n_used=n,
                                      converged=True)
        prev, d_prev, ext_prev, de_prev = cur, d, ext, de
    return SemigroupPoint(point=prev, achieved_tol=math.inf, n_used=n, converged=False)


def gradient_flow_semigroup(phi: ConvexFunction, x, t: float,
                            n_max: int = 2 ** 20, tol: float = 1e-9) -> SemigroupPoint:
    """S_t(x) = lim_n (J_{t/n})^n (x): iterate the prox under the doubling
    driver."""

    def run(x: np.ndarray, n: int) -> np.ndarray:
        y = x.copy()
        s = t / n
        for _ in range(n):
            y = phi.prox_point(s, y)
        return y

    return _semigroup(run, x, t, n_max, tol)


def stojkovic_semigroup(F: NonexpansiveMap, x, t: float,
                        n_max: int = 2 ** 20, tol: float = 1e-9) -> SemigroupPoint:
    """T_t(x) = lim_n (R_{t/n})^n (x) over the implicit resolvent of F; same
    doubling driver, with the inner fixed-point tolerance budgeted tol/(2n)."""

    def run(x: np.ndarray, n: int) -> np.ndarray:
        y = x
        s = t / n
        inner = tol / (2 * n)
        for _ in range(n):
            y = stojkovic_resolvent(F, s, y, tol=inner)
        return y

    return _semigroup(run, x, t, n_max, tol)
