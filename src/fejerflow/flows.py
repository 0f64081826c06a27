"""Trajectory generation: fixed-step integration of the first- and
second-order systems, the forward-backward variants, and the Hadamard
semigroups built from their exponential formulas.

Integration is classical RK4 with a fixed step plus a Richardson global-error
estimate from a second run at half the step; verification tolerances derive
from that estimate, so adaptive stepping is deliberately avoided.  One core
(``_rk4``) integrates one run: it advances coarse step i and fine step 2i as
one batch, then fine step 2i+1 alone; with curves tabled per block of 1,024
coarse steps and closures that answer rows with single-point bits, the
coarse and fine samples keep the bits of separate runs.  The step loop makes
only the RK4 arithmetic: each block's curve table is sliced once into
per-step tuples of curve values, and the second-order field takes -gamma
tabled, so it negates nothing per call.  Every block stepper writes straight
into the run's samples, and each block checks the state's finiteness; the
error names the first non-finite sample.  Dense output is local cubic
Hermite interpolation using stored derivatives.

Each integrator writes its field once, x' = field(x, *curve values) or
v' = field(x, v, *curve values), which numpy stacks into (v, v').  On a 2-
to 8-float state every numpy call costs about the same whatever its size,
so a field whose operators are all ``coordinatewise`` (``operators``) steps
on bare Python floats instead.  Each coordinate is an independent chain,
one float for a first-order flow and the pair (x_i, v_i) for a second-order
one; a block of up to ``_CHAIN_CAP`` chains steps each chain alone through
``_stage``'s operations in its order, reading the same curve table, and
writes the same samples at the end of the block.  Python floats round each
operation as float64 does, so the samples keep their bits, and finiteness
checks, errors and settled runs are shared with the numpy stepper.

A converging run reaches a floating-point fixed point, where every RK4
increment rounds away: the first-order builtins' ``long_check`` runs spend
over 90% of their steps there.  A run is settled once a whole block leaves
each sample it wrote, coarse and fine, bitwise equal to the block's end
state.  A settled run leaves the step-by-step loop: each later block runs
all its steps at once from the settled state, each step on its own row of
one stack (8 field calls a block), and is kept, its samples written, only if
every coarse and lone fine step returns that state bitwise; otherwise the
run steps the same block one by one.  A step is a function of its start
state and its tabled curve values, computed row by row with the bits of a
lone call, so a kept block has the bits of the one-by-one steps.  Of the
builtins' runs, only the first-order ``long_check`` runs settle; every
other run steps one by one throughout.

The semigroups double the step count n of their exponential formulas under
one driver (``_semigroup``), which returns the Richardson extrapolant
2 y_n - y_{n/2} when successive extrapolants show a second-order error, and
otherwise the plain run with a geometric tail bound on its error.
``_semigroup`` has a row axis: the rows of one
(k, d) stack share one pass of n steps per level n, and each row has its
own start, time, tol and n_max, steps by its own t/n, keeps its own Cauchy
differences, extrapolant and stopping rule, and leaves the stack when it
converges or reaches its n_max.  A scenario runs all its semigroup
evaluations (grid times, match, fixed-point samples) as rows of one stack.
With closures that answer rows with single-point bits, each row keeps the
bits of its one-row call, and an error is the one the earliest failing
row would raise alone (``gradient_flow_samples``, ``stojkovic_samples``;
``gradient_flow_semigroup`` and ``stojkovic_semigroup`` are their one-row
case).  The gradient-flow semigroup steps with the closed-form prox of its
function, the Stojkovic semigroup with ``operators.stojkovic_resolvent``,
both with a column of per-row parameters; a run checks its parameters on
its first step only and then steps with the raw prox or resolvent loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .config import Config
from .operators import (
    CocoerciveMap,
    ConvexFunction,
    MonotoneOperator,
    NonexpansiveMap,
    _resolvent_loop,
    forward_backward_residual,
    stojkovic_resolvent,
)
from .space import SpaceDescriptor, row_norm

__all__ = [
    "ParameterCurve",
    "IntegratorMeta",
    "coarse_steps",
    "Trajectory",
    "SemigroupPoint",
    "integrate_first_order",
    "integrate_second_order",
    "integrate_forward_backward",
    "gradient_flow_samples",
    "gradient_flow_semigroup",
    "stojkovic_samples",
    "stojkovic_semigroup",
]


class IntegrationError(RuntimeError):
    pass


class SampleMemoryError(IntegrationError):
    """The samples of a run cannot be allocated."""

    def __init__(self, n: int):
        super().__init__(f"the samples of {n} coarse steps cannot be allocated")


class EstimateOverflowError(IntegrationError):
    """The error estimate of a run's finite samples overflows the floats."""


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
        return replace(cls.piecewise(ts, values, lower, upper), kind="table")

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


def _knots(s: Config, key: str, extra: int) -> tuple[list, list]:
    """Strictly increasing times or breaks at ``key``, and len + ``extra`` values."""
    knots = s.numbers(key)
    if len(knots) + extra < 1 or any(b <= a for a, b in zip(knots, knots[1:])):
        s.refuse(key, s[key], f"a {'' if extra else 'non-empty '}strictly increasing list")
    values = s.entries("values", length=len(knots) + extra)
    return knots, [values.number(i) for i in values]


# config kind -> (constructor, read of its typed parameters)
_SPEC_KINDS = {
    "constant": (ParameterCurve.constant, lambda s: (s.number("c"),)),
    "affine": (ParameterCurve.affine, lambda s: (s.number("a"), s.number("b"), *_range(s))),
    "piecewise": (ParameterCurve.piecewise, lambda s: (*_knots(s, "breaks", 1), *_range(s))),
    "table": (ParameterCurve.table, lambda s: (*_knots(s, "ts", 0), *_range(s))),
}


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

_CSV_BLOCK = 4096  # rows formatted per string operation in Trajectory.to_csv


def _hermite_at(t0, t1, y0, dy0, y1, dy1, t):
    """The cubic Hermite interpolant on [t0, t1] through the rows y0, y1 with
    slopes dy0, dy1, at t: for float ends and a float t, or for columns of
    ends and times with one row each.  The square is u * u: a ``** 2`` of a
    scalar goes through libm ``pow``, which rounds differently from an
    array's x * x."""
    h = t1 - t0
    s = (t - t0) / h
    u = 1 - s
    return ((1 + 2 * s) * (u * u) * y0 + s * (u * u) * h * dy0
            + s * s * (3 - 2 * s) * y1 + s * s * (s - 1) * h * dy1)


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

    def _dense(self, ys: np.ndarray, dys: np.ndarray, t) -> np.ndarray:
        """ys at time t, or at each of a 1-D array of times (one row each):
        the stored sample at a sample time, else the Hermite interpolant on
        the interval of t.  Times up to 1e-12 past the horizon clamp to it.

        A float time keeps its own lookup: routed through the array path it
        costs about ten times as much, and the pointwise residuals of the
        metastability scans make one call per distinct grid time.  It reads
        the interval ends as Python floats, so the interpolant's coefficients
        are Python float arithmetic and only the four row products and their
        sum are numpy.  Python floats round each operation as numpy's float64
        does and both paths make the same operations in the same order, so
        each row has the bits of its float time."""
        ts, last, horizon = self.ts, len(self.ts) - 2, float(self.ts[-1])
        if not (isinstance(t, np.ndarray) and t.ndim):
            if not 0.0 <= t <= horizon + 1e-12:
                raise IntegrationError(f"time {t} outside [0, {horizon}]")
            t = min(t, horizon)
            idx = min(max(int(ts.searchsorted(t, "right")) - 1, 0), last)
            t0, t1 = ts[idx:idx + 2].tolist()
            if t == t0:
                return ys[idx].copy()
            if t == t1:  # the horizon, at the end of the last interval
                return ys[idx + 1].copy()
            return _hermite_at(t0, t1, ys[idx], dys[idx], ys[idx + 1], dys[idx + 1], t)
        t = np.asarray(t, dtype=float)
        bad = ~((t >= 0.0) & (t <= horizon + 1e-12))
        if bad.any():
            raise IntegrationError(f"time {float(t[bad.argmax()])} outside [0, {horizon}]")
        t = np.minimum(t, horizon)
        idx = np.searchsorted(ts, t, side="right") - 1
        at = np.clip(idx, 0, last)
        out = _hermite_at(ts[at][:, None], ts[at + 1][:, None], ys[at], dys[at], ys[at + 1],
                          dys[at + 1], t[:, None])
        return np.where((ts[idx] == t)[:, None], ys[idx], out)

    def eval(self, t) -> np.ndarray:
        """Dense output at a float time, shape (d,), or at a 1-D array of k
        times, shape (k, d); interpolation error is folded into est_err."""
        return self._dense(self.xs, self.dxs, t)

    def eval_velocity(self, t) -> np.ndarray:
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


_BLOCK = 1024  # coarse steps per curve table and finiteness check
# most chains a block steps on Python floats (``_chain_block``).  Per coarse
# step on a shared 2-core Xeon, Python 3.11, numpy 2.4: a first-order chain
# costs about 2.2 us (scalar map) to 3.7 us (forward-backward map), a
# second-order chain about 3 us, while numpy's ``_step_block`` costs about
# 24, 38 and 43 us whatever the state's size; the floats win up to about 10
# chains (forward-backward) to 14 (second order).
_CHAIN_CAP = 8


def _stage(field, y, a, b, c, half, sixth, full, two):
    """One RK4 step of y' = field(y, *curve values) from y, with the curve
    values a, b, c at its start, middle and end and the factors h/2, h/6, h
    and 2: the derivative at y and the new state."""
    k1 = field(y, *a)
    k2 = field(y + half * k1, *b)
    k3 = field(y + half * k2, *b)
    k4 = field(y + full * k3, *c)
    return k1, y + sixth * (k1 + two * k2 + two * k3 + k4)


def _float_step(field, y, values, half, sixth, full):
    """``_stage`` on one float: one RK4 step of y' = field(y, value) from y,
    with the curve values (a, b, c) at its start, middle and end; the
    derivative at y and the new state, with ``_stage``'s operand order."""
    a, b, c = values
    k1 = field(y, a)
    k2 = field(y + half * k1, b)
    k3 = field(y + half * k2, b)
    k4 = field(y + full * k3, c)
    return k1, y + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)


def _pair_step(field, x, v, values, half, sixth, full):
    """``_stage`` on one pair: one RK4 step of x' = v, v' = field(x, v, *two
    curve values) from (x, v), with the curve value pairs at its start,
    middle and end; v' at (x, v) and the new pair, with ``_stage``'s operand
    order (the x part of each stage derivative is that stage's v)."""
    a1, a2, b1, b2, c1, c2 = values
    k1 = field(x, v, a1, a2)
    x2, v2 = x + half * v, v + half * k1
    k2 = field(x2, v2, b1, b2)
    x3, v3 = x + half * v2, v + half * k2
    k3 = field(x3, v3, b1, b2)
    x4, v4 = x + full * v3, v + full * k3
    k4 = field(x4, v4, c1, c2)
    return (k1, x + sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4),
            v + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4))


def _float_chain(field, coarse, fine, rows, h, q):
    """One block of a one-float chain: per row of curve values (coarse,
    paired fine, lone fine) a coarse step of h and two fine steps of q.
    Returns, flat, per step its coarse and fine start states, the fine state
    after its paired step and its two fine derivatives; and the end states."""
    (y,), (z,) = coarse, fine
    h2, h6, q2, q6 = h / 2, h / 6, q / 2, q / 6
    out = []
    push = out.extend
    for c, p, lone in rows:
        _, y1 = _float_step(field, y, c, h2, h6, h)
        d0, z1 = _float_step(field, z, p, q2, q6, q)
        d1, z2 = _float_step(field, z1, lone, q2, q6, q)
        push((y, z, z1, d0, d1))
        y, z = y1, z2
    return out, (y,), (z,)


def _pair_chain(field, coarse, fine, rows, h, q):
    """``_float_chain`` for a pair (x, v): each of its five values, x then v
    (the x derivative of a state is its v)."""
    (x, v), (zx, zv) = coarse, fine
    h2, h6, q2, q6 = h / 2, h / 6, q / 2, q / 6
    out = []
    push = out.extend
    for c, p, lone in rows:
        _, x1, v1 = _pair_step(field, x, v, c, h2, h6, h)
        d0, zx1, zv1 = _pair_step(field, zx, zv, p, q2, q6, q)
        d1, zx2, zv2 = _pair_step(field, zx1, zv1, lone, q2, q6, q)
        push((x, v, zx, zv, zx1, zv1, zv, d0, zv1, d1))
        x, v, zx, zv = x1, v1, zx2, zv2
    return out, (x, v), (zx, zv)


def _chain_block(field, Y, table, h, width, ys_c, ys_f, dys_f):
    """``_step_block`` on Python floats: each chain, one coordinate with its
    coarse and fine rows, steps the whole block alone, and its floats go
    into the block's samples at the end of the block.  ``table`` is the
    block's curve table (step, stage, curve, coarse/paired/lone), h the
    coarse step, and a chain of a state of ``width`` coordinates holds one
    float (first order, x' = ``field(x, lam)``) or the pair of columns j and
    width + j (second order, v' = ``field(x, v, lam, -gamma)``).  Each chain
    makes ``_stage``'s operations in its order, and a coordinatewise field
    gives a float the bits of its array call, so the result has the bits
    ``_step_block`` would give."""
    n, k = len(table), Y.shape[-1] // width  # k floats a chain: x, or x and v
    stepper = _float_chain if k == 1 else _pair_chain
    Y = Y.copy()
    # per step: the curve values of the coarse, paired fine and lone fine step
    rows = table.transpose(0, 3, 1, 2).reshape(n, 3, -1).tolist()
    for j in range(width):
        cols = [j + i * width for i in range(k)]
        out, Y[0, cols], Y[1, cols] = stepper(field, *Y[:, cols].tolist(), rows, h, h / 2)
        out = np.array(out).reshape(n, 5, k)
        ys_c[:, cols], ys_f[..., cols], dys_f[..., cols] = out[:, 0], out[:, 1:3], out[:, 3:]
    return Y


def _unchanged(samples: np.ndarray, y: np.ndarray) -> bool:
    """Whether every sample (..., *y's shape) has the bits of y, sign of
    zero included."""
    return bool((samples.view(np.int64) == y.view(np.int64)).all())


def _step_block(field, Y, values, factors, ys_c, ys_f, dys_f):
    """The block's steps one by one: coarse step i and fine step 2i as one
    batch, then fine step 2i+1 alone.  Writes per step i the coarse sample
    ``ys_c[i]``, the fine samples ``ys_f[i]`` (2i and 2i+1) and their
    derivatives ``dys_f[i]``, and returns the end state.

    The curve table is sliced once for the block: per stage time a, b, c of
    the paired and the lone step, an iterator yields each step's tuple of
    per-curve values, walked in step with the sample rows, so the loop
    makes only the RK4 arithmetic."""
    fine_factors = [f[1] for f in factors]
    paired = [zip(*s) for s in np.moveaxis(values[:, :, :, :2], 0, 2)]
    lone = [zip(*s) for s in np.moveaxis(values[:, :, :, 2], 0, 2)]
    for yc, yf, df, pa, pb, pc, la, lb, lc in zip(ys_c, ys_f, dys_f, *paired, *lone):
        yc[...], yf[0] = Y
        K1, Y = _stage(field, Y, pa, pb, pc, *factors)
        df[0], yf[1] = K1[1], Y[1]
        df[1], Y[1] = _stage(field, Y[1], la, lb, lc, *fine_factors)
    return Y


def _settled_block(field, Y, values, factors, ys_c, ys_f, dys_f):
    """The block's steps all at once, each from the start state Y on its own
    row of a (step, coarse/fine row, *state) stack.  Writes the samples as
    ``_step_block`` does, and returns True, only if every coarse and every
    lone fine step returned Y.  A step is a function of its start state and
    its curve values alone, computed row by row, so a kept block has the
    bits ``_step_block`` would give."""
    starts = np.broadcast_to(Y, (len(values),) + Y.shape).copy()
    K1, after = _stage(field, starts, *np.moveaxis(values[:, :, :, :2], 0, 2), *factors)
    dlone, end = _stage(field, after[:, 1], *np.moveaxis(values[:, :, :, 2], 0, 2),
                        *(f[1] for f in factors))
    if not _unchanged(np.stack([after[:, 0], end], axis=1), Y):
        return False
    ys_c[...], ys_f[:, 0] = Y
    ys_f[:, 1], dys_f[:, 0], dys_f[:, 1] = after[:, 1], K1[:, 1], dlone
    return True


# a divergent run overflows quietly until its block's finiteness check raises
@np.errstate(over="ignore", invalid="ignore")
def _rk4(field: Callable, curves: tuple, width: int, y0: np.ndarray, n: int, h: float,
         coordinatewise: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse (n steps of h) and fine (2n steps of h/2) RK4 runs from y0 of
    y' = field(y, *curve values), or of x' = v, v' = field(x, v, *curve
    values) for a state (x, v) twice ``width`` wide, each curve value shaped
    like the state with the last axis ``width`` wide, the state stacked as
    (coarse/fine row, *state).  Returns the coarse samples and the fine
    samples and derivatives; each block stepper writes its block's share of
    them in place.

    The run is settled once a whole block of ``_BLOCK`` coarse steps leaves
    it unchanged: every sample the block wrote, coarse and fine, has the
    bits of the block's end state.  A converging flow settles at its
    floating-point fixed point, where each RK4 increment rounds away.  A
    settled run's next block runs at once from its start state
    (``_settled_block``), 8 field calls over the stacked steps, and is kept
    if every coarse and lone fine step returns the start state; else the
    run steps that same block one by one.  Its samples and derivatives have
    the bits of the one-by-one steps either way.

    A ``coordinatewise`` field also takes Python floats (see
    ``_chain_block``); the one-by-one steps of a run of at most
    ``_CHAIN_CAP`` chains then run on floats and write the same samples, so
    everything after the steps is shared."""
    shape = y0.shape

    def stacked(y, *values):  # numpy steps a state (x, v) by its derivative (v, v')
        v = y[..., width:]
        return np.concatenate([v, field(y[..., :width], v, *values)], axis=-1)

    array_field = field if shape[-1] == width else stacked
    try:
        ys_c = np.empty((n + 1,) + shape)
        fine = np.empty((2, 2 * n + 1) + shape)  # the fine samples and derivatives
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise SampleMemoryError(n) from None
    ys_f, dys_f = fine
    q = h / 2
    Y = np.stack([y0, y0])
    # each factor has the shape it multiplies: faster than a broadcast or a float
    steps = np.array([h, q]).reshape((2,) + (1,) * len(shape)) + np.zeros_like(Y)
    factors = (steps / 2, steps / 6, steps, np.full_like(Y, 2.0))
    # stage offsets by (stage, row): (0, h/2, h) coarse, (0, q/2, q) paired and lone fine
    offsets = np.array([[0.0] * 3, [h / 2, q / 2, q / 2], [h, q, q]])
    on_floats = coordinatewise and width <= _CHAIN_CAP
    settled = False
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # stage times as separate runs form them: i h coarse, 2i q paired fine
        # (2i q is i h exactly), (2i+1) q lone
        block = np.arange(lo, hi)
        times = np.stack([block * h, block * h, (2 * block + 1) * q], axis=1)[:, None] + offsets
        # (step, stage, curve, coarse/paired/lone), then widened to the state
        table = np.stack([c(times) for c in curves], axis=2)
        values = np.multiply.outer(table, np.ones(shape[:-1] + (width,)))
        # the block's samples, the fine ones as (coarse step, half step)
        samples = (ys_c[lo:hi], *fine[:, 2 * lo:2 * hi].reshape((2, -1, 2) + shape))
        kept = settled and _settled_block(array_field, Y, values, factors, *samples)
        if not kept:
            Y = (_chain_block(field, Y, table, h, width, *samples) if on_floats
                 else _step_block(array_field, Y, values, factors, *samples))
        if hi - lo == _BLOCK:
            settled = kept or (_unchanged(ys_c[lo:hi], Y[0]) and
                               _unchanged(ys_f[2 * lo:2 * hi], Y[1]))
        ys_c[hi], ys_f[2 * hi] = Y
        # a non-finite state stays non-finite, so the first bad sample is the
        # step where the run left the reals; the coarse run is named first
        if not np.isfinite(Y).all():
            for ys, step in ((ys_c[1:hi + 1], h), (ys_f[1:2 * hi + 1], q)):
                bad = np.flatnonzero(~np.isfinite(ys.reshape(len(ys), -1)).all(axis=1))
                if bad.size:
                    raise IntegrationError(f"non-finite state at t={int(bad[0]) * step + step}")
    dys_f[2 * n] = array_field(Y[1], *(c(2 * n * q) for c in curves))
    return ys_c, ys_f, dys_f


def coarse_steps(horizon: float, step: float) -> int:
    """The n coarse steps of an RK4 run (horizon, step): the nearest whole
    count when n steps land within 1e-9 (relative) of the horizon, else
    enough to cover it, the last one ending past it.  The fine run takes
    exactly 2n half steps, so both end at n * step, the trajectory's
    horizon."""
    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        n = math.ceil(horizon / step)
    return n


# finite samples may still overflow their error estimate, which is then refused
@np.errstate(over="ignore", invalid="ignore")
def _integrate(field, curves: tuple, width: int, y0: np.ndarray, horizon: float, step: float,
               method: str, coordinatewise: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                          IntegratorMeta]:
    """Fine times, samples, derivatives and error estimate of the run
    (y0, horizon, step)."""
    if step <= 0:
        raise IntegrationError("step must be positive")
    if horizon <= 0:
        raise IntegrationError("horizon must be positive")
    n = coarse_steps(horizon, step)
    ys_c, ys_f, dys_f = _rk4(field, curves, width, y0, n, step, coordinatewise)
    # the times before the estimate's temporaries: allocated after them, they
    # can pin the freed heap and raise the peak resident memory
    ts_f = np.arange(2 * n + 1) * (step / 2)
    shared = ys_f[::2]
    richardson = float(np.linalg.norm(ys_c - shared, axis=1).max())
    # Hermite reconstruction of fine midpoints from the coarse subsamples
    # bounds the dense-output slack on the fine grid from above.
    mid = ys_f[1::2]
    interp = 0.5 * shared[:-1] + 0.5 * shared[1:] + step / 8 * (dys_f[:-1:2] - dys_f[2::2])
    interp_slack = float(np.linalg.norm(interp - mid, axis=1).max())
    est = richardson + interp_slack
    if not math.isfinite(est):
        raise EstimateOverflowError(f"the error estimate of steps of {step} overflows")
    meta = IntegratorMeta(method=method, step=step, grid_step=step / 2,
                          est_err=max(est, 1e-15), richardson_err=richardson,
                          interp_slack=interp_slack)
    return ts_f, ys_f, dys_f, meta


def integrate_first_order(T: NonexpansiveMap, lam: ParameterCurve, x0,
                          horizon: float, step: float,
                          space: Optional[SpaceDescriptor] = None) -> Trajectory:
    """Solve x'(t) = lambda(t) (T(x(t)) - x(t)) on [0, horizon],
    0 <= lambda <= T's cap."""
    x0 = np.asarray(x0, dtype=float)
    if space is None:
        space = SpaceDescriptor(dimension=x0.size)
    cap = T.averaged_delta
    if (lam.lower is not None and lam.lower < -1e-12) or \
            (lam.upper is not None and lam.upper > cap + 1e-12):
        raise IntegrationError(f"lambda must map into [0, {cap}]")

    fn = T.fn  # raw closure; the validating wrapper is per-call overhead

    def field(x, lam_t):
        return lam_t * (fn(x) - x)

    ts, ys, dys, meta = _integrate(field, (lam,), x0.size, x0, horizon, step, "rk4/first_order",
                                   T.coordinatewise)
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

    # the field takes -gamma tabled: -gam_t * v is (-gam_t) * v, and negation is exact
    def acceleration(x, v, lam_t, neg_gam_t):
        return neg_gam_t * v - lam_t * fn(x)

    y0 = np.concatenate([u0, v0])
    ts, ys, dys, meta = _integrate(acceleration, (lam, lambda t: -gam(t)), d, y0, horizon, step,
                                   "rk4/second_order", B.coordinatewise)
    lam.validate_bounds(ts)
    gam.validate_bounds(ts)
    if theta is not None:
        bad = gam(ts) ** 2 / lam(ts) < (1 + theta) / B.beta - 1e-9
        if bad.any():
            raise IntegrationError("parameter assumption gamma^2/lambda >= (1+theta)/beta "
                                   f"fails at t={ts[bad.argmax()]}")
    return Trajectory(space=space, ts=ts, xs=ys[:, :d], dxs=dys[:, :d],
                      vs=ys[:, d:], dvs=dys[:, d:], meta=meta)


def integrate_forward_backward(A: MonotoneOperator, B: CocoerciveMap, gamma: float,
                               lam: ParameterCurve, gam: ParameterCurve, u0, v0,
                               horizon: float, step: float, theta: Optional[float] = None,
                               space: Optional[SpaceDescriptor] = None) -> Trajectory:
    """The second-order forward-backward flow over the averaged map
    T = J_{gamma A} o (Id - gamma B), x'' + gamma(t) x' + lambda(t) (x - T x)
    = 0.  The first-order flow over T is :func:`integrate_first_order` of
    ``operators.forward_backward_map``."""
    return integrate_second_order(forward_backward_residual(A, B, gamma), lam, gam,
                                  u0, v0, horizon, step, theta=theta, space=space)


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


def _semigroup(run: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
               x, ts, n_max, tol) -> list[SemigroupPoint]:
    """Doubling driver of the exponential formulas, with Richardson
    extrapolation and a fallback to the plain scheme, for every row of a
    stack at once.

    Row i runs from the start x[i] to the time ts[i] under its own tol[i]
    and n_max[i]; x, tol and n_max are each given once for all rows or once
    per row (x (d,) or (k, d)).  ``run(xs, ts, tols, n)`` takes n steps from
    each row of xs (k, d), each row by its own step t/n for its time in the
    column ts (k, 1) and with its tolerance in the column tols (k, 1), and n
    doubles from 8 for all rows together.  Each doubling compares a row's
    newest run y_n with its y_{n/2}: the plain Cauchy difference
    d = |y_n - y_{n/2}|, and the extrapolant E_n = 2 y_n - y_{n/2} with its
    difference |E_n - E_{n/2}| from the previous extrapolant.  When the
    error of the scheme expands in 1/n (smooth phi or F), E_n is second
    order and the extrapolant differences shrink about 4x per doubling.
    E_n is returned only in that regime: its difference is below tol,
    below d/2, and at most a third of the previous extrapolant difference.
    Otherwise (nonsmooth phi such as l1 or an indicator, where the error
    need not expand in 1/n) it returns the plain run y_n once the tail bound
    of the Cauchy differences (``_tail_bound``, which needs two of them) is
    below tol.  The achieved tolerance is the difference (extrapolated) or
    tail bound (plain) of the returned point; for an extrapolant it is
    conservative, since its error is about a third of its difference.  A
    row leaves the stack when it converges, or unconverged, with its newest
    run, at the first n >= its n_max; time 0 returns the start with n = 0.

    ``run`` must answer each row with the bits of a lone one-row call, as
    the batch-invariant closures and ``space.row_norm`` do, so each row
    gets the ``SemigroupPoint`` of its own one-row call.  The stack is only
    a fast path: when a stack of several rows fails (``run`` raises, or a
    row's run is not finite), each of its remaining rows is finished alone,
    in order, and a row that fails alone raises its own error.  So the
    error raised is the one the earliest failing row would raise alone.  A
    negative time cuts off the later times, and its error is raised once
    the earlier rows are finished.

    The extrapolant is the point at parameter 2 on the line from y_{n/2}
    through y_n.  It is formed in coordinates, which is sound only because
    ``SpaceDescriptor`` is Euclidean-only: a geodesic extrapolation past
    parameter 1 is not defined in a general Hadamard space."""
    ts = [float(t) for t in ts]
    x = np.asarray(x, dtype=float)
    xs = np.broadcast_to(x, (len(ts), x.shape[-1]))
    tols = np.broadcast_to(np.asarray(tol, dtype=float), len(ts)).tolist()
    caps = list(n_max) if np.ndim(n_max) else [n_max] * len(ts)
    t_col, tol_col = np.array([ts, tols]).reshape(2, -1, 1)  # per-row columns for run
    points: list = [None] * len(ts)
    cut = next((i for i, t in enumerate(ts) if t < 0), len(ts))

    def drive(rows: list[int]) -> None:
        """Finish the rows (indices into ts, ascending) as one stack."""
        n = 8
        cur = ext = d = de = None  # per row: its newest run, extrapolant and differences
        while rows:
            prev, ext_prev, d_prev, de_prev = cur, ext, d, de
            try:
                cur = run(xs[rows], t_col[rows], tol_col[rows], n)
                if not (finite := np.isfinite(cur).all(axis=1)).all():
                    raise IntegrationError("non-finite semigroup point at "
                                           f"t={ts[rows[int(finite.argmin())]]}, n={n}")
            except Exception:
                if len(rows) == 1:
                    raise
                for i in rows:
                    drive([i])
                return
            if prev is not None:
                d = row_norm(prev - cur).tolist()
                ext = 2.0 * cur - prev
                de = None if ext_prev is None else row_norm(ext_prev - ext).tolist()
            keep = []
            for j, i in enumerate(rows):
                tol = tols[i]
                if de_prev is not None and de[j] < tol and 2 * de[j] < d[j] \
                        and 3 * de[j] <= de_prev[j]:
                    points[i] = SemigroupPoint(point=ext[j], achieved_tol=de[j], n_used=n,
                                               converged=True, extrapolated=True)
                elif d_prev is not None and (bound := _tail_bound(d[j], d_prev[j])) < tol:
                    points[i] = SemigroupPoint(point=cur[j], achieved_tol=bound, n_used=n,
                                               converged=True)
                elif n >= caps[i]:  # its n_max reached: unconverged, with its newest run
                    points[i] = SemigroupPoint(point=cur[j], achieved_tol=math.inf, n_used=n,
                                               converged=False)
                else:
                    keep.append(j)
            rows, cur = [rows[j] for j in keep], cur[keep]
            ext = None if ext is None else ext[keep]
            d, de = (None if a is None else [a[j] for j in keep] for a in (d, de))
            n *= 2

    for i in range(cut):
        if ts[i] == 0:
            points[i] = SemigroupPoint(point=xs[i].copy(), achieved_tol=0.0, n_used=0,
                                       converged=True)
    drive([i for i in range(cut) if ts[i] != 0])
    if cut < len(ts):
        raise IntegrationError("semigroup time must be nonnegative")
    return points


def gradient_flow_samples(phi: ConvexFunction, x, ts, n_max=2 ** 20,
                          tol=1e-9) -> list[SemigroupPoint]:
    """S_t(x) = lim_n (J_{t/n})^n (x) at every row of ``ts``, from x, at
    tol and n_max, each given once or per row: iterate the prox under
    ``_semigroup``, one column of per-row parameters t/n per step."""

    prox = phi.prox  # raw closure after the first step, which checks the parameters

    def run(xs: np.ndarray, ts: np.ndarray, tols: np.ndarray, n: int) -> np.ndarray:
        s = ts / n
        y = phi.prox_point(s, xs)
        for _ in range(n - 1):
            y = prox(s, y)
        return y

    return _semigroup(run, x, ts, n_max, tol)


def gradient_flow_semigroup(phi: ConvexFunction, x, t: float,
                            n_max: int = 2 ** 20, tol: float = 1e-9) -> SemigroupPoint:
    """S_t(x) at one time: the one-row case of :func:`gradient_flow_samples`."""
    return gradient_flow_samples(phi, x, [t], n_max, tol)[0]


def stojkovic_samples(F: NonexpansiveMap, x, ts, n_max=2 ** 20,
                      tol=1e-9) -> list[SemigroupPoint]:
    """T_t(x) = lim_n (R_{t/n})^n (x) over the implicit resolvent of F at
    every row of ``ts``, as :func:`gradient_flow_samples`; each row's inner
    fixed-point tolerance is budgeted tol/(2n) and each row resolved to its
    own stop.  The first step of a run checks the parameters, the later
    steps run the resolvent loop itself."""

    def run(xs: np.ndarray, ts: np.ndarray, tols: np.ndarray, n: int) -> np.ndarray:
        s, inner = ts / n, tols / (2 * n)
        y = stojkovic_resolvent(F, s, xs, tol=inner)
        for _ in range(n - 1):
            y = _resolvent_loop(F, s, y, inner)
        return y

    return _semigroup(run, x, ts, n_max, tol)


def stojkovic_semigroup(F: NonexpansiveMap, x, t: float,
                        n_max: int = 2 ** 20, tol: float = 1e-9) -> SemigroupPoint:
    """T_t(x) at one time: the one-row case of :func:`stojkovic_samples`."""
    return stojkovic_samples(F, x, [t], n_max, tol)[0]
