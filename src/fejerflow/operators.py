"""Operator and function library: nonexpansive maps, cocoercive maps,
maximally monotone operators (via resolvents), convex functions (via prox),
plus sampled property checkers.

Descriptors are immutable after construction; evaluation is pure.  Resolvents
of monotone operators and prox maps of convex functions are supplied in closed
form; the one implicit resolvent, Stojkovic's resolvent of a nonexpansive map,
is computed by fixed-point iteration in :func:`stojkovic_resolvent`, which the
Stojkovic semigroup also steps with.

Every config-addressable closure takes one point (d,) or a stack (..., d)
and answers row by row (a convex value is a float for one point), each row
with the bits of its single-point call, as the RK4 core in ``flows``
needs: matrix closures take a dot product (``np.vecdot``) or a solve per row,
since the rows of a stacked matrix product differ from it by rounding.  A
prox parameter, and the Stojkovic resolvent's parameter and tolerance, may
be a column (k, 1) of per-row values for a stack (k, d), as the lockstep
semigroup samplers pass them; each row again has the bits of its
single-point call.

A map that acts on each coordinate alone by plain IEEE arithmetic is
``coordinatewise``: its one closure is written in arithmetic that takes a
Python float as well as an array, and on a float it returns a float with
the bits of that coordinate of its array call, sign of zero included, since
a Python float rounds each operation as numpy's float64 does (a resolvent
also takes gamma).  ``flows`` steps coordinatewise fields on Python floats
through it.  The identity, scalar and negation maps, the zero and scaled
identities and compositions or forward-backward maps of such parts are
coordinatewise; matrix, rotation, projection and point-indicator maps are
not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import Config
from .space import SpaceDescriptor, row_norm

__all__ = [
    "NonexpansiveMap",
    "CocoerciveMap",
    "MonotoneOperator",
    "ConvexFunction",
    "PropertyReport",
    "forward_backward_map",
    "forward_backward_residual",
    "stojkovic_resolvent",
    "check_nonexpansive",
    "check_cocoercive",
    "ball_samples",
    "make_nonexpansive",
    "make_cocoercive",
    "make_monotone",
    "make_convex_function",
]


class OperatorError(ValueError):
    pass


class IterationBudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonexpansiveMap:
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    # cap delta on lambda in x' = lambda (T x - x); above 1 only for averaged maps
    averaged_delta: float = 1.0
    # closed form (t, x) -> S_t x of the semigroup of x' = T x - x, where known
    flow: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    # whether fn acts on each coordinate alone and also takes a Python float
    coordinatewise: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def identity(cls) -> "NonexpansiveMap":
        return cls(fn=lambda x: x, name="identity", flow=lambda t, x: x, coordinatewise=True)

    @classmethod
    def scalar(cls, c: float) -> "NonexpansiveMap":
        if not 0.0 <= c <= 1.0:
            raise OperatorError("scalar contraction factor must be in [0, 1]")
        return cls(fn=lambda x: c * x, name=f"scalar({c})",
                   flow=lambda t, x: math.exp(-(1 - c) * t) * x, coordinatewise=True)

    @classmethod
    def negation(cls) -> "NonexpansiveMap":
        return cls(fn=lambda x: -x, name="negation", flow=lambda t, x: math.exp(-2 * t) * x,
                   coordinatewise=True)

    @classmethod
    def affine(cls, matrix, offset) -> "NonexpansiveMap":
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float)
        norm = float(np.linalg.norm(matrix, 2))
        if norm > 1.0 + 1e-12:
            raise OperatorError(f"matrix spectral norm {norm} > 1 is expansive")
        return cls(fn=lambda x: np.vecdot(x[..., None, :], matrix) + offset, name="affine")

    @classmethod
    def linear(cls, matrix) -> "NonexpansiveMap":
        return cls.affine(matrix, np.zeros(np.asarray(matrix).shape[0]))

    @classmethod
    def rotation(cls, angle_deg: float) -> "NonexpansiveMap":
        theta = math.radians(angle_deg)
        m = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        return cls(fn=lambda x: np.vecdot(x[..., None, :], m), name=f"rotation({angle_deg})")

    @classmethod
    def projection_ball(cls, center, radius: float) -> "NonexpansiveMap":
        center = np.asarray(center, dtype=float)
        if radius < 0:
            raise OperatorError("ball radius must be nonnegative")

        def fn(x):
            diff = x - center
            norm = row_norm(diff)[..., None]
            outside = norm > radius
            scale = radius / np.where(outside, norm, 1.0)
            return np.where(outside, center + diff * scale, x)

        return cls(fn=fn, name="projection_ball")

    @classmethod
    def compose(cls, maps: Sequence["NonexpansiveMap"]) -> "NonexpansiveMap":
        parts = [m.fn for m in reversed(maps)]

        def fn(x):
            for part in parts:
                x = part(x)
            return x

        return cls(fn=fn, name="composition",
                   coordinatewise=all(m.coordinatewise for m in maps))


@dataclass(frozen=True)
class CocoerciveMap:
    fn: Callable[[np.ndarray], np.ndarray]
    beta: float
    name: str = "custom"
    # whether fn acts on each coordinate alone and also takes a Python float
    coordinatewise: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def __post_init__(self):
        if self.beta <= 0:
            raise OperatorError("cocoercivity constant must be positive")

    @classmethod
    def identity(cls) -> "CocoerciveMap":
        return cls(fn=lambda x: x, beta=1.0, name="identity", coordinatewise=True)

    @classmethod
    def zero(cls, beta: float = 1.0) -> "CocoerciveMap":
        # +0.0 at every finite x, float or array, as np.zeros_like gives
        return cls(fn=lambda x: 0.0 * x + 0.0, beta=beta, name="zero", coordinatewise=True)

    @classmethod
    def scaled_identity(cls, c: float) -> "CocoerciveMap":
        if c <= 0:
            raise OperatorError("scaled identity needs c > 0")
        return cls(fn=lambda x: c * x, beta=1.0 / c, name=f"scaled_identity({c})",
                   coordinatewise=True)

    @classmethod
    def linear_spd(cls, matrix) -> "CocoerciveMap":
        matrix = np.asarray(matrix, dtype=float)
        if not np.allclose(matrix, matrix.T):
            raise OperatorError("linear cocoercive map needs a symmetric matrix")
        eigs = np.linalg.eigvalsh(matrix)
        if eigs.min() < -1e-12:
            raise OperatorError("matrix must be positive semidefinite")
        lam_max = float(eigs.max())
        if lam_max == 0.0:
            return cls.zero()
        return cls(fn=lambda x: np.vecdot(x[..., None, :], matrix), beta=1.0 / lam_max,
                   name="linear_spd")


@dataclass(frozen=True)
class MonotoneOperator:
    """Maximally monotone operator given by its resolvent J_{gamma A}."""

    resolvent: Callable[[float, np.ndarray], np.ndarray]
    name: str = "custom"
    # whether the resolvent acts on each coordinate alone and also takes a Python float
    coordinatewise: bool = False

    def resolve(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma <= 0:
            raise OperatorError("resolvent parameter must be positive")
        return np.asarray(self.resolvent(gamma, np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def zero(cls) -> "MonotoneOperator":
        return cls(resolvent=lambda gamma, x: x, name="zero", coordinatewise=True)

    @classmethod
    def scaled_identity(cls, c: float) -> "MonotoneOperator":
        if c < 0:
            raise OperatorError("monotone scaled identity needs c >= 0")
        return cls(resolvent=lambda gamma, x: x / (1.0 + gamma * c),
                   name=f"scaled_identity({c})", coordinatewise=True)

    @classmethod
    def indicator_point(cls, point) -> "MonotoneOperator":
        """Subdifferential of the indicator of {point}; resolvent == point."""
        point = np.asarray(point, dtype=float)
        return cls(resolvent=lambda gamma, x: np.broadcast_to(point, np.shape(x)).copy(),
                   name="indicator_point")

    @classmethod
    def linear(cls, matrix) -> "MonotoneOperator":
        matrix = np.asarray(matrix, dtype=float)
        sym = (matrix + matrix.T) / 2
        if np.linalg.eigvalsh(sym).min() < -1e-12:
            raise OperatorError("linear operator must be monotone (PSD symmetric part)")
        eye = np.eye(matrix.shape[0])
        return cls(
            resolvent=lambda gamma, x: np.linalg.solve(eye + gamma * matrix, x[..., None])[..., 0],
            name="linear",
        )


@dataclass(frozen=True)
class ConvexFunction:
    """A convex function with its closed-form prox."""

    value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    name: str = "custom"
    # closed form (t, x) -> S_t x of the gradient-flow semigroup, where known
    flow: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __call__(self, x: np.ndarray):
        value = np.asarray(self.value(np.asarray(x, dtype=float)), dtype=float)
        return float(value) if value.ndim == 0 else value

    def prox_point(self, t, x: np.ndarray) -> np.ndarray:
        """argmin_y value(y) + d^2(x, y) / (2 t), in closed form; t is one
        parameter, or a column (k, 1) of per-row parameters for a stack
        x (k, d)."""
        if np.count_nonzero(np.asarray(t) <= 0):
            raise OperatorError("prox parameter must be positive")
        return np.asarray(self.prox(t, np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def quadratic(cls, scale: float = 1.0, center=None, dimension: int = 1) -> "ConvexFunction":
        """phi(x) = scale/2 * ||x - center||^2; prox_t(x) = (x + t s c)/(1 + t s)."""
        if scale <= 0:
            raise OperatorError("quadratic scale must be positive")
        c = np.zeros(dimension) if center is None else np.asarray(center, dtype=float)

        def prox(t, x):
            ts = t * scale
            return (x + ts * c) / (1.0 + ts)

        return cls(
            value=lambda x: 0.5 * scale * np.vecdot(x - c, x - c),
            prox=prox,
            flow=lambda t, x: c + math.exp(-scale * t) * (x - c),
            name=f"quadratic({scale})",
        )

    @classmethod
    def l1(cls, scale: float = 1.0) -> "ConvexFunction":
        if scale <= 0:
            raise OperatorError("l1 scale must be positive")
        return cls(
            value=lambda x: scale * np.abs(x).sum(axis=-1),
            prox=lambda t, x: np.sign(x) * np.maximum(np.abs(x) - t * scale, 0.0),
            name=f"l1({scale})",
        )

    @classmethod
    def indicator_ball(cls, center, radius: float) -> "ConvexFunction":
        center = np.asarray(center, dtype=float)
        proj = NonexpansiveMap.projection_ball(center, radius)
        return cls(
            value=lambda x: np.where(row_norm(x - center) <= radius + 1e-12, 0.0, math.inf),
            prox=lambda t, x: proj(x),
            name="indicator_ball",
        )

    @classmethod
    def indicator_box(cls, lower, upper) -> "ConvexFunction":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return cls(
            value=lambda x: np.where(
                np.all((x >= lower - 1e-12) & (x <= upper + 1e-12), axis=-1), 0.0, math.inf),
            prox=lambda t, x: np.clip(x, lower, upper),
            name="indicator_box",
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def forward_backward_map(A: MonotoneOperator, B: CocoerciveMap, gamma: float) -> NonexpansiveMap:
    """The composed map x -> J_{gamma A}(x - gamma B x).

    Valid for 0 < gamma < 2 beta; the returned map carries the cap
    delta = min(1, beta/gamma) + 1/2 on lambda in its first-order flow.
    """
    if not 0.0 < gamma < 2.0 * B.beta:
        raise OperatorError(f"gamma must lie in (0, {2.0 * B.beta}), got {gamma}")
    delta = min(1.0, B.beta / gamma) + 0.5

    resolvent, b = A.resolvent, B.fn

    def fn(x):
        return resolvent(gamma, x - gamma * b(x))

    return NonexpansiveMap(fn=fn, name="forward_backward", averaged_delta=delta,
                           coordinatewise=A.coordinatewise and B.coordinatewise)


def forward_backward_residual(A: MonotoneOperator, B: CocoerciveMap,
                              gamma: float) -> CocoerciveMap:
    """Id - T for T = :func:`forward_backward_map`: delta/2-cocoercive with
    delta = (4 beta - gamma) / (2 beta), so the second-order assumption over
    it reads gamma^2/lambda >= 2(1+theta)/delta."""
    T = forward_backward_map(A, B, gamma)
    fn = T.fn
    delta = (4 * B.beta - gamma) / (2 * B.beta)
    return CocoerciveMap(fn=lambda x: x - fn(x), beta=delta / 2, name="fb_residual",
                         coordinatewise=T.coordinatewise)


# iterations of the resolvent's fixed-point loop before it gives up
_RESOLVENT_CAP = 1_000_000


def stojkovic_resolvent(F: NonexpansiveMap, t, x: np.ndarray, tol=1e-12) -> np.ndarray:
    """Fixed point of G_{x,t}(y) = 1/(1+t) x (+) t/(1+t) F(y).

    G is a strict contraction with factor t/(1+t); plain iteration of
    y <- (x + t F(y)) / (1 + t) stops at residual d(y, G(y)) <= tol and
    returns G(y).  A stack x (k, d) may take a column t (k, 1) of per-row
    parameters and a column tol (k, 1) of per-row tolerances; each row
    iterates to its own stop, with the bits of its single-point call.  The
    parameters are checked here, once; ``_resolvent_loop`` is the iteration
    itself, which the Stojkovic semigroup calls directly for the later steps
    of a run.  A non-finite iterate raises at once.
    """
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t <= 0):
        raise OperatorError("resolvent parameter must be positive")
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, x.shape[-1])
    column = (len(xs), 1)
    return _resolvent_loop(F, np.broadcast_to(t, column), xs,
                           np.broadcast_to(np.asarray(tol, dtype=float), column)).reshape(x.shape)


def _resolvent_loop(F: NonexpansiveMap, ts: np.ndarray, xs: np.ndarray,
                    tols: np.ndarray) -> np.ndarray:
    """The resolvent iteration of :func:`stojkovic_resolvent` on a stack
    xs (k, d), with columns ts (k, 1) of positive parameters and tols (k, 1)
    of tolerances, unchecked."""
    if not len(xs):
        return xs.copy()
    fn = F.fn  # raw closure; the validating wrapper is per-call overhead here
    tols = tols.ravel().tolist()
    scale = 1.0 + ts
    out, rows = None, list(range(len(xs)))  # the rows still iterating
    y = xs
    for _ in range(_RESOLVENT_CAP):
        g = (xs + ts * np.asarray(fn(y), dtype=float)) / scale
        d = row_norm(g - y).tolist()
        if stop := [j for j, dj in enumerate(d) if dj <= tols[j]]:
            if len(stop) == len(d) and out is None:  # every row stops at once
                return g
            if out is None:
                out = np.empty_like(xs)
            out[[rows[j] for j in stop]] = g[stop]
            if len(stop) == len(d):
                return out
            left = [j for j, dj in enumerate(d) if not dj <= tols[j]]
            rows, tols = [rows[j] for j in left], [tols[j] for j in left]
            xs, ts, scale, g, d = xs[left], ts[left], scale[left], g[left], [d[j] for j in left]
        if not all(map(math.isfinite, d)):
            raise OperatorError(f"resolvent iterate of {F.name} is not finite")
        y = g
    raise IterationBudgetError(
        f"resolvent iteration exceeded {_RESOLVENT_CAP} steps "
        f"(contraction factor {float((ts / scale).max())})")


# ---------------------------------------------------------------------------
# sampled property checkers
# ---------------------------------------------------------------------------


@dataclass
class PropertyReport:
    name: str
    n_samples: int
    violations: int
    max_ratio: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.violations == 0


def ball_samples(space: SpaceDescriptor, n: int, radius: float, center=None,
                 seed: int = 0) -> np.ndarray:
    """Seeded uniform points of the cube [-1, 1]^d, mapped radially into the closed ball."""
    if n < 1:
        raise OperatorError("need at least one sample")
    center = space.zero() if center is None else space.point(center)
    cube = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, space.dimension))
    norms = np.maximum(np.linalg.norm(cube, axis=1), 1.0)
    return center + radius * cube / norms[:, None]


def check_nonexpansive(map_: NonexpansiveMap, space: SpaceDescriptor,
                       n_samples: int = 64, radius: float = 2.0,
                       seed: int = 0, tol: float = 1e-9) -> PropertyReport:
    """Max over sampled pairs of ||Tx - Ty|| / ||x - y||; pass iff <= 1 + tol."""
    xs, ys = np.split(ball_samples(space, 2 * n_samples, radius, seed=seed), 2)
    denom = row_norm(xs - ys)
    kept = denom >= 1e-14
    ratio = row_norm(map_(xs[kept]) - map_(ys[kept])) / denom[kept]
    max_ratio = float(ratio.max(initial=0.0))
    violations = int((~(ratio <= 1.0 + tol)).sum())  # a NaN ratio violates
    return PropertyReport(name=f"nonexpansive[{map_.name}]",
                          n_samples=n_samples, violations=violations,
                          max_ratio=max_ratio, tol=tol)


def check_cocoercive(B: CocoerciveMap, space: SpaceDescriptor,
                     n_samples: int = 64, radius: float = 2.0,
                     seed: int = 0, tol: float = 1e-9) -> PropertyReport:
    """Sampled check of beta ||Bx - By||^2 <= <x - y, Bx - By>."""
    xs, ys = np.split(ball_samples(space, 2 * n_samples, radius, seed=seed), 2)
    db = B(xs) - B(ys)
    lhs = B.beta * np.vecdot(db, db)
    rhs = np.vecdot(xs - ys, db)
    ratio = np.full(n_samples, math.inf)
    np.divide(lhs, rhs, out=ratio, where=rhs > tol)
    ratio[(lhs <= tol) & (rhs <= tol)] = 1.0
    max_ratio = float(ratio.max())
    violations = int((ratio > 1.0 + tol).sum())
    return PropertyReport(name=f"cocoercive[{B.name}]",
                          n_samples=n_samples, violations=violations,
                          max_ratio=max_ratio, tol=tol)


# ---------------------------------------------------------------------------
# config-addressable zoo
# ---------------------------------------------------------------------------


def _rotation(spec: Config, d: int) -> tuple[float]:
    """The angle of a rotation of the plane; on any other space ``op`` is
    refused."""
    if d != 2:
        spec.refuse("op", "rotation", f"an operator of R^{d} (a rotation acts on R^2)")
    return (spec.number("angle_deg"),)


# op -> (constructor, read of its typed parameters from the spec at dimension d)
_NONEXPANSIVE = {
    "identity": (NonexpansiveMap.identity, lambda s, d: ()),
    "scalar": (NonexpansiveMap.scalar, lambda s, d: (s.number("c"),)),
    "negation": (NonexpansiveMap.negation, lambda s, d: ()),
    "affine": (NonexpansiveMap.affine,
               lambda s, d: (s.matrix("matrix", d), s.vector("offset", d))),
    "linear": (NonexpansiveMap.linear, lambda s, d: (s.matrix("matrix", d),)),
    "rotation": (NonexpansiveMap.rotation, _rotation),
    "projection_ball": (NonexpansiveMap.projection_ball,
                        lambda s, d: (s.vector("center", d), s.number("radius"))),
}
_COCOERCIVE = {
    "identity": (CocoerciveMap.identity, lambda s, d: ()),
    "zero": (CocoerciveMap.zero, lambda s, d: (s.number("beta", 1.0),)),
    "scaled_identity": (CocoerciveMap.scaled_identity, lambda s, d: (s.number("c"),)),
    "linear_spd": (CocoerciveMap.linear_spd, lambda s, d: (s.matrix("matrix", d),)),
}
_MONOTONE = {
    "zero": (MonotoneOperator.zero, lambda s, d: ()),
    "scaled_identity": (MonotoneOperator.scaled_identity, lambda s, d: (s.number("c"),)),
    "indicator_point": (MonotoneOperator.indicator_point, lambda s, d: (s.vector("point", d),)),
    "linear": (MonotoneOperator.linear, lambda s, d: (s.matrix("matrix", d),)),
}
_QUADRATIC = (ConvexFunction.quadratic,
              lambda s, d: (s.number("scale", 1.0), s.vector("center", d, None), d))
_CONVEX = {
    "quadratic": _QUADRATIC,
    "quad_prox": _QUADRATIC,
    "l1": (ConvexFunction.l1, lambda s, d: (s.number("scale", 1.0),)),
    "indicator_ball": (ConvexFunction.indicator_ball,
                       lambda s, d: (s.vector("center", d), s.number("radius"))),
    "indicator_box": (ConvexFunction.indicator_box,
                      lambda s, d: (s.vector("lower", d), s.vector("upper", d))),
}


def make_nonexpansive(space: SpaceDescriptor, spec: dict) -> NonexpansiveMap:
    return Config.of(spec).build("op", _NONEXPANSIVE, space.dimension)


def make_cocoercive(space: SpaceDescriptor, spec: dict) -> CocoerciveMap:
    return Config.of(spec).build("op", _COCOERCIVE, space.dimension)


def make_monotone(space: SpaceDescriptor, spec: dict) -> MonotoneOperator:
    return Config.of(spec).build("op", _MONOTONE, space.dimension)


def make_convex_function(space: SpaceDescriptor, spec: dict) -> ConvexFunction:
    return Config.of(spec).build("op", _CONVEX, space.dimension)
