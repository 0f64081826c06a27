"""Counterfunctions: the adversary functions f: N -> N of metastability bounds.

The certificate recursions evaluate counterfunctions at single points, take
exact maxima of ``f`` (and of ``n + f(n)``) over integer intervals whose
endpoints can be astronomically large, and iterate ``f~(n) = n + f(n)``.
A small closed family keeps all three operations exact and cheap; anything
outside the family falls back to bounded brute force.
"""

from __future__ import annotations

from typing import Callable, Union

from .config import Config
from .exact import BudgetExceeded, budget_limit, guard

__all__ = ["Counterfunction", "iterate_tilde", "max_on", "max_tilde_on"]

_BRUTE_FORCE_CAP = 100_000
_ITERATION_CAP = 500_000  # steps of the plain f~ iteration before overflow
_AFFINE = ("constant", "identity_plus", "linear")


class Counterfunction:
    """Total function on the naturals from a closed combinator family.

    Kinds: ``constant(k)``, ``identity_plus(k)`` (n + k), ``linear(a, b)``
    (a*n + b with a, b >= 0), ``table`` (finite exceptions over a constant
    default), ``composition`` (outer o inner).  The first three are one
    affine family a*n + b, with a = 0, 1 and a; their kind only names them
    in ``to_spec``.
    """

    __slots__ = ("kind", "a", "b", "values", "default", "outer", "inner")

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.a = params.get("a")
        self.b = params.get("b")
        self.values = params.get("values")
        self.default = params.get("default")
        self.outer = params.get("outer")
        self.inner = params.get("inner")
        self._validate()

    @property
    def is_affine(self) -> bool:
        return self.kind in _AFFINE

    def _validate(self) -> None:
        if self.is_affine:
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                raise ValueError(f"{self.kind} counterfunction needs coefficients >= 0")
        elif self.kind == "table":
            if self.default is None or self.default < 0:
                raise ValueError("table counterfunction needs a default >= 0")
            self.values = {int(n): int(v) for n, v in (self.values or {}).items()}
            if any(n < 0 or v < 0 for n, v in self.values.items()):
                raise ValueError("table entries must be nonnegative")
        elif self.kind == "composition":
            if not isinstance(self.outer, Counterfunction) or not isinstance(
                self.inner, Counterfunction
            ):
                raise ValueError("composition needs two counterfunctions")
        else:
            raise ValueError(f"unknown counterfunction kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, k: int) -> "Counterfunction":
        return cls("constant", a=0, b=int(k))

    @classmethod
    def identity_plus(cls, k: int = 0) -> "Counterfunction":
        return cls("identity_plus", a=1, b=int(k))

    @classmethod
    def linear(cls, a: int, b: int) -> "Counterfunction":
        return cls("linear", a=int(a), b=int(b))

    @classmethod
    def table(cls, values: dict, default: int) -> "Counterfunction":
        return cls("table", values=dict(values), default=int(default))

    @classmethod
    def compose(cls, outer: "Counterfunction", inner: "Counterfunction") -> "Counterfunction":
        return cls("composition", outer=outer, inner=inner)

    @classmethod
    def from_spec(cls, spec: Union[dict, int, "Counterfunction"]) -> "Counterfunction":
        """Build from the declarative config form (safe combinators only): a
        mapping, read through ``config.Config``, or an integer k for
        ``constant(k)``."""
        if isinstance(spec, Counterfunction):
            return spec
        if isinstance(spec, int):
            return cls.constant(spec)
        return Config.of(spec).build("kind", _SPEC_KINDS)

    def to_spec(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "a": self.a, "b": self.b}
        if self.is_affine:
            return {"kind": self.kind, "k": self.b}
        if self.kind == "table":
            return {"kind": "table", "values": dict(self.values), "default": self.default}
        return {
            "kind": "composition",
            "outer": self.outer.to_spec(),
            "inner": self.inner.to_spec(),
        }

    # -- evaluation ----------------------------------------------------------

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("counterfunctions are defined on the naturals")
        if self.is_affine:
            return self.a * n + self.b
        if self.kind == "table":
            return self.values.get(n, self.default)
        return self.outer(self.inner(n))

    @property
    def is_nondecreasing(self) -> bool:
        if self.is_affine:
            return True
        if self.kind == "table":
            probes = set()
            for key in self.values:
                probes.update((key - 1, key))
            return all(self(p) <= self(p + 1) for p in probes if p >= 0)
        return self.outer.is_nondecreasing and self.inner.is_nondecreasing

    def __repr__(self) -> str:
        return f"Counterfunction({self.to_spec()})"


# config kind -> (constructor, read of its typed parameters)
_SPEC_KINDS = {
    "constant": (Counterfunction.constant, lambda s: (s.integer("k"),)),
    "identity_plus": (Counterfunction.identity_plus, lambda s: (s.integer("k", 0),)),
    "linear": (Counterfunction.linear, lambda s: (s.integer("a"), s.integer("b", 0))),
    "table": (Counterfunction.table,
              lambda s: (_table(s.spec("values", {})), s.integer("default"))),
}


def _table(values: Config) -> dict:
    return {n: values.integer(n) for n in values}


def _brute_max(fn: Callable[[int], int], lo: int, hi: int) -> int:
    if hi - lo > _BRUTE_FORCE_CAP:
        raise BudgetExceeded("interval too large for brute-force maximum")
    return max(fn(n) for n in range(lo, hi + 1))


def _interval_max(f: Counterfunction, lo: int, hi: int, shift: int) -> int:
    """Exact max of shift * n + f(n) over the integer interval [lo, hi],
    for shift 0 or 1."""
    if hi < lo:
        raise ValueError("empty interval")
    if f.is_affine:
        return (shift + f.a) * hi + f.b
    if f.kind == "table":
        candidates = [shift * n + v for n, v in f.values.items() if lo <= n <= hi]
        # the largest point of [lo, hi] the table leaves at its default
        n = hi
        while n >= lo and n in f.values:
            n -= 1
        if n >= lo:
            candidates.append(shift * n + f.default)
        return max(candidates)
    if f.is_nondecreasing:
        return shift * hi + f(hi)
    return _brute_max(lambda n: shift * n + f(n), lo, hi)


def max_on(f: Counterfunction, lo: int, hi: int) -> int:
    """Exact max of f over the integer interval [lo, hi]."""
    return _interval_max(f, lo, hi, 0)


def max_tilde_on(f: Counterfunction, lo: int, hi: int) -> int:
    """Exact max of n + f(n) over [lo, hi]."""
    return _interval_max(f, lo, hi, 1)


def iterate_tilde(
    f: Union[Counterfunction, Callable[[int], int]],
    count: int,
    floor_value: int = 0,
) -> int:
    """Evaluate f'~^(count)(0) where f'(n) = max(f(n), floor_value).

    ``floor_value = 0`` gives the plain f~ iteration.  Uses closed forms for
    the affine kinds, detects fixed points, and otherwise loops under the
    value and iteration budgets.
    """
    if count < 0:
        raise ValueError("iteration count must be nonnegative")
    if count == 0:
        return 0
    if isinstance(f, Counterfunction) and f.is_affine:
        if f.a == 0:
            return guard(count * max(f.b, floor_value))
        if floor_value == 0:
            # f~(n) = (1+a) n + b starting from 0
            if f.b == 0:
                return 0
            if count > budget_limit().bit_length():
                raise BudgetExceeded("iterate count forces value past budget")
            return guard(f.b * ((1 + f.a) ** count - 1) // f.a)
    value = 0
    steps = 0
    while steps < count:
        step = max(f(value), floor_value)
        if step == 0:
            return value
        value = guard(value + step)
        steps += 1
        if steps > _ITERATION_CAP:
            raise BudgetExceeded("iteration budget exceeded")
    return value
