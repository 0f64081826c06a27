"""Counterfunctions: the adversary functions f: N -> N of metastability bounds.

The certificate recursions evaluate counterfunctions at single points, take
exact maxima of ``f`` (and of ``n + f(n)``) over integer intervals whose
endpoints can be astronomically large, and iterate ``f~(n) = n + f(n)``.
Every counterfunction is stored in one normal form: finitely many exceptions
``n -> f(n)`` over an affine tail ``a*n + b`` (a, b >= 0), which keeps all
three operations exact: an interval maximum looks at the exceptions inside
the interval and the tail at its largest other point, and the iteration
steps point by point only at exceptions and on a sloped tail before the last
exception; a constant tail jumps from one exception key to the next and
finishes in closed form past the last, and a tail of slope a >= 1 at least
doubles the iterate each step, so it passes the budget within the budget's
bit length.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Union

from .config import Config
from .exact import BudgetExceeded, budget_limit, guard

__all__ = ["Counterfunction", "iterate_tilde", "max_on", "max_tilde_on"]

_ITERATION_CAP = 500_000  # rounds (a point step or a jump) of the f~ iteration before overflow


class Counterfunction:
    """Total function on the naturals from a closed combinator family.

    Kinds: ``constant(k)``, ``identity_plus(k)`` (n + k), ``linear(a, b)``
    (a*n + b with a, b >= 0), ``table`` (finite exceptions over a constant
    default), ``composition`` (outer o inner).  Each is built into its normal
    form ``exceptions`` over the tail ``a*n + b``; its kind and parameters
    only name it in ``to_spec``.
    """

    __slots__ = ("kind", "params", "exceptions", "a", "b", "keys")

    def __init__(self, kind: str, **params):
        if kind not in _NORMAL_FORMS:
            raise ValueError(f"unknown counterfunction kind {kind!r}")
        self.kind = kind
        self.params = params
        exceptions, self.a, self.b = _NORMAL_FORMS[kind](**params)
        if self.a < 0 or self.b < 0 or any(n < 0 or v < 0 for n, v in exceptions.items()):
            raise ValueError(f"{kind} counterfunction needs coefficients and entries >= 0")
        # an exception equal to the tail is no exception
        self.exceptions = {n: v for n, v in exceptions.items() if v != self.a * n + self.b}
        self.keys = sorted(self.exceptions)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, k: int) -> "Counterfunction":
        return cls("constant", k=int(k))

    @classmethod
    def identity_plus(cls, k: int = 0) -> "Counterfunction":
        return cls("identity_plus", k=int(k))

    @classmethod
    def linear(cls, a: int, b: int) -> "Counterfunction":
        return cls("linear", a=int(a), b=int(b))

    @classmethod
    def table(cls, values: dict, default: int) -> "Counterfunction":
        return cls("table", values={int(n): int(v) for n, v in values.items()},
                   default=int(default))

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
        return {"kind": self.kind, **{key: value.to_spec() if isinstance(value, Counterfunction)
                                      else dict(value) if isinstance(value, dict) else value
                                      for key, value in self.params.items()}}

    # -- evaluation ----------------------------------------------------------

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("counterfunctions are defined on the naturals")
        return self.exceptions.get(n, self.a * n + self.b)

    @property
    def is_nondecreasing(self) -> bool:
        """Exact: the tail is nondecreasing, so a descent f(p) > f(p + 1)
        has an exception at p or p + 1."""
        return all(self(p) <= self(p + 1) for key in self.exceptions
                   for p in (key - 1, key) if p >= 0)

    def __repr__(self) -> str:
        return f"Counterfunction({self.to_spec()})"


def _compose(outer: Counterfunction, inner: Counterfunction) -> tuple[dict, int, int]:
    """The normal form of outer o inner: inner's exceptions map through
    outer; off them, inner is its tail, and outer's exceptions at their
    preimages under that tail stay exceptions."""
    exceptions = {n: outer(v) for n, v in inner.exceptions.items()}
    if inner.a == 0:
        return exceptions, 0, outer(inner.b)
    for m, v in outer.exceptions.items():
        n, r = divmod(m - inner.b, inner.a)
        if r == 0 and n >= 0:
            exceptions.setdefault(n, v)
    return exceptions, outer.a * inner.a, outer.a * inner.b + outer.b


# kind -> its parameters' normal form (exceptions, a, b)
_NORMAL_FORMS = {
    "constant": lambda k: ({}, 0, k),
    "identity_plus": lambda k: ({}, 1, k),
    "linear": lambda a, b: ({}, a, b),
    "table": lambda values, default: (values, 0, default),
    "composition": _compose,
}

# config kind -> (constructor, read of its typed parameters)
_SPEC_KINDS = {
    "constant": (Counterfunction.constant, lambda s: (s.natural("k"),)),
    "identity_plus": (Counterfunction.identity_plus, lambda s: (s.natural("k", 0),)),
    "linear": (Counterfunction.linear, lambda s: (s.natural("a"), s.natural("b", 0))),
    "table": (Counterfunction.table,
              lambda s: (_table(s.spec("values", {})), s.natural("default"))),
}


def _table(values: Config) -> dict:
    """The entries n: f(n) of a table spec, keys and values naturals."""
    convert, want = Config.NATURAL
    table = {}
    for key in values:
        try:
            n = convert(key)
        except (TypeError, ValueError, ArithmeticError):
            values.refuse(key, key, f"keyed by {want}")
        table[n] = values.natural(key)
    return table


def _interval_max(f: Counterfunction, lo: int, hi: int, shift: int) -> int:
    """Exact max of shift * n + f(n) over the integer interval [lo, hi],
    for shift 0 or 1: the exceptions inside it, and the nondecreasing tail
    at its largest point that is no exception."""
    if hi < lo:
        raise ValueError("empty interval")
    candidates = [shift * n + v for n, v in f.exceptions.items() if lo <= n <= hi]
    n = hi
    while n >= lo and n in f.exceptions:
        n -= 1
    if n >= lo:
        candidates.append((shift + f.a) * n + f.b)
    return max(candidates)


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

    ``floor_value = 0`` gives the plain f~ iteration.  The iterate steps
    under the value and iteration budgets, stopping at a fixed point.  Off
    the exceptions of a counterfunction it is on the tail: a constant step
    jumps in one go to the next exception key (or finishes the count in
    closed form past the last one), and past the last exception a slope
    a >= 1 at least doubles the value each step.
    """
    if count < 0:
        raise ValueError("iteration count must be nonnegative")
    value = 0
    steps = 0
    rounds = 0
    while steps < count:
        step = max(f(value), floor_value)
        if step == 0:
            return value
        jump = 1
        if isinstance(f, Counterfunction) and value not in f.exceptions:
            i = bisect_right(f.keys, value)
            if f.a == 0:
                # no point below f.keys[i] is an exception: each steps by `step`
                jump = count - steps if i == len(f.keys) else \
                    min(count - steps, -((value - f.keys[i]) // step))
            elif i == len(f.keys) and count - steps > budget_limit().bit_length():
                raise BudgetExceeded("iterate count forces value past budget")
        value = guard(value + jump * step)
        steps += jump
        rounds += 1
        if rounds > _ITERATION_CAP:
            raise BudgetExceeded("iteration budget exceeded")
    return value
