"""Exact arithmetic backing the certificate calculators.

Two pieces live here:

* :class:`ExtendedNatural` -- the value type of all certificates: an exact
  nonnegative integer, or an explicit ``overflow`` sentinel once a value (or
  the work needed to produce it) exceeds the configured budget, with the
  trace its calculator recorded.

* :class:`Real` -- an exact real number, stored either as a rational
  (``fractions.Fraction``) or as an adaptive rational enclosure ``[lo, hi]``
  that can be refined to any precision.  Rational inputs flowing through
  ``+ - * /`` stay exact; only genuinely irrational nodes (square roots of
  non-squares, ``exp``, fractional powers) introduce intervals.  Ceilings,
  floors and signs refine the enclosure until the answer is determined, so
  the integer-valued certificate formulas never suffer an off-by-one from
  rounding.  One loop (``_refine``) doubles the precision for all of them,
  up to 16,384 bits; the outward ceiling ``ceil_upper`` stops at 256 bits
  on an enclosure that straddles one integer and rounds up.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Callable, Optional, TypeVar, Union

__all__ = [
    "BudgetExceeded",
    "PrecisionExhausted",
    "ExtendedNatural",
    "Real",
    "R",
    "budget_limit",
    "set_budget_bits",
    "get_budget_bits",
    "guard",
]


class BudgetExceeded(Exception):
    """A certificate value or iteration count crossed the configured budget."""


class PrecisionExhausted(Exception):
    """An enclosure could not be refined enough to determine a ceiling/sign."""


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

_DEFAULT_BUDGET_BITS = 256

_budget_bits = int(os.environ.get("FEJERFLOW_BUDGET_BITS", _DEFAULT_BUDGET_BITS))

# exp() arguments beyond this are astronomically large; every certificate
# formula using them overflows the value budget anyway, so refuse early.
_EXP_ARG_CAP = 100_000
# the same work cap for exact powers and roots: one whose integers would pass
# about this many bits (exp(_EXP_ARG_CAP) has 144,270) is refused likewise
_POW_BITS_CAP = 1 << 18


def set_budget_bits(bits: int) -> None:
    global _budget_bits
    if bits < 8:
        raise ValueError("budget must be at least 8 bits")
    _budget_bits = int(bits)


def get_budget_bits() -> int:
    return _budget_bits


def budget_limit() -> int:
    """Largest integer a certificate may reach before collapsing to overflow."""
    return 1 << _budget_bits


def guard(n: int) -> int:
    """Pass ``n`` through, raising :class:`BudgetExceeded` above the budget."""
    if n > budget_limit():
        raise BudgetExceeded(f"value exceeds 2^{_budget_bits}")
    return n


# ---------------------------------------------------------------------------
# ExtendedNatural
# ---------------------------------------------------------------------------


class ExtendedNatural:
    """Exact nonnegative integer with an explicit overflow sentinel.

    A value above ``budget_limit()`` collapses to overflow.  ``trace`` is
    what the calculator recorded on the way: its levels, or
    ``{"overflow": reason}``.
    """

    __slots__ = ("value", "trace")

    def __init__(self, value: Optional[int], trace: Optional[dict] = None):
        if value is not None:
            value = int(value)
            if value < 0:
                raise ValueError("ExtendedNatural must be nonnegative")
            if value > budget_limit():
                value = None
        self.value = value
        self.trace = {} if trace is None else trace

    @classmethod
    def overflow(cls, reason: Optional[str] = None) -> "ExtendedNatural":
        return cls(None, {"overflow": reason} if reason else None)

    @property
    def is_overflow(self) -> bool:
        return self.value is None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, ExtendedNatural):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("ExtendedNatural", self.value))

    def __repr__(self) -> str:
        return "ExtendedNatural(overflow)" if self.is_overflow else f"ExtendedNatural({self.value})"

    def to_json(self) -> Union[int, str]:
        return "overflow" if self.is_overflow else self.value


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():
        return 1  # 2^k > n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _work_cap(bits: int, what: str) -> None:
    if bits > _POW_BITS_CAP:
        raise BudgetExceeded(f"{what} too large to evaluate")


def _pow(q: Fraction, k: int) -> Fraction:
    """q ** k, refused past the work cap."""
    _work_cap(abs(k) * (max(q.numerator.bit_length(), q.denominator.bit_length()) - 1),
              "exact power")
    return q ** k


def _dyadic_floor(q: Fraction, bits: int) -> Fraction:
    scaled = q * (1 << bits)
    return Fraction(math.floor(scaled), 1 << bits)


def _dyadic_ceil(q: Fraction, bits: int) -> Fraction:
    scaled = q * (1 << bits)
    return Fraction(math.ceil(scaled), 1 << bits)


# ---------------------------------------------------------------------------
# directed-rounding kernels for irrational primitives
# ---------------------------------------------------------------------------


def root_bounds(q: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the k-th root of q >= 0 with width about 2^-bits."""
    if q < 0:
        raise ValueError("root of negative value")
    if q == 0:
        return Fraction(0), Fraction(0)
    num, den = q.numerator, q.denominator
    _work_cap(k * (bits + den.bit_length()), "root")
    big = num * den ** (k - 1) << (k * bits)
    r = iroot(big, k)
    scale = den << bits
    if r ** k == big:
        exact = Fraction(r, scale)
        return exact, exact
    return Fraction(r, scale), Fraction(r + 1, scale)


def exact_root(q: Fraction, k: int) -> Optional[Fraction]:
    """The k-th root of q if it is rational, else None."""
    if q < 0:
        return None
    rn, rd = iroot(q.numerator, k), iroot(q.denominator, k)
    if rn ** k == q.numerator and rd ** k == q.denominator:
        return Fraction(rn, rd)
    return None


def exp_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of exp(q) via scaled Taylor series with directed rounding."""
    if q == 0:
        return Fraction(1), Fraction(1)
    if q < 0:
        lo, hi = exp_bounds(-q, bits + 4)
        return 1 / hi, 1 / lo
    if q > _EXP_ARG_CAP:
        raise BudgetExceeded("exp argument too large to evaluate")
    s = 0
    y = q
    half = Fraction(1, 2)
    while y > half:
        y /= 2
        s += 1
    m = bits + 2 * s + 16
    # Taylor at y in (0, 1/2]: after adding term_i, tail <= term_i.
    target = Fraction(1, 1 << (m + 2))
    total = Fraction(1)
    term = Fraction(1)
    i = 0
    while True:
        i += 1
        term = term * y / i
        total += term
        if term <= target:
            break
    lo = _dyadic_floor(total, m)
    hi = _dyadic_ceil(total + term, m)
    for _ in range(s):
        lo = _dyadic_floor(lo * lo, m)
        hi = _dyadic_ceil(hi * hi, m)
    return lo, hi


# ---------------------------------------------------------------------------
# Real: exact rational or adaptive enclosure
# ---------------------------------------------------------------------------

_MAX_BITS = 16384
# an integer-valued term never decides its ceiling; from here an outward
# ceiling of an enclosure that straddles one integer rounds up past it
_STRADDLE_BITS = 256

_T = TypeVar("_T")


def _refine(decide: Callable[[int], Optional[_T]], what: str, bits: int = 64) -> _T:
    """The first answer of ``decide`` at precisions bits, 2 bits, ... up to
    ``_MAX_BITS``; ``decide`` returns None while the enclosure cannot
    decide."""
    while True:
        answer = decide(bits)
        if answer is not None:
            return answer
        bits *= 2
        if bits > _MAX_BITS:
            raise PrecisionExhausted(f"{what} undetermined at maximum precision")


def _decided(f: Callable[[Fraction], _T], bounds: tuple[Fraction, Fraction]) -> Optional[_T]:
    """f on the enclosure when both ends agree, else None."""
    lo, hi = f(bounds[0]), f(bounds[1])
    return lo if lo == hi else None


def _nonzero(bounds: tuple[Fraction, Fraction]) -> Optional[tuple[Fraction, Fraction]]:
    return None if bounds[0] <= 0 <= bounds[1] else bounds


def _positive(bounds: tuple[Fraction, Fraction]) -> Optional[tuple[Fraction, Fraction]]:
    return bounds if bounds[0] > 0 else None


RealLike = Union["Real", int, float, Fraction, str]


class Real:
    """Exact real: a rational, or a lazily refinable rational enclosure."""

    __slots__ = ("exact", "_fn", "_cache")

    def __init__(self, exact: Optional[Fraction] = None,
                 fn: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None):
        self.exact = exact
        self._fn = fn
        self._cache: dict[int, tuple[Fraction, Fraction]] = {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(x: RealLike) -> "Real":
        if isinstance(x, Real):
            return x
        if isinstance(x, str):
            return Real(exact=Fraction(x))
        if isinstance(x, float):
            if not math.isfinite(x):
                raise ValueError("Real requires a finite value")
            return Real(exact=Fraction(x))
        return Real(exact=Fraction(x))

    # -- enclosure ---------------------------------------------------------

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        cached = self._cache.get(bits)
        if cached is None:
            cached = self._fn(bits)
            self._cache[bits] = cached
        return cached

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RealLike) -> "Real":
        other = Real.of(other)
        if self.exact is not None and other.exact is not None:
            return Real(exact=self.exact + other.exact)

        def fn(bits, a=self, b=other):
            alo, ahi = a.bounds(bits)
            blo, bhi = b.bounds(bits)
            return alo + blo, ahi + bhi

        return Real(fn=fn)

    __radd__ = __add__

    def __neg__(self) -> "Real":
        if self.exact is not None:
            return Real(exact=-self.exact)

        def fn(bits, a=self):
            lo, hi = a.bounds(bits)
            return -hi, -lo

        return Real(fn=fn)

    def __sub__(self, other: RealLike) -> "Real":
        return self + (-Real.of(other))

    def __rsub__(self, other: RealLike) -> "Real":
        return Real.of(other) + (-self)

    def __mul__(self, other: RealLike) -> "Real":
        other = Real.of(other)
        if self.exact is not None and other.exact is not None:
            return Real(exact=self.exact * other.exact)

        def fn(bits, a=self, b=other):
            alo, ahi = a.bounds(bits)
            blo, bhi = b.bounds(bits)
            prods = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return min(prods), max(prods)

        return Real(fn=fn)

    __rmul__ = __mul__

    def __truediv__(self, other: RealLike) -> "Real":
        other = Real.of(other)
        if other.exact is not None:
            if other.exact == 0:
                raise ZeroDivisionError("Real division by zero")
            if self.exact is not None:
                return Real(exact=self.exact / other.exact)

        def fn(bits, a=self, b=other):
            blo, bhi = _refine(lambda p: _nonzero(b.bounds(p)), "divisor sign", bits)
            alo, ahi = a.bounds(bits)
            quots = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
            return min(quots), max(quots)

        return Real(fn=fn)

    def __rtruediv__(self, other: RealLike) -> "Real":
        return Real.of(other) / self

    def sqrt(self) -> "Real":
        if self.exact is not None:
            root = exact_root(self.exact, 2)
            if root is not None:
                return Real(exact=root)

        def fn(bits, a=self):
            lo, hi = a.bounds(bits)
            if hi < 0:
                raise ValueError("sqrt of negative enclosure")
            lo = max(lo, Fraction(0))
            return root_bounds(lo, 2, bits)[0], root_bounds(hi, 2, bits)[1]

        return Real(fn=fn)

    def exp(self) -> "Real":
        if self.exact is not None and self.exact == 0:
            return Real(exact=Fraction(1))

        def fn(bits, a=self):
            lo, hi = a.bounds(bits)
            return exp_bounds(lo, bits)[0], exp_bounds(hi, bits)[1]

        return Real(fn=fn)

    def powq(self, q: Union[int, Fraction]) -> "Real":
        """self ** q for rational q; base must be positive unless q is a
        nonnegative integer."""
        q = Fraction(q)
        if q.denominator == 1:
            return self._int_pow(int(q))
        a, b = q.numerator, q.denominator
        if self.exact is not None:
            base = _pow(self.exact, a)
            root = exact_root(base, b)
            if root is not None:
                return Real(exact=root)

        def fn(bits, s=self, a=a, b=b):
            lo, hi = _refine(lambda p: _positive(s.bounds(p)), "base sign", bits)
            plo, phi = _pow(lo, a), _pow(hi, a)
            if plo > phi:
                plo, phi = phi, plo
            return root_bounds(plo, b, bits)[0], root_bounds(phi, b, bits)[1]

        return Real(fn=fn)

    def _int_pow(self, k: int) -> "Real":
        if self.exact is not None:
            return Real(exact=_pow(self.exact, k))

        def fn(bits, a=self, k=k):
            lo, hi = a.bounds(bits)
            if k >= 0 and lo >= 0:
                return _pow(lo, k), _pow(hi, k)
            cands = (_pow(lo, k), _pow(hi, k))
            lo2, hi2 = min(cands), max(cands)
            if k >= 0 and k % 2 == 0 and lo < 0 < hi:
                lo2 = Fraction(0)
            return lo2, hi2

        return Real(fn=fn)

    # -- lattice -----------------------------------------------------------

    @staticmethod
    def _lattice(pick: Callable, xs: tuple) -> "Real":
        """``pick`` (min or max) of xs, taken on each end of the enclosures."""
        reals = [Real.of(x) for x in xs]
        if all(r.exact is not None for r in reals):
            return Real(exact=pick(r.exact for r in reals))

        def fn(bits, rs=reals):
            bs = [r.bounds(bits) for r in rs]
            return pick(b[0] for b in bs), pick(b[1] for b in bs)

        return Real(fn=fn)

    @staticmethod
    def minimum(*xs: RealLike) -> "Real":
        return Real._lattice(min, xs)

    @staticmethod
    def maximum(*xs: RealLike) -> "Real":
        return Real._lattice(max, xs)

    # -- integer extraction -------------------------------------------------

    def ceil(self) -> int:
        if self.exact is not None:
            return math.ceil(self.exact)
        return _refine(lambda bits: _decided(math.ceil, self.bounds(bits)), "ceiling")

    def ceil_upper(self) -> int:
        """An integer at least self: the ceiling of the upper bound once it
        equals the lower bound's, once the enclosure straddles exactly one
        integer (from ``_STRADDLE_BITS`` on), or at the last precision."""
        if self.exact is not None:
            return math.ceil(self.exact)

        def decide(bits):
            lo, hi = (math.ceil(q) for q in self.bounds(bits))
            if hi == lo or (bits >= _STRADDLE_BITS and hi == lo + 1) or bits == _MAX_BITS:
                return hi
            return None

        return _refine(decide, "outward ceiling")

    def floor(self) -> int:
        if self.exact is not None:
            return math.floor(self.exact)
        return _refine(lambda bits: _decided(math.floor, self.bounds(bits)), "floor")

    def is_positive(self) -> bool:
        if self.exact is not None:
            return self.exact > 0
        return _refine(lambda bits: _decided(lambda q: q > 0, self.bounds(bits)), "sign")

    def lt(self, other: RealLike) -> bool:
        """Strict comparison: the sign of other - self, whose enclosure is
        [olo - shi, ohi - slo]."""
        other = Real.of(other)
        if self.exact is not None and other.exact is not None:
            return self.exact < other.exact
        return (other - self).is_positive()

    def to_float(self) -> float:
        """self, or the midpoint of its enclosure, as a float; +-inf past
        the floats."""
        lo, hi = self.bounds(128)
        mid = (lo + hi) / 2
        try:
            return float(mid)
        except OverflowError:
            return math.inf if mid > 0 else -math.inf

    def to_fraction_upper(self, bits: int = 128) -> Fraction:
        return self.bounds(bits)[1]

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"Real({self.exact})"
        lo, hi = self.bounds(64)
        return f"Real[{float(lo):.6g}, {float(hi):.6g}]"


def R(x: RealLike) -> Real:
    """Shorthand constructor for :class:`Real`."""
    return Real.of(x)
