"""Exact arithmetic: enclosures, directed rounding, budget sentinel."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from fejerflow.exact import (
    BudgetExceeded,
    ExtendedNatural,
    PrecisionExhausted,
    R,
    Real,
    exact_root,
    exp_bounds,
    get_budget_bits,
    guard,
    iroot,
    root_bounds,
    set_budget_bits,
)

rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=1000)
positive_rationals = st.fractions(min_value=Fraction(1, 1000),
                                  max_value=Fraction(50), max_denominator=1000)


class TestExtendedNatural:
    def test_overflow_carries_its_reason(self):
        ov = ExtendedNatural.overflow("value exceeds 2^8")
        assert ov.is_overflow and ov.to_json() == "overflow"
        assert ov.trace == {"overflow": "value exceeds 2^8"}
        assert ExtendedNatural.overflow().trace == {}
        assert ExtendedNatural(3, {"P": 1}).trace == {"P": 1}
        assert ExtendedNatural(3).trace == {}

    def test_budget_collapse(self):
        huge = ExtendedNatural(1 << (get_budget_bits() + 1))
        assert huge.is_overflow

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtendedNatural(-1)

    def test_guard(self):
        assert guard(10) == 10
        with pytest.raises(BudgetExceeded):
            guard(1 << (get_budget_bits() + 1))


class TestDirectedKernels:
    @given(positive_rationals)
    @settings(max_examples=200, deadline=None)
    def test_sqrt_bounds_contain(self, q):
        lo, hi = root_bounds(q, 2, 64)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 2 ** 60)

    @given(st.fractions(min_value=Fraction(-30), max_value=Fraction(30),
                        max_denominator=500))
    @settings(max_examples=100, deadline=None)
    def test_exp_bounds_contain_mpmath(self, q):
        lo, hi = exp_bounds(q, 80)
        with mpmath.workprec(160):
            true = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true
            assert true <= mpmath.mpf(hi.numerator) / hi.denominator

    def test_exp_large_arg_budget(self):
        with pytest.raises(BudgetExceeded):
            exp_bounds(Fraction(10 ** 9), 64)

    @given(st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_iroot(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    def test_root_bounds(self):
        lo, hi = root_bounds(Fraction(2), 3, 64)
        assert lo ** 3 <= 2 <= hi ** 3


class TestReal:
    def test_exact_rational_chain(self):
        x = (R("2/3") + R("1/6")) * 2 - R("1/3")
        assert x.exact == Fraction(4, 3)

    def test_sqrt_perfect_square_stays_exact(self):
        assert R("9/4").sqrt().exact == Fraction(3, 2)

    def test_irrational_sqrt_ceiling(self):
        assert (R(6) * R(2).sqrt()).ceil() == 9
        assert (R(2).sqrt() + R(2).sqrt()).floor() == 2

    def test_exp_ceiling(self):
        # ceil(e^2) = 8
        assert R(2).exp().ceil() == 8

    def test_division_and_sign(self):
        x = R(1) / (R(3) - R(2).sqrt())
        assert x.is_positive()
        assert x.ceil() == 1

    def test_powq(self):
        assert R(8).powq(Fraction(1, 3)).exact == 2
        val = R(2).powq(Fraction(3, 2))
        assert abs(val.to_float() - 2 ** 1.5) < 1e-12

    def test_minimum_maximum(self):
        m = Real.minimum(R(3), R(2).sqrt(), R("7/5"))
        assert abs(m.to_float() - 1.4) < 1e-12
        assert Real.maximum(R(1), R(2)).exact == 2

    def test_float_inputs_are_exact_binary(self):
        assert R(0.5).exact == Fraction(1, 2)

    def test_lt(self):
        assert R(2).sqrt().lt(R("3/2"))
        assert not R("3/2").lt(R(2).sqrt())

    @given(positive_rationals, positive_rationals)
    @settings(max_examples=100, deadline=None)
    def test_interval_mul_contains(self, a, b):
        x = R(a).sqrt() * R(b).sqrt()
        lo, hi = x.bounds(96)
        with mpmath.workprec(200):
            true = mpmath.sqrt(mpmath.mpf(a.numerator) / a.denominator) * \
                mpmath.sqrt(mpmath.mpf(b.numerator) / b.denominator)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true + mpmath.mpf(2) ** -90
            assert true <= mpmath.mpf(hi.numerator) / hi.denominator + mpmath.mpf(2) ** -90

    def test_precision_exhausted_reported(self):
        # sqrt(2) * sqrt(2) is exactly 2, but the enclosure cannot collapse,
        # so the ceiling is undetermined at any precision; outward rounding
        # remains available and stays a valid upper bound
        x = R(2).sqrt() * R(2).sqrt()
        with pytest.raises(PrecisionExhausted):
            x.ceil()
        assert x.ceil_upper() == 3

    def test_budget_bits_setter(self):
        old = get_budget_bits()
        try:
            set_budget_bits(16)
            assert ExtendedNatural(100000).is_overflow
        finally:
            set_budget_bits(old)


# ---------------------------------------------------------------------------
# one refinement loop: the same decisions as the per-method loops it replaced
# ---------------------------------------------------------------------------

_SCHEDULE = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)


def _ref_ceil(x):
    if x.exact is not None:
        return math.ceil(x.exact)
    for bits in _SCHEDULE:
        lo, hi = x.bounds(bits)
        clo, chi = math.ceil(lo), math.ceil(hi)
        if clo == chi:
            return clo
    raise PrecisionExhausted("ceiling undetermined at maximum precision")


def _ref_floor(x):
    if x.exact is not None:
        return math.floor(x.exact)
    for bits in _SCHEDULE:
        lo, hi = x.bounds(bits)
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo == fhi:
            return flo
    raise PrecisionExhausted("floor undetermined at maximum precision")


def _ref_is_positive(x):
    if x.exact is not None:
        return x.exact > 0
    for bits in _SCHEDULE:
        lo, hi = x.bounds(bits)
        if lo > 0:
            return True
        if hi <= 0:
            return False
    raise PrecisionExhausted("sign undetermined at maximum precision")


def _ref_lt(x, other):
    if x.exact is not None and other.exact is not None:
        return x.exact < other.exact
    for bits in _SCHEDULE:
        slo, shi = x.bounds(bits)
        olo, ohi = other.bounds(bits)
        if shi < olo:
            return True
        if ohi <= slo:
            return False
    raise PrecisionExhausted("comparison undetermined at maximum precision")


def _ref_div(a, b):
    if b.exact is not None:
        if b.exact == 0:
            raise ZeroDivisionError("Real division by zero")
        if a.exact is not None:
            return Real(exact=a.exact / b.exact)

    def fn(bits):
        blo, bhi = b.bounds(bits)
        attempt = bits
        while blo <= 0 <= bhi:
            attempt *= 2
            if attempt > _SCHEDULE[-1]:
                raise PrecisionExhausted("divisor sign undetermined")
            blo, bhi = b.bounds(attempt)
        alo, ahi = a.bounds(bits)
        quots = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
        return min(quots), max(quots)

    return Real(fn=fn)


def _ref_powq(x, q):
    a, b = q.numerator, q.denominator
    if x.exact is not None:
        root = exact_root(x.exact ** a, b)
        if root is not None:
            return Real(exact=root)

    def fn(bits):
        lo, hi = x.bounds(bits)
        attempt = bits
        while lo <= 0:
            attempt *= 2
            if attempt > _SCHEDULE[-1]:
                raise PrecisionExhausted("base sign undetermined for power")
            lo, hi = x.bounds(attempt)
        plo, phi = lo ** a, hi ** a
        if plo > phi:
            plo, phi = phi, plo
        return root_bounds(plo, b, bits)[0], root_bounds(phi, b, bits)[1]

    return Real(fn=fn)


def _outcome(f):
    try:
        return f()
    except PrecisionExhausted:
        return PrecisionExhausted
    except ZeroDivisionError:
        return ZeroDivisionError


@st.composite
def _reals(draw):
    """(kind, q, Real): rationals, irrationals, values an enclosure never
    decides (sqrt(q)^2 against q, zero), and small positive values whose
    64-bit enclosure straddles 0."""
    q = draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8),
                          max_denominator=16))
    kind = draw(st.sampled_from(["rational", "sqrt", "exp", "root", "square",
                                 "zero", "straddle"]))
    root2 = R(q).sqrt()
    x = {
        "rational": R(q),
        "sqrt": root2,
        "exp": (R(q) / 4).exp(),
        "root": R(q).powq(Fraction(2, 3)),
        "square": root2 * root2,
        "zero": root2 * root2 - q,
        "straddle": root2 - root2.bounds(64)[0],
    }[kind]
    # exp stays positive: a negative exp base would pay the whole schedule
    if kind != "exp" and draw(st.booleans()):
        x = -x
    return kind, q, x


class TestOneRefinementLoop:
    @given(_reals(), _reals(),
           st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_same_decisions_as_the_removed_loops(self, first, second, q):
        (kind_a, qa, a), (kind_b, qb, b) = first, second
        # two equal exps exhaust the schedule, which costs seconds of exp_bounds
        assume(not (kind_a == kind_b == "exp" and qa == qb))
        for new, ref in ((Real.ceil, _ref_ceil), (Real.floor, _ref_floor),
                         (Real.is_positive, _ref_is_positive)):
            assert _outcome(lambda: new(a)) == _outcome(lambda: ref(a))
        assert _outcome(lambda: a.lt(b)) == _outcome(lambda: _ref_lt(a, b))
        assert _outcome(lambda: (a / b).bounds(64)) == \
            _outcome(lambda: _ref_div(a, b).bounds(64))
        assert _outcome(lambda: a.powq(q).bounds(64)) == \
            _outcome(lambda: _ref_powq(a, q).bounds(64))

    def test_divisor_straddling_zero_refines(self):
        x = R(2).sqrt()
        d = x - x.bounds(64)[0]
        lo, hi = d.bounds(64)
        assert lo <= 0 <= hi
        qlo, qhi = (R(1) / d).bounds(64)
        assert 0 < qlo <= qhi
        assert (qlo, qhi) == _ref_div(R(1), d).bounds(64)

    def test_schedule_doubles_from_the_callers_precision(self):
        # an enclosure that never shrinks: every decision walks the schedule
        asked = []

        def fn(bits):
            asked.append(bits)
            return Fraction(-1, 2), Fraction(1, 2)

        for decide in (Real.ceil, Real.floor, Real.is_positive):
            asked.clear()
            with pytest.raises(PrecisionExhausted):
                decide(Real(fn=fn))
            assert asked == list(_SCHEDULE)
        asked.clear()
        with pytest.raises(PrecisionExhausted):
            (R(1) / Real(fn=fn)).bounds(256)
        assert asked == [256, 512, 1024, 2048, 4096, 8192, 16384]
        asked.clear()
        with pytest.raises(PrecisionExhausted):
            Real(fn=fn).powq(Fraction(1, 3)).bounds(1024)
        assert asked == [1024, 2048, 4096, 8192, 16384]

    def test_undecidable_sign_exhausts(self):
        zero = R(2).sqrt() * R(2).sqrt() - 2
        for decide in (zero.is_positive, zero.ceil, zero.floor,
                       lambda: zero.lt(0), lambda: (R(1) / zero).bounds(64),
                       lambda: zero.powq(Fraction(1, 2)).bounds(64)):
            with pytest.raises(PrecisionExhausted):
                decide()


# ---------------------------------------------------------------------------
# one outward ceiling: one pass of the refinement loop
# ---------------------------------------------------------------------------


def _ceil_decided_by(x, bits):
    return any(math.ceil(x.bounds(p)[0]) == math.ceil(x.bounds(p)[1])
               for p in _SCHEDULE if p <= bits)


class TestOneOutwardCeiling:
    @given(_reals())
    @settings(max_examples=100, deadline=None)
    def test_upper_bound_that_agrees_with_a_decided_ceiling(self, drawn):
        _, _, x = drawn
        up = x.ceil_upper()
        assert up >= math.ceil(x.bounds(_SCHEDULE[-1])[0])
        if x.exact is not None or _ceil_decided_by(x, 256):
            assert up == x.ceil()

    def test_integer_valued_term_stops_at_256_bits(self):
        # 1600 sqrt(2)^4 is exactly 6400, which no enclosure decides
        asked = []
        term = 1600 * R(2).sqrt().powq(4)

        def fn(bits):
            asked.append(bits)
            return term.bounds(bits)

        assert Real(fn=fn).ceil_upper() == 6401
        assert max(asked) <= 256

    def test_wide_enclosure_rounds_its_last_upper_bound(self):
        # never narrower than width 1: the last precision decides, no raise
        assert Real(fn=lambda bits: (Fraction(0), Fraction(5, 2))).ceil_upper() == 3
