"""Exact arithmetic: enclosures, directed rounding, budget sentinel."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from fejerflow.exact import (
    BudgetExceeded,
    ExtendedNatural,
    PrecisionExhausted,
    R,
    Real,
    exp_bounds,
    get_budget_bits,
    guard,
    iroot,
    root_bounds,
    set_budget_bits,
    sqrt_bounds,
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
        lo, hi = sqrt_bounds(q, 64)
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
