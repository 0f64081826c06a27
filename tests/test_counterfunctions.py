"""Counterfunction family: evaluation, exact range maxima, tilde iteration."""

import pytest
from hypothesis import given, settings, strategies as st

from fejerflow.counterfunctions import (
    Counterfunction,
    iterate_tilde,
    max_on,
    max_tilde_on,
)
from fejerflow.exact import BudgetExceeded


def small_counterfunctions():
    tables = st.builds(
        Counterfunction.table,
        st.dictionaries(st.integers(0, 20), st.integers(0, 15), max_size=5),
        st.integers(0, 10),
    )
    kinds = st.one_of(
        st.builds(Counterfunction.constant, st.integers(0, 10)),
        st.builds(Counterfunction.identity_plus, st.integers(0, 5)),
        st.builds(Counterfunction.linear, st.integers(0, 3), st.integers(0, 5)),
        tables,
    )
    # compositions reach the nondecreasing and brute-force range maxima
    return st.one_of(kinds, st.builds(Counterfunction.compose, kinds, kinds))


class TestEvaluation:
    def test_kinds(self):
        assert Counterfunction.constant(3)(100) == 3
        assert Counterfunction.identity_plus(2)(5) == 7
        assert Counterfunction.linear(2, 1)(4) == 9
        t = Counterfunction.table({3: 9}, default=1)
        assert t(3) == 9 and t(4) == 1
        comp = Counterfunction.compose(Counterfunction.identity_plus(1),
                                       Counterfunction.linear(2, 0))
        assert comp(5) == 11

    def test_invalid(self):
        with pytest.raises(ValueError):
            Counterfunction.constant(-1)
        with pytest.raises(ValueError):
            Counterfunction("mystery")

    def test_config_round_trip(self):
        spec = {"kind": "table", "values": {2: 5}, "default": 0}
        f = Counterfunction.from_spec(spec)
        assert Counterfunction.from_spec(f.to_spec())(2) == 5

    def test_affine_specs_keep_their_names(self):
        # claim names and certificates.json embed these dicts
        assert Counterfunction.constant(0).to_spec() == {"kind": "constant", "k": 0}
        assert Counterfunction.identity_plus(2).to_spec() == {"kind": "identity_plus", "k": 2}
        assert Counterfunction.linear(3, 1).to_spec() == {"kind": "linear", "a": 3, "b": 1}
        assert f"metastability[f={Counterfunction.constant(0).to_spec()}]" == \
            "metastability[f={'kind': 'constant', 'k': 0}]"
        for spec in ({"kind": "constant", "k": 4}, {"kind": "identity_plus", "k": 0},
                     {"kind": "linear", "a": 2, "b": 5}):
            assert Counterfunction.from_spec(spec).to_spec() == spec

    def test_config_rejects_composition(self):
        with pytest.raises(ValueError):
            Counterfunction.from_spec({"kind": "composition"})

    def test_nondecreasing_flag(self):
        assert Counterfunction.identity_plus(0).is_nondecreasing
        assert not Counterfunction.table({0: 5}, default=0).is_nondecreasing
        assert not Counterfunction.table({5: 7}, default=1).is_nondecreasing
        assert Counterfunction.table({0: 1, 1: 3}, default=5).is_nondecreasing


class TestRangeMaxima:
    @given(small_counterfunctions(), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_max_on_matches_bruteforce(self, f, lo, span):
        hi = lo + span
        assert max_on(f, lo, hi) == max(f(n) for n in range(lo, hi + 1))

    @given(small_counterfunctions(), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_max_tilde_on_matches_bruteforce(self, f, lo, span):
        hi = lo + span
        assert max_tilde_on(f, lo, hi) == max(n + f(n) for n in range(lo, hi + 1))

    def test_huge_range_structured(self):
        f = Counterfunction.table({10 ** 30: 7}, default=2)
        assert max_on(f, 0, 10 ** 40) == 7
        assert max_tilde_on(f, 0, 10 ** 40) == 10 ** 40 + 2


class TestIteration:
    @given(small_counterfunctions(), st.integers(0, 200), st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_iterate_matches_literal(self, f, count, floor_value):
        from fejerflow.exact import budget_limit

        literal = 0
        for _ in range(count):
            literal += max(f(literal), floor_value)
        if literal > budget_limit():
            with pytest.raises(BudgetExceeded):
                iterate_tilde(f, count, floor_value)
        else:
            assert iterate_tilde(f, count, floor_value) == literal

    def test_fixed_point_detected(self):
        # f(n) = n has f~(0) = 0; huge counts terminate immediately
        assert iterate_tilde(Counterfunction.identity_plus(0), 10 ** 9) == 0

    def test_constant_closed_form(self):
        assert iterate_tilde(Counterfunction.constant(3), 10 ** 6) == 3 * 10 ** 6

    def test_geometric_budget(self):
        with pytest.raises(BudgetExceeded):
            iterate_tilde(Counterfunction.identity_plus(1), 10 ** 6)

    def test_value_budget_in_loop(self):
        f = Counterfunction.table({}, default=10 ** 70)
        with pytest.raises(BudgetExceeded):
            iterate_tilde(f, 10 ** 30)
