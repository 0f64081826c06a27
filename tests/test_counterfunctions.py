"""Counterfunction family: evaluation, exact range maxima, tilde iteration."""

import itertools

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
    # compositions: exceptions over a tail built from two normal forms
    return st.one_of(kinds, st.builds(Counterfunction.compose, kinds, kinds))


def _big():
    """A small natural, or one up to 10^30."""
    return st.one_of(st.integers(0, 20), st.integers(0, 10 ** 30))


def nested_counterfunctions():
    """Nested compositions of tables with keys up to 10^30 and affine maps."""
    base = st.one_of(
        st.builds(Counterfunction.constant, _big()),
        st.builds(Counterfunction.identity_plus, _big()),
        st.builds(Counterfunction.linear, st.integers(0, 3), _big()),
        st.builds(Counterfunction.table, st.dictionaries(_big(), _big(), max_size=5), _big()),
    )
    return st.recursive(base, lambda inner: st.builds(Counterfunction.compose, inner, inner),
                        max_leaves=6)


def literal(f: Counterfunction, n: int) -> int:
    """f(n) read off the kind and parameters f was built from."""
    p = f.params
    if f.kind == "composition":
        return literal(p["outer"], literal(p["inner"], n))
    if f.kind == "table":
        return p["values"].get(n, p["default"])
    return {"constant": p.get("k"), "identity_plus": n + p.get("k", 0),
            "linear": p.get("a", 0) * n + p.get("b", 0)}[f.kind]


def compositions(f: Counterfunction):
    """f and every composition nested in it."""
    if f.kind == "composition":
        yield f
        yield from compositions(f.params["outer"])
        yield from compositions(f.params["inner"])


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

    @given(nested_counterfunctions())
    @settings(max_examples=300, deadline=None)
    def test_compose_matches_outer_of_inner(self, f):
        # at every exception, every preimage of an outer exception under the
        # inner tail, and their neighbours
        for h in compositions(f):
            outer, inner = h.params["outer"], h.params["inner"]
            points = {0, *h.exceptions, *inner.exceptions}
            if inner.a:
                points |= {(m - inner.b) // inner.a for m in outer.exceptions}
            for n in {p + d for p in points for d in (-1, 0, 1)}:
                if n >= 0:
                    assert h(n) == literal(h, n) == outer(inner(n))

    @given(small_counterfunctions())
    @settings(max_examples=300, deadline=None)
    def test_nondecreasing_is_exact(self, f):
        scan = all(literal(f, n) <= literal(f, n + 1)
                   for n in range(max(f.exceptions, default=0) + 2))
        assert f.is_nondecreasing == scan

    def test_nondecreasing_composition_of_non_monotone(self):
        # a table read at one point is constant
        bump = Counterfunction.table({0: 5}, default=0)
        assert Counterfunction.compose(bump, Counterfunction.constant(0)).is_nondecreasing
        assert not Counterfunction.compose(Counterfunction.identity_plus(0), bump).is_nondecreasing

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

    @pytest.mark.parametrize("inner", [Counterfunction.identity_plus(2),
                                       Counterfunction.linear(1, 2)])
    def test_non_monotone_composition_on_a_wide_interval(self, inner):
        # f(5) = 10^6, else 1, over 200,001 points
        f = Counterfunction.compose(Counterfunction.table({7: 10 ** 6}, default=1), inner)
        assert not f.is_nondecreasing
        assert max_on(f, 0, 200_000) == 10 ** 6
        assert max_tilde_on(f, 0, 200_000) == 10 ** 6 + 5
        assert max_tilde_on(f, 6, 2 * 10 ** 6) == 2 * 10 ** 6 + 1
        assert max_on(f, 6, 2 * 10 ** 6) == 1

    def test_wide_interval_of_a_growing_composition(self):
        f = Counterfunction.compose(Counterfunction.linear(3, 1),
                                    Counterfunction.table({10: 0, 11: 10 ** 9}, default=2))
        assert max_on(f, 0, 10 ** 6) == 3 * 10 ** 9 + 1
        assert max_tilde_on(f, 12, 10 ** 6) == 10 ** 6 + 7


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

    def test_table_finishes_on_its_default(self):
        # 0 -> 1 -> 3, then 3999998 steps of the default 3
        f = Counterfunction.table({0: 1, 1: 2}, 3)
        assert iterate_tilde(f, 4_000_000) == 11_999_997
        assert iterate_tilde(f, 4_000_000, 5) == 5 * 4_000_000

    def test_constant_step_jumps_to_a_far_key(self):
        # 3,023,300 floor steps of 2,756 never reach 10^30: one jump
        f = Counterfunction.table({10 ** 30: 5}, default=1)
        assert iterate_tilde(f, 3_023_300, 2_756) == 3_023_300 * 2_756

    def test_constant_step_lands_on_each_key(self):
        # 10^6 steps of 1 reach the key, which steps 10^7; then 10^6 - 1 more
        f = Counterfunction.table({10 ** 6: 10 ** 7}, default=1)
        assert iterate_tilde(f, 2 * 10 ** 6) == 11 * 10 ** 6 + 10 ** 6 - 1
        # a step of 3 jumps over the key 10 (0, 3, ..., 12) to the key 30
        f = Counterfunction.table({10: 0, 30: 100}, default=3)
        assert iterate_tilde(f, 12) == 30 + 100 + 3

    def test_affine_tail_with_a_floor(self):
        # n -> n + max(2n + 1, 10): 0 -> 10 -> 31 -> 94
        assert iterate_tilde(Counterfunction.linear(2, 1), 3, 10) == 94
        with pytest.raises(BudgetExceeded, match="iterate count forces value past budget"):
            iterate_tilde(Counterfunction.linear(2, 1), 10 ** 6, 10)

    def test_value_budget_in_loop(self):
        f = Counterfunction.table({}, default=10 ** 70)
        with pytest.raises(BudgetExceeded):
            iterate_tilde(f, 10 ** 30)
