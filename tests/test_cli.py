"""CLI: subcommands, exit codes, artifact layout, determinism of one run."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from fejerflow import flows, operators
from fejerflow.cli import _THEOREMS, _sanitize, main
from fejerflow.counterfunctions import Counterfunction
from fejerflow.exact import budget_limit, get_budget_bits, set_budget_bits
from fejerflow.scenarios import builtin_scenarios
import oracles
from test_config import _JSON


def write_config(tmp_path: Path, obj) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestList:
    def test_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "first_order_contraction_1d" in out
        assert "stojkovic_negation" in out

    def test_filter(self, capsys):
        assert main(["list", "gradient"]) == 0
        out = capsys.readouterr().out
        assert "gradient_flow_quadratic" in out
        assert "stojkovic" not in out

    def test_unknown_filter_empty(self, capsys):
        assert main(["list", "zzz_nothing"]) == 0
        assert capsys.readouterr().out == ""


# the second-order --param values but dB and eps
_SECOND_ORDER_ONES = [f"{k}=1" for k in ("b", "c", "lambda_lo", "lambda_hi", "gamma_lo",
                                          "gamma_hi", "theta", "beta")]


class TestCertify:
    def test_fast_linear_rate(self, capsys):
        assert main(["certify", "fast_linear_rate", "--param", "beta=1",
                     "--param", "k=1", "--param", "p=2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["value"] - 0.7071067811865476) < 1e-9

    def test_ball(self, capsys):
        assert main(["certify", "ball_total_boundedness", "--param", "d=1",
                     "--param", "b=1", "--param", "eps=1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 4

    def test_overflow_sentinel(self, capsys):
        assert main(["certify", "delta_stojkovic", "--param", "b=1",
                     "--param", "eps=1/1000",
                     "--param", 'f={"kind": "identity_plus", "k": 0}']) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "overflow"

    def test_unknown_theorem(self, capsys):
        assert main(["certify", "no_such_theorem"]) == 2

    def test_missing_param(self):
        assert main(["certify", "fast_linear_rate", "--param", "beta=1"]) == 2

    def test_ball_rejects_nonpositive_eps(self, capsys):
        assert main(["certify", "ball_total_boundedness", "--param", "d=1",
                     "--param", "b=1", "--param", "eps=0"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_unknown_param_rejected(self, capsys):
        # a typo for f would otherwise run with the default counterfunction
        assert main(["certify", "delta_stojkovic", "--param", "b=1",
                     "--param", "eps=1", "--param", 'ff={"kind": "constant", "k": 3}']) == 2
        err = capsys.readouterr().err
        assert "unknown --param ff for delta_stojkovic" in err and "eps, f" in err

    @pytest.mark.parametrize("argv", [
        ["delta_first_order", "--param", "d=1", "--param", "b=-1",
         "--param", "lambda_lo=1/2", "--param", "eps=1/4"],
        ["delta_stojkovic", "--param", "b=-1", "--param", "eps=1/4"],
    ], ids=["delta_first_order", "delta_stojkovic"])
    def test_negative_radius_exit_two(self, capsys, argv):
        assert main(["certify", *argv]) == 2
        assert "radius must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["abc", "2"])
    def test_bad_budget_variable_exit_two(self, capsys, monkeypatch, bits):
        monkeypatch.setenv("FEJERFLOW_BUDGET_BITS", bits)
        assert main(["certify", "ball_total_boundedness", "--param", "d=1",
                     "--param", "b=1", "--param", "eps=1"]) == 2
        assert "FEJERFLOW_BUDGET_BITS" in capsys.readouterr().err

    def test_budget_variable_read_by_main(self, capsys, monkeypatch):
        monkeypatch.setenv("FEJERFLOW_BUDGET_BITS", "8")
        bits = get_budget_bits()
        try:
            assert main(["certify", "ball_total_boundedness", "--param", "d=1",
                         "--param", "b=1", "--param", "eps=1/1000"]) == 0
        finally:
            set_budget_bits(bits)
        assert json.loads(capsys.readouterr().out)["value"] == "overflow"

    @pytest.mark.parametrize("argv", [
        ["ball_total_boundedness", "--param", "d=1.5", "--param", "b=1",
         "--param", "eps=1/10"],
        ["delta_first_order", "--param", "d=2.5", "--param", "b=1",
         "--param", "lambda_lo=1/2", "--param", "eps=1/4"],
    ], ids=["ball", "delta_first_order"])
    def test_fractional_dimension_exit_two(self, capsys, argv):
        assert main(["certify", *argv]) == 2
        assert "dimension must be an integer" in capsys.readouterr().err

    def test_overflow_reason_printed(self, capsys):
        bits = get_budget_bits()
        set_budget_bits(8)
        try:
            assert main(["certify", "ball_total_boundedness", "--param", "d=1",
                         "--param", "b=1", "--param", "eps=1/1000"]) == 0
        finally:
            set_budget_bits(bits)
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "overflow" and data["trace"]["overflow"]

    def test_second_order_constants_in_trace(self, capsys):
        params = [f"--param={k}=1" for k in ("b", "c", "dB", "lambda_lo", "lambda_hi",
                                             "gamma_lo", "gamma_hi", "theta", "beta")]
        assert main(["certify", "lambda_capital", *params, "--param", "eps=1/5"]) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert trace == {"constants": trace["constants"]} and trace["constants"]["L"] == 5

    @pytest.mark.parametrize("f, key", [
        ('{"kind": "constant", "k": []}', "'f.k'"),
        ("[1]", "'f'"),
        ('{"kind": "table", "values": {"x": 1}, "default": 0}', "'f.values.x'"),
        ('{"kind": "table", "values": {"-1": 1}, "default": 0}', "'f.values.-1'"),
        ('{"kind": "table", "values": {"0": -1}, "default": 0}', "'f.values.0'"),
        ('{"kind": "linear", "a": -1}', "'f.a'"),
    ], ids=["list_k", "list_spec", "table_key_text", "table_key_negative",
            "table_entry_negative", "linear_negative"])
    def test_malformed_counterfunction_names_its_key(self, capsys, f, key):
        assert main(["certify", "delta_stojkovic", "--param", "b=1", "--param", "eps=1",
                     "--param", f"f={f}"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["delta_stojkovic", "b=[1]", "eps=1"], "'b'"),
        (["ball_total_boundedness", "d=1", "b={}", "eps=1"], "'b'"),
        (["delta_stojkovic", "b=1", "eps=x"], "'eps'"),
        (["delta_first_order", "d=1", "b=1", "lambda_lo=[]", "eps=1/4"], "'lambda_lo'"),
        (["lambda_capital", *_SECOND_ORDER_ONES, "dB={}", "eps=1/5"], "'dB'"),
        (["fast_linear_rate", "beta=[]", "k=1"], "'beta'"),
        (["aas1_metastability", "b=0", "c=1/0", "B=1", "eps=1"], "'c'"),
    ], ids=["b_list", "b_mapping", "eps_text", "lambda_lo_list", "dB_mapping", "beta_list",
            "c_zero_denominator"])
    def test_malformed_param_names_its_key(self, capsys, argv, key):
        theorem, *params = argv
        assert main(["certify", theorem, *(f"--param={p}" for p in params)]) == 2
        assert key in capsys.readouterr().err

    def test_table_iterates_past_its_keys(self, capsys):
        # 0 -> 1 -> 3, then the default 3 for the other 3999998 of 4 * 10^6 steps
        assert main(["certify", "aas1_metastability", "--param", "b=0", "--param", "c=1",
                     "--param", "B=1", "--param", "eps=1/1000", "--param",
                     'f={"kind": "table", "values": {"0": 1, "1": 2}, "default": 3}']) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 11_999_997

    def test_decimal_param_is_its_decimal_value(self, capsys):
        # ceil(2 B / eps) ceil((c + B - b) / eps) = 2 * 2 at eps = 3/10; the
        # double 0.3 lies below 3/10 and gives 3 * 3
        values = []
        for eps in ("0.3", "3/10"):
            assert main(["certify", "aas1_metastability", "--param", "b=0", "--param", "c=3/10",
                         "--param", "B=3/10", "--param", f"eps={eps}", "--param", "f=1"]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values == [4, 4]

    def test_decimal_param_is_read_by_its_text(self, capsys):
        # 1e-400 is 0.0 as a float; read by its text it is 10^-400 > 0
        assert main(["certify", "ball_total_boundedness", "--param", "d=1", "--param", "b=1",
                     "--param", "eps=1e-400"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "overflow" and data["trace"]["overflow"]
        assert data["inputs"]["eps"] == "1e-400"

    def test_decimal_exponent_past_the_int_digits_exit_two(self, capsys):
        assert main(["certify", "ball_total_boundedness", "--param", "d=1", "--param", "b=1",
                     "--param", "eps=1e-999999999"]) == 2
        assert "'eps' must be an integer, a decimal (exponent up to 4300)" in \
            capsys.readouterr().err

    def test_text_dimension_reads_as_the_dimension_check(self, capsys):
        assert main(["certify", "ball_total_boundedness", "--param", "d=x",
                     "--param", "b=1", "--param", "eps=1"]) == 2
        assert "dimension must be an integer >= 1, got 'x'" in capsys.readouterr().err

    def test_linear_rate_past_the_floats(self, capsys):
        # 10^1000 is no float: c = (1 + 10^1000)^(-1/1000) through logarithms
        assert main(["certify", "fast_linear_rate", "--param", "beta=1", "--param", "k=10",
                     "--param", "p=1000"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.1)

    @pytest.mark.parametrize("p", ["1000000000", "1" + "0" * 30])
    def test_huge_exponent_overflows(self, capsys, p):
        # q = 1 + p: 3^q would take gigabytes, so the exact power is refused
        assert main(["certify", "aas2_metastability", "--param", "c=1", "--param", "A=3",
                     "--param", "B=1", "--param", "eps=1/3", "--param", f"p={p}"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "overflow"
        assert data["trace"]["overflow"] == "exact power too large to evaluate"

    def test_fraction_param_equals_decimal(self, capsys):
        values = []
        for k in ("k=1/2", "k=0.5"):
            assert main(["certify", "fast_linear_rate", "--param", "beta=1",
                         "--param", k]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == values[1]


# every theorem's --param values that certify
_CERTIFY_PARAMS = {
    "fast_linear_rate": {"beta": "1", "k": "1", "p": "2"},
    "ball_total_boundedness": {"d": "1", "b": "1", "eps": "1/10"},
    "aas1_metastability": {"b": "0", "c": "1", "B": "1", "eps": "1", "f": "0"},
    "aas2_metastability": {"c": "1", "A": "3", "B": "1", "p": "1", "r": "inf", "eps": "1/3",
                           "f": "0"},
    "delta_first_order": {"d": "1", "b": "1", "lambda_lo": "1/2", "eps": "1/4", "f": "0"},
    "delta_gradient_flow": {"d": "1", "b": "1", "eps": "1", "f": "0"},
    "delta_stojkovic": {"d": "1", "b": "1", "eps": "1", "f": "0"},
    "lambda_capital": {**dict(p.split("=") for p in _SECOND_ORDER_ONES), "dB": "1",
                       "l_variant": "multiply", "eps": "1/5", "f": "0"},
}
_CERTIFY_PARAMS["delta_second_order"] = {**_CERTIFY_PARAMS["lambda_capital"], "eps": "1",
                                         "dim": "1"}


@settings(max_examples=300, deadline=None)
@given(theorem_key=st.sampled_from([(t, k) for t in sorted(_CERTIFY_PARAMS)
                                    for k in sorted(_CERTIFY_PARAMS[t])]),
       value=_JSON.map(json.dumps) | st.text(max_size=8))
@example(("delta_stojkovic", "b"), "[1]")
@example(("aas2_metastability", "p"), "1000000000")
@example(("fast_linear_rate", "p"), "1000")
@example(("fast_linear_rate", "beta"), "1" + "0" * 400)
@example(("lambda_capital", "b"), "1" + "0" * 400)
@example(("aas1_metastability", "eps"), "1" + "0" * 5000)  # past int() of a string
@example(("delta_stojkovic", "f"), "[" * 100_000)  # past the JSON parser's nesting
def test_any_param_value_exits_zero_or_two(theorem_key, value):
    # each accepted key in turn at an arbitrary value: a certificate or a
    # config error, never a traceback
    assert {t: set(params) for t, params in _CERTIFY_PARAMS.items()} == \
        {t: set(accepted) for t, (accepted, _) in _THEOREMS.items()}
    theorem, key = theorem_key
    params = {**_CERTIFY_PARAMS[theorem], key: value}
    assert main(["certify", theorem, *(f"--param={k}={v}" for k, v in params.items())]) in (0, 2)


_NATURAL = st.one_of(st.integers(0, 9), st.integers(0, 10 ** 30), st.integers(0, 2 ** 300))
_F_SPECS = st.one_of(
    st.builds(lambda k: {"kind": "constant", "k": k}, _NATURAL),
    st.builds(lambda k: {"kind": "identity_plus", "k": k}, _NATURAL),
    st.builds(lambda a, b: {"kind": "linear", "a": a, "b": b}, _NATURAL, _NATURAL),
    st.builds(lambda values, default: {"kind": "table", "values": values, "default": default},
              st.dictionaries(_NATURAL, _NATURAL, max_size=4), _NATURAL))
# the certificates that are the f~ iteration itself, by their oracle
_ITERATION_ORACLES = {
    "aas1_metastability": lambda f: oracles.aas1(Fraction(0), Fraction(1), Fraction(1),
                                                  Fraction(1), f),
    "aas2_metastability": lambda f: oracles.aas2(Fraction(1), Fraction(3), Fraction(1),
                                                  Fraction(1), None, Fraction(1, 3), f),
}


class _PastBudget(Exception):
    pass


def _spec_function(spec: dict):
    """f(n) read off a well-formed spec; an argument past the budget stops
    the literal iteration, whose value has then passed it too."""

    def f(n: int) -> int:
        if n > budget_limit():
            raise _PastBudget
        if spec["kind"] == "table":
            return spec["values"].get(n, spec["default"])
        a, b = {"constant": (0, spec.get("k")), "identity_plus": (1, spec.get("k")),
                "linear": (spec.get("a"), spec.get("b"))}[spec["kind"]]
        return a * n + b

    return f


@settings(max_examples=200, deadline=None)
@given(theorem=st.sampled_from(sorted(t for t, params in _CERTIFY_PARAMS.items() if "f" in params)),
       spec=_F_SPECS)
def test_well_formed_counterfunction_certifies(theorem, spec):
    # an int or overflow; only the monotone bounds refuse a decreasing f
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", theorem,
                     *(f"--param={k}={v}" for k, v in {**_CERTIFY_PARAMS[theorem],
                                                       "f": json.dumps(spec)}.items())])
    out, err = out.getvalue(), err.getvalue()
    if theorem in ("delta_gradient_flow", "delta_stojkovic") and \
            not Counterfunction.from_spec(spec).is_nondecreasing:
        assert code == 2 and "needs nondecreasing f" in err
        return
    assert code == 0
    value = json.loads(out)["value"]
    assert value == "overflow" or type(value) is int
    event(f"{theorem} {'overflow' if value == 'overflow' else 'int'}")
    if theorem in _ITERATION_ORACLES:
        try:
            literal = _ITERATION_ORACLES[theorem](_spec_function(spec))
        except _PastBudget:
            literal = budget_limit() + 1
        assert value == (literal if literal <= budget_limit() else "overflow")


def test_table_key_past_the_iterate_certifies_like_its_default(capsys):
    # the floor step never reaches the key 10^30, so f acts as its default 1:
    # a constant step jumps to the key instead of stepping point by point
    values = []
    for f in ({"kind": "table", "values": {str(10 ** 30): 5}, "default": 1}, 1):
        params = {**_CERTIFY_PARAMS["lambda_capital"], "f": json.dumps(f)}
        assert main(["certify", "lambda_capital",
                     *(f"--param={k}={v}" for k, v in params.items())]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values == [8_332_214_800] * 2


# cut flows for configs whose bad value is read after integration
_SHORT = {"horizon": 1.0, "step": 0.01, "long_check": None}
_SHORT_SECOND = {"horizon": 6.0, "step": 0.01}  # the oracle times reach 5

# malformed values that are not ValueErrors where they are read (None for a
# float, a list item without its key), and one config per kind of traceback
# the config fuzz recorded in CHANGES.md
_NAMED_KEY_CONFIGS = {
    "horizon_null": {"builtin": "first_order_contraction_1d",
                     "overrides": {"horizon": None}},
    "grid_null": {"builtin": "gradient_flow_quadratic",
                  "overrides": {"sampling": {"grid": None}}},
    "counterfunction_without_k": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"metastability": {"counterfunctions": [{"kind": "constant"}]}}},
    "sampling_null": {"builtin": "gradient_flow_quadratic",
                      "overrides": {"sampling": None}},
    "metastability_null": {"builtin": "gradient_flow_quadratic",
                           "overrides": {"metastability": None}},
    "counterfunctions_not_a_list": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"metastability": {"counterfunctions": 5}}},
    "space_not_a_mapping": {"builtin": "first_order_contraction_1d",
                            "overrides": {"space": []}},
    "operator_null": {"builtin": "stojkovic_negation",
                      "overrides": {"operators": {"F": None}}},
    "bound_null": {"builtin": "second_order_linear",
                   "overrides": {"bounds": {"b": None, "c": 0, "d": 1}}},
    "operator_parameter_null": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"operators": {"phi": {"op": "l1", "scale": None}}}},
    "regularity_without_parameter": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"regularity": {"kind": "strongly_quasiconvex"}}},
    "counterfunction_null": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "metastability": {"counterfunctions": [None]}}},
    "curve_parameter_not_a_number": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"curves": {"lambda": {"kind": "constant", "c": []}}}},
    "point_not_a_list": {"builtin": "first_order_contraction_1d",
                         "overrides": {"initial": {"x0": {}}}},
    "kind_not_a_string": {"builtin": "first_order_contraction_1d",
                          "overrides": {"kind": []}},
    "fixed_point_sample_null": {"builtin": "stojkovic_negation",
                                "overrides": {"fixed_point_samples": [None]}},
    "curve_not_a_spec": {"builtin": "first_order_contraction_1d",
                         "overrides": {"curves": {"lambda": "x"}}},
    "oracle_term_null": {"builtin": "second_order_linear",
                         "overrides": {**_SHORT_SECOND, "oracle": {"terms": [None]}}},
    "long_check_not_a_mapping": {"builtin": "first_order_contraction_1d",
                                 "overrides": {**_SHORT, "long_check": "x"}},
    "counterfunction_parameter_not_a_number": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "metastability": {
            "counterfunctions": [{"kind": "identity_plus", "k": []}]}}},
    "bound_not_a_number": {"builtin": "forward_backward_second_order",
                           "overrides": {**_SHORT, "bounds": {"b": [], "c": 0, "d": 1}}},
    "match_not_a_mapping": {"builtin": "gradient_flow_quadratic",
                            "overrides": {"match": "x"}},
    "objective_time_not_a_number": {"builtin": "gradient_flow_quadratic",
                                    "overrides": {"objective_times": [{}, 2.0, 10.0]}},
    "operator_parameter_not_a_number": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"operators": {"T": {"op": "scalar", "c": []}}}},
    "oracle_terms_not_a_list": {"builtin": "second_order_linear",
                                "overrides": {**_SHORT_SECOND, "oracle": {"terms": 5}}},
    "regularity_parameter_null": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"regularity": {"kind": "strongly_quasiconvex", "rho": None}}},
    "oracle_not_a_mapping": {"builtin": "second_order_linear",
                             "overrides": {**_SHORT_SECOND, "oracle": "x"}},
    "oracle_term_item_not_a_number": {
        "builtin": "second_order_linear",
        "overrides": {**_SHORT_SECOND, "oracle": {"terms": [["x", -1.0], [-1.0, -2.0]]}}},
    "convex_parameter_not_a_number": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"operators": {"phi": {"op": "quadratic", "scale": []}}}},
    "probe_eps_not_a_number": {
        "builtin": "stojkovic_negation",
        "overrides": {"overflow_probe": {"eps": [], "counterfunction": 0}}},
    "semigroup_horizon_negative": {"builtin": "gradient_flow_quadratic",
                                   "overrides": {"horizon": -1}},
    "horizon_within_half_a_grid": {"builtin": "gradient_flow_quadratic",
                                   "overrides": {"horizon": 0.1}},
    "counterfunction_table_key_not_an_integer": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"metastability": {"counterfunctions": [
            {"kind": "table", "values": {"x": 1}, "default": 0}]}}},
    "counterfunction_table_entry_negative": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"metastability": {"counterfunctions": [
            {"kind": "table", "values": {"0": -1}, "default": 0}]}}},
    "counterfunctions_empty": {
        "builtin": "forward_backward_second_order",
        "overrides": {**_SHORT, "metastability": {"counterfunctions": []}}},
    # points of R^d and d x d matrices, not broadcast or left to numpy
    "center_wrong_length": {
        "builtin": "first_order_contraction_2d",
        "overrides": {"operators": {"T": {"op": "projection_ball", "center": [0.0],
                                          "radius": 1}}}},
    "matrix_wrong_size": {
        "builtin": "first_order_contraction_2d",
        "overrides": {"operators": {"T": {"op": "affine",
                                          "matrix": (0.5 * np.eye(3)).tolist(),
                                          "offset": [0.0, 0.0]}}}},
    "rotation_off_the_plane": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"operators": {"T": {"op": "rotation", "angle_deg": 30}}}},
    # a radius below ||x0 - y||: certificates for a ball without x0
    "radius_first_order": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "solution": {"point": [0.0], "b": 0.5}}},
    "radius_forward_backward": {
        "builtin": "forward_backward_first_order",
        "overrides": {**_SHORT, "solution": {"point": [0.0], "b": 0.05}}},
    "radius_gradient_flow": {"builtin": "gradient_flow_quadratic",
                             "overrides": {"solution": {"point": [0.0], "b": 0.25}}},
    "radius_stojkovic": {"builtin": "stojkovic_negation",
                         "overrides": {"solution": {"point": [0.0], "b": 0.25}}},
    # the forward-backward claim names carry no f: a second one is refused
    "forward_backward_first_two_counterfunctions": {
        "builtin": "forward_backward_first_order",
        "overrides": {**_SHORT, "metastability": {"eps": 0.5, "counterfunctions": [1, 2]}}},
    "forward_backward_second_two_counterfunctions": {
        "builtin": "forward_backward_second_order",
        "overrides": {**_SHORT, "metastability": {"counterfunctions": [0, 1]}}},
    # exact values that are also evaluated in floats, written out as ints
    "eps_past_the_floats": {"builtin": "gradient_flow_quadratic",
                            "overrides": {"metastability": {"eps": 10 ** 400}}},
    "radius_past_the_floats": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "solution": {"point": [0.0], "b": 10 ** 400}}},
    "bound_past_the_floats": {
        "builtin": "second_order_linear",
        "overrides": {**_SHORT_SECOND, "bounds": {"b": 10 ** 400, "c": 0, "d": 1}}},
    # b itself is a float, but L grows with b squared
    "constants_past_the_floats": {
        "builtin": "second_order_linear",
        "overrides": {**_SHORT_SECOND, "bounds": {"b": 10 ** 200, "c": 0, "d": 1}}},
    # at the builtin's own horizon: refused before the first RK4 step, not after
    "constants_past_the_floats_full_horizon": {
        "builtin": "second_order_linear",
        "overrides": {"bounds": {"b": 1e200, "c": 0, "d": 1}}},
    "bound_negative": {"builtin": "forward_backward_second_order",
                       "overrides": {"bounds": {"b": 1, "c": -1, "d": 1}}},
    # squared distances of a start or a solution point must stay in the floats
    "start_past_the_squares": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "initial": {"x0": [1e200]},
                      "solution": {"point": [1e200], "b": 1}}},
    "solution_point_past_the_squares": {
        "builtin": "second_order_linear",
        "overrides": {**_SHORT_SECOND, "solution": {"point": [-1e200]}}},
    # tolerances, eps lists and times must be positive
    "eps_rho_zero": {"builtin": "gradient_flow_quadratic", "overrides": {"eps_rho": [0]}},
    "eps_b_zero": {"builtin": "forward_backward_first_order",
                   "overrides": {**_SHORT, "eps_b": [0]}},
    "eps_regularity_negative": {"builtin": "first_order_contraction_1d",
                                "overrides": {**_SHORT, "eps_regularity": [-0.5]}},
    "sampling_tol_zero": {"builtin": "gradient_flow_quadratic",
                          "overrides": {"sampling": {"grid": 0.25, "tol": 0}}},
    "match_tol_negative": {"builtin": "gradient_flow_quadratic",
                           "overrides": {"match": {"t": 1.0, "tol": -1}}},
    "objective_time_zero": {"builtin": "gradient_flow_quadratic",
                            "overrides": {"objective_times": [0]}},
    # only B's strong monotonicity gives the Theta bound
    "uniform_monotone_who_a": {"builtin": "forward_backward_second_order",
                               "overrides": {**_SHORT, "uniform_monotone_who": "A"}},
    "uniform_monotone_who_unknown": {"builtin": "forward_backward_second_order",
                                     "overrides": {**_SHORT, "uniform_monotone_who": "bogus"}},
    # a match needs the closed-form flow of its operator
    "match_without_closed_form": {"builtin": "gradient_flow_quadratic",
                                  "overrides": {"operators": {"phi": {"op": "l1"}}}},
    # the one regularity reader
    "regularity_kind_unknown": {"builtin": "first_order_contraction_1d",
                                "overrides": {**_SHORT, "regularity": {"kind": "bogus"}}},
    "regularity_weak_sharp": {"builtin": "gradient_flow_quadratic",
                              "overrides": {"regularity": {"kind": "weak_sharp"}}},
    "regularity_not_linear": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "regularity": {"kind": "strongly_quasiconvex", "rho": 1}}},
    "regularity_parameter_not_a_number": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "regularity": {"kind": "quasi_contraction", "c": "x"}}},
    "regularity_parameter_missing": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "regularity": {"kind": "metric_subregular"}}},
    # parameters outside their kind's domain
    "regularity_contraction_one": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "regularity": {"kind": "quasi_contraction", "c": 1}}},
    "regularity_subregular_zero": {
        "builtin": "first_order_contraction_1d",
        "overrides": {**_SHORT, "regularity": {"kind": "metric_subregular", "k": 0}}},
    "regularity_quasiconvex_zero": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"regularity": {"kind": "strongly_quasiconvex", "rho": 0}}},
    "match_time_negative": {"builtin": "stojkovic_negation",
                            "overrides": {"match": {"t": -1.0}}},
    "match_n_max_negative": {"builtin": "gradient_flow_quadratic",
                             "overrides": {"match": {"t": 1.0, "n_max": -5}}},
    "fixed_point_time_negative": {"builtin": "stojkovic_negation",
                                  "overrides": {"fixed_point_samples": [[[0.5], -1.0]]}},
    # a minimizer must lie in dom phi
    "solution_outside_the_domain": {
        "builtin": "gradient_flow_quadratic",
        "overrides": {"operators": {"phi": {"op": "indicator_ball", "center": [0.0],
                                            "radius": 0.5}}, "match": None,
                      "initial": {"x0": [0.3]}, "solution": {"point": [0.8], "b": 1}}},
    # curve tables: strictly increasing times, one value per piece
    "table_values_wrong_length": {
        "builtin": "forward_backward_first_order",
        "overrides": {**_SHORT, "curves": {"lambda": {
            "kind": "table", "ts": [0, 1], "values": [0.5, 0.5, 0.5],
            "lower": 0.5, "upper": 0.5}}}},
    "table_times_not_increasing": {
        "builtin": "forward_backward_first_order",
        "overrides": {**_SHORT, "curves": {"lambda": {
            "kind": "table", "ts": [0, 30, 10, 40], "values": [0.5, 0.5, 0.5, 0.5],
            "lower": 0.5, "upper": 0.5}}}},
    "piecewise_breaks_not_increasing": {
        "builtin": "forward_backward_first_order",
        "overrides": {**_SHORT, "curves": {"lambda": {
            "kind": "piecewise", "breaks": [2, 1], "values": [0.5, 0.5, 0.5],
            "lower": 0.5, "upper": 0.5}}}},
    # listed times past the horizon the trajectory reaches
    "objective_time_past_the_horizon": {"builtin": "gradient_flow_quadratic",
                                        "overrides": {"horizon": 1.0}},
    "oracle_time_past_the_horizon": {"builtin": "second_order_linear",
                                     "overrides": {"horizon": 1.0}},
    # refused before the first RK4 step of the 30,000 the builtin takes
    "oracle_time_far_past_the_horizon": {
        "builtin": "second_order_linear",
        "overrides": {"oracle": {"terms": [[2.0, -1.0], [-1.0, -2.0]], "times": [100.0]}}},
    # samples no allocation can hold, refused at once: 10^18 steps of 1e-3 are
    # 8 EiB of floats, past any memory; 10^18 pairs are past numpy's largest array
    "horizon_past_memory": {"builtin": "first_order_contraction_1d",
                            "overrides": {"horizon": 1e15}},
    "long_check_horizon_past_memory": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"long_check": {"horizon": 1e15, "step": 0.5}}},
    "semigroup_horizon_past_memory": {"builtin": "gradient_flow_quadratic",
                                      "overrides": {"horizon": 1e15}},
    "second_order_horizon_past_numpy": {"builtin": "second_order_linear",
                                        "overrides": {"horizon": 1e15}},
    "forward_backward_horizon_past_memory": {"builtin": "forward_backward_first_order",
                                             "overrides": {"horizon": 1e15}},
    # horizon / step past the floats: no count of coarse steps
    "horizon_past_the_floats": {"builtin": "first_order_contraction_1d",
                                "overrides": {"horizon": 1e300, "step": 1e-10}},
    "long_check_horizon_past_the_floats": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"long_check": {"horizon": 1e300, "step": 1e-10}}},
    "second_order_horizon_past_the_floats": {"builtin": "second_order_linear",
                                             "overrides": {"horizon": 1e300, "step": 1e-10}},
    "forward_backward_horizon_past_the_floats": {
        "builtin": "forward_backward_second_order",
        "overrides": {"horizon": 1e300, "step": 1e-10}},
    "horizon_within_rounding_of_no_steps": {"builtin": "first_order_contraction_1d",
                                            "overrides": {"horizon": 1e-12, "step": 0.01}},
    "long_check_step_negative": {"builtin": "first_order_contraction_1d",
                                 "overrides": {"long_check": {"horizon": 10.0, "step": -0.5}}},
    # 5 steps of 1e7 keep the states finite, but their error estimate overflows
    "step_past_a_finite_estimate": {"builtin": "first_order_contraction_1d",
                                    "overrides": {"horizon": 5e7, "step": 1e7,
                                                  "long_check": None}},
    "long_check_step_past_a_finite_estimate": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"long_check": {"horizon": 5e7, "step": 1e7}}},
}
# the key each of them names in its error message
_NAMED_KEYS = {
    "horizon_null": "'horizon'",
    "grid_null": "'sampling.grid'",
    "counterfunction_without_k": "'metastability.counterfunctions[0].k'",
    "sampling_null": "'sampling'",
    "metastability_null": "'metastability'",
    "counterfunctions_not_a_list": "'metastability.counterfunctions'",
    "space_not_a_mapping": "'space'",
    "operator_null": "'operators.F'",
    "bound_null": "'bounds.b'",
    "operator_parameter_null": "'operators.phi.scale'",
    "regularity_without_parameter": "'regularity.rho'",
    "counterfunction_null": "'metastability.counterfunctions[0]'",
    "curve_parameter_not_a_number": "'curves.lambda.c'",
    "point_not_a_list": "'initial.x0'",
    "kind_not_a_string": "'kind'",
    "fixed_point_sample_null": "'fixed_point_samples[0]'",
    "curve_not_a_spec": "'curves.lambda'",
    "oracle_term_null": "'oracle.terms[0]'",
    "long_check_not_a_mapping": "'long_check'",
    "counterfunction_parameter_not_a_number": "'metastability.counterfunctions[0].k'",
    "bound_not_a_number": "'bounds.b'",
    "match_not_a_mapping": "'match'",
    "objective_time_not_a_number": "'objective_times[0]'",
    "operator_parameter_not_a_number": "'operators.T.c'",
    "oracle_terms_not_a_list": "'oracle.terms'",
    "regularity_parameter_null": "'regularity.rho'",
    "oracle_not_a_mapping": "'oracle'",
    "oracle_term_item_not_a_number": "'oracle.terms[0][0]'",
    "convex_parameter_not_a_number": "'operators.phi.scale'",
    "probe_eps_not_a_number": "'overflow_probe.eps'",
    "semigroup_horizon_negative": "'horizon'",
    "horizon_within_half_a_grid": "'sampling.grid'",
    "counterfunction_table_key_not_an_integer": "'metastability.counterfunctions[0].values.x'",
    "counterfunction_table_entry_negative": "'metastability.counterfunctions[0].values.0'",
    "counterfunctions_empty": "'metastability.counterfunctions'",
    "center_wrong_length": "'operators.T.center'",
    "matrix_wrong_size": "'operators.T.matrix'",
    "rotation_off_the_plane": "'operators.T.op'",
    "radius_first_order": "'solution.b'",
    "radius_forward_backward": "'solution.b'",
    "radius_gradient_flow": "'solution.b'",
    "radius_stojkovic": "'solution.b'",
    "forward_backward_first_two_counterfunctions": "'metastability.counterfunctions'",
    "eps_past_the_floats": "'metastability.eps'",
    "radius_past_the_floats": "'solution.b'",
    "bound_past_the_floats": "'bounds.b'",
    "constants_past_the_floats": "'bounds.b'",
    "constants_past_the_floats_full_horizon": "'bounds.b'",
    "bound_negative": "'bounds.c'",
    "forward_backward_second_two_counterfunctions": "'metastability.counterfunctions'",
    "start_past_the_squares": "'initial.x0'",
    "solution_point_past_the_squares": "'solution.point'",
    "objective_time_past_the_horizon": "'objective_times[1]'",
    "oracle_time_past_the_horizon": "'oracle.times[2]'",
    "oracle_time_far_past_the_horizon": "'oracle.times[0]'",
    "eps_rho_zero": "'eps_rho[0]'",
    "eps_b_zero": "'eps_b[0]'",
    "eps_regularity_negative": "'eps_regularity[0]'",
    "sampling_tol_zero": "'sampling.tol'",
    "match_tol_negative": "'match.tol'",
    "objective_time_zero": "'objective_times[0]'",
    "uniform_monotone_who_a": "'uniform_monotone_who'",
    "uniform_monotone_who_unknown": "'uniform_monotone_who'",
    "match_without_closed_form": "'match'",
    "regularity_kind_unknown": "'regularity.kind'",
    "regularity_weak_sharp": "'regularity.kind'",
    "regularity_not_linear": "'regularity.kind'",
    "regularity_parameter_not_a_number": "'regularity.c'",
    "regularity_parameter_missing": "'regularity.k'",
    "regularity_contraction_one": "'regularity.c'",
    "regularity_subregular_zero": "'regularity.k'",
    "regularity_quasiconvex_zero": "'regularity.rho'",
    "match_time_negative": "'match.t'",
    "match_n_max_negative": "'match.n_max'",
    "fixed_point_time_negative": "'fixed_point_samples[0][1]'",
    "solution_outside_the_domain": "'solution.point'",
    "table_values_wrong_length": "'curves.lambda.values'",
    "table_times_not_increasing": "'curves.lambda.ts'",
    "piecewise_breaks_not_increasing": "'curves.lambda.breaks'",
    "horizon_past_memory": "'horizon'",
    "long_check_horizon_past_memory": "'long_check.horizon'",
    "semigroup_horizon_past_memory": "'horizon'",
    "second_order_horizon_past_numpy": "'horizon'",
    "forward_backward_horizon_past_memory": "'horizon'",
    "horizon_past_the_floats": "'horizon'",
    "long_check_horizon_past_the_floats": "'long_check.horizon'",
    "second_order_horizon_past_the_floats": "'horizon'",
    "forward_backward_horizon_past_the_floats": "'horizon'",
    "horizon_within_rounding_of_no_steps": "'horizon'",
    "long_check_step_negative": "'long_check.step'",
    "step_past_a_finite_estimate": "'step'",
    "long_check_step_past_a_finite_estimate": "'long_check.step'",
}


class TestRun:
    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "--out", str(tmp_path / "a")]) == 2

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"horizon": 1' + "0" * 5000 + "}"],
                             ids=["nesting", "digits"])
    def test_json_past_the_parser_limits_exit_two(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", str(bad), "--out", str(tmp_path / "a")]) == 2

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 1, "kind": "mystery",
                                      "name": "x", "space": {}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 99, "kind": "first_order",
                                      "name": "x", "space": {}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"horizon": -1},
        {"operators": {"T": {"op": "scalar", "c": 2}}},
    ], ids=["negative_horizon", "expansive_operator"])
    def test_domain_error_exit_two(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, {"builtin": "first_order_contraction_1d",
                                      "overrides": overrides})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"builtin": "first_order_contraction_1d", "overrides": {"horizon": "40x"}},
        {"builtin": "first_order_contraction_1d",
         "overrides": {"curves": {"lambda": {"kind": "spline"}}}},
        {"builtin": "gradient_flow_quadratic", "overrides": {"sampling": {"grid": 0}}},
        {"builtin": "gradient_flow_quadratic", "overrides": {"sampling": {"grid": -0.25}}},
        {"builtin": "stojkovic_negation",
         "overrides": {"overflow_probe": {"eps": "abc", "counterfunction": 0}}},
        {"builtin": "gradient_flow_quadratic",
         "overrides": {"metastability": {"counterfunctions": [{"kind": "composition"}]}}},
        {"builtin": "gradient_flow_quadratic", "overrides": {"regularity": {"kind": "nope"}}},
        {"builtin": "second_order_linear", "overrides": {"theta": "x"}},
        [1, 2],
        {"builtin": "gradient_flow_quadratic", "overrides": [1]},
        {"builtin": "gradient_flow_quadratic",
         "overrides": {"space": {"kind": "euclidean", "dimension": 1.5}}},
        *_NAMED_KEY_CONFIGS.values(),
    ], ids=["horizon_string", "curve_kind", "grid_zero", "grid_negative", "probe_eps",
            "composition", "regularity_kind", "theta_string", "not_an_object",
            "overrides_not_an_object", "fractional_dimension", *_NAMED_KEY_CONFIGS])
    def test_malformed_value_exit_two(self, tmp_path, capsys, config):
        # a bad value is a config error, not a traceback with exit 1
        cfg = write_config(tmp_path, config)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key",
                             [(_NAMED_KEY_CONFIGS[name], key) for name, key in _NAMED_KEYS.items()],
                             ids=list(_NAMED_KEYS))
    def test_malformed_value_names_its_key(self, tmp_path, capsys, config, key):
        cfg = write_config(tmp_path, config)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("name, generator", [
        ("oracle_time_far_past_the_horizon", "_rk4"),
        ("objective_time_past_the_horizon", "_semigroup"),
    ])
    def test_listed_time_refused_before_the_flow(self, tmp_path, monkeypatch, name, generator):
        calls = []
        monkeypatch.setattr(flows, generator, lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, _NAMED_KEY_CONFIGS[name])
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert calls == []

    @pytest.mark.parametrize("name", ["constants_past_the_floats_full_horizon",
                                      "bound_negative"])
    def test_bounds_refused_before_the_flow(self, tmp_path, monkeypatch, name):
        calls = []
        monkeypatch.setattr(flows, "_rk4", lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, _NAMED_KEY_CONFIGS[name])
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert calls == []

    # the main run integrates first, so only its own keys may wait for it; a
    # long_check past memory shows only when its samples are allocated
    @pytest.mark.parametrize("name", ["horizon_past_the_floats",
                                      "long_check_horizon_past_the_floats",
                                      "second_order_horizon_past_the_floats",
                                      "forward_backward_horizon_past_the_floats",
                                      "horizon_within_rounding_of_no_steps",
                                      "long_check_step_negative"])
    def test_run_keys_refused_before_the_flow(self, tmp_path, monkeypatch, name):
        calls = []
        monkeypatch.setattr(flows, "_rk4", lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, _NAMED_KEY_CONFIGS[name])
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert calls == []

    def test_time_in_a_ragged_last_step_accepted(self, tmp_path):
        # 4 steps of 0.3 cover the horizon 1.0 and end at 1.2, where eval reaches
        cfg = write_config(tmp_path, {
            "builtin": "second_order_linear",
            "overrides": {"horizon": 1.0, "step": 0.3,
                          "oracle": {"terms": [[2.0, -1.0], [-1.0, -2.0]], "times": [1.2]}}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0

    def test_match_switched_off_without_a_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, {"builtin": "gradient_flow_quadratic",
                                      "overrides": {"operators": {"phi": {"op": "l1"}},
                                                    "match": None}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0

    def test_null_section_is_switched_off(self, tmp_path):
        cfg = write_config(tmp_path, {"builtin": "gradient_flow_quadratic",
                                      "overrides": {"regularity": None}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0

    def test_rate_past_the_budget_is_beyond_the_horizon(self, tmp_path):
        # the certified rates at eps = 1e-40 exceed 2^256: infinite, so skipped
        cfg = write_config(tmp_path, {
            "builtin": "first_order_contraction_1d",
            "overrides": {"eps_regularity": [1e-40, 0.5], "long_check": None}})
        out = tmp_path / "a"
        assert main(["run", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "first_order_contraction_1d" / "reports.json").read_text())
        skipped = {r["claim"]: r["details"]["skipped_beyond_horizon"] for r in reports
                   if r["claim"].startswith("asymptotic_regularity")}
        # eps = 0.5 has rate 16 within horizon 40 on the divergence form only
        assert skipped["asymptotic_regularity_divergence"] == [1e-40]
        assert skipped["asymptotic_regularity_witness"] == [1e-40, 0.5]

    def test_inf_form_rate_past_the_budget_is_beyond_the_horizon(self, tmp_path):
        # eps^2 = 1e-400 underflows a float; the exact b^2 / (tau eps^2) is past the budget
        cfg = write_config(tmp_path, {
            "builtin": "first_order_contraction_1d",
            "overrides": {"horizon": 1.0, "step": 0.01, "long_check": None,
                          "eps_regularity": [1e-200]}})
        out = tmp_path / "a"
        assert main(["run", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "first_order_contraction_1d" / "reports.json").read_text())
        inf_form = next(r for r in reports if r["claim"] == "asymptotic_regularity_inf_form")
        assert inf_form["details"]["skipped_beyond_horizon"] == [1e-200]

    def test_radius_past_the_squares_holds(self, tmp_path):
        # b^2 / (2t) is +inf in floats: Mayer's estimate holds at every time
        cfg = write_config(tmp_path, {"builtin": "gradient_flow_quadratic",
                                      "overrides": {"solution": {"point": [0.0], "b": 10 ** 200}}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0

    _PLANE = {"space": {"kind": "euclidean", "dimension": 2},
              "initial": {"x0": [1.0, 0.5]}, "solution": {"point": [0.0, 0.0], "b": 2}}

    def test_stojkovic_in_the_plane_exit_zero(self, tmp_path):
        # the default resolvent points lie on the first axis of R^2
        cfg = write_config(tmp_path, {"builtin": "stojkovic_negation", "overrides": {
            **self._PLANE,
            "fixed_point_samples": [[[0.5, 0.0], 0.5], [[-0.25, 0.0], 1.0], [[1.0, 0.0], 1.5]]}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0

    def test_stojkovic_in_the_plane_default_samples_exit_zero(self, tmp_path):
        config = {**builtin_scenarios()["stojkovic_negation"].config, **self._PLANE}
        del config["fixed_point_samples"]
        out = tmp_path / "a"
        assert main(["run", write_config(tmp_path, config), "--out", str(out)]) == 0
        reports = json.loads((out / "stojkovic_negation" / "reports.json").read_text())
        status = {r["claim"]: r["status"] for r in reports}
        assert status["resolvent_inequality"] == status["fixed_point_bound"] == "holds"

    @pytest.mark.parametrize("sample", [[[0.5], 356.0], [[0.0], 400.0]],
                             ids=["bound_past_the_floats", "fixed_point"])
    def test_fixed_point_sample_past_the_exponential_exit_zero(self, tmp_path, sample):
        # e^{2t} overflows the floats from t = 354.9 on: the bound is +inf,
        # and 0 at a fixed point of F
        cfg = write_config(tmp_path, {"builtin": "stojkovic_negation",
                                      "overrides": {"fixed_point_samples": [sample]}})
        out = tmp_path / "a"
        assert main(["run", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "stojkovic_negation" / "reports.json").read_text())
        assert next(r for r in reports if r["claim"] == "fixed_point_bound")["status"] == "holds"

    def test_non_finite_resolvent_exit_two(self, tmp_path, capsys):
        # F x = 0 x + inf: the first resolvent iterate leaves the reals
        cfg = write_config(tmp_path, {
            "builtin": "stojkovic_negation",
            "overrides": {"operators": {"F": {"op": "affine", "matrix": [[0.0]],
                                              "offset": [math.inf]}}}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_resolvent_budget_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(operators, "_RESOLVENT_CAP", 1)
        cfg = write_config(tmp_path, {"builtin": "stojkovic_negation"})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "resolvent iteration exceeded" in capsys.readouterr().err

    def test_missing_key_exit_two(self, tmp_path, capsys):
        config = dict(builtin_scenarios()["first_order_contraction_1d"].config)
        del config["horizon"]
        assert main(["run", write_config(tmp_path, config),
                     "--out", str(tmp_path / "a")]) == 2
        assert "'horizon'" in capsys.readouterr().err

    def test_missing_nested_key_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"builtin": "first_order_contraction_1d",
                                      "overrides": {"solution": {"point": [0.0]}}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "'solution.b'" in capsys.readouterr().err

    @pytest.mark.parametrize("builtin, curves, key", [
        ("first_order_contraction_1d", {"lambda": {"kind": "affine", "a": 0, "b": 0.5}},
         "lambda"),
        ("forward_backward_first_order", {"lambda": {"kind": "affine", "a": 0, "b": 0.5}},
         "lambda"),
        ("second_order_linear", {"lambda": {"kind": "affine", "a": 0, "b": 2.0},
                                 "gamma": {"kind": "constant", "c": 3.0}}, "lambda"),
        ("forward_backward_second_order", {"lambda": {"kind": "constant", "c": 1.0},
                                           "gamma": {"kind": "affine", "a": 0, "b": 3.0,
                                                     "lower": 3.0}}, "gamma"),
    ])
    def test_undeclared_curve_range_exit_two(self, tmp_path, capsys, builtin, curves, key):
        # certificates are built from the declared range of each curve
        cfg = write_config(tmp_path, {"builtin": builtin, "overrides": {"curves": curves}})
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 2
        assert f"'curves.{key}'" in capsys.readouterr().err

    def test_negative_scenario_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {"builtin": "negative_wrong_beta"})
        out = tmp_path / "art"
        assert main(["run", cfg, "--out", str(out)]) == 1
        reports = json.loads((out / "negative_wrong_beta" / "reports.json").read_text())
        assert reports[0]["status"] == "violated"

    def test_property_check_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "name": "ok_check",
            "kind": "property_check",
            "space": {"kind": "euclidean", "dimension": 1},
            "operators": {"B": {"op": "identity"},
                          "T": {"op": "scalar", "c": 0.5}},
        })
        out = tmp_path / "art"
        assert main(["run", cfg, "--out", str(out)]) == 0
        scen = out / "ok_check"
        assert (scen / "reports.json").exists()
        assert (scen / "summary.txt").exists()
        assert (scen / "summary.csv").exists()
        assert (scen / "certificates.json").exists()

    def test_single_run_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"builtin": "negative_wrong_beta"})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", cfg, "--out", str(out1)])
        main(["run", cfg, "--out", str(out2)])
        f1 = out1 / "negative_wrong_beta" / "reports.json"
        f2 = out2 / "negative_wrong_beta" / "reports.json"
        assert f1.read_bytes() == f2.read_bytes()


# a ball of radius 0: x0 = y, solution.b = 0, or second-order bounds b = c = 0
_RADIUS_ZERO_CONFIGS = {
    "first_order": {
        "builtin": "first_order_contraction_1d",
        "overrides": {"initial": {"x0": [0.0]}, "solution": {"point": [0.0], "b": 0},
                      "horizon": 5.0, "step": 0.01, "long_check": None}},
    "second_order": {
        "builtin": "second_order_linear",
        "overrides": {"initial": {"x0": [0.0], "v0": [0.0]},
                      "bounds": {"b": 0, "c": 0, "d": 1}, "oracle": None,
                      "horizon": 20.0, "step": 0.01}},
    "forward_backward_first": {
        "builtin": "forward_backward_first_order",
        "overrides": {"initial": {"x0": [0.0]}, "solution": {"point": [0.0], "b": 0},
                      "horizon": 5.0, "step": 0.01}},
    "forward_backward_second": {
        "builtin": "forward_backward_second_order",
        "overrides": {"initial": {"x0": [0.0], "v0": [0.0]},
                      "bounds": {"b": 0, "c": 0, "d": 1}, "horizon": 10.0, "step": 0.01}},
}


@pytest.mark.parametrize("config", _RADIUS_ZERO_CONFIGS.values(), ids=list(_RADIUS_ZERO_CONFIGS))
def test_radius_zero_holds(tmp_path, config):
    # the flow stays at y, and every claim holds
    assert main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "a")]) == 0


# the radius and start keys the fuzz below draws, per section
_RADIUS_KEYS = {"solution": ("b",), "bounds": ("b", "c", "d")}
_POINT_KEYS = {"solution": ("point",), "initial": ("x0", "v0")}
# the semigroup samplers' run time grows with the size of the start point, so
# their coordinates stay at most 10^2 (about 0.3 s a run there)
_SEMIGROUP_BUILTINS = {"gradient_flow_quadratic", "stojkovic_negation"}


def _fuzz_horizon(name: str) -> dict:
    """The cut flows of the config tests; the objective times of the
    gradient flow reach 10."""
    if name == "second_order_linear":
        return _SHORT_SECOND
    return {**_SHORT, "horizon": 10.0} if name == "gradient_flow_quadratic" else _SHORT


def _radius():
    """0, a small rational, or 10^k as far as the exact reader goes."""
    return st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=9).map(str),
                     st.integers(-400, 400).map(lambda k: str(Fraction(10) ** k)))


def _coordinate(max_exponent: int):
    """0, a small rational, or +-10^k from the subnormals up to 10^max_exponent."""
    power = st.builds(lambda k, sign: sign * 10.0 ** k,
                      st.integers(-320, max_exponent), st.sampled_from([1, -1]))
    return st.one_of(st.just(0.0), st.fractions(-9, 9, max_denominator=9).map(float), power)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(sorted(n for n in builtin_scenarios() if not n.startswith("negative_"))))
def test_radius_and_start_exit_zero_one_or_two(data, name):
    # degenerate and extreme radii and starts: a result or a config error,
    # never a traceback, and exit 1 only with a violated claim
    base = builtin_scenarios()[name].config
    d = base["space"]["dimension"]
    coordinate = _coordinate(2 if name in _SEMIGROUP_BUILTINS else 308)
    overrides = dict(_fuzz_horizon(name))
    for section in ("solution", "bounds", "initial"):
        if section not in base:
            continue
        values = dict(base[section])
        for key in _RADIUS_KEYS.get(section, ()) + _POINT_KEYS.get(section, ()):
            if key in values and data.draw(st.booleans()):
                values[key] = data.draw(st.lists(coordinate, min_size=d, max_size=d)
                                        if key in _POINT_KEYS.get(section, ()) else _radius())
        overrides[section] = values
    if data.draw(st.booleans()):  # start at the solution
        overrides["initial"]["x0"] = overrides["solution"]["point"]
    _assert_exit_zero_one_or_two(name, overrides)


def _assert_exit_zero_one_or_two(name: str, overrides: dict) -> None:
    """The builtin run with ``overrides`` ends in a result or a config error,
    never a traceback, and exits 1 only with a violated claim."""
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["run", write_config(Path(tmp), {"builtin": name, "overrides": overrides}),
                     "--out", f"{tmp}/a"])
        assert code in (0, 1, 2)
        event(f"{name} exit {code}")
        if code == 1:
            reports = json.loads((Path(tmp) / "a" / name / "reports.json").read_text())
            assert any(r["status"] == "violated" for r in reports)


_RK4_BUILTINS = ("first_order_contraction_1d", "first_order_contraction_2d",
                 "second_order_linear", "forward_backward_first_order",
                 "forward_backward_second_order")


def _run_window():
    """A (horizon, step) over decades: at most about 3,000 coarse steps with
    the horizon and the step at most 1e3, or, refused before any step, a
    step in [1e-12, 1e300] with 10^19 steps and more (past numpy's largest
    array) or a horizon past the floats.  The runs let through stop at 1e3:
    a trajectory reaches n * step, and the metastability scans walk every
    integer time up to it when no window passes (FOUND in CHANGES.md)."""
    decade = lambda lo, hi: st.floats(lo, hi).map(lambda k: 10.0 ** k)
    short = st.floats(-12.0, 3.0).flatmap(lambda k: st.builds(
        lambda s: {"horizon": 10.0 ** k, "step": s}, decade(k - math.log10(3000.0), 3.0)))
    refused = st.builds(lambda s, r: {"horizon": s * r, "step": s},
                        decade(-12.0, 300.0), decade(19.0, 308.0))
    return st.one_of(short, refused)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(_RK4_BUILTINS))
def test_run_windows_exit_zero_one_or_two(data, name):
    # horizons and steps over decades, for the main run and for long_check;
    # a horizon past the floats is refused as any non-finite number
    overrides = data.draw(_run_window())
    if "long_check" in builtin_scenarios()[name].config:
        overrides["long_check"] = data.draw(st.one_of(st.none(), _run_window()))
    _assert_exit_zero_one_or_two(name, overrides)


class TestReport:
    def test_formats(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"builtin": "negative_wrong_beta"})
        out = tmp_path / "art"
        main(["run", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["scenario"] == "negative_wrong_beta"
        assert main(["report", str(out), "--format", "csv"]) == 0
        assert "scenario,claim,status" in capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        assert "violated" in capsys.readouterr().out

    def test_missing_dir(self):
        assert main(["report", "/nonexistent/dir"]) == 2

    @pytest.mark.parametrize("text", ["not json", '{"claim": "c", "status": "holds"}',
                                      '[{"claim": "c"}]'],
                             ids=["not_json", "not_a_list", "entry_without_status"])
    def test_malformed_reports_exit_two(self, tmp_path, capsys, text):
        reports = tmp_path / "art" / "scenario" / "reports.json"
        reports.parent.mkdir(parents=True)
        reports.write_text(text)
        assert main(["report", str(tmp_path / "art")]) == 2
        assert f"report error: {reports}" in capsys.readouterr().err

    def test_no_reports_exit_two(self, tmp_path, capsys):
        # an existing directory without reports is not a run whose checks held
        (tmp_path / "art" / "scenario").mkdir(parents=True)
        assert main(["report", str(tmp_path / "art")]) == 2
        assert "report error: no reports.json" in capsys.readouterr().err


@given(st.floats())
@example(1.7763568394002505e-15)  # second_order_linear's closed_form_match error
def test_numpy_and_python_floats_serialize_alike(x):
    assert json.dumps(_sanitize(np.float64(x))) == json.dumps(_sanitize(float(x)))


def test_imports_leave_scipy_unloaded():
    # numpy is the one runtime dependency: importing the package, its CLI
    # and its pipelines loads no scipy module
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, fejerflow, fejerflow.cli, fejerflow.scenarios; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"
