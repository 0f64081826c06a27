"""CLI: subcommands, exit codes, artifact layout, determinism of one run."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fejerflow import operators
from fejerflow.cli import _THEOREMS, _sanitize, main
from fejerflow.exact import get_budget_bits, set_budget_bits
from fejerflow.scenarios import builtin_scenarios
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

    @pytest.mark.parametrize("f, key", [('{"kind": "constant", "k": []}', "'f.k'"),
                                        ("[1]", "'f'")], ids=["list_k", "list_spec"])
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

    def test_decimal_param_is_its_decimal_value(self, capsys):
        # ceil(2 B / eps) ceil((c + B - b) / eps) = 2 * 2 at eps = 3/10; the
        # double 0.3 lies below 3/10 and gives 3 * 3
        values = []
        for eps in ("0.3", "3/10"):
            assert main(["certify", "aas1_metastability", "--param", "b=0", "--param", "c=3/10",
                         "--param", "B=3/10", "--param", f"eps={eps}", "--param", "f=1"]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values == [4, 4]

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
    "forward_backward_second_two_counterfunctions": "'metastability.counterfunctions'",
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


@given(st.floats())
@example(1.7763568394002505e-15)  # second_order_linear's closed_form_match error
def test_numpy_and_python_floats_serialize_alike(x):
    assert json.dumps(_sanitize(np.float64(x))) == json.dumps(_sanitize(float(x)))
