"""Certificate calculators: worked examples, oracle agreement, invariants."""

import inspect
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from fejerflow import moduli
from fejerflow.counterfunctions import Counterfunction as CF
from fejerflow.exact import R, budget_limit, get_budget_bits, set_budget_bits
from fejerflow.moduli import (
    ChiModulus,
    ErrorRate,
    LiminfBound,
    ModulusBundle,
    PerturbationFn,
    PerturbationPair,
    ball_modulus,
    delta_first_order,
    delta_general,
    delta_gradient_flow,
    delta_stojkovic,
    delta_uniform_continuity,
    delta_with_error_rate,
    first_order_bundle,
    gradient_flow_bundle,
    monotone_liminf_bound,
    rho_convergence_regular,
    rho_metastable_regular,
    second_order_constants,
    stojkovic_bundle,
)
from fejerflow.verify import _perturb


class TestAAS1:
    def test_worked_example(self):
        # omega = ceil(2)*ceil(2) = 4; f == 1 iterates to 4
        assert moduli.aas1_metastability(0, 1, 1, 1, CF.constant(1)).value == 4

    def test_zero_error_mass(self):
        assert moduli.aas1_metastability(0, 1, 0, 1, CF.constant(1)).value == 0

    def test_fixed_point_of_identity(self):
        # omega = ceil(4)*ceil(10) = 40 but f~(0) = 0 is a fixed point
        cert = moduli.aas1_metastability(0, 2, F(1, 2), F(1, 4), CF.identity_plus(0))
        assert cert.value == 0

    def test_precondition(self):
        with pytest.raises(ValueError):
            moduli.aas1_metastability(2, 1, 1, 1, CF.constant(0))


class TestAAS2:
    def test_zero_error(self):
        assert moduli.aas2_metastability(1, 1, 0, 1, 1, 1, CF.constant(0)).value == 0

    def test_varpi_q1(self):
        # c=A=B=1, p=r=1 -> q=1, varpi = ceil(4) * ceil(4) = 16; f' floor 3
        cert = moduli.aas2_metastability(1, 1, 1, 1, 1, 1, CF.constant(0))
        assert cert.value == 16 * 3

    def test_fractional_q_against_oracle(self):
        ours = moduli.aas2_metastability(1, 2, F(1, 3), F(3, 2), F(2), F(5, 4),
                                         CF.constant(1))
        theirs = oracles.aas2(F(1), F(2), F(1, 3), F(3, 2), F(2), F(5, 4),
                              CF.constant(1))
        assert ours.value == theirs

    def test_r_infinite(self):
        ours = moduli.aas2_metastability(1, 2, F(1, 2), 2, None, F(3, 2),
                                         CF.constant(1))
        theirs = oracles.aas2(F(1), F(2), F(1, 2), F(2), None, F(3, 2),
                              CF.constant(1))
        assert ours.value == theirs


class TestMonotoneLiminf:
    def test_worked_example(self):
        phi_hat = monotone_liminf_bound(lambda e, n: (1 / e).ceil())
        assert phi_hat(F(1, 2), 0) == 3

    def test_eps_at_least_one(self):
        phi_hat = monotone_liminf_bound(lambda e, n: (1 / e).ceil())
        assert phi_hat(2, 0) == 2  # max over k <= 1

    def test_dominates_raw_and_monotone(self):
        raw = lambda e, n: (1 / e).ceil() + n
        phi_hat = monotone_liminf_bound(raw)
        for eps in (F(1, 3), F(1, 2), F(2, 3), F(1)):
            assert phi_hat(eps, 5) >= raw(R(eps), 5)
        assert phi_hat(F(1, 4), 0) >= phi_hat(F(1, 2), 0)

    def test_bundle_constructor_wraps(self):
        # a deliberately non-monotone raw bound still yields a monotone phi
        raw = lambda e, n: 5 - (1 / e).ceil() if (1 / e).ceil() <= 4 else 9
        phi = LiminfBound.monotonized(raw)
        assert phi.eval(R(F(1, 8)), 0) >= phi.eval(R(F(1, 2)), 0)


def simple_bundle(**overrides):
    defaults = dict(
        phi=LiminfBound(lambda e: (1 / e).ceil(), unary=True),
        chi=ChiModulus.scaled_inverse(1),
        eta=ErrorRate.zero(),
        gamma_tb=lambda e: 0,
    )
    defaults.update(overrides)
    return ModulusBundle(**defaults)


class TestDeltaRecursions:
    def test_with_error_rate_worked_example(self):
        # P=1, phi=ceil(1/e), chi=e/m, f==1, eps=1 -> 13
        assert delta_with_error_rate(simple_bundle(), 1, CF.constant(1)).value == 13

    def test_eta_constant_zero_matches_zero_error(self):
        conv = simple_bundle(eta=ErrorRate.convergence(lambda e: 0))
        zero = simple_bundle()
        for f in (CF.constant(0), CF.constant(2), CF.identity_plus(1)):
            assert delta_with_error_rate(conv, 1, f).value == \
                delta_with_error_rate(zero, 1, f).value

    def test_general_trivial_maxima(self):
        bundle = simple_bundle(
            phi=LiminfBound(lambda e, n: n),
            eta=ErrorRate.metastability(lambda e, f: 0),
            gamma_tb=lambda e: 3,
        )
        assert delta_general(bundle, 1, CF.constant(0)).value == 1

    def test_uniform_continuity_identity_omega(self):
        # omega = Id evaluates the core at min(eps, eps/2) = eps/2
        bundle = simple_bundle(omega=lambda e: e)
        direct = delta_with_error_rate(simple_bundle(), F(1, 2), CF.constant(1),
                                       chi_cap=F(1, 2))
        assert delta_uniform_continuity(bundle, 1, CF.constant(1)).value == direct.value

    def test_uniform_continuity_inactive_cap_matches_plain(self):
        # large omega and chi far below eps/2: cap and min are inactive
        bundle = simple_bundle(omega=lambda e: R(10) * e)
        assert delta_uniform_continuity(bundle, 1, CF.constant(1)).value == \
            delta_with_error_rate(simple_bundle(), 1, CF.constant(1)).value

    def test_uniform_continuity_meta_eta_variant(self):
        common = dict(phi=LiminfBound(lambda e, n: n + (1 / e).ceil()),
                      gamma_tb=lambda e: 1)
        meta = simple_bundle(eta=ErrorRate.metastability(lambda e, f: 0),
                             omega=lambda e: R(10) * e, **common)
        plain = simple_bundle(eta=ErrorRate.metastability(lambda e, f: 0),
                              **common)
        assert delta_uniform_continuity(meta, 1, CF.constant(1)).value == \
            delta_general(plain, 1, CF.constant(1)).value

    def test_monotone_in_counterfunction(self):
        bundle = simple_bundle(gamma_tb=lambda e: 2)
        pairs = [(CF.constant(0), CF.constant(1)),
                 (CF.constant(1), CF.constant(3)),
                 (CF.linear(1, 0), CF.linear(1, 2)),
                 (CF.constant(2), CF.identity_plus(2))]
        for lo, hi in pairs:
            assert delta_with_error_rate(bundle, 1, lo).value <= \
                delta_with_error_rate(bundle, 1, hi).value

    def test_deterministic(self):
        bundle = simple_bundle(gamma_tb=lambda e: 4)
        a = delta_with_error_rate(bundle, F(1, 3), CF.identity_plus(1))
        b = delta_with_error_rate(bundle, F(1, 3), CF.identity_plus(1))
        assert a.value == b.value


class TestRhoRates:
    def test_metastable_single_n(self):
        bundle = simple_bundle(
            phi=LiminfBound(lambda e, n: n + (1 / e).ceil()),
            eta=ErrorRate.metastability(lambda e, f: 0),
            tau=lambda e: e,
        )
        assert rho_metastable_regular(bundle, 1, CF.constant(0)).value == 3

    def test_matches_convergence_variant_on_constant_eta(self):
        mk = lambda eta: simple_bundle(
            phi=LiminfBound(lambda e, n: n + (1 / e).ceil()),
            eta=eta, tau=lambda e: e)
        a = rho_metastable_regular(mk(ErrorRate.metastability(lambda e, f: 2)),
                                   1, CF.constant(0))
        b = rho_convergence_regular(mk(ErrorRate.convergence(lambda e: 2)), 1)
        assert a.value == b.value

    def test_zero_error_branch_bacak(self):
        bundle = ModulusBundle(
            phi=LiminfBound(lambda e: (R(4) / e).ceil(), unary=True),
            eta=ErrorRate.zero(),
            pair=PerturbationPair.squares(),
            tau=lambda e: e,
        )
        cert = rho_convergence_regular(bundle, 1)
        assert cert.value == 5
        assert cert.trace == {"branch": "zero_error"}

    def test_zero_error_trivial(self):
        bundle = simple_bundle(tau=lambda e: e)
        assert rho_convergence_regular(bundle, F(1, 2)).value == 3

    def test_stojkovic_branch(self):
        bundle = ModulusBundle(
            phi=LiminfBound(lambda e: ((4 / e) * (4 / e).exp()).ceil(), unary=True),
            eta=ErrorRate.zero(), tau=lambda e: e,
        )
        assert rho_convergence_regular(bundle, 4).value == 4


class TestFastLinearRate:
    def test_values(self):
        assert moduli.fast_linear_rate(1, 1, 2) == pytest.approx(2 ** -0.5)
        assert moduli.fast_linear_rate(3, 1, 1) == pytest.approx(0.25)

    def test_degenerate_regularity(self):
        assert moduli.fast_linear_rate(1, 1e-9, 1) > 0.999999

    def test_open_interval(self):
        c = moduli.fast_linear_rate(2, 0.5, 3)
        assert 0 < c < 1

    @pytest.mark.parametrize("beta, k, p, c", [
        (1, 10, 1000, 0.1),  # 10^1000 is no float
        (1e-300, 10, 400, 10 ** -0.25),  # 10^400 is none, beta 10^400 = 10^100 is
        (2, 1e300, 1e300, 1e-300),  # p log k is none
    ])
    def test_past_the_floats(self, beta, k, p, c):
        assert moduli.fast_linear_rate(beta, k, p) == pytest.approx(c, rel=1e-12)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            moduli.fast_linear_rate(0, 1, 1)
        with pytest.raises(ValueError):
            moduli.fast_linear_rate(1, -1, 1)


class TestBallTotalBoundedness:
    def test_examples(self):
        assert moduli.ball_total_boundedness(1, 1, 1).value == 4
        assert moduli.ball_total_boundedness(2, 1, F(1, 2)).value == 81
        assert moduli.ball_total_boundedness(3, 0, 1).value == 0

    def test_overflow_large_dimension(self):
        assert moduli.ball_total_boundedness(1000, 10, F(1, 100)).is_overflow


class TestRegularityModuli:
    def test_catalog(self):
        assert moduli.regularity_modulus("quasi_contraction", c=F(1, 2))(1).exact == F(1, 2)
        assert moduli.regularity_modulus("retraction")(2).exact == 2
        assert moduli.regularity_modulus("strongly_quasiconvex", rho=2)(1).exact == 1
        assert moduli.regularity_modulus("metric_subregular", k=4)(1).exact == F(1, 4)
        assert moduli.regularity_modulus("strongly_accretive", beta=3)(2).exact == 6

    def test_linear_kinds_carry_their_slope(self):
        slope = lambda kind, **params: moduli.regularity_modulus(kind, **params).slope
        assert slope("quasi_contraction", c=F(1, 2)) == F(1, 2)
        assert slope("orbital_contraction", c=0) == 1
        assert slope("retraction") == 1
        assert slope("metric_subregular", k=4) == F(1, 4)
        assert slope("strongly_accretive", beta=3) == 3
        assert slope("strongly_quasiconvex", rho=2) is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            moduli.regularity_modulus("quasi_contraction", c=1)
        with pytest.raises(ValueError, match="'k' must be positive"):
            moduli.regularity_modulus("metric_subregular", k=0)
        with pytest.raises(ValueError):
            moduli.regularity_modulus("not_a_kind")


class TestDeltaFirstOrder:
    def test_degenerate_b(self):
        assert delta_first_order(1, 0, {"lower_witness": 1}, 1, CF.constant(0)).value == 1

    def test_against_literal_oracle(self):
        ours = delta_first_order(1, F(1, 2), {"lower_witness": 1}, 2, CF.constant(1))
        theirs = oracles.delta_first_order(1, F(1, 2), F(1), F(2), CF.constant(1))
        assert ours.value == theirs

    def test_divergence_modulus_path(self):
        div = lambda K: K.ceil()
        cert = delta_first_order(1, 1, {"divergence_modulus": div}, 1, CF.constant(0))
        # eps_hat = min(1/2, (1/12)/4) = 1/48; phi = ceil(48^2) = 2304
        assert cert.value == 2305

    def test_levels_stop_at_fixed_point(self):
        # f == 0 gives the same eps_hat at every level: the second level
        # repeats the first and the loop stops there, P levels short
        cert = delta_first_order(2, 1, {"lower_witness": F(1, 2)}, F(1, 4),
                                 CF.constant(0))
        assert cert.value == 9437185
        assert cert.trace == {"P": 1850, "levels": [0, 9437184, 9437184]}

    def test_levels_of_growing_f_rise_to_fixed_point(self):
        # a table f rises over its first arguments and then stays put
        f = CF.table({1: 1, 2: 3}, default=5)
        cert = delta_first_order(1, F(1, 2), {"lower_witness": 1}, 2, f)
        levels = cert.trace["levels"]
        assert levels == sorted(levels) and levels[-1] == levels[-2]
        assert cert.value == levels[-1] + 1
        assert cert.value == oracles.delta_first_order(1, F(1, 2), F(1), F(2), f)

    def test_large_P_finishes(self):
        # P = 624,101 levels, which a full loop took 44 s to walk
        t0 = time.perf_counter()
        cert = delta_first_order(2, 1, {"lower_witness": F(1, 2)}, F(1, 80),
                                 CF.constant(1))
        assert cert.value == 6039797760001
        assert time.perf_counter() - t0 < 1.0

    def test_irrational_radius_large_P(self):
        # a running minimum over 16,217 irrational levels took 11.6 s
        cert = delta_first_order(1, R(3).powq(F(1, 7)), {"lower_witness": F(1, 2)},
                                 F(1, 2000), CF.constant(1))
        assert cert.trace["P"] == 16217
        assert cert.value == 6049834676386033816


class TestSecondOrder:
    def test_constants_worked_example(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        assert cs.M == F(5, 2)
        assert abs(cs.K.to_float() - 6 ** 0.5) < 1e-12

    def test_constants_degenerate(self):
        cs = second_order_constants(0, 0, 0, 1, 1, 1, 1, 1, 1)
        assert cs.M == 0 and cs.K.exact == 0
        cs2 = second_order_constants(2, 0, 0, 1, 1, 1, 3, 1, 1)
        assert cs2.M == 6  # gamma_hi b^2 / 2

    def test_l_variants_exposed(self):
        cs_m = second_order_constants(1, 1, 1, 2, 2, 3, 3, 1, 1, l_variant="multiply")
        cs_d = second_order_constants(1, 1, 1, 2, 2, 3, 3, 1, 1, l_variant="divide")
        assert cs_m.L == cs_m.L_mult and cs_d.L == cs_d.L_div
        assert cs_m.L_mult != cs_m.L_div

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError):
            second_order_constants(1, 1, 1, 2, 1, 1, 1, 1, 1)

    def test_lambda_zero_product(self):
        cs = second_order_constants(0, 0, 3, 1, 1, 1, 1, 1, 1)
        assert moduli.lambda_capital(cs, 1, CF.constant(0)).value == 0

    @settings(max_examples=80, deadline=None)
    @given(b=st.sampled_from([0, F(1, 10), F(1, 2), 1, 3]), c=st.sampled_from([0, F(1, 3), 1]),
           d=st.sampled_from([0, F(1, 4), 1, 2]), lam=st.sampled_from([F(1, 2), 1, 2]),
           lam_ratio=st.integers(1, 3), gam=st.sampled_from([F(1, 2), 1, 3]),
           gam_ratio=st.integers(1, 2), theta=st.sampled_from([F(1, 2), 1, F(7, 2)]),
           beta=st.sampled_from([F(1, 2), 1, 2]),
           eps=st.fractions(F(1, 100), 50, max_denominator=100),
           f=st.sampled_from([CF.constant(0), CF.constant(3), CF.identity_plus(1),
                              CF.linear(1, 1), CF.table({0: 2, 3: 1}, default=1)]))
    def test_lambda_is_aas2_at_p_r_2(self, b, c, d, lam, lam_ratio, gam, gam_ratio, theta,
                                     beta, eps, f):
        cs = second_order_constants(b, c, d, lam, lam * lam_ratio, gam, gam * gam_ratio,
                                    theta, beta)
        ours = moduli.lambda_capital(cs, eps, f)
        assert ours.to_json() == moduli.aas2_metastability(cs.C, cs.A, cs.B, 2, 2, eps, f).to_json()

    def test_lambda_against_oracle(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        oc = oracles.second_order_constants_iv(1, 1, 1, 1, 1, 1, 1, 1, 1)
        ours = moduli.lambda_capital(cs, 8, CF.constant(1))
        theirs = oracles.lambda_capital(oc, F(8), CF.constant(1))
        assert ours.value == theirs

    def test_varpi_scaling_prescaled(self):
        # doubling eps divides both pre-ceiling arguments by 4
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        e1, e2 = R(F(1, 2)), R(F(1))
        first = lambda e: (16 * cs.A * cs.B / (3 * e * e))
        ratio = (first(e1) / first(e2)).to_float()
        assert ratio == pytest.approx(4.0)

    def test_delta_degenerate(self):
        cs = second_order_constants(0, 0, 0, 1, 1, 1, 1, 1, 1)
        assert moduli.delta_second_order(cs, 1, 1, CF.constant(0)).value == 1

    def test_delta_full_recursion_against_oracle(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        for eps in (F(40), F(50), F(100)):
            ours = moduli.delta_second_order(cs, 1, eps, CF.constant(0))
            theirs = oracles.delta_second_order_f0(1, 1, 1, 1, 1, 1, 1, 1, 1,
                                                   1, eps)
            assert ours.value == theirs

    def test_delta_monotone_in_eps(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        big = moduli.delta_second_order(cs, 1, 50, CF.constant(0))
        small = moduli.delta_second_order(cs, 1, 40, CF.constant(0))
        assert not big.is_overflow and not small.is_overflow
        assert small.value >= big.value

    def test_delta_overflow_surfaced(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        assert moduli.delta_second_order(cs, 1, 1, CF.constant(0)).is_overflow


class TestFbUniformMonotone:
    def test_first_order_min_saturation(self):
        # enormous phi_fn saturates the inner min at eps/2, so the residual
        # branch equals flow_rate(eps/2); the B-branch rate is 1 and the
        # combined rate is their max
        flow_rate = lambda e: (1 / e).ceil()
        huge = lambda e: R(10 ** 6)
        cert = moduli.fb_uniform_monotone_rate(
            "first", "A", huge, 1, b=1, gamma=1, beta=1, flow_rate=flow_rate)
        assert cert.value == flow_rate(R(F(1, 2)))

    def test_first_order_hand_arithmetic(self):
        # b=gamma=beta=1, phi_fn=id, eps=2:
        #   residual branch: flow_rate(min(1/2, 1)) = flow_rate(1/2) = 2
        #   B branch:        psi(1/2) = flow_rate(1/12) = 12
        flow_rate = lambda e: (1 / e).ceil()
        cert = moduli.fb_uniform_monotone_rate(
            "first", "A", lambda e: e, 2, b=1, gamma=1, beta=1, flow_rate=flow_rate)
        assert cert.value == max(flow_rate(R(F(1, 2))), flow_rate(R(F(1, 12))))

    def test_strong_monotonicity_plugs_through(self):
        # B-branch: psi(phi(eps)/b) = flow_rate(gamma beta (eps^2)^2 / (3 b))
        # at b = gamma = beta = 1, eps = 1/2: flow_rate(1/48) = 48
        flow_rate = lambda e: (1 / e).ceil()
        phi_fn = lambda e: e * e  # rho = 1
        cert = moduli.fb_uniform_monotone_rate(
            "first", "B", phi_fn, F(1, 2), b=1, gamma=1, beta=1, flow_rate=flow_rate)
        assert cert.value == 48

    def test_radius_zero_is_zero(self):
        # x(t) = y throughout: a ball of radius 0 (first order) or K = 0
        # (second order, where A = B = 0) certifies 0
        flow_rate = lambda e: (1 / e).ceil()
        assert moduli.fb_psi_rate(flow_rate, 0, 1, 1, F(1, 2)) == 0
        for who in ("A", "B"):
            assert moduli.fb_uniform_monotone_rate(
                "first", who, lambda e: e, 1, b=0, gamma=1, beta=1, flow_rate=flow_rate).value == 0
        still = second_order_constants(0, 0, 1, 1, 1, 3, 3, 1, 1)
        assert still.K.exact == 0
        assert moduli.sfb_b_rate(still, 1, F(1, 2), CF.identity_plus(1)).value == 0
        assert moduli.fb_uniform_monotone_rate(
            "second", "B", lambda e: e * e, F(1, 2), consts=still, eta_step=1,
            f=CF.identity_plus(1)).value == 0

    def test_psi_is_the_flow_rate_at_its_argument(self):
        # b = gamma = beta = 1, eps = 1/2: flow_rate(1/12) = 12
        assert moduli.fb_psi_rate(lambda e: (1 / e).ceil(), 1, 1, 1, F(1, 2)) == 12

    def test_second_order_theta(self):
        cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
        cert = moduli.fb_uniform_monotone_rate(
            "second", "B", lambda e: e * e, 4, consts=cs, eta_step=1,
            f=CF.constant(0))
        assert not cert.is_overflow


class TestHadamardCertificates:
    def test_gradient_flow_examples(self):
        gt = ball_modulus(1, 1)
        assert delta_gradient_flow(1, gt, 1, CF.constant(0)).value == 25
        assert delta_gradient_flow(0, gt, 1, CF.constant(0)).value == 1

    def test_gradient_flow_against_oracle(self):
        rng = random.Random(3)
        gt = ball_modulus(1, 2)
        for _ in range(10):
            eps = F(rng.randint(1, 8), rng.randint(1, 4))
            f = CF.constant(rng.randint(0, 3))
            ours = delta_gradient_flow(2, gt, eps, f)
            theirs = oracles.delta_gradient_flow(F(2), 1, eps, f)
            assert ours.value == theirs

    def test_gradient_flow_needs_monotone_f(self):
        with pytest.raises(ValueError):
            delta_gradient_flow(1, ball_modulus(1, 1), 1,
                                CF.table({0: 5}, default=0))

    def test_stojkovic_examples(self):
        gt = ball_modulus(1, 1)
        assert delta_stojkovic(0, gt, 1, CF.constant(0)).value == 0
        cert = delta_stojkovic(1, gt, 1, CF.constant(0))
        assert cert.value == oracles.delta_stojkovic(F(1), 1, F(1), CF.constant(0))

    def test_stojkovic_overflow_sentinel(self):
        gt = ball_modulus(1, 1)
        assert delta_stojkovic(1, gt, F(1, 1000), CF.identity_plus(0)).is_overflow

    def test_stojkovic_ceiling_determinism(self):
        gt = ball_modulus(1, 1)
        a = delta_stojkovic(1, gt, F(3, 2), CF.constant(0)).value
        b = delta_stojkovic(1, gt, F(3, 2), CF.constant(0)).value
        assert a == b and a > 0


# the counterfunction families of the certify_verify catalogue
# (suitebench/catalogue.py FAMILIES)
_CATALOGUE_FAMILIES = st.sampled_from(
    [CF.constant(k) for k in (0, 1, 2, 3)]
    + [CF.identity_plus(k) for k in (1, 2)]
    + [CF.linear(2, k) for k in (1, 2)]
    + [CF.table({0: 1, 1: 2}, default=3), CF.table({0: 2}, default=3),
       CF.table({0: 1}, default=2)]
    + [CF.compose(CF.linear(2, 0), CF.identity_plus(k)) for k in (1, 2)])


def _assert_oracle_agrees(cert, oracle) -> None:
    """``cert`` is the value of the independent route ``oracle``; an overflow
    is checked against budget_limit(), as acceptance criterion 1 does."""
    try:
        theirs = oracle()
    except (AssertionError, OverflowError) as exc:
        # the oracle declines: its literal loops stop past levels of 100,000,
        # its 256-bit intervals cannot fix the ceiling of a term past 2^256 or
        # of an integer-valued irrational one, and mpmath refuses towers
        event("oracle declines")
        assert cert.is_overflow or max(cert.trace["levels"]) > 100_000 \
            or "ceiling undetermined" in str(exc)
        return
    event("overflow" if cert.is_overflow else "value")
    if cert.is_overflow:
        assert theirs > budget_limit()
    else:
        assert cert.value == theirs


class TestDeltaCalculatorsAgainstOracles:
    """Each Delta calculator is its bundle through ``_delta_core``; these
    properties check it against the straight-line routes of ``oracles``."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 2), b=st.integers(1, 4), eps=st.integers(2, 16),
           f=_CATALOGUE_FAMILIES)
    def test_first_order(self, d, b, eps, f):
        # b = k/(4d) and eps = n/2 keep the ball count within the oracle's
        # literal loops
        b, eps = F(b, 4 * d), F(eps, 2)
        cert = delta_first_order(d, b, {"lower_witness": F(1, 2)}, eps, f)
        _assert_oracle_agrees(cert, lambda: oracles.delta_first_order(d, b, F(1, 2), eps, f))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 2), b=st.fractions(0, 3, max_denominator=4),
           eps=st.fractions(F(1, 4), 4, max_denominator=8), f=_CATALOGUE_FAMILIES)
    def test_gradient_flow(self, d, b, eps, f):
        cert = delta_gradient_flow(b, ball_modulus(d, b), eps, f)
        _assert_oracle_agrees(cert, lambda: oracles.delta_gradient_flow(b, d, eps, f))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 2), b=st.fractions(F(1, 8), 1, max_denominator=8),
           eps=st.fractions(F(1, 2), 12, max_denominator=4), f=_CATALOGUE_FAMILIES)
    def test_stojkovic(self, d, b, eps, f):
        # a tower: only small b / eps and slow f stay within the budget
        cert = delta_stojkovic(b, ball_modulus(d, b), eps, f)
        _assert_oracle_agrees(cert, lambda: oracles.delta_stojkovic(b, d, eps, f))

    @settings(max_examples=12, deadline=None)
    @given(b=st.sampled_from([F(1, 10), F(1, 5)]), c=st.sampled_from([0, F(1, 10)]),
           d=st.sampled_from([0, F(1, 4), F(1, 2)]), lam=st.sampled_from([F(1, 2), 1]),
           lam_ratio=st.integers(1, 2), gam=st.integers(1, 2),
           theta=st.integers(1, 2), beta=st.integers(1, 2), dim=st.integers(1, 2),
           eps=st.integers(12, 24))
    def test_second_order_f0(self, b, c, d, lam, lam_ratio, gam, theta, beta, dim, eps):
        # the oracle unrolls the nested recursion for f = 0 only; small
        # constants and a large eps keep the values within the budget
        args = (b, c, d, lam, lam * lam_ratio, gam, gam, theta, beta)
        cert = moduli.delta_second_order(second_order_constants(*args), dim, eps,
                                         CF.constant(0))
        _assert_oracle_agrees(cert, lambda: oracles.delta_second_order_f0(*args, dim, F(eps)))

    def test_degenerate_guards(self):
        # a radius or a K of 0 runs through the one recursion: a bundle at
        # b = 0 builds, its chi^M_f restricts nothing (the cap alone bounds
        # eps_hat), phi is 0, and every trace is the generic [0, 0]
        flat = first_order_bundle(1, 0, {"lower_witness": F(1, 2)})
        assert flat.chi.chi_f_min(R(F(1, 4)), 0, CF.constant(0)) is None
        assert flat.chi.at_float(0.5, 4) == math.inf
        fo = delta_first_order(1, 0, {"lower_witness": F(1, 2)}, F(1, 4), CF.identity_plus(1))
        assert (fo.value, fo.trace) == (1, {"P": 1, "levels": [0, 0]})
        still = second_order_constants(0, 0, 0, 1, 1, 1, 1, 1, 1)
        so = moduli.delta_second_order(still, 1, F(1, 4), CF.identity_plus(1))
        assert (so.value, so.trace) == (1, {"P": 1, "levels": [0, 0]})
        st0 = delta_stojkovic(0, ball_modulus(1, 0), 1, CF.constant(0))
        assert (st0.value, st0.trace) == (0, {"P": 1, "levels": [0, 0]})

    def test_chi_restricting_nothing_needs_a_cap(self):
        flat = simple_bundle(chi=ChiModulus.scaled_inverse(0))
        with pytest.raises(ValueError, match="needs a chi cap"):
            delta_with_error_rate(flat, 1, CF.constant(0))
        assert delta_with_error_rate(flat, 1, CF.constant(0), F(1, 2)).value == 3

    def test_stojkovic_is_its_bundle_less_one(self):
        # the theorem's bound drops the abstract recursion's final +1; its
        # trace is the bundle's, leading 0 included
        gt = ball_modulus(1, 1)
        cert = delta_stojkovic(1, gt, 1, CF.constant(0))
        gen = delta_with_error_rate(stojkovic_bundle(1, gt), 1, CF.constant(0))
        assert cert.value == gen.value - 1
        assert cert.trace == gen.trace and cert.trace["levels"][0] == 0
        assert cert.trace["P"] == 15


class TestPerturbationPairs:
    def test_canonical_moduli(self):
        power = PerturbationFn(F(2))
        assert power.h(R(3)).exact == 9
        scaled = PerturbationFn(F(2), F(4))
        assert scaled.g(R(1)).exact == F(1, 2)  # (eps/c)^(1/p)

    def test_apply(self):
        # check_fejer applies G and H as floats over its distance array
        pair = PerturbationPair.squares()
        assert _perturb(pair.H, np.array([3.0]))[0] == 9
        assert _perturb(pair.G, np.array([2.0]))[0] == 4

    @settings(max_examples=60, deadline=None)
    @given(eps=st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6))
    @example(eps=F(9, 4))  # an exact root
    def test_g_h_enclose_like_the_lambdas_they_replace(self, eps):
        # the squares and the identity give the enclosures of the sqrt,
        # square and identity lambdas the bundles once carried, at every
        # precision, on the exact eps those bundles receive
        e = R(eps)
        square, identity = PerturbationFn(F(2)), PerturbationFn()
        for ours, theirs in ((square.g(e), e.sqrt()), (square.h(e), e * e),
                             (identity.g(e), e), (identity.h(e), e)):
            assert ours.exact == theirs.exact
            for bits in (64, 256, 1024):
                assert ours.bounds(bits) == theirs.bounds(bits)


class TestFloatChi:
    @settings(max_examples=100, deadline=None)
    @given(b=st.one_of(st.fractions(F(1, 10 ** 6), 10 ** 9, max_denominator=10 ** 6),
                       st.floats(1e-300, 1e300).map(lambda x: F(str(x)))),
           e=st.floats(1e-6, 10.0), m=st.integers(1, 10 ** 6), d=st.integers(1, 3))
    def test_first_order_is_the_lambda_it_replaces(self, b, e, m, d):
        # bit for bit in the normal float range, where 4 float(b) = float(4b)
        chi = first_order_bundle(d, b, {"lower_witness": F(1, 2)}).chi
        assert chi.at_float(e, m) == e / (4 * float(b) * m)

    def test_radius_zero_restricts_nothing(self):
        assert first_order_bundle(1, 0, {"lower_witness": F(1, 2)}).chi.at_float(0.1, 3) == \
            math.inf
        still = second_order_constants(0, 0, 0, 1, 1, 1, 1, 1, 1)
        assert moduli.second_order_bundle(still, 1).chi.at_float(0.1, 3) == math.inf

    @pytest.mark.parametrize("m", [1, 4, 16, 400, 10 ** 6])
    def test_exp_window_does_not_overflow(self, m):
        # c eps / (e^{2m} - 1), to a few ulps where e^{2m} is a float; 0 past it
        got = ChiModulus.exp_window(2).at_float(0.5, m)
        want = 1.0 / math.expm1(2 * m) if 2 * m < 709 else 0.0
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _overflowing_calls(eps=None):
    """One over-budget call (at 8 bits) of every certificate calculator, each
    at its own eps, or at ``eps`` when one is given."""
    cs = second_order_constants(1, 1, 1, 1, 1, 1, 1, 1, 1)
    meta_phi = LiminfBound(lambda e, n: n + (1 / e).ceil())
    meta = dict(phi=meta_phi, eta=ErrorRate.metastability(lambda e, f: 0))
    small, tenth, one = (x if eps is None else eps for x in (F(1, 1000), F(1, 10), 1))
    return {
        "aas1_metastability": lambda: moduli.aas1_metastability(
            0, 1, 1, small, CF.constant(1)),
        "aas2_metastability": lambda: moduli.aas2_metastability(
            1, 1, 1, 1, 1, small, CF.constant(0)),
        "delta_general": lambda: delta_general(
            simple_bundle(gamma_tb=lambda e: 1, **meta), small, CF.constant(0)),
        "delta_with_error_rate": lambda: delta_with_error_rate(
            simple_bundle(), small, CF.constant(1)),
        "delta_uniform_continuity": lambda: delta_uniform_continuity(
            simple_bundle(omega=lambda e: e), small, CF.constant(1)),
        "rho_metastable_regular": lambda: rho_metastable_regular(
            simple_bundle(tau=lambda e: e, **meta), small, CF.constant(0)),
        "rho_convergence_regular": lambda: rho_convergence_regular(
            simple_bundle(tau=lambda e: e), small),
        "ball_total_boundedness": lambda: moduli.ball_total_boundedness(1, 1, small),
        "delta_first_order": lambda: delta_first_order(
            1, 1, {"lower_witness": F(1, 2)}, tenth, CF.constant(0)),
        "lambda_capital": lambda: moduli.lambda_capital(cs, tenth, CF.constant(1)),
        "delta_second_order": lambda: moduli.delta_second_order(
            cs, 1, one, CF.constant(0)),
        "sfb_b_rate": lambda: moduli.sfb_b_rate(cs, 1, tenth, CF.constant(1)),
        "fb_uniform_monotone_rate": lambda: moduli.fb_uniform_monotone_rate(
            "first", "B", lambda e: e * e, small, b=1, gamma=1, beta=1,
            flow_rate=lambda e: (1 / e).ceil()),
        "delta_gradient_flow": lambda: delta_gradient_flow(
            1, ball_modulus(1, 1), small, CF.constant(0)),
        "delta_stojkovic": lambda: delta_stojkovic(
            1, ball_modulus(1, 1), one, CF.constant(0)),
    }


class TestCertificateBoundary:
    def test_every_calculator_is_behind_the_boundary(self):
        wrapped = {name for name in moduli.__all__
                   if hasattr(getattr(moduli, name), "__wrapped__")}
        assert wrapped == set(_overflowing_calls())

    def test_no_calculator_takes_a_trace(self):
        for name in _overflowing_calls():
            calc = getattr(moduli, name)
            assert "trace" not in inspect.signature(calc).parameters, name
        with pytest.raises(TypeError):
            delta_gradient_flow(1, ball_modulus(1, 1), 1, CF.constant(0), trace={})
        with pytest.raises(TypeError):
            moduli.ball_total_boundedness(1, 1, 1, trace={})

    def test_overflow_with_reason(self):
        bits = get_budget_bits()
        set_budget_bits(8)
        try:
            for name, call in _overflowing_calls().items():
                cert = call()
                assert cert.is_overflow, name
                assert cert.to_json() == "overflow"
                assert cert.trace["overflow"], name
        finally:
            set_budget_bits(bits)

    def test_reason_of_a_positional_trace(self):
        # the reason rides on the value; a trace passed positionally is an
        # extra argument
        bits = get_budget_bits()
        set_budget_bits(8)
        try:
            cert = delta_gradient_flow(1, ball_modulus(1, 1), F(1, 100), CF.constant(0))
            assert cert.is_overflow and cert.trace == {"overflow": "value exceeds 2^8"}
            with pytest.raises(TypeError):
                delta_gradient_flow(1, ball_modulus(1, 1), F(1, 100), CF.constant(0), {})
        finally:
            set_budget_bits(bits)

    def test_domain_errors_pass_through(self):
        with pytest.raises(ValueError):
            delta_first_order(1, 1, {"lower_witness": 1}, 0, CF.constant(0))

    @pytest.mark.parametrize("eps", [0, F(-1, 2)], ids=["zero", "negative"])
    @pytest.mark.parametrize("name", sorted(_overflowing_calls()))
    def test_every_calculator_refuses_nonpositive_eps(self, name, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            _overflowing_calls(eps)[name]()

    def test_eps_by_keyword(self):
        # the boundary reads eps by name, wherever the call puts it
        assert delta_with_error_rate(simple_bundle(), eps=1, f=CF.constant(1)).value == 13
        with pytest.raises(ValueError, match="eps must be positive"):
            delta_with_error_rate(bundle=simple_bundle(), eps=0, f=CF.constant(1))

    @pytest.mark.parametrize("calc", [
        lambda b: delta_first_order(1, b, {"lower_witness": F(1, 2)}, F(1, 4), CF.constant(0)),
        lambda b: delta_gradient_flow(b, ball_modulus(1, 1), F(1, 4), CF.constant(0)),
        lambda b: delta_stojkovic(b, ball_modulus(1, 1), F(1, 4), CF.constant(0)),
    ], ids=["first_order", "gradient_flow", "stojkovic"])
    def test_negative_radius_refused(self, calc):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            calc(-1)

    @pytest.mark.parametrize("d", [1.5, 2.5, 0, F(3, 2)])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            moduli.ball_total_boundedness(d, 1, F(1, 10))
        with pytest.raises(ValueError, match="dimension must be an integer"):
            delta_first_order(d, 1, {"lower_witness": F(1, 2)}, F(1, 4), CF.constant(0))


@settings(max_examples=20, deadline=None)
@given(bits=st.integers(8, 256))
def test_every_calculator_returns_within_budget_or_overflows_with_reason(bits):
    """At any budget each calculator returns an int no larger than 2^bits, or
    overflow with a reason, and never raises; an int is the same at every
    budget it fits."""
    old = get_budget_bits()
    try:
        set_budget_bits(256)
        reference = {name: call() for name, call in _overflowing_calls().items()}
        set_budget_bits(bits)
        for name, call in _overflowing_calls().items():
            cert = call()
            if cert.is_overflow:
                assert cert.trace["overflow"], name
            else:
                assert cert.value <= 1 << bits, name
                assert cert.value == reference[name].value, name
    finally:
        set_budget_bits(old)


# irrational radii whose certificate terms can be integers, such as b^4 = 4
# for b = sqrt 2, where an enclosure cannot decide a strict ceiling
_RADII = {"sqrt2": R(2).sqrt(), "sqrt3": R(3).sqrt(), "3^(1/7)": R(3).powq(F(1, 7))}
_counterfunctions = st.one_of(
    st.integers(0, 5).map(CF.constant),
    st.integers(0, 5).map(CF.identity_plus),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda ab: CF.linear(*ab)),
    st.tuples(st.dictionaries(st.integers(0, 9), st.integers(0, 9), max_size=3),
              st.integers(0, 9)).map(lambda vd: CF.table(*vd)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda ab: CF.compose(CF.linear(ab[0], 1), CF.identity_plus(ab[1]))),
)


@settings(max_examples=30, deadline=None)
@given(radius=st.sampled_from(sorted(_RADII)), d=st.integers(1, 2),
       eps=st.integers(1, 2000).map(lambda q: F(1, q)), f=_counterfunctions)
def test_irrational_radius_certificates_return_within_two_seconds(radius, d, eps, f):
    """Inside their domains the calculators return an int or overflow: an
    undecidable ceiling rounds outward instead of raising."""
    b = _RADII[radius]
    calls = {
        "delta_first_order": lambda: delta_first_order(d, b, {"lower_witness": F(1, 2)},
                                                       eps, f),
        "ball_total_boundedness": lambda: moduli.ball_total_boundedness(d, b, eps),
    }
    if f.is_nondecreasing:  # the gradient-flow bound's domain
        calls["delta_gradient_flow"] = lambda: delta_gradient_flow(b, ball_modulus(1, b),
                                                                   eps, f)
    for name, call in calls.items():
        start = time.perf_counter()
        cert = call()
        assert time.perf_counter() - start < 2.0, name
        assert cert.is_overflow or isinstance(cert.value, int), name

