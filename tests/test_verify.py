"""Verification harness: oscillation, witnesses, Fejer guards, reports."""

import math

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fejerflow.counterfunctions import Counterfunction as CF
from fejerflow.exact import R, ExtendedNatural as EN
from fejerflow.flows import ParameterCurve, SemigroupPoint, integrate_first_order
from fejerflow.moduli import ChiModulus, LiminfBound, ModulusBundle, PerturbationFn, PerturbationPair
from fejerflow.operators import CocoerciveMap, ConvexFunction, MonotoneOperator, NonexpansiveMap
from fejerflow.space import euclidean
from fejerflow.verify import (
    NeedsLongerTrajectory,
    SolutionFunction,
    check_asymptotic_regularity,
    check_b_convergence,
    check_convergence_rate,
    check_fejer,
    check_mayer_inequality,
    check_semigroup_fixed_point_bound,
    extract_approximate_zero,
    oscillation,
    pairwise_max_distance,
    prefix_min_violation,
    verify_metastability,
    verify_residual_metastability,
)
from fejerflow.verify import _perturb


@pytest.fixture(scope="module")
def decay():
    T = NonexpansiveMap.scalar(0.0)
    return integrate_first_order(T, ParameterCurve.constant(1.0), [1.0], 8.0, 1e-3)


class TestKernels:
    def test_pairwise_max_distance(self):
        xs = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        assert pairwise_max_distance(xs) == pytest.approx(5.0)
        assert pairwise_max_distance(xs[:1]) == 0.0
        # more rows than one distance block
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(2500, 2))
        brute = max(float(np.linalg.norm(xs - x, axis=1).max()) for x in xs)
        assert pairwise_max_distance(xs) == pytest.approx(brute, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, st.tuples(st.one_of(st.integers(2, 40), st.integers(1000, 2500)),
                                        st.just(1)),
                  elements=st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))))
    def test_pairwise_max_distance_1d_is_the_brute_force_scan(self, xs):
        # every pair of rows, including pairs across the 1,024-row blocks
        brute = max(float(((xs[:, 0] - x) ** 2).max()) for x in xs[:, 0])
        assert pairwise_max_distance(xs) == math.sqrt(brute)

    @pytest.mark.parametrize("xs", [
        [[0.0, 0.0], [3.0, 4.0], [math.nan, 0.0]],
        [[0.0], [5.0], [math.nan]],
        [[0.0, 0.0]] * 1500 + [[3.0, 4.0], [0.0, math.nan]],
    ], ids=["2d", "1d", "2d_second_block"])
    def test_pairwise_max_distance_propagates_nan(self, xs):
        # a block holding the distance-5 pair must not hide a NaN row in
        # another, or a window with a NaN point could read "holds"
        assert math.isnan(pairwise_max_distance(np.array(xs)))

    def test_prefix_min_violation(self):
        h = np.array([1.0, 2.0, 0.5])
        g = np.array([1.5, 0.2, 0.9])
        zero = np.zeros(3)
        # pairs s <= t: worst of h[t] - min_{s<=t} g[s]
        expected = max(1.0 - 1.5, 2.0 - 0.2, 0.5 - 0.2)
        assert prefix_min_violation(h, g, zero, zero) == pytest.approx(expected)

    def test_prefix_min_violation_with_errors(self):
        h = np.array([1.0, 1.0])
        g = np.array([1.0, 1.0])
        s_err = np.array([0.5, 0.0])
        t_err = np.array([0.0, 0.25])
        # (s=0,t=0): 1-0-1-0.5; (s<=1,t=1): 1-0.25-min(1.5,1.0)
        assert prefix_min_violation(h, g, s_err, t_err) == pytest.approx(-0.25)


class TestOscillation:
    def test_singleton_interval(self, decay):
        sup, slack = oscillation(decay, 2, CF.constant(0))
        assert sup == 0.0 and slack == 0.0

    def test_monotone_closed_form(self, decay):
        # osc of e^{-t} on [1, 3] = e^{-1} - e^{-3}
        sup, slack = oscillation(decay, 1, CF.constant(2), grid=0.001)
        assert sup == pytest.approx(math.exp(-1) - math.exp(-3), abs=1e-6)

    def test_constant_trajectory(self):
        T = NonexpansiveMap.identity()
        traj = integrate_first_order(T, ParameterCurve.constant(0.5),
                                     [2.0], 5.0, 1e-2)
        sup, _ = oscillation(traj, 0, CF.constant(4))
        assert sup == 0.0

    def test_beyond_horizon_signals(self, decay):
        with pytest.raises(NeedsLongerTrajectory):
            oscillation(decay, 5, CF.constant(10))


class TestMetastabilityWitness:
    def test_least_witness(self, decay):
        # eps = 0.5, f(n) = n + 1: n=0 fails (1 - e^{-1} = 0.632), n=1 passes
        rep = verify_metastability(decay, 0.5, CF.identity_plus(1), EN(10),
                                   grid=0.001)
        assert rep.status == "holds" and rep.witness == 1

    def test_f_zero_witness_zero(self, decay):
        rep = verify_metastability(decay, 0.5, CF.constant(0), EN(10))
        assert rep.witness == 0

    def test_overflow_certificate_inconclusive(self, decay):
        rep = verify_metastability(decay, 0.5, CF.identity_plus(1), EN.overflow())
        assert rep.status == "inconclusive_overflow" and rep.witness == 1

    def test_certificate_too_small_is_violated(self, decay):
        rep = verify_metastability(decay, 0.5, CF.identity_plus(1), EN(0),
                                   grid=0.001)
        assert rep.status == "violated"

    def test_horizon_too_short_inconclusive(self, decay):
        # windows [n, n+100] never fit in horizon 8
        rep = verify_metastability(decay, 1e-9, CF.constant(100), EN(3))
        assert rep.status == "inconclusive"

    def test_residual_conjunction(self, decay):
        T = NonexpansiveMap.scalar(0.0)
        residual = SolutionFunction.fixed_point_residual(T)
        rep = verify_metastability(decay, 0.5, CF.constant(1), EN(10),
                                   residual=residual, grid=0.001)
        # residual ||x - 0|| = e^{-n} <= 0.5 needs n >= 1 even though osc is ok
        assert rep.witness == 1

    def test_residual_metastability(self, decay):
        residual = lambda t: math.exp(-t)
        rep = verify_residual_metastability(decay, residual, 0.3,
                                            CF.constant(1), EN(5))
        assert rep.status == "holds" and rep.witness == 2

    def test_certificate_slack_logged(self, decay):
        rep = verify_metastability(decay, 0.5, CF.constant(0), EN(7))
        assert rep.details["certificate_slack"] == 7


# the oscillation of e^{-t} on [n, n+1] is this times e^{-n}; the residual
# variant scans this times e^{-t}, so both entry points see the same windows
_OSC_FACTOR = 1 - math.exp(-1)
_SCANNERS = {
    "metastability": (
        lambda traj, eps, f, cert: verify_metastability(traj, eps, f, cert, grid=0.001),
        "oscillation_at_witness"),
    "residual": (
        lambda traj, eps, f, cert: verify_residual_metastability(
            traj, lambda t: _OSC_FACTOR * math.exp(-t), eps, f, cert, grid=0.001),
        "residual_at_witness"),
}


@pytest.mark.parametrize("variant", sorted(_SCANNERS))
class TestWindowScan:
    @pytest.mark.parametrize("eps,f,cert,status,witness,margin", [
        (0.1, CF.constant(1), EN(10), "holds", 2, 0.0),
        (0.1, CF.constant(1), EN(1), "violated", 2, 1.0),
        (1e-9, CF.constant(3), EN(2), "violated", None, math.inf),
        (0.1, CF.constant(100), EN(3), "inconclusive", None, math.nan),
        (0.1, CF.constant(1), EN.overflow(), "inconclusive_overflow", 2, 0.0),
    ], ids=["holds", "beyond_certificate", "no_witness", "horizon_too_short",
            "overflow"])
    def test_outcomes(self, decay, variant, eps, f, cert, status, witness, margin):
        scan, value_key = _SCANNERS[variant]
        rep = scan(decay, eps, f, cert)
        assert rep.status == status and rep.witness == witness
        assert rep.margin == margin or (math.isnan(margin) and math.isnan(rep.margin))
        assert (value_key in rep.details) == (witness is not None)
        if status == "inconclusive":
            assert rep.details["reason"] == "horizon too short"

    @pytest.mark.parametrize("f", [CF.constant(0), CF.constant(1), CF.constant(100)],
                             ids=["f0", "f1", "beyond_horizon"])
    def test_tolerance_rule(self, decay, variant, f):
        scan, _ = _SCANNERS[variant]
        rep = scan(decay, 0.1, f, EN(10))
        slack_tol = max(3 * decay.est_err, decay.lipschitz_estimate() * 0.001)
        assert slack_tol > 3 * decay.est_err
        if variant == "metastability" and f(0) in (0, 100):
            # no window with f(n) > 0 was scanned: the slack is 0
            assert rep.tolerance == 3 * decay.est_err
        else:
            assert rep.tolerance == slack_tol


def _reference_residual_scan(traj, residual, eps, f, cert, grid):
    """verify_residual_metastability written out: every window's max is
    recomputed from its own residual calls."""
    tol = max(3 * traj.est_err, traj.lipschitz_estimate() * grid)
    witness = value = None
    last = -1
    for n in range(int(traj.horizon) + 1):
        if n + f(n) > traj.horizon:
            break
        times = np.linspace(n, n + f(n), max(math.ceil(f(n) / grid), 1) + 1) \
            if f(n) > 0 else [n]
        worst = max(residual(float(t)) for t in times)
        last = n
        if worst <= eps + tol:
            witness, value = n, worst
            break
    if witness is None:
        status = "violated" if last >= cert.value else "inconclusive"
    else:
        status = "holds" if witness <= cert.value else "violated"
    return status, witness, value, tol


_SCAN_COUNTERFUNCTIONS = st.one_of(
    st.integers(0, 3).map(CF.constant),
    st.integers(0, 1).map(CF.identity_plus),
    st.builds(CF.table, st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=3),
              st.integers(0, 3)))


@settings(max_examples=80, deadline=None)
@given(f=_SCAN_COUNTERFUNCTIONS, grid=st.sampled_from([0.25, 0.05, 0.01]),
       eps=st.floats(0.0, 1.5), cert=st.integers(0, 8),
       values=st.lists(st.just(-0.0) | st.floats(0.0, 2.0), max_size=40))
def test_residual_scan_reuses_shared_times_without_changing_the_report(decay, f, grid, eps,
                                                                         cert, values):
    # the decreasing decay, or a non-monotone residual: drawn values
    # repeating along the grid
    def residual(t):
        return values[round(t / grid) % len(values)] if values else float(decay.eval(t)[0])

    calls = []

    def counted(t):
        calls.append(t)
        return residual(t)

    rep = verify_residual_metastability(decay, counted, eps, f, EN(cert), grid=grid)
    assert len(calls) == len(set(calls))
    status, witness, value, tol = _reference_residual_scan(decay, residual, eps, f,
                                                           EN(cert), grid)
    assert (rep.status, rep.witness, rep.tolerance) == (status, witness, tol)
    assert repr(rep.details.get("residual_at_witness")) == repr(value)


def test_residual_scan_calls_a_decreasing_residual_once_per_failing_window(decay):
    # every window before the witness fails at its first time, so only the
    # witness window's times are called past it
    grid, f = 0.01, CF.constant(2)
    calls = []

    def residual(t):
        calls.append(t)
        return float(decay.eval(t)[0])

    rep = verify_residual_metastability(decay, residual, 0.01, f, EN(8), grid=grid)
    # eps + tol = 0.02 first bounds e^-t at t = 4
    assert rep.status == "holds" and rep.witness == 4
    assert len(calls) <= rep.witness + math.ceil(f(rep.witness) / grid) + 1


def test_nan_residual_fails_its_window(decay):
    # NaN on (0, 1): window 0 fails at its first NaN, and window 1 is the
    # witness, past the certificate 0
    def residual(t):
        return math.nan if 0 < t < 1 else 0.0

    rep = verify_residual_metastability(decay, residual, 0.1, CF.constant(1), EN(0))
    assert (rep.status, rep.witness) == ("violated", 1)
    assert rep.details["residual_at_witness"] == 0.0


@pytest.fixture(scope="module")
def contraction_traj():
    T = NonexpansiveMap.scalar(0.5)
    return integrate_first_order(T, ParameterCurve.constant(0.5),
                                 [1.0], 20.0, 1e-3)


def _fejer_bundle():
    """G = H = squares and chi(eps, n, m) = eps / (4m); check_fejer reads
    nothing else of a bundle."""
    return ModulusBundle(phi=LiminfBound(lambda e: 0, unary=True),
                         chi=ChiModulus.scaled_inverse(4), pair=PerturbationPair.squares())


class TestFejerCheck:
    def test_exact_fixed_point_passes(self, contraction_traj):
        rep = check_fejer(contraction_traj, [(np.array([0.0]), 0.0)], _fejer_bundle())
        assert rep.status == "holds"

    def test_guard_vacuous_pass(self, contraction_traj):
        # residual above every chi guard: no assertion is made
        rep = check_fejer(contraction_traj, [(np.array([5.0]), 99.0)], _fejer_bundle())
        assert rep.status == "inconclusive"

    def test_fake_residual_violates(self, contraction_traj):
        # the flow passes through z = 0.5 and then recedes from it, so with a
        # (falsely) declared residual of 0 the Fejer inequality genuinely
        # fails and the checker must flag it
        rep = check_fejer(contraction_traj, [(np.array([0.5]), 0.0)], _fejer_bundle(),
                          windows=((0, 16),))
        assert rep.status == "violated"


class TestRates:
    def test_asymptotic_regularity(self, decay):
        T = NonexpansiveMap.scalar(0.0)
        residual = SolutionFunction.fixed_point_residual(T)
        rate = lambda eps: math.log(1 / eps)  # exact entry time for e^{-t}
        rep = check_asymptotic_regularity(decay, residual, rate, [0.5, 0.1])
        assert rep.status in ("holds", "holds_within_tolerance")

    def test_rate_beyond_horizon_skipped(self, decay):
        T = NonexpansiveMap.scalar(0.0)
        residual = SolutionFunction.fixed_point_residual(T)
        rep = check_asymptotic_regularity(decay, residual, lambda e: 1e6, [0.1])
        assert rep.status == "inconclusive"
        assert rep.details["skipped_beyond_horizon"] == [0.1]

    def test_convergence_rate_to_point(self, decay):
        rep = check_convergence_rate(decay, np.array([0.0]),
                                     lambda e: math.log(1 / e) + 0.1, [0.5, 0.2])
        assert rep.status in ("holds", "holds_within_tolerance")

    def test_convergence_rate_violation(self, decay):
        rep = check_convergence_rate(decay, np.array([0.0]), lambda e: 0.0,
                                     [0.01])
        assert rep.status == "violated"


class TestApproximateZeros:
    def test_fixed_point_gives_zero(self):
        A, B = MonotoneOperator.zero(), CocoerciveMap.identity()
        # x in Fix T for gamma=1 means T(x) = 0 = x
        v, w, bound = extract_approximate_zero([0.0], A, B, 1.0, 1.0)
        assert np.allclose(v, 0.0) and np.allclose(w, 0.0) and bound == 0.0

    def test_worked_example(self):
        A, B = MonotoneOperator.zero(), CocoerciveMap.identity()
        v, w, bound = extract_approximate_zero([1.0], A, B, 1.0, 1.0)
        assert np.allclose(v, [0.0])
        assert np.allclose(w, [0.0])
        assert bound == pytest.approx(2.0)

    def test_bound_on_random_points(self):
        space = euclidean(2)
        A = MonotoneOperator.scaled_identity(1.0)
        B = CocoerciveMap.scaled_identity(0.5)
        from fejerflow.operators import ball_samples
        for x in ball_samples(space, 25, 3.0, seed=2):
            v, w, bound = extract_approximate_zero(x, A, B, 1.0, B.beta)
            assert np.linalg.norm(w) <= bound + 1e-12


class TestSecondOrderBounds:
    def test_linear_example_bounds(self):
        from fractions import Fraction
        from fejerflow.flows import integrate_second_order
        from fejerflow.moduli import second_order_constants
        from fejerflow.verify import check_second_order_bounds

        B = CocoerciveMap.identity()
        traj = integrate_second_order(B, ParameterCurve.constant(2.0),
                                      ParameterCurve.constant(3.0),
                                      [1.0], [0.0], 10.0, 1e-3, theta=3.5)
        consts = second_order_constants(1, 0, 1, 2, 2, 3, 3,
                                        Fraction(7, 2), 1)
        rep = check_second_order_bounds(traj, consts, [0.0], B)
        assert rep.status == "holds"
        checks = rep.details["checks"]
        # both L variants hold on this example, and each check has margin < 0
        assert rep.details["l_variant_failing"] == []
        assert all(v < 0 for v in checks.values())

    def test_real_inequality_helper_bound(self):
        # a = b = c = 1: x^2 <= x + 1 forces x <= ceil((b+c)/a) = 2
        import math
        a = b = c = 1.0
        bound = math.ceil((b + c) / a)
        worst = max(x for x in [i / 100 for i in range(0, 400)]
                    if a * x * x <= b * x + c)
        assert worst <= bound

    def test_velocity_required(self, decay):
        from fractions import Fraction
        from fejerflow.moduli import second_order_constants
        from fejerflow.verify import check_second_order_bounds

        consts = second_order_constants(1, 0, 1, 2, 2, 3, 3, Fraction(7, 2), 1)
        with pytest.raises(ValueError):
            check_second_order_bounds(decay, consts, [0.0],
                                      CocoerciveMap.identity())


class TestBConvergence:
    def test_constant_operator(self, decay):
        B = CocoerciveMap.zero()
        rep = check_b_convergence(decay, B, [0.0], lambda e: 0.0, [0.5, 0.1])
        assert rep.status == "holds"

    def test_identity_decay(self, decay):
        B = CocoerciveMap.identity()
        rep = check_b_convergence(decay, B, [0.0],
                                  lambda e: math.log(1 / e) + 0.1, [0.5, 0.2])
        assert rep.status in ("holds", "holds_within_tolerance")


def _converged(point) -> SemigroupPoint:
    return SemigroupPoint(point=point, achieved_tol=0.0, n_used=8, converged=True)


class TestMarginRule:
    """A report's margin already has its tolerance taken off, so ``holds``
    always comes with a margin <= 0."""

    def test_mayer_violation_inside_tol_holds(self):
        # phi = 0, z = 0: d^2 grows by about 2e-6 from s = 0 to t = 1
        points = [(0.0, np.array([1.0])), (1.0, np.array([1.0 + 1e-6]))]
        rep = check_mayer_inequality(points, lambda x: 0.0, [np.zeros(1)], tol=1e-3)
        assert rep.status == "holds" and rep.margin <= 0
        assert rep.margin == pytest.approx(2e-6 - 1e-3)

    def test_mayer_drops_equal_times(self):
        # with s = t pairs the worst term was never below 0
        points = [(0.0, np.array([2.0])), (1.0, np.array([1.0]))]
        rep = check_mayer_inequality(points, lambda x: 0.0, [np.zeros(1)], tol=1e-3)
        assert rep.margin == pytest.approx(-3.0 - 1e-3)

    def test_fixed_point_bound_violation_inside_tol_holds(self):
        F = NonexpansiveMap.scalar(0.0)
        bound = (math.exp(2) - 1) / 2  # d(x, F(x)) = 1 at x = 1, t = 1
        rep = check_semigroup_fixed_point_bound(
            F, [(np.array([1.0]), 1.0)], [_converged(np.array([1.0]) - (bound + 1e-6))], tol=1e-3)
        assert rep.status == "holds" and rep.margin <= 0

    def test_violation_beyond_tol(self):
        F = NonexpansiveMap.scalar(0.0)
        bound = (math.exp(2) - 1) / 2
        rep = check_semigroup_fixed_point_bound(
            F, [(np.array([1.0]), 1.0)], [_converged(np.array([1.0]) - (bound + 2e-3))], tol=1e-3)
        assert rep.status == "holds_within_tolerance"
        assert 0 < rep.margin <= 3e-3

    @pytest.mark.parametrize("t", [354.9, 356.0, 400.0, 1e300])
    def test_fixed_point_bound_past_the_exponential(self, t):
        # e^{2t} overflows the floats from t = 354.9 on: the bound is +inf
        # where d(x, F(x)) > 0, and 0 at a fixed point of F
        F = NonexpansiveMap.scalar(0.0)
        rep = check_semigroup_fixed_point_bound(
            F, [(np.array([1.0]), t)], [_converged(np.array([-1e100]))], tol=1e-3)
        assert rep.status == "holds" and rep.margin == -math.inf
        rep = check_semigroup_fixed_point_bound(
            F, [(np.array([0.0]), t)], [_converged(np.array([2e-3]))], tol=1e-3)
        assert rep.status == "holds_within_tolerance"
        assert rep.margin == pytest.approx(1e-3)

    def test_unconverged_fixed_point_runs_are_inconclusive(self):
        # a run without an error bound proves nothing, even far past the bound
        F = NonexpansiveMap.scalar(0.0)
        runs = {0.5: _converged(np.array([0.9])),
                1.0: SemigroupPoint(np.array([-99.0]), math.inf, 16, False),
                1.5: SemigroupPoint(np.array([0.0]), math.inf, 32, False)}
        rep = check_semigroup_fixed_point_bound(
            F, [(np.array([1.0]), t) for t in runs], list(runs.values()), tol=1e-3)
        assert rep.status == "inconclusive" and rep.tolerance == 1e-3
        assert rep.details["n_used"] == [16, 32]
        assert "did not converge" in rep.details["reason"]


class TestStackContract:
    """Solution functions, zero extraction, the Mayer pairs and the Fejer
    G/H take stacks and answer row by row."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_solution_function_rows(self, d, data):
        n = data.draw(st.integers(1, 16))
        zs = data.draw(arrays(np.float64, (n, d),
                              elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
        center = np.full(d, 0.5)
        for F in (SolutionFunction.fixed_point_residual(NonexpansiveMap.scalar(0.5),
                                                        center=center, radius=2.0),
                  SolutionFunction.fixed_point_residual(NonexpansiveMap.negation()),
                  SolutionFunction.operator_norm_residual(CocoerciveMap.scaled_identity(2.0),
                                                          center=center, radius=1.0)):
            singles = [F(z) for z in zs]
            assert all(type(v) is float for v in singles), F.kind
            assert F(zs).tobytes() == np.array(singles).tobytes(), F.kind

    def test_solution_function_infinite_outside_ball(self):
        F = SolutionFunction.fixed_point_residual(NonexpansiveMap.scalar(0.5),
                                                  center=[0.0], radius=1.0)
        assert list(F(np.array([[0.5], [3.0]]))) == [0.25, math.inf]

    def test_approximate_zero_rows(self):
        A = MonotoneOperator.scaled_identity(1.0)
        B = CocoerciveMap.scaled_identity(0.5)
        from fejerflow.operators import ball_samples
        xs = ball_samples(euclidean(2), 25, 3.0, seed=2)
        vs, ws, bounds = extract_approximate_zero(xs, A, B, 1.0, B.beta)
        for x, v, w, bound in zip(xs, vs, ws, bounds):
            v1, w1, bound1 = extract_approximate_zero(x, A, B, 1.0, B.beta)
            assert v.tobytes() == v1.tobytes() and w.tobytes() == w1.tobytes()
            assert bound == bound1

    def test_mayer_matches_pairwise_loop(self):
        rng = np.random.default_rng(4)
        points = [(float(t), rng.uniform(-1, 1, 2)) for t in rng.permutation(6)]
        zs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        phi = ConvexFunction.quadratic(1.0, dimension=2)
        worst = -math.inf
        pts = sorted(points, key=lambda p: p[0])
        for z in zs:
            for i, (s, xs_) in enumerate(pts):
                for t, xt in pts[i + 1:]:
                    lhs = float(np.dot(xt - z, xt - z)) - (
                        float(np.dot(xs_ - z, xs_ - z)) - 2 * (t - s) * (phi(xt) - phi(z)))
                    worst = max(worst, lhs)
        rep = check_mayer_inequality(points, phi, zs, tol=1e-3)
        assert rep.margin == worst - 1e-3

    def test_fejer_perturbation_floats_match_exact(self):
        a = np.random.default_rng(3).random(10_000) * 10

        def exact(fn):
            return np.array([(R(float(x)).powq(fn.p) * R(fn.coef)).to_float() for x in a])

        assert _perturb(PerturbationFn(), a).tobytes() == a.tobytes()
        square = PerturbationFn(Fraction(2))
        assert _perturb(square, a).tobytes() == exact(square).tobytes()
        # a non-dyadic coefficient is itself rounded to a float: one more ULP
        for fn, ulps in ((PerturbationFn(Fraction(2), Fraction(3, 2)), 1),
                         (PerturbationFn(Fraction(3, 2)), 1),
                         (PerturbationFn(Fraction(2), Fraction(7, 5)), 2)):
            got, want = _perturb(fn, a), exact(fn)
            assert (np.abs(got - want) <= ulps * np.spacing(want)).all(), fn
