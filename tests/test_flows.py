"""Integrators and semigroups against closed forms; trajectory invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fejerflow import flows, operators
from fejerflow.flows import (
    IntegrationError,
    IntegratorMeta,
    ParameterCurve,
    Trajectory,
    gradient_flow_semigroup,
    integrate_first_order,
    integrate_first_order_runs,
    integrate_forward_backward,
    integrate_second_order,
    stojkovic_semigroup,
)
from fejerflow.operators import (
    CocoerciveMap,
    ConvexFunction,
    IterationBudgetError,
    MonotoneOperator,
    NonexpansiveMap,
    OperatorError,
    forward_backward_map,
    stojkovic_resolvent,
)
from fejerflow.space import euclidean


@pytest.fixture(scope="module")
def decay_trajectory():
    # T == 0, lambda == 1: x' = -x, x(t) = e^{-t}
    T = NonexpansiveMap.scalar(0.0)
    return integrate_first_order(T, ParameterCurve.constant(1.0), [1.0], 6.0, 1e-3)


class TestParameterCurves:
    def test_kinds(self):
        assert ParameterCurve.constant(0.5)(3.0) == 0.5
        assert ParameterCurve.affine(2.0, 1.0)(2.0) == 5.0
        pw = ParameterCurve.piecewise([1.0, 2.0], [0.1, 0.5, 0.9])
        assert pw(0.5) == 0.1 and pw(1.5) == 0.5 and pw(3.0) == 0.9
        tab = ParameterCurve.table([0.0, 2.0], [0.0, 1.0])
        assert tab(1.0) == pytest.approx(0.5)

    def test_declared_bounds_validated(self):
        curve = ParameterCurve.affine(1.0, 0.0, lower=0.0, upper=0.5)
        with pytest.raises(IntegrationError):
            curve.validate_bounds(np.array([0.0, 1.0]))

    def test_from_spec(self):
        assert ParameterCurve.from_spec(0.5).c == 0.5
        assert ParameterCurve.from_spec({"kind": "constant", "c": 1.0}).upper == 1.0

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    def test_array_of_times_matches_single_times(self, ts):
        curves = [ParameterCurve.constant(0.5), ParameterCurve.affine(-0.2, 3.0),
                  ParameterCurve.piecewise([1.0, 2.5], [0.1, 0.5, 0.9]),
                  ParameterCurve.table([0.0, 2.0, 5.0], [0.0, 1.0, 0.25])]
        for curve in curves:
            singles = [curve(float(t)) for t in ts]
            assert all(np.ndim(v) == 0 for v in singles), curve.kind
            rows = curve(ts)
            assert rows.shape == ts.shape, curve.kind
            assert rows.tobytes() == np.array(singles, dtype=float).tobytes(), curve.kind


class TestCurveRanges:
    """Every integrator checks its curves against their declared ranges on
    the whole fine grid, since certificates are built from those ranges."""

    def test_first_order_checks_every_fine_time(self):
        # lambda leaves its declared range only on [1, 1.0005), one fine step
        lam = ParameterCurve.piecewise([1.0, 1.0005], [0.5, 0.9, 0.5], lower=0.0, upper=0.6)
        with pytest.raises(IntegrationError, match="upper bound 0.6"):
            integrate_first_order(NonexpansiveMap.scalar(0.5), lam, [1.0], 2.0, 1e-3)

    def test_forward_backward_first_checks_lambda(self):
        # 0.1 t + 0.2 reaches 1.2 at t = 10, past its declared upper 0.5
        lam = ParameterCurve.affine(0.1, 0.2, lower=0.2, upper=0.5)
        with pytest.raises(IntegrationError, match="upper bound 0.5"):
            integrate_forward_backward("first", MonotoneOperator.zero(),
                                       CocoerciveMap.identity(), 1.0, lam, [0.1], 10.0, 0.1)

    def test_second_order_checks_gamma(self):
        # 3 - 0.2 t falls below its declared lower 2.5 after t = 2.5
        gam = ParameterCurve.affine(-0.2, 3.0, lower=2.5, upper=3.0)
        with pytest.raises(IntegrationError, match="lower bound 2.5"):
            integrate_second_order(CocoerciveMap.identity(), ParameterCurve.constant(1.0),
                                   gam, [1.0], [0.0], 10.0, 0.1)

    def test_forward_backward_second_checks_gamma(self):
        gam = ParameterCurve.affine(-0.2, 3.0, lower=2.5, upper=3.0)
        with pytest.raises(IntegrationError, match="lower bound 2.5"):
            integrate_forward_backward("second", MonotoneOperator.zero(),
                                       CocoerciveMap.identity(), 1.0,
                                       ParameterCurve.constant(1.0), [0.5], 10.0, 0.1,
                                       gam=gam, v0=[0.0])


class TestFirstOrderIntegration:
    def test_exponential_decay(self, decay_trajectory):
        traj = decay_trajectory
        assert abs(traj.eval(1.0)[0] - math.exp(-1)) <= traj.est_err
        assert traj.est_err < 1e-10

    def test_fixed_point_constant(self):
        T = NonexpansiveMap.scalar(0.5)
        traj = integrate_first_order(T, ParameterCurve.constant(0.5),
                                     [0.0], 2.0, 1e-2)
        assert np.abs(traj.xs).max() == 0.0

    def test_lambda_zero_constant(self):
        T = NonexpansiveMap.negation()
        traj = integrate_first_order(T, ParameterCurve.constant(0.0),
                                     [1.0], 2.0, 1e-2)
        assert np.allclose(traj.xs, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_flow_raises(self):
        T = NonexpansiveMap(fn=lambda x: 1e200 * x * x)
        with pytest.raises(IntegrationError, match=r"non-finite state at t=0\.1$"):
            integrate_first_order(T, ParameterCurve.constant(1.0), [1.0], 5.0, 0.1)

    def test_divergent_flow_stops_within_a_block(self):
        # non-finite after the first step of 50,000: the run stops at the
        # first block's check, 1,024 coarse steps of 8 calls each
        calls = []

        def blow_up(x):
            calls.append(1)
            return 1e200 * x * x

        T = NonexpansiveMap(fn=blow_up)
        with pytest.raises(IntegrationError, match=r"non-finite state at t=0\.001$"):
            integrate_first_order(T, ParameterCurve.constant(1.0), [1.0], 50.0, 1e-3)
        assert len(calls) == 8 * flows._BLOCK

    def test_lambda_range_enforced(self):
        T = NonexpansiveMap.identity()
        with pytest.raises(IntegrationError):
            integrate_first_order(T, ParameterCurve.constant(1.5), [1.0], 1.0, 1e-2)

    def test_residual_consistency(self, decay_trajectory):
        # finite differences of x match lambda(t)(T(x) - x) = -x to O(step^2)
        traj = decay_trajectory
        h = traj.ts[1] - traj.ts[0]
        i = len(traj.ts) // 2
        fd = (traj.xs[i + 1] - traj.xs[i - 1]) / (2 * h)
        assert abs(fd[0] - (-traj.xs[i][0])) < 10 * h ** 2

    def test_fejer_property_along_samples(self):
        T = NonexpansiveMap.scalar(0.5)
        traj = integrate_first_order(T, ParameterCurve.constant(0.5),
                                     [1.0], 10.0, 1e-3)
        dist = np.abs(traj.xs[:, 0])
        assert np.diff(dist).max() <= 3 * traj.est_err

    def test_derivative_bound(self):
        # ||x'(t)|| <= ||T(x(t)) - x(t)||
        T = NonexpansiveMap.scalar(0.5)
        traj = integrate_first_order(T, ParameterCurve.constant(0.5),
                                     [1.0], 5.0, 1e-3)
        for i in range(0, len(traj.ts), 500):
            x = traj.xs[i]
            assert np.linalg.norm(traj.dxs[i]) <= \
                np.linalg.norm(T(x) - x) + 3 * traj.est_err


class TestDenseOutput:
    def test_exact_at_samples(self, decay_trajectory):
        traj = decay_trajectory
        idx = 1234
        assert np.array_equal(traj.eval(traj.ts[idx]), traj.xs[idx])

    def test_initial_point(self, decay_trajectory):
        assert decay_trajectory.eval(0.0)[0] == 1.0

    def test_midpoint_within_error(self, decay_trajectory):
        traj = decay_trajectory
        t = 0.5 * (traj.ts[100] + traj.ts[101])
        assert abs(traj.eval(t)[0] - math.exp(-t)) <= 10 * traj.est_err

    def test_out_of_range(self, decay_trajectory):
        with pytest.raises(IntegrationError):
            decay_trajectory.eval(1000.0)

    def test_csv_export(self, decay_trajectory):
        text = decay_trajectory.to_csv()
        assert text.splitlines()[0] == "t,x0"
        assert len(text.splitlines()) == len(decay_trajectory.ts) + 1

    def test_csv_matches_per_row_format(self):
        # more rows than one formatting block, with velocity columns, signed
        # zero, a subnormal, infinities and a NaN
        n = flows._CSV_BLOCK + 5
        ts = np.linspace(0.0, 3.0, n)
        xs = np.column_stack([np.exp(-ts), np.sin(7 * ts) * 1e-300])
        vs = np.column_stack([-xs[:, 0], np.cos(ts) * 1e9])
        xs[3, 0], xs[4, 1], vs[5, 0] = -0.0, 5e-324, 0.0
        vs[6] = [math.inf, -math.inf]
        vs[7, 1] = math.nan
        meta = IntegratorMeta("test", 0.1, 0.1, 1e-9, 0.0, 0.0)
        traj = Trajectory(space=euclidean(2), ts=ts, xs=xs, dxs=xs, meta=meta,
                          vs=vs, dvs=vs)
        lines = ["t,x0,x1,v0,v1"]
        for i, t in enumerate(ts):
            row = [f"{t:.12g}"] + [f"{v:.12g}" for v in xs[i]]
            row += [f"{v:.12g}" for v in vs[i]]
            lines.append(",".join(row))
        text = traj.to_csv()
        assert text == "\n".join(lines) + "\n"
        assert "-0," in text and "4.94065645841e-324" in text


class TestSecondOrderIntegration:
    def test_linear_oracle(self):
        # x'' + 3x' + 2x = 0, x0=1, v0=0: x(t) = 2e^{-t} - e^{-2t}
        traj = integrate_second_order(CocoerciveMap.identity(),
                                      ParameterCurve.constant(2.0),
                                      ParameterCurve.constant(3.0),
                                      [1.0], [0.0], 6.0, 1e-3, theta=3.5)
        for t in (0.5, 1.0, 2.0, 5.0):
            expected = 2 * math.exp(-t) - math.exp(-2 * t)
            assert abs(traj.eval(t)[0] - expected) < 1e-9

    def test_zero_start_constant(self):
        traj = integrate_second_order(CocoerciveMap.identity(),
                                      ParameterCurve.constant(2.0),
                                      ParameterCurve.constant(3.0),
                                      [0.0], [0.0], 2.0, 1e-2, theta=3.5)
        assert np.abs(traj.xs).max() == 0.0 and np.abs(traj.vs).max() == 0.0

    def test_energy_decay(self):
        traj = integrate_second_order(CocoerciveMap.identity(),
                                      ParameterCurve.constant(2.0),
                                      ParameterCurve.constant(3.0),
                                      [1.0], [0.0], 12.0, 1e-3, theta=3.5)
        assert np.linalg.norm(traj.vs[-1]) < 1e-4

    def test_assumption_validated(self):
        with pytest.raises(IntegrationError):
            integrate_second_order(CocoerciveMap.identity(),
                                   ParameterCurve.constant(2.0),
                                   ParameterCurve.constant(1.0),
                                   [1.0], [0.0], 1.0, 1e-2, theta=3.5)

    @pytest.mark.parametrize("order", ["second", "fb_second"])
    def test_assumption_checked_on_every_fine_time(self, order):
        # gamma^2/lambda is 4.5 except on [1.0, 1.2), where it is 0.5; no
        # point of a 64-point grid over [0, 20] falls there.  Over the
        # forward-backward residual (beta = 3/4) theta = 2 asks for 4.
        gam = ParameterCurve.piecewise([1.0, 1.2], [3.0, 1.0, 3.0])
        lam = ParameterCurve.constant(2.0)
        with pytest.raises(IntegrationError, match="fails at t=1.0"):
            if order == "second":
                integrate_second_order(CocoerciveMap.identity(), lam, gam, [1.0], [0.0],
                                       20.0, 0.05, theta=3.5)
            else:
                integrate_forward_backward("second", MonotoneOperator.zero(),
                                           CocoerciveMap.identity(), 1.0, lam, [1.0],
                                           20.0, 0.05, gam=gam, v0=[0.0], theta=2.0)


class TestForwardBackwardIntegration:
    def test_reduces_to_linear_decay(self):
        # A = 0, B = Id, gamma = 1: T = 0, so x' = -lambda x
        traj = integrate_forward_backward(
            "first", MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0,
            ParameterCurve.constant(1.0), [1.0], 4.0, 1e-3)
        assert abs(traj.eval(1.0)[0] - math.exp(-1)) < 1e-9

    def test_projection_case(self):
        # B = 0, resolvent projects onto {0}: x' = -lambda x
        traj = integrate_forward_backward(
            "first", MonotoneOperator.indicator_point([0.0]),
            CocoerciveMap.zero(), 1.0, ParameterCurve.constant(0.5),
            [3.0], 2.0, 1e-2)
        assert abs(traj.eval(2.0)[0] - 3.0 * math.exp(-1)) < 1e-6

    def test_lambda_range_uses_delta(self):
        # delta = min(1, beta/gamma) + 1/2 = 1.5 allows lambda above 1
        traj = integrate_forward_backward(
            "first", MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0,
            ParameterCurve.constant(1.4), [1.0], 1.0, 1e-2)
        assert traj.horizon == pytest.approx(1.0)
        with pytest.raises(IntegrationError):
            integrate_forward_backward(
                "first", MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0,
                ParameterCurve.constant(1.6), [1.0], 1.0, 1e-2)

    def test_second_order_variant(self):
        traj = integrate_forward_backward(
            "second", MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0,
            ParameterCurve.constant(1.0), [0.5], 4.0, 1e-3,
            gam=ParameterCurve.constant(3.0), v0=[0.0], theta=0.5)
        assert traj.vs is not None
        # x'' + 3x' + x = 0 decays
        assert abs(traj.eval(4.0)[0]) < 0.2


class TestSemigroups:
    def test_gradient_flow_quadratic(self):
        phi = ConvexFunction.quadratic(1.0, dimension=1)
        res = gradient_flow_semigroup(phi, [1.0], 1.0, tol=1e-6)
        assert res.converged
        assert abs(res.point[0] - math.exp(-1)) < 2e-6

    def test_gradient_flow_t_zero(self):
        phi = ConvexFunction.quadratic(1.0, dimension=1)
        res = gradient_flow_semigroup(phi, [0.7], 0.0)
        assert res.point[0] == 0.7 and res.n_used == 0

    def test_gradient_flow_fixes_minimizer(self):
        phi = ConvexFunction.quadratic(1.0, dimension=1)
        res = gradient_flow_semigroup(phi, [0.0], 3.0, tol=1e-8)
        assert res.point[0] == 0.0

    def test_stojkovic_identity(self):
        res = stojkovic_semigroup(NonexpansiveMap.identity(), [2.0], 1.0, tol=1e-8)
        assert res.point[0] == pytest.approx(2.0)

    def test_stojkovic_negation_closed_form(self):
        res = stojkovic_semigroup(NonexpansiveMap.negation(), [1.0], 0.5, tol=1e-5)
        assert abs(res.point[0] - math.exp(-1.0)) < 3e-5

    def test_stojkovic_rotation_norm_decreases(self):
        F = NonexpansiveMap.rotation(90)
        norms = [np.linalg.norm(stojkovic_semigroup(F, [1.0, 0.0], t, tol=1e-4).point)
                 for t in (0.0, 0.5, 1.0)]
        assert norms[0] >= norms[1] - 1e-3 >= norms[2] - 2e-3

    def test_semigroup_law_at_desk_scale(self):
        phi = ConvexFunction.quadratic(1.0, dimension=1)
        s, t = 0.4, 0.8
        direct = gradient_flow_semigroup(phi, [1.0], s + t, tol=1e-6)
        first = gradient_flow_semigroup(phi, [1.0], s, tol=1e-6)
        then = gradient_flow_semigroup(phi, first.point, t, tol=1e-6)
        assert abs(direct.point[0] - then.point[0]) < 1e-5

    def test_nonconvergent_refinement_flagged(self):
        phi = ConvexFunction.quadratic(1.0, dimension=1)
        res = gradient_flow_semigroup(phi, [1.0], 1.0, tol=1e-12, n_max=64)
        assert not res.converged and res.achieved_tol == math.inf

    def test_stojkovic_nonconvergent_refinement_flagged(self):
        res = stojkovic_semigroup(NonexpansiveMap.negation(), [1.0], 1.0,
                                  tol=1e-12, n_max=64)
        assert not res.converged and res.achieved_tol == math.inf
        assert res.n_used == 64

    @pytest.mark.parametrize("semigroup, op, x0", [
        (gradient_flow_semigroup, ConvexFunction.quadratic(1.0, dimension=1), [1.0]),
        (gradient_flow_semigroup, ConvexFunction.quadratic(2.0, dimension=1), [1.0]),
        (gradient_flow_semigroup, ConvexFunction.quadratic(0.5, [0.3, -1.0], 2), [1.0, 0.5]),
        (stojkovic_semigroup, NonexpansiveMap.identity(), [2.0]),
        (stojkovic_semigroup, NonexpansiveMap.scalar(0.5), [1.0]),
        (stojkovic_semigroup, NonexpansiveMap.scalar(0.0), [-0.4, 0.8]),
        (stojkovic_semigroup, NonexpansiveMap.negation(), [1.0]),
    ], ids=["quadratic", "quadratic_scale_2", "quadratic_centered_2d", "identity",
            "scalar_half", "scalar_zero_2d", "negation"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_closed_form_flow_is_the_semigroup(self, semigroup, op, x0, t):
        res = semigroup(op, x0, t, tol=1e-7)
        assert res.converged
        assert np.linalg.norm(res.point - op.flow(t, np.array(x0))) <= 1e-6

    def test_other_operators_have_no_closed_form(self):
        assert ConvexFunction.l1().flow is None
        assert NonexpansiveMap.rotation(90).flow is None


# ---------------------------------------------------------------------------
# the doubling driver: extrapolation, plain fallback, honest tolerance
# ---------------------------------------------------------------------------


def _reference_plain_doubling(run, x, n_start, n_max, tol):
    """The plain exponential-formula scheme: double n until the geometric
    tail bound of the last two Cauchy differences is below tol."""
    n = n_start
    prev = run(x, n)
    d_prev = None
    while n < n_max:
        n *= 2
        cur = run(x, n)
        d = float(np.linalg.norm(prev - cur))
        if d_prev is not None:
            r = d / d_prev if d_prev > 0 else math.inf
            bound = d * max(1.0, r / (1.0 - r)) if r < 1.0 else d
            if bound < tol:
                return cur, bound, n
        prev, d_prev = cur, d
    return prev, math.inf, n


def _prox_run(phi, t):
    def run(x, n):
        y = x.copy()
        for _ in range(n):
            y = phi.prox_point(t / n, y)
        return y
    return run


_SEMIGROUP_CASES = [
    (gradient_flow_semigroup, ConvexFunction.quadratic(scale, dimension=1), scale,
     t, tol, x0)
    for scale in (0.2, 1.0, 5.0) for t in (0.1, 1.0, 4.0)
    for tol in (1e-3, 1e-5, 1e-7) for x0 in (1.0, -1.0)
] + [
    (stojkovic_semigroup, NonexpansiveMap.negation(), 2.0, t, tol, x0)
    for t in (0.1, 1.0, 4.0) for tol in (1e-3, 1e-5, 1e-7) for x0 in (1.0, -1.0)
]


class TestSemigroupDriver:
    @pytest.mark.parametrize("semigroup, op, rate", [
        (gradient_flow_semigroup, ConvexFunction.quadratic(1.0, dimension=1), 1.0),
        (stojkovic_semigroup, NonexpansiveMap.negation(), 2.0),
    ], ids=["gradient_flow", "stojkovic"])
    def test_match_is_extrapolated(self, semigroup, op, rate):
        res = semigroup(op, [1.0], 1.0, tol=1e-6)
        assert res.converged and res.extrapolated and res.n_used <= 2048
        assert abs(res.point[0] - math.exp(-rate)) <= res.achieved_tol < 1e-6

    def test_achieved_tol_bounds_the_error(self):
        # every converged result, plain or extrapolated, against e^{-rate t} x0
        for semigroup, op, rate, t, tol, x0 in _SEMIGROUP_CASES:
            res = semigroup(op, [x0], t, tol=tol)
            assert res.converged
            err = abs(res.point[0] - x0 * math.exp(-rate * t))
            assert err <= res.achieved_tol < tol, (op.name, t, tol, x0, res)

    @pytest.mark.parametrize("phi, x0", [
        (ConvexFunction.l1(0.5), [1.0, -0.3]),
        (ConvexFunction.l1(1.3), [0.7, -2.1, 0.05]),
        (ConvexFunction.indicator_ball([0.0, 0.0], 1.0), [1.5, -2.0]),
        (ConvexFunction.indicator_box([-1.0, 0.0], [1.0, 0.5]), [2.0, -0.7]),
    ], ids=["l1_2d", "l1_3d", "indicator_ball", "indicator_box"])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("tol", [1e-3, 1e-9])
    def test_nonsmooth_falls_back_to_plain(self, phi, x0, t, tol):
        res = gradient_flow_semigroup(phi, x0, t, tol=tol)
        point, achieved, n = _reference_plain_doubling(
            _prox_run(phi, t), np.asarray(x0, dtype=float), 8, 2 ** 20, tol)
        assert not res.extrapolated and res.converged
        assert np.array_equal(res.point, point)
        assert (res.n_used, res.achieved_tol) == (n, achieved)

    @pytest.mark.parametrize("c, b", [(0.0, 1.0), (1.0, 0.01)])
    def test_slow_extrapolants_return_plain(self, c, b):
        # y_n = x + (c + b (-1)^{log2 n}) / n: the extrapolants contract only
        # 2x per doubling, so the plain run must be returned; with c = 1 their
        # differences are below half the plain ones, so only the 3x rule
        # rejects them
        def run(x, n):
            return x + (c + b * (-1) ** int(math.log2(n))) / n

        res = flows._semigroup(run, [0.0], 1.0, 2 ** 20, 1e-4)
        point, achieved, n = _reference_plain_doubling(run, np.zeros(1), 8,
                                                       2 ** 20, 1e-4)
        assert res.converged and not res.extrapolated
        assert np.array_equal(res.point, point)
        assert (res.n_used, res.achieved_tol) == (n, achieved)


def _reference_stojkovic_run(F, t, tol):
    """The Stojkovic semigroup's former inline resolvent loop: n steps of the
    implicit resolvent at inner tolerance tol/(2n)."""
    fn = F.fn

    def run(x, n):
        y = x.copy()
        s = t / n
        scale = 1.0 + s
        inner = tol / (2 * n)
        for _ in range(n):
            w = y
            for _ in range(10_000):
                wn = (y + s * np.asarray(fn(w), dtype=float)) / scale
                if float(np.linalg.norm(wn - w)) <= inner:
                    break
                w = wn
            else:
                raise IntegrationError("resolvent iteration failed to contract")
            y = wn
        return y
    return run


class TestStojkovicResolventMerge:
    @pytest.mark.parametrize("F, x0", [
        (NonexpansiveMap.negation(), [1.0]),
        (NonexpansiveMap.rotation(90), [1.0, 0.5]),
        (NonexpansiveMap.projection_ball([0.5, 0.0], 1.0), [2.0, -1.5]),
    ], ids=["negation", "rotation", "projection_ball"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_semigroup_keeps_its_bits(self, F, x0, t, tol):
        res = stojkovic_semigroup(F, x0, t, tol=tol)
        ref = flows._semigroup(_reference_stojkovic_run(F, t, tol), x0, t, 2 ** 20, tol)
        assert res.converged and ref.converged
        assert np.array_equal(res.point, ref.point)
        assert (res.n_used, res.achieved_tol, res.extrapolated) == \
            (ref.n_used, ref.achieved_tol, ref.extrapolated)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_iterate_raises_at_once(self, value):
        calls = []

        def blow_up(x):
            calls.append(x)
            return np.full_like(x, value)

        F = NonexpansiveMap(fn=blow_up, name="blow_up")
        with pytest.raises(OperatorError, match="not finite"):
            stojkovic_resolvent(F, 1.0, np.array([1.0, 2.0]))
        assert len(calls) == 1
        with pytest.raises(OperatorError, match="not finite"):
            stojkovic_semigroup(F, [1.0], 1.0)
        assert len(calls) == 2

    def test_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(operators, "_RESOLVENT_CAP", 3)
        with pytest.raises(IterationBudgetError, match="exceeded 3 steps"):
            stojkovic_resolvent(NonexpansiveMap.negation(), 1.0, np.array([1.0]))


class TestFromSamples:
    def test_round_trip(self):
        ts = np.linspace(0, 5, 21)
        xs = np.exp(-ts)
        traj = Trajectory.from_samples(euclidean(1), ts, xs, est_err=1e-4)
        assert traj.horizon == 5.0
        assert abs(traj.eval(1.0)[0] - math.exp(-1)) < 1e-3


# ---------------------------------------------------------------------------
# bit identity against the per-step reference loops
# ---------------------------------------------------------------------------


def _reference_rk4_run(field, y0, n_steps, h):
    ts = np.empty(n_steps + 1)
    ys = np.empty((n_steps + 1, y0.size))
    dys = np.empty_like(ys)
    t, y = 0.0, y0.astype(float).copy()
    for i in range(n_steps):
        ts[i] = t
        ys[i] = y
        k1 = field(t, y)
        dys[i] = k1
        k2 = field(t + h / 2, y + h / 2 * k1)
        k3 = field(t + h / 2, y + h / 2 * k2)
        k4 = field(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t + h}")
        t = (i + 1) * h
    ts[-1] = t
    ys[-1] = y
    dys[-1] = field(t, y)
    return ts, ys, dys


def _reference_run(rhs, curves, width, y0, horizon, step, method):
    def field(t, y):
        return rhs(y, *(c(t) for c in curves))

    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        n = math.ceil(horizon / step)
    ts_c, ys_c, _ = _reference_rk4_run(field, y0, n, step)
    ts_f, ys_f, dys_f = _reference_rk4_run(field, y0, 2 * n, step / 2)
    shared = ys_f[::2]
    richardson = float(np.linalg.norm(ys_c - shared, axis=1).max())
    mid = ys_f[1::2]
    interp = np.empty_like(mid)
    h = step
    for i in range(n):
        y0_, y1_ = shared[i], shared[i + 1]
        d0, d1 = dys_f[2 * i], dys_f[2 * i + 2]
        interp[i] = 0.5 * y0_ + 0.5 * y1_ + h / 8 * (d0 - d1)
    interp_slack = float(np.linalg.norm(interp - mid, axis=1).max())
    est = richardson + interp_slack
    meta = IntegratorMeta(method=method, step=step, grid_step=step / 2,
                          est_err=max(est, 1e-15), richardson_err=richardson,
                          interp_slack=interp_slack)
    return ts_f, ys_f, dys_f, meta


def _reference_integrate(rhs, curves, width, runs, method):
    """Each run (y0, horizon, step) integrated alone."""
    return [_reference_run(rhs, curves, width, *run, method) for run in runs]


def _wrapped(op):
    """The same operator, evaluated through its validating method (the
    reference loops called the wrapper, not the raw closure)."""
    if isinstance(op, MonotoneOperator):
        return MonotoneOperator(resolvent=op.resolve, name=op.name)
    return type(op)(**{**vars(op), "fn": op.__call__})


_LAMBDAS = {
    "constant": ParameterCurve.constant(0.7),
    "affine": ParameterCurve.affine(0.05, 0.3, lower=0.0, upper=1.0),
    "piecewise": ParameterCurve.piecewise([0.45, 1.2], [0.2, 0.9, 0.5]),
    "table": ParameterCurve.table([0.0, 0.8, 2.0], [0.1, 1.0, 0.4]),
}
_MAPS = {
    1: NonexpansiveMap.affine([[0.6]], [0.3]),
    2: NonexpansiveMap.compose([NonexpansiveMap.rotation(30.0),
                                NonexpansiveMap.projection_ball([0.5, 0.0], 1.0)]),
}
_SPD = CocoerciveMap.linear_spd([[2.0, 0.5], [0.5, 1.0]])


def _cases():
    """(name, call) pairs; ``call(wrap)`` runs a flow whose operators are
    passed through ``wrap`` first.  Horizon 1.0 at step 0.3 is not a
    multiple of the step: 4 coarse and 8 fine steps, ending at t = 1.2."""
    for d, T in _MAPS.items():
        for kind, lam in _LAMBDAS.items():
            x0 = [1.0, -2.0][:d]
            yield f"first_d{d}_{kind}", lambda w, T=T, lam=lam, x0=x0: \
                integrate_first_order(w(T), lam, x0, 2.0, 0.01)
    yield "first_ragged_horizon", lambda w: integrate_first_order(
        w(_MAPS[1]), _LAMBDAS["piecewise"], [1.0], 1.0, 0.3)
    yield "second", lambda w: integrate_second_order(
        w(_SPD), ParameterCurve.table([0.0, 1.0, 2.0], [1.0, 2.0, 1.5]),
        ParameterCurve.affine(0.2, 3.0), [1.0, -0.5], [0.0, 0.3], 2.0, 0.01)
    yield "second_ragged_horizon", lambda w: integrate_second_order(
        w(CocoerciveMap.identity()), ParameterCurve.constant(2.0),
        ParameterCurve.constant(3.0), [1.0], [0.0], 1.0, 0.3)
    yield "fb_first", lambda w: integrate_forward_backward(
        "first", w(MonotoneOperator.linear([[1.0, 0.4], [-0.4, 0.5]])), w(_SPD),
        0.6, ParameterCurve.constant(1.1), [1.5, -1.0], 2.0, 0.01)
    yield "fb_second", lambda w: integrate_forward_backward(
        "second", w(MonotoneOperator.scaled_identity(0.5)), w(CocoerciveMap.identity()),
        1.0, ParameterCurve.constant(1.0), [0.5], 2.0, 0.01,
        gam=ParameterCurve.affine(0.1, 3.0, lower=3.0, upper=4.0), v0=[0.2])


def _assert_same_bits(new: Trajectory, ref: Trajectory):
    for attr in ("ts", "xs", "dxs", "vs", "dvs"):
        a, b = getattr(new, attr), getattr(ref, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert np.array_equal(a, b), attr
    assert new.meta == ref.meta


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in _cases()])
def test_rk4_bit_identical_to_reference(monkeypatch, call):
    new = call(lambda op: op)
    with monkeypatch.context() as m:
        m.setattr(flows, "_integrate", _reference_integrate)
        ref = call(_wrapped)
    _assert_same_bits(new, ref)


def _first_order_flows():
    """(name, flow) for each first-order flow of ``_cases``: ``flow(wrap)``
    is (T, lambda, x0, horizon, step), T built from operators passed through
    ``wrap`` first."""
    for d, T in _MAPS.items():
        for kind, lam in _LAMBDAS.items():
            yield f"first_d{d}_{kind}", lambda w, T=T, lam=lam, x0=[1.0, -2.0][:d]: \
                (w(T), lam, x0, 2.0, 0.01)
    yield "first_ragged_horizon", lambda w: (w(_MAPS[1]), _LAMBDAS["piecewise"], [1.0], 1.0, 0.3)
    yield "fb_first", lambda w: (
        forward_backward_map(w(MonotoneOperator.linear([[1.0, 0.4], [-0.4, 0.5]])), w(_SPD), 0.6),
        ParameterCurve.constant(1.1), [1.5, -1.0], 2.0, 0.01)


# a second run next to a flow's own (horizon, step)
_PARTNERS = {
    "ragged": lambda horizon, step: (1.1, 0.25),  # 5 coarse steps, ending at t = 1.25
    "n_equal": lambda horizon, step: (2 * horizon, 2 * step),
    "n_larger": lambda horizon, step: (horizon, step / 3),
}


def _lone_references(flow, runs):
    """Each run of ``flow`` integrated alone by the reference loops."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(flows, "_integrate", _reference_integrate)
        T, lam, x0, _, _ = flow(_wrapped)
        return [integrate_first_order(T, lam, x0, *run) for run in runs]


@pytest.mark.parametrize("partner", list(_PARTNERS))
@pytest.mark.parametrize("flow", [pytest.param(f, id=name) for name, f in _first_order_flows()])
def test_batched_runs_bit_identical_to_lone_runs(flow, partner):
    T, lam, x0, horizon, step = flow(lambda op: op)
    runs = [(horizon, step), _PARTNERS[partner](horizon, step)]
    batch = integrate_first_order_runs(T, lam, x0, runs)
    for new, ref in zip(batch, _lone_references(flow, runs), strict=True):
        _assert_same_bits(new, ref)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from(sorted(_MAPS)), kind=st.sampled_from(sorted(_LAMBDAS)),
       x0=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       runs=st.lists(st.tuples(st.integers(1, 40), st.floats(0.01, 0.3), st.floats(0.0, 0.9)),
                     min_size=1, max_size=3))
def test_any_batch_bit_identical_to_lone_runs(d, kind, x0, runs):
    # horizon (n - frac) step: n coarse steps, or n - 1 with a ragged last one
    runs = [((n - frac) * step, step) for n, step, frac in runs]
    flow = lambda w: (w(_MAPS[d]), _LAMBDAS[kind], x0[:d], None, None)
    batch = integrate_first_order_runs(_MAPS[d], _LAMBDAS[kind], x0[:d], runs)
    for new, ref in zip(batch, _lone_references(flow, runs), strict=True):
        assert 1 <= (len(new.ts) - 1) // 2 <= 40
        _assert_same_bits(new, ref)


# lambda is 0 until t = 1, so x' = lambda (1e200 x^2 - x) leaves the reals only after it
_LATE = ParameterCurve.piecewise([1.0], [0.0, 1.0])


@pytest.mark.parametrize("runs, diverging", [
    ([(0.5, 1e-3), (5.0, 0.1)], 1),  # only the shorter run (50 of 500 steps) diverges
    ([(5.0, 0.1), (0.5, 1e-3)], 0),
    ([(5.0, 0.01), (0.5, 0.1)], 0),  # only the longer run (500 of 5 steps) diverges
    ([(0.5, 0.1), (5.0, 0.01)], 1),
    ([(5.0, 0.1), (5.0, 0.01)], 0),  # both diverge: the first is named, as run by run
    ([(5.0, 0.01), (5.0, 0.1)], 0),
])
def test_batch_raises_the_error_of_its_first_divergent_run(runs, diverging):
    calls = []

    def blow_up(x):
        calls.append(1)
        return 1e200 * x * x

    T = NonexpansiveMap(fn=blow_up)
    for horizon, step in runs[:diverging]:  # ends before lambda turns on
        integrate_first_order(T, _LATE, [1.0], horizon, step)
    with pytest.raises(IntegrationError) as alone:
        integrate_first_order(T, _LATE, [1.0], *runs[diverging])
    run_by_run = len(calls)
    with pytest.raises(IntegrationError) as batch:
        integrate_first_order_runs(T, _LATE, [1.0], runs)
    assert str(batch.value) == str(alone.value)
    # no run is integrated past the batch's error; a later run that ends
    # before it takes one more call, for its last derivative
    assert len(calls) - run_by_run <= run_by_run + len(runs)


@pytest.mark.parametrize("n", [1, 10, 2500])
@pytest.mark.parametrize("order", ["first", "second", "first_batch", "first_batch_reversed"])
def test_rhs_calls_per_coarse_step(order, n):
    # per coarse step of the longest run, 4 calls for the paired coarse and
    # fine steps and 4 for the lone fine steps; one for each run's last fine
    # derivative
    calls = []

    def counted(x):
        calls.append(1)
        return 0.5 * x

    if order == "first":
        integrate_first_order(NonexpansiveMap(fn=counted), ParameterCurve.constant(0.5),
                              [1.0, 2.0], n * 1e-3, 1e-3)
    elif order == "second":
        integrate_second_order(CocoerciveMap(fn=counted, beta=2.0),
                               ParameterCurve.constant(1.0), ParameterCurve.constant(3.0),
                               [1.0, 2.0], [0.0, 0.0], n * 1e-3, 1e-3)
    else:
        runs = [(n * 1e-3, 1e-3), (-(-n // 3) * 0.5, 0.5)]  # n and ceil(n/3) coarse steps
        integrate_first_order_runs(NonexpansiveMap(fn=counted), ParameterCurve.constant(0.5),
                                   [1.0, 2.0], runs[::-1] if order.endswith("reversed") else runs)
        assert len(calls) == 8 * n + 2
        return
    assert len(calls) == 8 * n + 1


def test_ragged_horizon_samples():
    traj = integrate_first_order(_MAPS[1], _LAMBDAS["piecewise"], [1.0], 1.0, 0.3)
    assert len(traj.ts) == 9 and traj.ts[-1] == 8 * 0.15 == 1.2


def test_ragged_horizon_error_estimate():
    # the ragged run covers [0, 1.2] like the aligned one, with the same
    # Richardson and Hermite estimates
    T, lam = _MAPS[1], _LAMBDAS["constant"]
    ragged = integrate_first_order(T, lam, [1.0], 1.0, 0.3)
    aligned = integrate_first_order(T, lam, [1.0], 1.2, 0.3)
    assert ragged.meta == aligned.meta
    assert ragged.meta.interp_slack < 1e-6
