"""Integrators and semigroups against closed forms; trajectory invariants."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fejerflow import flows, operators
from fejerflow.config import ConfigError
from fejerflow.flows import (
    IntegrationError,
    IntegratorMeta,
    ParameterCurve,
    Trajectory,
    gradient_flow_semigroup,
    integrate_first_order,
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


# the trajectories of the batched dense-output properties, built on first use
_DENSE_FLOWS = {
    "first_order_1d": lambda: integrate_first_order(
        NonexpansiveMap.scalar(0.5), ParameterCurve.affine(-0.05, 0.5, 0.25, 0.5), [0.7],
        3.0, 0.01),
    "first_order_2d": lambda: integrate_first_order(
        NonexpansiveMap.rotation(60.0), ParameterCurve.constant(0.5), [0.6, -0.8], 3.0, 0.01),
    "second_order": lambda: integrate_second_order(
        CocoerciveMap.identity(), ParameterCurve.constant(2.0), ParameterCurve.constant(3.0),
        [1.0, 0.5], [0.3, -0.2], 3.0, 0.01),
    "from_samples": lambda: Trajectory.from_samples(
        euclidean(1), np.linspace(0.0, 3.0, 41), np.exp(-np.linspace(0.0, 3.0, 41)), 1e-4),
    # a non-uniform grid, denser near 0, in two dimensions
    "from_samples_nonuniform": lambda: Trajectory.from_samples(
        euclidean(2), 3.0 * np.linspace(0.0, 1.0, 57) ** 2,
        np.column_stack([np.exp(-3.0 * np.linspace(0.0, 1.0, 57) ** 2),
                         np.sin(9.0 * np.linspace(0.0, 1.0, 57) ** 2)]), 1e-4),
}
_DENSE_BUILT = {}


def _dense_trajectory(name):
    if name not in _DENSE_BUILT:
        _DENSE_BUILT[name] = _DENSE_FLOWS[name]()
    return _DENSE_BUILT[name]


# a time is a fraction of the horizon (off the grid), a sample index, or one of
# the ends: 0, the horizon and just past it, inside the 1e-12 clamp
_DENSE_PICKS = st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 10 ** 6),
                                  st.sampled_from(["zero", "horizon", "past"])),
                        min_size=1, max_size=40)


def _dense_methods(traj):
    return (traj.eval, traj.eval_velocity) if traj.vs is not None else (traj.eval,)


def _dense_times(traj, picks):
    ends = {"zero": 0.0, "horizon": traj.horizon, "past": traj.horizon + 1e-13}
    return np.array([ends[p] if isinstance(p, str)
                     else traj.ts[p % len(traj.ts)] if isinstance(p, int)
                     else p * traj.horizon for p in picks])


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

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "table", "ts": [0, 1], "values": [1, 2, 3]}, "values"),
        ({"kind": "table", "ts": [0, 30, 10, 40], "values": [1, 2, 3, 4]}, "ts"),
        ({"kind": "table", "ts": [0, 0], "values": [1, 2]}, "ts"),
        ({"kind": "table", "ts": [], "values": []}, "ts"),
        ({"kind": "piecewise", "breaks": [2, 1], "values": [1, 2, 3]}, "breaks"),
        ({"kind": "piecewise", "breaks": [1, 2], "values": [1, 2]}, "values"),
    ], ids=["table_values", "table_unsorted", "table_repeated", "table_empty",
            "piecewise_unsorted", "piecewise_values"])
    def test_from_spec_refuses_a_misshapen_table(self, spec, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ParameterCurve.from_spec(spec)

    def test_from_spec_reads_a_table_and_a_constant_piecewise(self):
        tab = ParameterCurve.from_spec({"kind": "table", "ts": [0, 1, 3], "values": [1, 2, 0]})
        assert (tab.breaks, tab.values, tab(2.0)) == ((0, 1, 3), (1, 2, 0), 1.0)
        flat = ParameterCurve.from_spec({"kind": "piecewise", "breaks": [], "values": [0.5]})
        assert flat(7.0) == 0.5

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
        T = forward_backward_map(MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0)
        with pytest.raises(IntegrationError, match="upper bound 0.5"):
            integrate_first_order(T, lam, [0.1], 10.0, 0.1)

    def test_second_order_checks_gamma(self):
        # 3 - 0.2 t falls below its declared lower 2.5 after t = 2.5
        gam = ParameterCurve.affine(-0.2, 3.0, lower=2.5, upper=3.0)
        with pytest.raises(IntegrationError, match="lower bound 2.5"):
            integrate_second_order(CocoerciveMap.identity(), ParameterCurve.constant(1.0),
                                   gam, [1.0], [0.0], 10.0, 0.1)

    def test_forward_backward_second_checks_gamma(self):
        gam = ParameterCurve.affine(-0.2, 3.0, lower=2.5, upper=3.0)
        with pytest.raises(IntegrationError, match="lower bound 2.5"):
            integrate_forward_backward(MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0,
                                       ParameterCurve.constant(1.0), gam, [0.5], [0.0], 10.0, 0.1)


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

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_DENSE_FLOWS)), picks=_DENSE_PICKS)
    def test_array_of_times_matches_float_times(self, name, picks):
        traj = _dense_trajectory(name)
        times = _dense_times(traj, picks)
        for method in _dense_methods(traj):
            rows = method(times)
            assert rows.shape == (len(times), traj.xs.shape[1])
            assert rows.tobytes() == np.vstack([method(float(t)) for t in times]).tobytes()

    @pytest.mark.parametrize("name", sorted(_DENSE_FLOWS))
    def test_many_random_times_match_float_times(self, name):
        # 20,000 times off the grid reach the rare arguments where a float's
        # and an array's square would round apart (about 1 in 1,200)
        traj = _dense_trajectory(name)
        times = np.random.default_rng(7).uniform(0.0, traj.horizon, 20000)
        for method in _dense_methods(traj):
            assert method(times).tobytes() == np.vstack(
                [method(float(t)) for t in times]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(_DENSE_FLOWS)), picks=_DENSE_PICKS,
           where=st.integers(0, 40),
           past=st.one_of(st.floats(1e-11, 1e6), st.floats(-1e6, -1e-300), st.just(math.nan)))
    def test_array_with_an_out_of_range_time_names_it(self, name, picks, where, past):
        traj = _dense_trajectory(name)
        times = list(_dense_times(traj, picks))
        bad = past if past < 0 or math.isnan(past) else traj.horizon + past
        times.insert(where % (len(times) + 1), bad)
        for method in _dense_methods(traj):
            with pytest.raises(IntegrationError, match=re.escape(f"time {bad} outside")):
                method(np.array(times))

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(_DENSE_FLOWS)),
           past=st.one_of(st.floats(1e-11, 1e6), st.floats(-1e6, -1e-300), st.just(math.nan)))
    def test_float_out_of_range_time_names_it(self, name, past):
        traj = _dense_trajectory(name)
        bad = past if past < 0 or math.isnan(past) else traj.horizon + past
        for method in _dense_methods(traj):
            with pytest.raises(IntegrationError,
                               match=re.escape(f"time {bad} outside [0, {traj.horizon}]")):
                method(bad)

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
                integrate_forward_backward(MonotoneOperator.zero(), CocoerciveMap.identity(),
                                           1.0, lam, gam, [1.0], [0.0], 20.0, 0.05, theta=2.0)


class TestForwardBackwardIntegration:
    def test_reduces_to_linear_decay(self):
        # A = 0, B = Id, gamma = 1: T = 0, so x' = -lambda x
        T = forward_backward_map(MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0)
        traj = integrate_first_order(T, ParameterCurve.constant(1.0), [1.0], 4.0, 1e-3)
        assert abs(traj.eval(1.0)[0] - math.exp(-1)) < 1e-9

    def test_projection_case(self):
        # B = 0, resolvent projects onto {0}: x' = -lambda x
        T = forward_backward_map(MonotoneOperator.indicator_point([0.0]), CocoerciveMap.zero(),
                                 1.0)
        traj = integrate_first_order(T, ParameterCurve.constant(0.5), [3.0], 2.0, 1e-2)
        assert abs(traj.eval(2.0)[0] - 3.0 * math.exp(-1)) < 1e-6

    def test_lambda_range_uses_delta(self):
        # delta = min(1, beta/gamma) + 1/2 = 1.5 allows lambda above 1
        T = forward_backward_map(MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0)
        traj = integrate_first_order(T, ParameterCurve.constant(1.4), [1.0], 1.0, 1e-2)
        assert traj.horizon == pytest.approx(1.0)
        with pytest.raises(IntegrationError):
            integrate_first_order(T, ParameterCurve.constant(1.6), [1.0], 1.0, 1e-2)

    def test_second_order_variant(self):
        traj = integrate_forward_backward(
            MonotoneOperator.zero(), CocoerciveMap.identity(), 1.0, ParameterCurve.constant(1.0),
            ParameterCurve.constant(3.0), [0.5], [0.0], 4.0, 1e-3, theta=0.5)
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


def _prox_steps(phi):
    """The gradient-flow formula at one time: n prox steps of t/n."""
    def run(x, t, n):
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
            lambda x, n: _prox_steps(phi)(x, t, n), np.asarray(x0, dtype=float), 8,
            2 ** 20, tol)
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

        [res] = flows._semigroup(_rows(lambda x, t, n: run(x, n)), [0.0], [1.0],
                                 2 ** 20, 1e-4)
        point, achieved, n = _reference_plain_doubling(run, np.zeros(1), 8,
                                                       2 ** 20, 1e-4)
        assert res.converged and not res.extrapolated
        assert np.array_equal(res.point, point)
        assert (res.n_used, res.achieved_tol) == (n, achieved)


def _rows(run):
    """A one-time run(x, t, n) as ``_semigroup``'s row protocol
    run(xs, ts, tols, n): each row alone, at the tolerance run keeps."""
    return lambda xs, ts, tols, n: np.array([run(x, t, n) for x, t in zip(xs, ts[:, 0])])


def _resolvent_steps(F, tol):
    """The Stojkovic formula at one time: n steps of the former scalar
    resolvent loop, at inner tolerance tol/(2n), with its checks."""
    def run(x, t, n):
        y, s, inner = x, t / n, tol / (2 * n)
        if s <= 0:
            raise OperatorError("resolvent parameter must be positive")
        scale = 1.0 + s
        for _ in range(n):
            w = y
            for _ in range(operators._RESOLVENT_CAP):
                g = (y + s * np.asarray(F.fn(w), dtype=float)) / scale
                dist = float(np.linalg.norm(g - w))
                if dist <= inner:
                    break
                if not math.isfinite(dist):
                    raise OperatorError(f"resolvent iterate of {F.name} is not finite")
                w = g
            else:
                raise IterationBudgetError(
                    f"resolvent iteration exceeded {operators._RESOLVENT_CAP} steps "
                    f"(contraction factor {s / scale})")
            y = g
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
        [ref] = flows._semigroup(_rows(_resolvent_steps(F, tol)), x0, [t],
                                 2 ** 20, tol)
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


# ---------------------------------------------------------------------------
# lockstep sampling: every time of a grid is the SemigroupPoint of its own run
# ---------------------------------------------------------------------------


def _reference_point(run, x, t, n_max, tol):
    """The per-time doubling driver the lockstep driver replaced: one time,
    restarted from x, with run(x, t, n) the exponential formula at that time."""
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise IntegrationError("semigroup time must be nonnegative")
    if t == 0:
        return flows.SemigroupPoint(point=x.copy(), achieved_tol=0.0, n_used=0, converged=True)

    def finite_run(n):
        y = run(x, t, n)
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite semigroup point at t={t}, n={n}")
        return y

    n = 8
    prev = finite_run(n)
    d_prev = ext_prev = de_prev = None
    while n < n_max:
        n *= 2
        cur = finite_run(n)
        d = float(np.linalg.norm(prev - cur))
        ext = 2.0 * cur - prev
        de = None if ext_prev is None else float(np.linalg.norm(ext_prev - ext))
        if de_prev is not None and de < tol and 2 * de < d and 3 * de <= de_prev:
            return flows.SemigroupPoint(point=ext, achieved_tol=de, n_used=n,
                                        converged=True, extrapolated=True)
        if d_prev is not None:
            r = d / d_prev if d_prev > 0 else math.inf
            bound = d * max(1.0, r / (1.0 - r)) if r < 1.0 else d
            if bound < tol:
                return flows.SemigroupPoint(point=cur, achieved_tol=bound, n_used=n,
                                            converged=True)
        prev, d_prev, ext_prev, de_prev = cur, d, ext, de
    return flows.SemigroupPoint(point=prev, achieved_tol=math.inf, n_used=n, converged=False)


def _reference_samples(kind, op, x0, ts, n_max, tol):
    run = _prox_steps(op) if kind == "gradient" else _resolvent_steps(op, tol)
    return [_reference_point(run, x0, float(t), n_max, tol) for t in ts]


_SAMPLERS = {"gradient": flows.gradient_flow_samples, "stojkovic": flows.stojkovic_samples}


def _assert_same_points(points, refs):
    assert len(points) == len(refs)
    for p, r in zip(points, refs):
        assert p.point.shape == r.point.shape and p.point.tobytes() == r.point.tobytes()
        assert (p.n_used, p.achieved_tol, p.extrapolated, p.converged) == \
            (r.n_used, r.achieved_tol, r.extrapolated, r.converged)


def _vector(d):
    return st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=d, max_size=d)


@st.composite
def _convex_spec(draw, d):
    op = draw(st.sampled_from(["quadratic", "quad_prox", "l1", "indicator_ball",
                               "indicator_box"]))
    spec = {"op": op}
    if op in ("quadratic", "quad_prox"):
        spec["scale"] = draw(st.floats(0.1, 4.0))
        if draw(st.booleans()):
            spec["center"] = draw(_vector(d))
    elif op == "l1":
        spec["scale"] = draw(st.floats(0.1, 4.0))
    elif op == "indicator_ball":
        spec.update(center=draw(_vector(d)), radius=draw(st.floats(0.0, 2.0)))
    else:
        lower = draw(_vector(d))
        spec.update(lower=lower, upper=[a + w for a, w in zip(lower, draw(
            st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d)))])
    return spec


@st.composite
def _nonexpansive_spec(draw, d):
    ops = ["identity", "scalar", "negation", "affine", "linear", "projection_ball"]
    op = draw(st.sampled_from(ops + (["rotation"] if d == 2 else [])))
    spec = {"op": op}
    if op == "scalar":
        spec["c"] = draw(st.floats(0.0, 1.0))
    elif op in ("affine", "linear"):
        m = np.array(draw(st.lists(_vector(d), min_size=d, max_size=d)))
        spec["matrix"] = (m / max(1.0, float(np.linalg.norm(m, 2)))).tolist()
        if op == "affine":
            spec["offset"] = draw(_vector(d))
    elif op == "rotation":
        spec["angle_deg"] = draw(st.floats(-180.0, 180.0))
    elif op == "projection_ball":
        spec.update(center=draw(_vector(d)), radius=draw(st.floats(0.0, 2.0)))
    return spec


def _grid(draw):
    """A sample grid from t = 0: k steps of one spacing."""
    spacing = draw(st.sampled_from([0.125, 0.25, 0.3, 0.5, 1.0]))
    return spacing * np.arange(draw(st.integers(1, 5)) + 1)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_gradient_flow_samples_keep_the_bits_of_per_time_runs(d, data):
    phi = operators.make_convex_function(euclidean(d), data.draw(_convex_spec(d)))
    x0 = np.array(data.draw(_vector(d)))
    ts = _grid(data.draw)
    n_max = data.draw(st.sampled_from([8, 64, 4096]))
    tol = data.draw(st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]))
    _assert_same_points(flows.gradient_flow_samples(phi, x0, ts, n_max=n_max, tol=tol),
                        _reference_samples("gradient", phi, x0, ts, n_max, tol))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_stojkovic_samples_keep_the_bits_of_per_time_runs(d, data):
    F = operators.make_nonexpansive(euclidean(d), data.draw(_nonexpansive_spec(d)))
    x0 = np.array(data.draw(_vector(d)))
    ts = _grid(data.draw)
    n_max = data.draw(st.sampled_from([8, 64, 512]))
    tol = data.draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
    _assert_same_points(flows.stojkovic_samples(F, x0, ts, n_max=n_max, tol=tol),
                        _reference_samples("stojkovic", F, x0, ts, n_max, tol))


_ONE_ROW = {"gradient": gradient_flow_semigroup, "stojkovic": stojkovic_semigroup}


def _stack(draw, d, tols, caps):
    """Rows with their own start, time, tol and n_max: the sampler's
    arguments, each of x, tol and n_max given once for all rows or once per
    row, and the values of each row."""
    k = draw(st.integers(1, 5))
    ts = draw(st.lists(st.sampled_from([0.0, 0.125, 0.3, 0.5, 1.0, 2.5]), min_size=k,
                       max_size=k))
    args, rows = {}, {}
    for name, values in (("x", _vector(d)), ("tol", st.sampled_from(tols)),
                         ("n_max", st.sampled_from(caps))):
        if draw(st.booleans()):
            args[name] = draw(values)
            rows[name] = [args[name]] * k
        else:
            args[name] = rows[name] = draw(st.lists(values, min_size=k, max_size=k))
    return ts, {**args, "x": np.array(args["x"])}, rows


def _assert_stack_keeps_one_row_points(kind, op, stack):
    ts, args, rows = stack
    points = _SAMPLERS[kind](op, args["x"], ts, n_max=args["n_max"], tol=args["tol"])
    _assert_same_points(points, [
        _ONE_ROW[kind](op, x, t, n_max=n_max, tol=tol)
        for x, t, n_max, tol in zip(rows["x"], ts, rows["n_max"], rows["tol"])])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_gradient_flow_stack_keeps_the_one_row_points(d, data):
    phi = operators.make_convex_function(euclidean(d), data.draw(_convex_spec(d)))
    _assert_stack_keeps_one_row_points("gradient", phi, _stack(
        data.draw, d, [1e-2, 1e-4, 1e-6, 1e-9], [8, 16, 64, 4096]))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_stojkovic_stack_keeps_the_one_row_points(d, data):
    F = operators.make_nonexpansive(euclidean(d), data.draw(_nonexpansive_spec(d)))
    _assert_stack_keeps_one_row_points("stojkovic", F, _stack(
        data.draw, d, [1e-2, 1e-3, 1e-4], [8, 16, 64, 512]))


@pytest.mark.parametrize("kind, op", [
    ("gradient", ConvexFunction.quadratic(1.0, dimension=1)),
    ("stojkovic", NonexpansiveMap.negation()),
])
def test_converging_stack_runs_once_per_level(monkeypatch, kind, op):
    # a stack that converges makes one run call per doubling level, on the
    # rows still in it; only a failure finishes rows alone
    calls, driver = [], flows._semigroup

    def counted(run, *args):
        def counted_run(xs, ts, tols, n):
            calls.append((n, len(xs)))
            return run(xs, ts, tols, n)
        return driver(counted_run, *args)

    monkeypatch.setattr(flows, "_semigroup", counted)
    points = _SAMPLERS[kind](op, [1.0], [0.5, 0.0, 1.0, 2.5], tol=[1e-3, 1e-6, 1e-6, 1e-7])
    assert all(p.converged for p in points)
    levels, rows = zip(*calls)
    assert levels == tuple(8 * 2 ** i for i in range(len(calls)))
    assert levels[-1] == max(p.n_used for p in points)
    # the rows leave the stack as they converge: 3 times past 0, then fewer
    assert rows[0] == 3 and rows[-1] == 1 and list(rows) == sorted(rows, reverse=True)


def _outcome(call):
    """The SemigroupPoint(s) of a call, or its exception."""
    try:
        return call()
    except Exception as exc:
        return exc


# non-finite for steps t/n below 0.01: the earlier the time, the later it fails
_FRAGILE = ConvexFunction(value=lambda x: 0.5 * np.vecdot(x, x),
                          prox=lambda t, x: np.where(t < 0.01, np.inf, x / (1.0 + t)),
                          name="fragile")


def _too_small(t, x):
    if np.count_nonzero(t < 0.01):
        raise OperatorError(f"prox step {float(np.min(t))} below 0.01")
    return x / (1.0 + t)


# refuses steps t/n below 0.01 with a message naming the step
_PICKY = ConvexFunction(value=lambda x: 0.5 * np.vecdot(x, x), prox=_too_small, name="picky")
# x -> 2x: its resolvent iteration diverges for steps t/n >= 1
_DOUBLING = NonexpansiveMap(fn=lambda x: 2.0 * x, name="doubling")


class TestLockstepErrors:
    """When several times fail, the lockstep samplers raise what the loop
    over the times would: the error of the earliest failing time."""

    @pytest.mark.parametrize("kind, op, ts, cap", [
        # t = 1 fails at n = 128, after t = 0.1 (n = 16) and t = -1
        ("gradient", _FRAGILE, [0.0, 1.0, 0.1, -1.0], None),
        ("gradient", _FRAGILE, [0.5, -1.0, 0.1], None),
        ("gradient", _FRAGILE, [0.0, -2.0, 0.1], None),
        ("gradient", _FRAGILE, [0.05, 0.06], None),  # both at n = 8
        # t = 5e-324 gives the step 0 at n = 8
        ("gradient", _FRAGILE, [1.0, 5e-324], None),
        ("gradient", _FRAGILE, [5e-324, 0.1], None),
        ("gradient", _PICKY, [1.0, 0.1, 0.05], None),
        ("gradient", _PICKY, [0.05, 1.0, 5e-324], None),
        ("stojkovic", _DOUBLING, [0.5, 20.0, -1.0], None),
        ("stojkovic", _DOUBLING, [5e-324, 20.0], None),
        ("stojkovic", _DOUBLING, [20.0, 5e-324], None),
        # at a cap of 30 iterations, the resolvent of t = 8 and t = 16 gives up at n = 8
        ("stojkovic", NonexpansiveMap.negation(), [4.0, 16.0, 8.0], 30),
        ("stojkovic", NonexpansiveMap.negation(), [8.0, 16.0, -1.0], 30),
        ("stojkovic", NonexpansiveMap.negation(), [4.0, -1.0, 16.0], 30),
    ])
    def test_earliest_failing_time_raises(self, monkeypatch, kind, op, ts, cap):
        if cap is not None:
            monkeypatch.setattr(operators, "_RESOLVENT_CAP", cap)
        # no time converges before it fails; a diverging iterate is refused
        # as not finite, without an overflow warning on the way
        tol, x0 = 1e-300 if kind == "gradient" else 1e-12, np.array([1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            per_time = [_outcome(lambda t=t: _reference_samples(kind, op, x0, [t], 2 ** 10, tol))
                        for t in ts]
            assert sum(isinstance(r, Exception) for r in per_time) >= 2
            expected = next(r for r in per_time if isinstance(r, Exception))
            with pytest.raises(type(expected)) as info:
                _SAMPLERS[kind](op, x0, ts, n_max=2 ** 10, tol=tol)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("kind, op, rows", [
        # rows (x, t, n_max): t = 1 fails at n = 128, after t = 0.05 at n = 8
        ("gradient", _FRAGILE, [([1.0], 1.0, 2 ** 10), ([2.0], 0.05, 2 ** 10)]),
        # the first row stops unconverged at its n_max of 16, before it would
        # fail at n = 128; the rows after it run on and fail at n = 64 and n = 8
        ("gradient", _FRAGILE, [([1.0], 1.0, 16), ([2.0], 0.5, 2 ** 10), ([3.0], 0.05, 2 ** 10)]),
        ("gradient", _PICKY, [([-1.0], 1.0, 16), ([1.0], 0.5, 2 ** 10), ([3.0], 0.05, 8)]),
        ("stojkovic", _DOUBLING, [([1.0], 0.5, 8), ([2.0], 20.0, 2 ** 10), ([3.0], 5e-324, 16)]),
    ])
    def test_rows_with_their_own_starts_and_caps(self, kind, op, rows):
        tol = 1e-300 if kind == "gradient" else 1e-12
        xs, ts, caps = zip(*rows)
        with np.errstate(over="ignore", invalid="ignore"):
            per_row = [_outcome(lambda x=x, t=t, cap=cap: _ONE_ROW[kind](op, x, t, n_max=cap,
                                                                        tol=tol))
                       for x, t, cap in rows]
            assert sum(isinstance(r, Exception) for r in per_row) >= 2
            expected = next(r for r in per_row if isinstance(r, Exception))
            with pytest.raises(type(expected)) as info:
                _SAMPLERS[kind](op, np.array(xs), ts, n_max=caps, tol=tol)
        assert str(info.value) == str(expected)

    def test_every_failure_kind_is_covered(self, monkeypatch):
        monkeypatch.setattr(operators, "_RESOLVENT_CAP", 30)
        raised = {type(_outcome(lambda: _SAMPLERS[kind](op, [1.0], ts, n_max=2 ** 10,
                                                        tol=1e-300)))
                  for kind, op, ts in [("gradient", _FRAGILE, [1.0]),
                                       ("gradient", _PICKY, [0.05]),
                                       ("stojkovic", NonexpansiveMap.negation(), [16.0])]}
        assert raised == {IntegrationError, OperatorError, IterationBudgetError}


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


def _reference_integrate(field, curves, width, y0, horizon, step, method, coordinatewise):
    """The run (y0, horizon, step) integrated by the reference loops on
    numpy, coordinatewise or not; a state (x, v) wider than ``width`` has
    the derivative (v, field(x, v, *curve values))."""
    def derivative(t, y):
        values = [c(t) for c in curves]
        if y.size == width:
            return field(y, *values)
        x, v = y[:width], y[width:]
        return np.concatenate([v, field(x, v, *values)])

    return _reference_field_run(derivative, y0, horizon, step, method)


def _reference_field_run(field, y0, horizon, step, method):
    """Fine times, samples, derivatives and meta of the run of y' = field(t, y)."""
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


# curves that vary over 2,500 coarse steps of 0.01, past two blocks: lambda
# tabled, gamma through 0 at t = 10
_LONG_LAM = ParameterCurve.table([0.0, 8.0, 17.0, 25.0], [0.2, 1.0, 0.6, 0.9])
_LONG_GAM = ParameterCurve.affine(0.1, -1.0)
_LONG = (25.0, 0.01)
assert 2 * flows._BLOCK < flows.coarse_steps(*_LONG)


def _second_long(w):
    return integrate_second_order(w(_SPD), _LONG_LAM, _LONG_GAM, [1.0, -0.5], [0.0, 0.3], *_LONG)


def _cases():
    """(name, call) pairs; ``call(wrap)`` runs a flow whose operators are
    passed through ``wrap`` first.  Horizon 1.0 at step 0.3 is not a
    multiple of the step: 4 coarse and 8 fine steps, ending at t = 1.2.
    The ``_multi_block`` flows run past two blocks with curves that vary
    throughout, so each block's slice of the curve table is checked."""
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
    yield "fb_first", lambda w: integrate_first_order(
        forward_backward_map(w(MonotoneOperator.linear([[1.0, 0.4], [-0.4, 0.5]])), w(_SPD), 0.6),
        ParameterCurve.constant(1.1), [1.5, -1.0], 2.0, 0.01)
    yield "fb_second", lambda w: integrate_forward_backward(
        w(MonotoneOperator.scaled_identity(0.5)), w(CocoerciveMap.identity()), 1.0,
        ParameterCurve.constant(1.0), ParameterCurve.affine(0.1, 3.0, lower=3.0, upper=4.0),
        [0.5], [0.2], 2.0, 0.01)
    yield "first_multi_block", lambda w: integrate_first_order(
        w(_MAPS[2]), _LONG_LAM, [1.0, -2.0], *_LONG)
    yield "second_multi_block", _second_long


def _assert_same_bits(new: Trajectory, ref: Trajectory):
    # compared as integers, so a zero's sign counts
    for attr in ("ts", "xs", "dxs", "vs", "dvs"):
        a, b = getattr(new, attr), getattr(ref, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), attr
    assert new.meta == ref.meta


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in _cases()])
def test_rk4_bit_identical_to_reference(monkeypatch, call):
    new = call(lambda op: op)
    with monkeypatch.context() as m:
        m.setattr(flows, "_integrate", _reference_integrate)
        ref = call(_wrapped)
    _assert_same_bits(new, ref)


def test_second_order_bit_identical_to_its_written_out_field():
    # the reference field is written here, not the one integrate_second_order
    # builds, so a change to that field's arithmetic shows
    def field(t, y):
        x, v = y[:2], y[2:]
        return np.concatenate([v, -_LONG_GAM(t) * v - _LONG_LAM(t) * _SPD(x)])

    new = _second_long(lambda op: op)
    ts, ys, dys, meta = _reference_field_run(field, np.array([1.0, -0.5, 0.0, 0.3]), *_LONG,
                                             "rk4/second_order")
    ref = Trajectory(space=new.space, ts=ts, xs=ys[:, :2], dxs=dys[:, :2], vs=ys[:, 2:],
                     dvs=dys[:, 2:], meta=meta)
    assert (_LONG_GAM(new.ts) == 0).any()  # where -gamma is -0
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


def _in_turn(T, lam, x0, runs) -> list[Trajectory]:
    """Each run (horizon, step) integrated in turn on one operator and one
    curve, as a first-order scenario integrates its main run and then its
    ``long_check`` run."""
    return [integrate_first_order(T, lam, x0, *run) for run in runs]


# a second run after a flow's own (horizon, step)
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
    # a scenario's batch of runs shares its operator and curve: the run
    # before leaves no trace in the bits of the next
    T, lam, x0, horizon, step = flow(lambda op: op)
    runs = [(horizon, step), _PARTNERS[partner](horizon, step)]
    batch = _in_turn(T, lam, x0, runs)
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
    batch = _in_turn(_MAPS[d], _LAMBDAS[kind], x0[:d], runs)
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
    calls.clear()
    with pytest.raises(IntegrationError) as batch:
        _in_turn(T, _LATE, [1.0], runs)
    assert str(batch.value) == str(alone.value)
    # no run after the divergent one starts
    assert len(calls) == run_by_run


@pytest.mark.parametrize("n", [1, 10, 2500])
@pytest.mark.parametrize("order", ["first", "second", "first_batch", "first_batch_reversed"])
def test_rhs_calls_per_coarse_step(order, n):
    # per coarse step, 4 calls for the paired coarse and fine steps and 4 for
    # the lone fine steps; one for each run's last fine derivative
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
        _in_turn(NonexpansiveMap(fn=counted), ParameterCurve.constant(0.5), [1.0, 2.0],
                 runs[::-1] if order.endswith("reversed") else runs)
        # each run takes its own steps, in either order: none share field calls
        assert len(calls) == 8 * (n + -(-n // 3)) + 2
        return
    assert len(calls) == 8 * n + 1


# lambda is 0 until t = 25, past the first two blocks of steps of 0.01, then 1/2
_WAKING = ParameterCurve.piecewise([25.0], [0.0, 0.5])
_SPAN = flows._BLOCK * 0.01  # the time one block of steps of 0.01 covers


def _counted_half(calls: list) -> NonexpansiveMap:
    factor = np.array(0.5)
    return NonexpansiveMap(fn=lambda x: calls.append(1) or factor * x)


@pytest.mark.parametrize("lam, runs, n_calls", [
    # unchanged by its first block, the run settles; its 9 other blocks run at once
    (ParameterCurve.constant(0.0), [(10 * _SPAN, 0.01)], 8 * flows._BLOCK + 8 * 9 + 1),
    # settled after block 1 and kept in block 2, the run wakes in block 3: that
    # block's stacked check fails, and the run steps it and block 4 one by one
    (_WAKING, [(4 * _SPAN, 0.01)], 3 * 8 * flows._BLOCK + 2 * 8 + 1),
    # then a run at 5x the step, which wakes within its first block and never settles
    (_WAKING, [(4 * _SPAN, 0.01), (20 * _SPAN, 0.05)],
     3 * 8 * flows._BLOCK + 2 * 8 + 1 + 4 * 8 * flows._BLOCK + 1),
], ids=["lambda_zero", "wakes", "one_of_two_settles"])
def test_settled_runs_keep_the_bits_of_lone_runs(lam, runs, n_calls):
    calls = []
    T = _counted_half(calls)
    batch = _in_turn(T, lam, [1.0, -2.0], runs)
    assert len(calls) == n_calls
    # lambda = 0 gives signed zeros: 0 (T x - x) is -0 at x = 1
    assert np.signbit(batch[0].dxs[0]).tolist() == [True, False]
    flow = lambda w: (w(T), lam, [1.0, -2.0], None, None)
    for new, ref in zip(batch, _lone_references(flow, runs), strict=True):
        _assert_same_bits(new, ref)


def test_second_order_run_settles_at_its_equilibrium(monkeypatch):
    # x'' + 3 x' + (x - p) = 0 from rest at p: block 1 settles, blocks 2 and 3
    # run at once; the velocity's derivative is -3 * 0 - 0 = -0
    calls, p = [], np.array([1.0, -2.0])
    B = CocoerciveMap(fn=lambda x: calls.append(1) or x - p, beta=1.0)
    call = lambda w: integrate_second_order(w(B), ParameterCurve.constant(1.0),
                                            ParameterCurve.constant(3.0), p, [0.0, 0.0],
                                            3 * _SPAN, 0.01)
    new = call(lambda op: op)
    assert len(calls) == 8 * flows._BLOCK + 2 * 8 + 1
    assert np.signbit(new.dvs).all() and (new.xs == p).all()
    monkeypatch.setattr(flows, "_integrate", _reference_integrate)
    _assert_same_bits(new, call(_wrapped))


def test_ragged_horizon_samples():
    traj = integrate_first_order(_MAPS[1], _LAMBDAS["piecewise"], [1.0], 1.0, 0.3)
    assert len(traj.ts) == 9 and traj.ts[-1] == 8 * 0.15 == 1.2
    assert traj.horizon == flows.coarse_steps(1.0, 0.3) * 0.3


def test_ragged_horizon_error_estimate():
    # the ragged run covers [0, 1.2] like the aligned one, with the same
    # Richardson and Hermite estimates
    T, lam = _MAPS[1], _LAMBDAS["constant"]
    ragged = integrate_first_order(T, lam, [1.0], 1.0, 0.3)
    aligned = integrate_first_order(T, lam, [1.0], 1.2, 0.3)
    assert ragged.meta == aligned.meta
    assert ragged.meta.interp_slack < 1e-6


# ---------------------------------------------------------------------------
# the coordinatewise stepper on Python floats against the numpy stepper
# ---------------------------------------------------------------------------


def _numpy_only(op):
    """The same operator, not coordinatewise: it steps on numpy."""
    return dataclasses.replace(op, coordinatewise=False)


def _counted_fn(op, calls: list):
    """The same operator, counting the calls of its closure on an array."""
    fn = op.fn
    return dataclasses.replace(
        op, fn=lambda x: isinstance(x, np.ndarray) and calls.append(1) or fn(x))


_MONOTONE_COORDINATEWISE = st.one_of(st.just(MonotoneOperator.zero()),
                                     st.floats(0.0, 2.0).map(MonotoneOperator.scaled_identity))
_COCOERCIVE_COORDINATEWISE = st.one_of(
    st.just(CocoerciveMap.identity()), st.floats(0.5, 2.0).map(CocoerciveMap.zero),
    st.floats(0.1, 2.0).map(CocoerciveMap.scaled_identity),
    st.integers(1, 3).map(lambda d: CocoerciveMap.linear_spd(np.zeros((d, d)))))
_PLAIN_COORDINATEWISE = st.one_of(st.just(NonexpansiveMap.identity()),
                                  st.just(NonexpansiveMap.negation()),
                                  st.floats(0.0, 1.0).map(NonexpansiveMap.scalar))


@st.composite
def _forward_backward_parts(draw):
    A, B = draw(_MONOTONE_COORDINATEWISE), draw(_COCOERCIVE_COORDINATEWISE)
    return A, B, draw(st.floats(0.05, 1.95)) * B.beta


_NONEXPANSIVE_COORDINATEWISE = st.one_of(
    _PLAIN_COORDINATEWISE,
    st.lists(_PLAIN_COORDINATEWISE, min_size=1, max_size=3).map(NonexpansiveMap.compose),
    _forward_backward_parts().map(lambda parts: forward_backward_map(*parts)))
_SECOND_ORDER_COORDINATEWISE = st.one_of(
    _COCOERCIVE_COORDINATEWISE,
    _forward_backward_parts().map(lambda parts: operators.forward_backward_residual(*parts)))


def _assert_float_stepper_keeps_the_numpy_bits(flow, op, numpy_calls: int, monkeypatch):
    """``flow(op)`` on floats, every run within the chain cap, has the bits
    of ``flow`` over the operator stepped on numpy.  It calls the closure
    on an array ``numpy_calls`` times: once per run for its last
    derivative, and 8 times per block a settled run tries at once."""
    calls = []
    monkeypatch.setattr(flows, "_CHAIN_CAP", 10 ** 6)
    new = flow(_counted_fn(op, calls))
    assert len(calls) == numpy_calls
    monkeypatch.setattr(flows, "_CHAIN_CAP", 0)
    ref = flow(_numpy_only(op))
    for a, b in zip(new, ref, strict=True):
        _assert_same_bits(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), kind=st.sampled_from(sorted(_LAMBDAS)),
       n=st.integers(1, 40), step=st.floats(0.01, 0.3), frac=st.floats(0.0, 0.9))
def test_first_order_floats_keep_the_numpy_bits(data, d, kind, n, step, frac):
    T = data.draw(_NONEXPANSIVE_COORDINATEWISE)
    assert T.coordinatewise
    x0 = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    # horizon (n - frac) step: n coarse steps, or n - 1 with a ragged last one;
    # lambda stays within [0, 1], inside every forward-backward map's cap
    flow = lambda op: [integrate_first_order(op, _LAMBDAS[kind], x0, (n - frac) * step, step)]
    with pytest.MonkeyPatch.context() as m:
        _assert_float_stepper_keeps_the_numpy_bits(flow, T, 1, m)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), lam=st.sampled_from(sorted(_LAMBDAS)),
       gam=st.sampled_from(sorted(_LAMBDAS)), n=st.integers(1, 40), step=st.floats(0.01, 0.3),
       frac=st.floats(0.0, 0.9))
def test_second_order_floats_keep_the_numpy_bits(data, d, lam, gam, n, step, frac):
    B = data.draw(_SECOND_ORDER_COORDINATEWISE)
    assert B.coordinatewise
    u0, v0 = (data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)) for _ in "uv")
    flow = lambda op: [integrate_second_order(op, _LAMBDAS[lam], _LAMBDAS[gam], u0, v0,
                                              (n - frac) * step, step)]
    with pytest.MonkeyPatch.context() as m:
        _assert_float_stepper_keeps_the_numpy_bits(flow, B, 1, m)


@pytest.mark.parametrize("flow, op, numpy_calls", [
    # past two blocks, with curves that vary throughout; then a second run
    (lambda op: _in_turn(op, _LONG_LAM, [1.0, -2.0, 0.5], [_LONG, (20.0, 0.03)]),
     NonexpansiveMap.scalar(0.5), 2),
    (lambda op: [integrate_second_order(op, _LONG_LAM, _LONG_GAM, [1.0, -0.5], [0.0, 0.3],
                                        *_LONG)],
     operators.forward_backward_residual(MonotoneOperator.scaled_identity(0.5),
                                         CocoerciveMap.scaled_identity(2.0), 0.3), 1),
    # settled after block 1 and kept in block 2, the run wakes in block 3 and
    # steps it and block 4 one by one; the second run never settles
    (lambda op: _in_turn(op, _WAKING, [1.0, -2.0], [(4 * _SPAN, 0.01), (20 * _SPAN, 0.05)]),
     NonexpansiveMap.compose([NonexpansiveMap.scalar(0.5), NonexpansiveMap.negation()]),
     2 * 8 + 2),
], ids=["first_multi_block", "second_multi_block", "first_wakes"])
def test_long_flows_on_floats_keep_the_numpy_bits(monkeypatch, flow, op, numpy_calls):
    _assert_float_stepper_keeps_the_numpy_bits(flow, op, numpy_calls, monkeypatch)


@pytest.mark.parametrize("d, runs", [
    (1, 1), (2, 2),  # the builtins' sizes: up to 2 chains a run
    (flows._CHAIN_CAP // 2, 2), (flows._CHAIN_CAP, 1), (flows._CHAIN_CAP + 1, 1),
    (flows._CHAIN_CAP // 2 + 1, 2),  # the cap holds per run, not per scenario
])
def test_blocks_within_the_chain_cap_step_on_floats(d, runs):
    calls = []
    T = _counted_fn(NonexpansiveMap.scalar(0.5), calls)
    _in_turn(T, ParameterCurve.constant(0.5), [1.0] * d, [(10 * 1e-3, 1e-3)] * runs)
    # one call per run for its last derivative; numpy makes 8 per coarse step
    assert len(calls) == runs * (1 if d <= flows._CHAIN_CAP else 8 * 10 + 1)


# x' = -x at h = 1e7: each RK4 step multiplies by about h^4/24, past the floats in 12 steps
_BLOW_UP = 1e7


@pytest.mark.parametrize("runs, diverging", [
    ([(3000 * _BLOW_UP, _BLOW_UP)], 0),  # three blocks: the first one raises
    # 2 steps stay finite, their error estimate too
    ([(2 * _BLOW_UP, _BLOW_UP), (3000 * _BLOW_UP, _BLOW_UP)], 1),
    ([(3000 * _BLOW_UP, _BLOW_UP), (40 * _BLOW_UP, _BLOW_UP)], 0),  # both diverge
    ([(40 * _BLOW_UP, _BLOW_UP), (3000 * _BLOW_UP, _BLOW_UP)], 0),
])
def test_diverging_chains_raise_the_numpy_error(runs, diverging):
    calls = []
    T = NonexpansiveMap(fn=lambda x: calls.append(1) or 0.0 * x, coordinatewise=True)
    lam = ParameterCurve.constant(1.0)
    with pytest.raises(IntegrationError) as on_floats:
        _in_turn(T, lam, [1.0], runs)
    # raised at the end of the first block: 12 field calls per coarse step and run
    assert len(calls) <= 12 * flows._BLOCK * len(runs)
    with pytest.raises(IntegrationError) as on_numpy:
        _in_turn(_numpy_only(T), lam, [1.0], runs)
    with pytest.raises(IntegrationError) as alone:
        integrate_first_order(_numpy_only(T), lam, [1.0], *runs[diverging])
    assert str(on_floats.value) == str(on_numpy.value) == str(alone.value)
    assert "non-finite state" in str(on_floats.value)
