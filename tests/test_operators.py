"""Operator zoo: evaluation, composition, resolvents, property checkers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fejerflow.operators import (
    CocoerciveMap,
    ConvexFunction,
    MonotoneOperator,
    NonexpansiveMap,
    OperatorError,
    ball_samples,
    check_cocoercive,
    check_nonexpansive,
    forward_backward_map,
    forward_backward_residual,
    make_cocoercive,
    make_convex_function,
    make_monotone,
    make_nonexpansive,
    stojkovic_resolvent,
)
from fejerflow.space import euclidean


class TestApply:
    def test_identity(self):
        T = NonexpansiveMap.identity()
        assert np.allclose(T([1.0, 2.0]), [1.0, 2.0])

    def test_scalar_contraction(self):
        T = NonexpansiveMap.scalar(0.5)
        assert np.allclose(T([2.0, 0.0]), [1.0, 0.0])

    def test_negation(self):
        assert NonexpansiveMap.negation()([1.0])[0] == -1.0

    def test_expansive_matrix_rejected(self):
        with pytest.raises(ValueError):
            NonexpansiveMap.linear([[2.0]])

    def test_projection_ball(self):
        P = NonexpansiveMap.projection_ball([0.0, 0.0], 1.0)
        assert np.allclose(P([3.0, 4.0]), [0.6, 0.8])
        assert np.allclose(P([0.1, 0.2]), [0.1, 0.2])

    def test_zoo_builder(self):
        s = euclidean(2)
        T = make_nonexpansive(s, {"op": "rotation", "angle_deg": 90})
        assert np.allclose(T([1.0, 0.0]), [0.0, 1.0])


class TestForwardBackward:
    def test_gamma_range(self):
        A, B = MonotoneOperator.zero(), CocoerciveMap.identity()
        with pytest.raises(ValueError):
            forward_backward_map(A, B, 2.5)

    def test_identity_resolvent_cases(self):
        A, B = MonotoneOperator.zero(), CocoerciveMap.identity()
        T = forward_backward_map(A, B, 0.5)
        assert np.allclose(T([2.0]), [1.0])
        T1 = forward_backward_map(A, B, 1.0)
        assert np.allclose(T1([4.0]), [0.0])

    def test_projection_resolvent(self):
        A = MonotoneOperator.indicator_point([0.0])
        B = CocoerciveMap.zero()
        T = forward_backward_map(A, B, 0.7)
        assert np.allclose(T([3.0]), [0.0])

    def test_averagedness_recorded(self):
        A, B = MonotoneOperator.zero(), CocoerciveMap.identity()
        T = forward_backward_map(A, B, 1.0)
        # delta = min(1, beta/gamma) + 1/2 = 1.5; a plain map carries 1
        assert T.averaged_delta == 1.5
        assert forward_backward_map(A, B, 0.4).averaged_delta == 1.5
        assert forward_backward_map(A, B, 1.6).averaged_delta == 1 / 1.6 + 0.5
        assert NonexpansiveMap.scalar(0.5).averaged_delta == 1.0

    def test_output_nonexpansive(self):
        s = euclidean(2)
        A = MonotoneOperator.scaled_identity(2.0)
        B = CocoerciveMap.scaled_identity(0.5)  # beta = 2
        T = forward_backward_map(A, B, 1.0)
        assert check_nonexpansive(T, s, n_samples=64, radius=3.0).passed


class TestStojkovicResolvent:
    def test_identity_fixes_x(self):
        F = NonexpansiveMap.identity()
        x = np.array([1.5])
        assert np.allclose(stojkovic_resolvent(F, 2.0, x, tol=1e-13), x)

    def test_negation_closed_form(self):
        # R_t(x) = x / (1 + 2t) for F = -Id
        F = NonexpansiveMap.negation()
        out = stojkovic_resolvent(F, 1.0, np.array([3.0]), tol=1e-13)
        assert out[0] == pytest.approx(1.0, abs=1e-10)

    def test_small_t_near_identity(self):
        F = NonexpansiveMap.negation()
        out = stojkovic_resolvent(F, 0.001, np.array([1.0]), tol=1e-13)
        assert abs(out[0] - 1.0) < 0.01

    def test_resolvent_inequality(self):
        # d(z, R_lam z) <= lam d(z, F z) on samples
        s = euclidean(2)
        F = NonexpansiveMap.rotation(90)
        for z in ball_samples(s, 8, 2.0, seed=3):
            for lam in (0.5, 1.0, 2.0):
                rz = stojkovic_resolvent(F, lam, z, tol=1e-12)
                assert s.distance(z, rz) <= lam * s.distance(z, F(z)) + 1e-9


class TestPropertyCheckers:
    def test_identity_ratio_one(self):
        rep = check_nonexpansive(NonexpansiveMap.identity(), euclidean(2))
        assert rep.passed and rep.max_ratio == pytest.approx(1.0)

    def test_scalar_half_ratio(self):
        rep = check_nonexpansive(NonexpansiveMap.scalar(0.5), euclidean(1))
        assert rep.max_ratio == pytest.approx(0.5)

    def test_expansion_flagged(self):
        double = NonexpansiveMap(fn=lambda x: 2 * x, name="double")
        rep = check_nonexpansive(double, euclidean(1))
        assert not rep.passed and rep.max_ratio == pytest.approx(2.0)

    def test_cocoercive_identity(self):
        rep = check_cocoercive(CocoerciveMap.identity(), euclidean(2))
        assert rep.passed and rep.max_ratio == pytest.approx(1.0)

    def test_cocoercive_wrong_beta(self):
        wrong = CocoerciveMap(fn=lambda x: x, beta=2.0, name="bad")
        rep = check_cocoercive(wrong, euclidean(1))
        assert not rep.passed

    def test_cocoercive_zero_map(self):
        rep = check_cocoercive(CocoerciveMap.zero(beta=5.0), euclidean(2))
        assert rep.passed

    def test_non_finite_map_violates(self):
        nan = NonexpansiveMap(fn=lambda x: x * np.nan, name="nan")
        assert check_nonexpansive(nan, euclidean(2)).violations == 64
        nan_b = CocoerciveMap(fn=lambda x: x * np.nan, beta=1.0, name="nan")
        assert check_cocoercive(nan_b, euclidean(2)).violations == 64

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("shifted", [False, True], ids=["origin", "shifted"])
    def test_sampling_deterministic(self, d, shifted):
        s = euclidean(d)
        center = np.linspace(-1.0, 3.0, d) if shifted else None
        a = ball_samples(s, 16, 2.0, center=center, seed=1)
        assert a.shape == (16, d)
        assert np.array_equal(a, ball_samples(s, 16, 2.0, center=center, seed=1))
        offset = a - (0.0 if center is None else center)
        assert np.linalg.norm(offset, axis=1).max() <= 2.0 + 1e-12
        assert not np.array_equal(a, ball_samples(s, 16, 2.0, center=center, seed=2))
        with pytest.raises(OperatorError, match="at least one sample"):
            check_nonexpansive(NonexpansiveMap.identity(), s, n_samples=0)


class TestConvexFunctions:
    def test_quadratic_prox_closed_form(self):
        phi = ConvexFunction.quadratic(1.0, dimension=2)
        x = np.array([2.0, -4.0])
        assert np.allclose(phi.prox_point(3.0, x), x / 4.0)

    def test_prox_optimality_sampled(self):
        # phi(prox) + d^2(x, prox)/(2t) <= phi(y) + d^2(x, y)/(2t)
        s = euclidean(2)
        phi = ConvexFunction.l1(1.0)
        for x in ball_samples(s, 6, 2.0, seed=5):
            for t in (0.5, 2.0):
                p = phi.prox_point(t, x)
                lhs = phi(p) + np.dot(x - p, x - p) / (2 * t)
                for y in ball_samples(s, 6, 2.0, seed=9):
                    rhs = phi(y) + np.dot(x - y, x - y) / (2 * t)
                    assert lhs <= rhs + 1e-10

    def test_indicator_ball_prox_projects(self):
        phi = ConvexFunction.indicator_ball([0.0], 1.0)
        assert phi.prox_point(1.0, np.array([5.0]))[0] == pytest.approx(1.0)

    def test_zoo_builder(self):
        s = euclidean(1)
        phi = make_convex_function(s, {"op": "quad_prox", "scale": 1.0})
        assert phi.prox_point(1.0, np.array([2.0]))[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the (..., d) -> (..., d) contract
# ---------------------------------------------------------------------------

def _zoo_operators(d: int) -> dict:
    """Every config-addressable operator at dimension d, as (op, descriptor)
    pairs by maker."""
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = rng.standard_normal((d, d))
    spd = a @ a.T / np.linalg.norm(a @ a.T, 2)
    k = rng.standard_normal((d, d))
    point = [0.5] * d
    space = euclidean(d)
    nonexpansive = [{"op": "identity"}, {"op": "scalar", "c": 0.5}, {"op": "negation"},
                    {"op": "affine", "matrix": (0.9 * q).tolist(), "offset": point},
                    {"op": "linear", "matrix": (0.9 * q).tolist()},
                    {"op": "projection_ball", "center": point, "radius": 1.0}]
    if d == 2:
        nonexpansive.append({"op": "rotation", "angle_deg": 30.0})
    cocoercive = [{"op": "identity"}, {"op": "zero"}, {"op": "scaled_identity", "c": 2.0},
                  {"op": "linear_spd", "matrix": spd.tolist()}]
    monotone = [{"op": "zero"}, {"op": "scaled_identity", "c": 2.0},
                {"op": "indicator_point", "point": point},
                {"op": "linear", "matrix": (k - k.T + np.eye(d)).tolist()}]
    convex = [{"op": "quadratic", "scale": 2.0, "center": point}, {"op": "l1", "scale": 0.5},
              {"op": "indicator_ball", "center": point, "radius": 1.0},
              {"op": "indicator_box", "lower": [-1.0] * d, "upper": [1.0] * d}]
    specs = {make_nonexpansive: nonexpansive, make_cocoercive: cocoercive,
             make_monotone: monotone, make_convex_function: convex}
    return {make: [(spec["op"], make(space, spec)) for spec in specs[make]] for make in specs}


def _zoo(d: int) -> list:
    """Every config-addressable closure at dimension d, as (name, f)."""
    ops = _zoo_operators(d)
    zoo = [(f"T.{op}", T) for op, T in ops[make_nonexpansive]]
    Bs, As = ops[make_cocoercive], ops[make_monotone]
    zoo += [(f"B.{op}", B) for op, B in Bs]
    zoo += [(f"A.{op}", lambda x, A=A: A.resolve(0.7, x)) for op, A in As]
    for op, phi in ops[make_convex_function]:
        zoo += [(f"phi.{op}", phi), (f"prox.{op}", lambda x, phi=phi: phi.prox_point(0.7, x))]
    zoo += [(f"fb.{a_op}.{b_op}", forward_backward_map(A, B, 0.5 * B.beta))
            for a_op, A in As for b_op, B in Bs]
    return zoo


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_zoo_rows_match_single_point_calls(d, data):
    # every row of a stack, contiguous or a column slice of a wider array
    # (as the second-order integrator passes x), has the bits of its
    # single-point call; the RK4 core relies on it
    n = data.draw(st.integers(1, 16))
    xs = data.draw(arrays(np.float64, (n, d),
                          elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    strided = np.hstack([xs, xs])[:, :d]
    for name, f in _zoo(d):
        singles = [f(x) for x in xs]
        if isinstance(f, ConvexFunction):
            assert all(type(v) is float for v in singles), name
        else:
            assert all(v.shape == (d,) for v in singles), name
        for stack in (xs, strided):
            rows = f(stack)
            assert rows.shape == ((n,) if isinstance(f, ConvexFunction) else (n, d)), name
            for row, single in zip(rows, singles):
                assert _same_bits(row, single), name


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_parameter_columns_match_single_point_calls(d, data):
    # a prox, or a Stojkovic resolvent with a column of per-row tolerances
    # too, with a column of per-row parameters answers each row with the bits
    # of its single-point call; the lockstep semigroup samplers rely on it
    n = data.draw(st.integers(1, 8))
    xs = data.draw(arrays(np.float64, (n, d),
                          elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    ts = data.draw(arrays(np.float64, (n, 1), elements=st.floats(1e-3, 4.0)))
    tols = data.draw(arrays(np.float64, (n, 1), elements=st.sampled_from([1e-3, 1e-6, 1e-9])))
    for name, f in _zoo(d):
        if isinstance(f, ConvexFunction):
            rows = f.prox_point(ts, xs)
            singles = [f.prox_point(float(t), x) for t, x in zip(ts[:, 0], xs)]
        elif name.startswith("T."):
            rows = stojkovic_resolvent(f, ts, xs, tol=tols)
            singles = [stojkovic_resolvent(f, float(t), x, tol=float(tol))
                       for t, x, tol in zip(ts[:, 0], xs, tols[:, 0])]
        else:
            continue
        assert rows.shape == (n, d), name
        for row, single in zip(rows, singles):
            assert _same_bits(row, single), name


# the zoo's coordinatewise operators, by maker
_COORDINATEWISE = {make_nonexpansive: {"identity", "scalar", "negation"},
                   make_cocoercive: {"identity", "zero", "scaled_identity"},
                   make_monotone: {"zero", "scaled_identity"}}


@pytest.mark.parametrize("d", [1, 2])
def test_coordinatewise_flags(d):
    # matrix, rotation, projection and point-indicator maps act across
    # coordinates; compositions and forward-backward maps are coordinatewise
    # exactly when their parts are
    ops = _zoo_operators(d)
    for make, coordinatewise in _COORDINATEWISE.items():
        for op, descriptor in ops[make]:
            assert descriptor.coordinatewise == (op in coordinatewise), op
    Ts = [T for _, T in ops[make_nonexpansive]]
    for S, T in itertools.product(Ts, Ts):
        both = S.coordinatewise and T.coordinatewise
        assert NonexpansiveMap.compose([S, T]).coordinatewise == both
    for (_, A), (_, B) in itertools.product(ops[make_monotone], ops[make_cocoercive]):
        both = A.coordinatewise and B.coordinatewise
        assert forward_backward_map(A, B, 0.5 * B.beta).coordinatewise == both
        assert forward_backward_residual(A, B, 0.5 * B.beta).coordinatewise == both


# finite floats, with signed zeros, subnormals and the largest floats named
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), _EDGE_FLOATS)
def test_coordinatewise_closures_keep_floats(data, x):
    # on a Python float a coordinatewise closure returns a float with the
    # bits of its 1-element array call; the float RK4 stepper relies on it
    ops = {make: [o for _, o in ops if o.coordinatewise]
           for make, ops in _zoo_operators(1).items() if make in _COORDINATEWISE}
    Ts, Bs, As = ops[make_nonexpansive], ops[make_cocoercive], ops[make_monotone]
    A, B = data.draw(st.sampled_from(As)), data.draw(st.sampled_from(Bs))
    gamma = data.draw(st.floats(0.05, 1.95)) * B.beta
    closures = [T.fn for T in Ts] + [B.fn for B in Bs]
    closures += [lambda x, A=A: A.resolvent(0.7, x) for A in As]
    closures += [NonexpansiveMap.compose(data.draw(st.lists(st.sampled_from(Ts), min_size=1,
                                                            max_size=3))).fn,
                 forward_backward_map(A, B, gamma).fn, forward_backward_residual(A, B, gamma).fn]
    for f in closures:
        value = f(x)
        assert type(value) is float
        with np.errstate(over="ignore", invalid="ignore"):
            row = f(np.array([x]))
        assert np.array([value]).view(np.int64) == row.view(np.int64)


def test_a_nonpositive_row_parameter_is_refused():
    xs = np.array([[1.0], [2.0]])
    ts = np.array([[0.5], [0.0]])
    with pytest.raises(OperatorError, match="prox parameter must be positive"):
        ConvexFunction.l1().prox_point(ts, xs)
    with pytest.raises(OperatorError, match="resolvent parameter must be positive"):
        stojkovic_resolvent(NonexpansiveMap.negation(), ts, xs)


def test_an_empty_stack_resolves_to_an_empty_stack():
    # a stojkovic scenario with no resolvent_points resolves no rows
    out = stojkovic_resolvent(NonexpansiveMap.negation(), np.ones((0, 1)), np.empty((0, 2)))
    assert out.shape == (0, 2)
