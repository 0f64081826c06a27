"""Euclidean space instance: metric axioms, geodesics, CAT(0) comparison."""

import pytest
from hypothesis import given, settings, strategies as st

from fejerflow.space import DimensionMismatch, SpaceDescriptor, UnsupportedOperation, euclidean

coords = st.lists(st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                  min_size=3, max_size=3)
unit = st.floats(0, 1, allow_nan=False)


class TestBasics:
    def test_distance_examples(self):
        s2 = euclidean(2)
        assert s2.distance([0, 0], [3, 4]) == pytest.approx(5.0)
        assert s2.distance([1, 2], [1, 2]) == 0.0
        assert euclidean(1).distance([1], [-2]) == pytest.approx(3.0)

    def test_geodesic_examples(self):
        s1 = euclidean(1)
        assert s1.geodesic_point([0], [2], 0.0)[0] == 0.0
        assert s1.geodesic_point([0], [2], 1.0)[0] == 2.0
        assert s1.geodesic_point([0], [2], 0.25)[0] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            s1.geodesic_point([0], [2], 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            euclidean(2).distance([1], [1, 2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            euclidean(1).point([float("nan")])

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedOperation):
            SpaceDescriptor(kind="hyperbolic", dimension=2)

    def test_json_round_trip(self):
        s = euclidean(3)
        assert SpaceDescriptor.from_json(s.to_json()) == s


class TestMetricProperties:
    @given(coords, coords, coords)
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        s = euclidean(3)
        scale = max(1.0, s.distance(a, c))
        assert s.distance(a, c) <= (s.distance(a, b) + s.distance(b, c)
                                    + 1e-12 * scale)

    @given(coords, coords, unit)
    @settings(max_examples=300, deadline=None)
    def test_geodesic_distance_identities(self, p, q, lam):
        s = euclidean(3)
        mid = s.geodesic_point(p, q, lam)
        d = s.distance(p, q)
        scale = max(1.0, d)
        assert abs(s.distance(p, mid) - lam * d) <= 1e-12 * scale
        assert abs(s.distance(q, mid) - (1 - lam) * d) <= 1e-12 * scale

    @given(coords, coords, coords, unit)
    @settings(max_examples=300, deadline=None)
    def test_cat0_comparison_with_equality(self, x, y, z, lam):
        s = euclidean(3)
        mid = s.geodesic_point(x, y, lam)
        lhs = s.distance(mid, z) ** 2
        rhs = ((1 - lam) * s.distance(x, z) ** 2 + lam * s.distance(y, z) ** 2
               - lam * (1 - lam) * s.distance(x, y) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, rhs))
