"""Basis families: values, recursions, derivatives, and curve curvature."""

import numpy as np
import pytest

from gtplateau.basis import (
    THETA_MAX,
    THETA_MIN,
    BasisSpec,
    ShapePair,
    basis_tables,
    curve_point_and_curvature,
    eval_bernstein,
    eval_gt,
)
from gtplateau.errors import ConfigurationError, DomainError

from difference_form import lower

GT_DEGREES = (2, 3, 4, 5)
THETA_GRID = np.linspace(THETA_MIN, THETA_MAX, 5)
T_GRID = np.linspace(0.0, 1.0, 21)


def elevation_oracle(degree: int, t: np.ndarray) -> np.ndarray:
    """Bernstein values by the raw elevation recursion, no binomials."""
    values = np.ones((1, t.size))
    for _ in range(degree):
        zero = np.zeros((1, t.size))
        lo = np.vstack([values, zero])
        hi = np.vstack([zero, values])
        values = (1.0 - t) * lo + t * hi
    return values


class TestBernstein:
    def test_cubic_endpoints(self):
        assert eval_bernstein(3, 0.0).values.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert eval_bernstein(3, 1.0).values.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_cubic_midpoint(self):
        np.testing.assert_allclose(
            eval_bernstein(3, 0.5).values, [0.125, 0.375, 0.375, 0.125], atol=1e-15
        )

    def test_quadratic_quarter(self):
        np.testing.assert_allclose(
            eval_bernstein(2, 0.25).values, [0.5625, 0.375, 0.0625], atol=1e-15
        )

    @pytest.mark.parametrize("degree", range(7))
    def test_matches_elevation_recursion(self, degree):
        tables = basis_tables(BasisSpec.bernstein(degree), T_GRID)
        np.testing.assert_allclose(
            tables.values, elevation_oracle(degree, T_GRID), atol=1e-14
        )

    def test_first_derivative_closed_form(self):
        # d/dt B_{1,3} = 3 (B_{0,2} - B_{1,2})
        t = 0.3
        ev = eval_bernstein(3, t)
        low = eval_bernstein(2, t)
        assert abs(ev.first[1] - 3.0 * (low.values[0] - low.values[1])) < 1e-15


class TestGtSeed:
    def test_quadratic_midpoint(self):
        ev = eval_gt(BasisSpec.gt(2, 2.0, 2.0), 0.5)
        edge = 1.0 - np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(ev.values, [edge, np.sqrt(2.0) - 1.0, edge], atol=1e-15)

    def test_cubic_midpoint(self):
        ev = eval_gt(BasisSpec.gt(3, 2.0, 2.0), 0.5)
        edge = (1.0 - np.sqrt(2.0) / 2.0) / 2.0
        mid = np.sqrt(2.0) / 4.0
        np.testing.assert_allclose(ev.values, [edge, mid, mid, edge], atol=1e-15)

    @pytest.mark.parametrize("theta1", [0.5, 2.0, 3.5])
    def test_seed_derivative_at_zero(self, theta1):
        ev = eval_gt(BasisSpec.gt(2, theta1, 1.0), 0.0)
        assert abs(ev.first[0] + np.pi * theta1 / 4.0) < 1e-14

    @pytest.mark.parametrize("theta2", [0.5, 2.0, 3.5])
    def test_seed_derivative_at_one(self, theta2):
        ev = eval_gt(BasisSpec.gt(2, 1.0, theta2), 1.0)
        assert abs(ev.first[2] - np.pi * theta2 / 4.0) < 1e-14

    def test_eval_gt_rejects_bernstein(self):
        with pytest.raises(ConfigurationError):
            eval_gt(BasisSpec.bernstein(3), 0.5)


def _all_specs():
    for degree in GT_DEGREES:
        for t1 in THETA_GRID:
            for t2 in THETA_GRID:
                yield BasisSpec.gt(degree, float(t1), float(t2))


class TestGtFamilyProperties:
    def test_partition_of_unity(self):
        for spec in _all_specs():
            sums = basis_tables(spec, T_GRID).values.sum(axis=0)
            assert np.abs(sums - 1.0).max() < 1e-12, spec

    def test_endpoint_interpolation(self):
        for spec in _all_specs():
            values = basis_tables(spec, np.array([0.0, 1.0])).values
            expected = np.zeros_like(values)
            expected[0, 0] = expected[-1, 1] = 1.0
            assert np.abs(values - expected).max() < 1e-14, spec

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        inner = T_GRID[1:-1]
        for spec in _all_specs():
            tables = basis_tables(spec, inner)
            up = basis_tables(spec, inner + h)
            down = basis_tables(spec, inner - h)
            fd1 = (up.values - down.values) / (2.0 * h)
            fd2 = (up.first - down.first) / (2.0 * h)
            rel1 = np.abs(fd1 - tables.first) / (1.0 + np.abs(tables.first))
            rel2 = np.abs(fd2 - tables.second) / (1.0 + np.abs(tables.second))
            assert rel1.max() < 1e-6, spec
            assert rel2.max() < 1e-6, spec

    def test_derivative_rows_sum_to_zero(self):
        # differentiating the partition of unity kills the constant
        for spec in _all_specs():
            tables = basis_tables(spec, T_GRID)
            assert np.abs(tables.first.sum(axis=0)).max() < 1e-10
            assert np.abs(tables.second.sum(axis=0)).max() < 1e-10


class TestValidation:
    @pytest.mark.parametrize("theta", [0.49, 3.51, float("nan"), -1.0])
    def test_shape_interval(self, theta):
        with pytest.raises(DomainError):
            ShapePair(theta, 2.0)

    def test_gt_degree_floor(self):
        with pytest.raises(ConfigurationError):
            BasisSpec.gt(1, 2.0, 2.0)

    def test_bernstein_takes_no_shape(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(family="bernstein", degree=3, shape=ShapePair(2.0, 2.0))

    def test_gt_requires_shape(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(family="gt", degree=3)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(family="spline", degree=3)

    def test_lower_degree_floors(self):
        assert lower(BasisSpec.gt(3, 1.0, 2.0)).degree == 2
        assert lower(BasisSpec.bernstein(2)).degree == 1
        with pytest.raises(ConfigurationError):
            lower(BasisSpec.gt(2, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            lower(BasisSpec.bernstein(0))

    def test_lower_keeps_shape(self):
        spec = BasisSpec.gt(4, 1.25, 3.0)
        assert lower(spec).shape == spec.shape

    @pytest.mark.parametrize("t", [-0.1, 1.2, float("nan")])
    def test_parameter_domain(self, t):
        with pytest.raises(DomainError):
            basis_tables(BasisSpec.bernstein(3), [t])


class TestCurveCurvature:
    def test_straight_line_has_zero_curvature(self):
        controls = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        _, kappa = curve_point_and_curvature(BasisSpec.bernstein(3), controls, 0.4)
        assert abs(kappa) < 1e-12

    def test_quadratic_corner_curvature(self):
        # F(t) = (2t - t^2, t^2): kappa(1/2) = 4/(2)^{3/2} = sqrt(2)
        controls = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        point, kappa = curve_point_and_curvature(BasisSpec.bernstein(2), controls, 0.5)
        np.testing.assert_allclose(point, [0.75, 0.25], atol=1e-15)
        assert abs(kappa - np.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [BasisSpec.bernstein(2), BasisSpec.gt(3, 0.5, 3.5), BasisSpec.gt(3, 2.0, 2.0)],
    )
    def test_against_finite_difference_oracle(self, spec):
        rng = np.random.default_rng(11)
        controls = rng.uniform(-1.0, 2.0, size=(spec.degree + 1, 2))
        h = 1e-5
        for t in (0.2, 0.5, 0.8):
            def position(s):
                return basis_tables(spec, [s]).values[:, 0] @ controls

            d1 = (position(t + h) - position(t - h)) / (2.0 * h)
            d2 = (position(t + h) - 2.0 * position(t) + position(t - h)) / h**2
            speed = np.hypot(*d1)
            oracle = (d1[0] * d2[1] - d1[1] * d2[0]) / speed**3
            _, kappa = curve_point_and_curvature(spec, controls, t)
            assert abs(kappa - oracle) / (1.0 + abs(oracle)) < 1e-6

    def test_vanishing_tangent_raises(self):
        # cusp: the tangent collapses at the midpoint
        controls = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="tangent"):
            curve_point_and_curvature(BasisSpec.bernstein(2), controls, 0.5)

    def test_controls_shape_checked(self):
        with pytest.raises(ConfigurationError):
            curve_point_and_curvature(BasisSpec.bernstein(3), np.zeros((3, 2)), 0.5)
