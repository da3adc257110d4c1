"""Basis families: values, recursions, and derivatives."""

import numpy as np
import pytest

from gtplateau.basis import (
    THETA_MAX,
    THETA_MIN,
    BasisSpec,
    basis_tables,
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
        cubic = BasisSpec.bernstein(3)
        assert basis_tables(cubic, [0.0]).values[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert basis_tables(cubic, [1.0]).values[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_cubic_midpoint(self):
        np.testing.assert_allclose(
            basis_tables(BasisSpec.bernstein(3), [0.5]).values[:, 0],
            [0.125, 0.375, 0.375, 0.125],
            atol=1e-15,
        )

    def test_quadratic_quarter(self):
        np.testing.assert_allclose(
            basis_tables(BasisSpec.bernstein(2), [0.25]).values[:, 0],
            [0.5625, 0.375, 0.0625],
            atol=1e-15,
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
        ev = basis_tables(BasisSpec.bernstein(3), [t])
        low = basis_tables(BasisSpec.bernstein(2), [t])
        assert abs(ev.first[1, 0] - 3.0 * (low.values[0, 0] - low.values[1, 0])) < 1e-15


class TestGtSeed:
    def test_quadratic_midpoint(self):
        ev = basis_tables(BasisSpec.gt(2, 2.0, 2.0), [0.5])
        edge = 1.0 - np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(ev.values[:, 0], [edge, np.sqrt(2.0) - 1.0, edge], atol=1e-15)

    def test_cubic_midpoint(self):
        ev = basis_tables(BasisSpec.gt(3, 2.0, 2.0), [0.5])
        edge = (1.0 - np.sqrt(2.0) / 2.0) / 2.0
        mid = np.sqrt(2.0) / 4.0
        np.testing.assert_allclose(ev.values[:, 0], [edge, mid, mid, edge], atol=1e-15)

    @pytest.mark.parametrize("theta1", [0.5, 2.0, 3.5])
    def test_seed_derivative_at_zero(self, theta1):
        ev = basis_tables(BasisSpec.gt(2, theta1, 1.0), [0.0])
        assert abs(ev.first[0, 0] + np.pi * theta1 / 4.0) < 1e-14

    @pytest.mark.parametrize("theta2", [0.5, 2.0, 3.5])
    def test_seed_derivative_at_one(self, theta2):
        ev = basis_tables(BasisSpec.gt(2, 1.0, theta2), [1.0])
        assert abs(ev.first[2, 0] - np.pi * theta2 / 4.0) < 1e-14


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
            BasisSpec.gt(3, theta, 2.0)

    def test_bernstein_degree_past_double_range(self):
        # C(1030, 515) exceeds the largest double; degree 1029 still evaluates
        assert np.isfinite(basis_tables(BasisSpec.bernstein(1029), [0.5]).second).all()
        with pytest.raises(ConfigurationError, match="Bernstein degree 1030 is too high"):
            basis_tables(BasisSpec.bernstein(1030), [0.5])

    def test_gt_degree_floor(self):
        with pytest.raises(ConfigurationError):
            BasisSpec.gt(1, 2.0, 2.0)

    def test_bernstein_takes_no_shape(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(family="bernstein", degree=3, theta=(2.0, 2.0))

    def test_gt_requires_shape(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(family="gt", degree=3)

    def test_theta_is_a_checked_pair(self):
        spec = BasisSpec(family="gt", degree=3, theta=np.array([1, 2.5]))
        assert spec.theta == (1.0, 2.5) and type(spec.theta[0]) is float
        assert hash(spec) == hash(BasisSpec.gt(3, 1.0, 2.5))
        for theta in (None, 2.0, (2.0,), (1.0, 2.0, 3.0), [[1.0, 2.0]], "ab", ("a", "b")):
            with pytest.raises(ConfigurationError, match="theta"):
                BasisSpec(family="gt", degree=3, theta=theta)
        with pytest.raises(ConfigurationError):
            BasisSpec(family="bernstein", degree=3, theta=(2.0, 2.0))
        with pytest.raises(DomainError, match=r"theta2 must lie in \[0.5, 3.5\], got 3.6"):
            BasisSpec(family="gt", degree=3, theta=(2.0, 3.6))

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
        assert lower(spec).theta == spec.theta

    @pytest.mark.parametrize("t", [-0.1, 1.2, float("nan")])
    def test_parameter_domain(self, t):
        with pytest.raises(DomainError):
            basis_tables(BasisSpec.bernstein(3), [t])
