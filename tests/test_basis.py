"""Basis families: values, recursions, and derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtplateau.basis import (
    THETA_MAX,
    THETA_MIN,
    BasisSpec,
    _gt_seed_tables,
    basis_tables,
)
from gtplateau.errors import ConfigurationError
from gtplateau.numerics import gauss_legendre_rule

from difference_form import lower

GT_DEGREES = (2, 3, 4, 5)
THETA_GRID = np.linspace(THETA_MIN, THETA_MAX, 5)
T_GRID = np.linspace(0.0, 1.0, 21)

PROPERTY = settings(max_examples=25, deadline=None)


def elevation_oracle(degree: int, t: np.ndarray) -> np.ndarray:
    """Bernstein values by the raw elevation recursion, no binomials."""
    values = np.ones((1, t.size))
    for _ in range(degree):
        zero = np.zeros((1, t.size))
        lo = np.vstack([values, zero])
        hi = np.vstack([zero, values])
        values = (1.0 - t) * lo + t * hi
    return values


def gt_elevation_oracle(degree: int, th1: float, th2: float, t: np.ndarray):
    """GT values, first and second derivatives by the differentiated elevation
    recursion ``G_{k,n} = (1-t) G_{k,n-1} + t G_{k-1,n-1}`` from the seed."""
    values, first, second = _gt_seed_tables(th1, th2, t)
    for _ in range(degree - 2):
        zero = np.zeros((1, t.size))
        lo_v, lo_1, lo_2 = (np.vstack([x, zero]) for x in (values, first, second))
        hi_v, hi_1, hi_2 = (np.vstack([zero, x]) for x in (values, first, second))
        values, first, second = (
            (1.0 - t) * lo_v + t * hi_v,
            -lo_v + (1.0 - t) * lo_1 + hi_v + t * hi_1,
            -2.0 * lo_1 + (1.0 - t) * lo_2 + 2.0 * hi_1 + t * hi_2,
        )
    return values, first, second


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


def check_partition_of_unity(spec):
    sums = basis_tables(spec, T_GRID).values.sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-12, spec


def check_endpoint_interpolation(spec):
    values = basis_tables(spec, np.array([0.0, 1.0])).values
    expected = np.zeros_like(values)
    expected[0, 0] = expected[-1, 1] = 1.0
    assert np.abs(values - expected).max() < 1e-14, spec


def check_derivative_rows_sum_to_zero(spec):
    # differentiating the partition of unity kills the constant; a sum of
    # rows rounds in proportion to the sum of their magnitudes
    tables = basis_tables(spec, T_GRID)
    for table in (tables.first, tables.second):
        scale = 1.0 + np.abs(table).sum(axis=0)
        assert (np.abs(table.sum(axis=0)) < 1e-14 * scale).all(), spec


class TestGtFamilyProperties:
    def test_partition_of_unity(self):
        for spec in _all_specs():
            check_partition_of_unity(spec)

    def test_endpoint_interpolation(self):
        for spec in _all_specs():
            check_endpoint_interpolation(spec)

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
        for spec in _all_specs():
            check_derivative_rows_sum_to_zero(spec)

    @PROPERTY
    @given(
        degree=st.integers(2, 200),
        th1=st.floats(THETA_MIN, THETA_MAX),
        th2=st.floats(THETA_MIN, THETA_MAX),
    )
    def test_properties_at_any_degree(self, degree, th1, th2):
        spec = BasisSpec.gt(degree, th1, th2)
        check_partition_of_unity(spec)
        check_derivative_rows_sum_to_zero(spec)
        check_endpoint_interpolation(spec)


class TestGtClosedForm:
    """The seed times Bernstein of degree n - 2 against the elevation recursion."""

    @pytest.mark.parametrize(
        "nodes", [np.linspace(0.0, 1.0, 129), gauss_legendre_rule(32).nodes], ids=["uniform", "gauss"]
    )
    def test_matches_elevation_oracle(self, nodes):
        rng = np.random.default_rng(12)
        for degree in range(2, 41):
            for th1, th2 in rng.uniform(THETA_MIN, THETA_MAX, size=(3, 2)):
                tables = basis_tables(BasisSpec.gt(degree, th1, th2), nodes)
                oracle = gt_elevation_oracle(degree, th1, th2, nodes)
                for got, want in zip((tables.values, tables.first, tables.second), oracle):
                    gap = np.abs(got - want).max() / (1.0 + np.abs(want).max())
                    assert gap <= 4e-15, (degree, th1, th2, gap)


class TestValidation:
    @pytest.mark.parametrize("theta", [0.49, 3.51, float("nan"), -1.0])
    def test_shape_interval(self, theta):
        with pytest.raises(ConfigurationError):
            BasisSpec.gt(3, theta, 2.0)

    def test_bernstein_degree_past_double_range(self):
        # C(1030, 515) exceeds the largest double; degree 1029 still evaluates
        assert np.isfinite(basis_tables(BasisSpec.bernstein(1029), [0.5]).second).all()
        with pytest.raises(ConfigurationError, match="Bernstein degree must be <= 1029, got 1030"):
            basis_tables(BasisSpec.bernstein(1030), [0.5])

    def test_gt_degree_past_double_range(self):
        # GT of degree n is built on Bernstein of degree n - 2, so 1031 still evaluates
        tables = basis_tables(BasisSpec.gt(1031, 1.3, 2.9), T_GRID)
        assert all(np.isfinite(x).all() for x in (tables.values, tables.first, tables.second))
        assert np.abs(tables.values.sum(axis=0) - 1.0).max() < 1e-12
        with pytest.raises(ConfigurationError, match="GT degree must be <= 1031, got 1032"):
            BasisSpec.gt(1032, 1.3, 2.9)

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
        with pytest.raises(ConfigurationError, match=r"theta2 must lie in \[0.5, 3.5\], got 3.6"):
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
        with pytest.raises(ConfigurationError):
            basis_tables(BasisSpec.bernstein(3), [t])
