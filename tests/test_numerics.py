"""Quadrature, dense solves, finite differences, and seeded substreams."""

import numpy as np
import pytest

from gtplateau.errors import ConfigurationError, SolverError
from gtplateau.numerics import (
    MAX_QUADRATURE_ORDER,
    DenseSystem,
    QuadratureRule,
    RngStream,
    finite_diff_gradient,
    gauss_legendre_rule,
    pivot_ratio,
    solve_dense,
    solve_spd_stack,
)


class TestGaussLegendre:
    def test_single_node_is_midpoint(self):
        rule = gauss_legendre_rule(1)
        assert rule.nodes.tolist() == [0.5]
        assert rule.weights.tolist() == [1.0]

    def test_two_node_rule(self):
        rule = gauss_legendre_rule(2)
        offset = 1.0 / (2.0 * np.sqrt(3.0))
        np.testing.assert_allclose(rule.nodes, [0.5 - offset, 0.5 + offset], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_cubic_exact_with_two_nodes(self):
        rule = gauss_legendre_rule(2)
        value = float(rule.weights @ rule.nodes**3)
        assert abs(value - 0.25) < 1e-14

    @pytest.mark.parametrize("k", range(1, 17))
    def test_polynomial_exactness(self, k):
        """k nodes integrate every monomial of degree <= 2k - 1 exactly."""
        rule = gauss_legendre_rule(k)
        for p in range(2 * k):
            value = float(rule.weights @ rule.nodes**p)
            assert abs(value - 1.0 / (p + 1)) < 1e-12, f"degree {p} at k={k}"

    def test_order_property(self):
        assert gauss_legendre_rule(7).order == 7

    def test_rule_is_shared_and_read_only(self):
        rule = gauss_legendre_rule(7)
        assert gauss_legendre_rule(np.int64(7)) is rule
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_rule_owns_read_only_copies(self):
        nodes, weights = np.array([0.1, 0.3, 0.5, 0.7, 0.9]), np.full(5, 0.2)
        rule = QuadratureRule(nodes, weights)
        nodes[0], weights[0] = -5.0, 7.0
        assert rule.nodes[0] == 0.1 and rule.weights[0] == 0.2
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        # equal contents, distinct values: compared and hashed by identity
        assert QuadratureRule(rule.nodes, rule.weights) != rule

    @pytest.mark.parametrize("bad", [0, -3, MAX_QUADRATURE_ORDER + 1, 2.5, True])
    def test_rejects_bad_node_counts(self, bad):
        with pytest.raises(ConfigurationError):
            gauss_legendre_rule(bad)

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            QuadratureRule(nodes=np.array([0.0, 0.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            QuadratureRule(nodes=np.array([0.5, 0.25]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            QuadratureRule(nodes=np.array([0.25, 0.75]), weights=np.array([0.5, 0.6]))
        with pytest.raises(ConfigurationError):
            QuadratureRule(nodes=np.array([]), weights=np.array([]))


class TestSolveDense:
    def test_identity(self):
        system = DenseSystem(matrix=np.eye(3), rhs=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(solve_dense(system), [1.0, 2.0, 3.0])

    def test_small_symmetric(self):
        system = DenseSystem(
            matrix=np.array([[2.0, 1.0], [1.0, 2.0]]),
            rhs=np.array([3.0, 3.0]),
        )
        np.testing.assert_allclose(solve_dense(system), [1.0, 1.0], atol=1e-14)

    def test_singular_raises(self):
        system = DenseSystem(matrix=np.ones((2, 2)), rhs=np.array([1.0, 1.0]))
        with pytest.raises(SolverError, match="singular"):
            solve_dense(system)

    def test_spd_random_multiple_rhs(self):
        rng = RngStream(314, 0)
        raw = rng.uniform(-1.0, 1.0, size=(6, 6))
        matrix = raw.T @ raw + np.eye(6)
        rhs = rng.uniform(-2.0, 2.0, size=(6, 3))
        x = solve_dense(DenseSystem(matrix=matrix, rhs=rhs))
        assert x.shape == (6, 3)
        assert np.abs(matrix @ x - rhs).max() < 1e-9

    def test_indefinite_raises(self):
        # symmetric and nonsingular, but no positive-definite energy has it as its form
        system = DenseSystem(
            matrix=np.array([[0.0, 1.0], [1.0, 0.0]]),
            rhs=np.array([1.0, 2.0]),
        )
        with pytest.raises(SolverError, match="not positive definite"):
            solve_dense(system)

    def test_rhs_dimensionality_is_preserved(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        flat = solve_dense(DenseSystem(matrix=matrix, rhs=np.array([2.0, 4.0])))
        assert flat.shape == (2,)
        wide = solve_dense(DenseSystem(matrix=matrix, rhs=np.array([[2.0], [4.0]])))
        assert wide.shape == (2, 1)

    def test_system_validation(self):
        with pytest.raises(ConfigurationError, match="square"):
            DenseSystem(matrix=np.ones((2, 3)), rhs=np.ones(2))
        with pytest.raises(ConfigurationError, match="one row per matrix row"):
            DenseSystem(matrix=np.eye(2), rhs=np.ones(3))
        with pytest.raises(ConfigurationError, match="asymmetry"):
            DenseSystem(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]), rhs=np.ones(2))


class TestSolveSpdStack:
    def spd_stack(self, k, n=5, seed=2):
        rng = RngStream(seed, 0)
        raw = rng.uniform(-1.0, 1.0, size=(k, n, n))
        matrices = raw @ np.swapaxes(raw, -1, -2) + np.eye(n)
        return matrices, rng.uniform(-2.0, 2.0, size=(k, n, 3))

    def test_rows_match_solve_dense_bitwise(self):
        matrices, rhs = self.spd_stack(4)
        x, _ = solve_spd_stack(matrices, rhs)
        for i in range(4):
            np.testing.assert_array_equal(
                x[i], solve_dense(DenseSystem(matrix=matrices[i], rhs=rhs[i]))
            )

    def test_one_indefinite_matrix_fails_the_stack(self):
        matrices, rhs = self.spd_stack(3, n=2)
        matrices[1] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(SolverError, match="not positive definite"):
            solve_spd_stack(matrices, rhs)
        solve_spd_stack(matrices[[0, 2]], rhs[[0, 2]])

    def test_asymmetry_checked_per_matrix(self):
        matrices, rhs = self.spd_stack(3)
        matrices[2, 0, 1] += 1e-6
        with pytest.raises(ConfigurationError, match="asymmetry"):
            solve_spd_stack(matrices, rhs)

    def test_residual_bound_checked_per_matrix(self):
        # Cholesky succeeds, but the solve of the last system is swamped by rounding
        matrices, rhs = self.spd_stack(2, n=2)
        matrices[1] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
        rhs[1] = [[1e6] * 3, [-1e6] * 3]
        with pytest.raises(SolverError, match="residual"):
            solve_spd_stack(matrices, rhs)


class TestPivotRatio:
    def test_identity(self):
        assert pivot_ratio(np.eye(4)) == 1.0

    def test_diagonal_spd(self):
        # Cholesky pivots are the square roots of the diagonal
        assert abs(pivot_ratio(np.diag([1.0, 100.0])) - 10.0) < 1e-12

    def test_singular_is_infinite(self):
        assert pivot_ratio(np.zeros((2, 2))) == float("inf")


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        grad = finite_diff_gradient(lambda x: float((x**2).sum()), [1.0, 2.0])
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_bilinear_gradient(self):
        grad = finite_diff_gradient(lambda x: float(x[0] * x[1]), [3.0, 5.0])
        np.testing.assert_allclose(grad, [5.0, 3.0], atol=1e-8)

    def test_constant_gradient(self):
        np.testing.assert_array_equal(finite_diff_gradient(lambda x: 7.0, [1.0, 2.0, 3.0]), 0.0)

    def test_input_not_mutated(self):
        x = np.array([1.0, 2.0])
        finite_diff_gradient(lambda y: float((y**3).sum()), x)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_objective_sees_single_coordinate_perturbations(self):
        seen = []
        base = np.array([1.0, 2.0, 3.0])
        finite_diff_gradient(lambda y: seen.append(y.copy()) or 0.0, base, step=0.5)
        for snapshot in seen:
            assert (snapshot != base).sum() == 1

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            finite_diff_gradient(lambda x: 0.0, [1.0], step=0.0)


class TestRngStream:
    def test_equal_keys_replay(self):
        a = RngStream(99, 4).uniform(size=10_000)
        b = RngStream(99, 4).uniform(size=10_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(99, 0).uniform(size=100)
        b = RngStream(99, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(0, 0).uniform(size=100)
        b = RngStream(1, 0).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_uniform_bounds(self):
        draws = RngStream(5, 0).uniform(2.0, 3.0, size=1000)
        assert draws.min() >= 2.0 and draws.max() < 3.0

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (True, 0), (1.5, 0), (0, -2)])
    def test_key_validation(self, seed, stream):
        with pytest.raises(ConfigurationError):
            RngStream(seed, stream)
