"""Quadrature, dense solves, finite differences, and seeded substreams."""

import dataclasses

import numpy as np
import pytest

from gtplateau.basis import BasisSpec, basis_tables, check_theta_stack, gt_affine_tables
from gtplateau.coons import CurveSpec
from gtplateau.dirichlet import _ExtremalFamily, reduced_functional_family
from gtplateau.errors import ConfigurationError, SolverError
from gtplateau.numerics import (
    MAX_QUADRATURE_ORDER,
    DenseSystem,
    QuadratureRule,
    RngStream,
    finite_diff_gradient,
    gauss_legendre_rule,
    integer,
    pivot_ratio,
    real_array,
    solve_dense,
    solve_spd_stack,
)
from gtplateau.patch import ControlNet, Patch, SurfaceShape, boundary_mask, mean_curvature_grid, tessellate
from gtplateau.pso import PsoConfig, resolve_threads


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

    def test_asymmetry_refused_where_built(self):
        # the solve trusts symmetry: each matrix of an asymmetric stack is refused where
        # its system is built, by DenseSystem and by a family (once per net), not per solve
        net = ControlNet(points=np.ones((3, 7, 3)), fixed=boundary_mask(3, 7))  # 5 free points
        inner = np.flatnonzero(net.free)
        matrices, rhs = self.spd_stack(3)
        forms = np.tile(np.eye(21), (3, 1, 1))
        forms[:, inner[:, None], inner] = matrices
        family = _ExtremalFamily(forms, net, gauss_legendre_rule(8), "test")
        np.testing.assert_array_equal(family.blocks[:, :25].reshape(3, 5, 5), matrices)
        for i in range(3):
            bad, bad_forms = matrices.copy(), forms.copy()
            bad[i, 0, 1] += 1e-6
            bad_forms[i, inner[0], inner[1]] += 1e-6
            with pytest.raises(ConfigurationError, match="asymmetry"):
                DenseSystem(matrix=bad[i], rhs=rhs[i])
            with pytest.raises(ConfigurationError, match="asymmetry"):
                _ExtremalFamily(bad_forms, net, gauss_legendre_rule(8), "test")
            solve_spd_stack(bad, rhs)  # unchecked here; Cholesky and the residual bound still certify

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


def boundary_family():
    points = np.full((4, 4, 3), np.nan)
    points[boundary_mask(4, 4)] = np.arange(36.0).reshape(12, 3) % 5.0
    return reduced_functional_family(ControlNet(points=points), gauss_legendre_rule(8))


#: Library entry points given text, ragged or complex input where real numbers belong;
#: each raises ConfigurationError, not numpy's bare ValueError or a ComplexWarning.
NOT_REAL = {
    "shape-text": lambda: SurfaceShape("a", 2.0, 2.0, 2.0),
    "shape-from-text": lambda: SurfaceShape.from_iterable(["2.0", 2.0, 2.0, 2.0]),
    "shape-complex": lambda: SurfaceShape(2.0 + 1j, 2.0, 2.0, 2.0),
    "basis-theta-text": lambda: BasisSpec.gt(3, "2.0", "2.0"),
    "basis-t-text": lambda: basis_tables(BasisSpec.bernstein(3), "x"),
    "basis-t-ragged": lambda: basis_tables(BasisSpec.bernstein(3), [[0.5], [0.1, 0.2]]),
    "basis-t-complex": lambda: basis_tables(BasisSpec.gt(3, 2.0, 2.0), [0.5 + 0.5j]),
    "family-text": lambda: boundary_family()([["a", "b", "c", "d"]]),
    "family-ragged": lambda: boundary_family()([[2.0] * 4, [2.0]]),
    "family-complex": lambda: boundary_family()(np.full((2, 4), 2.0 + 0j)),
    "stream-bool": lambda: RngStream(0, True),
    "stream-numpy-bool": lambda: RngStream(0, np.True_),
    "rule-text": lambda: QuadratureRule(nodes="ab", weights=[0.5, 0.5]),
    "rule-ragged": lambda: QuadratureRule(nodes=[[0.25], [0.5, 0.75]], weights=[0.5, 0.5]),
    "rule-complex": lambda: QuadratureRule(nodes=np.array([0.25, 0.75]) + 0j, weights=[0.5, 0.5]),
    "system-text": lambda: DenseSystem(matrix="x", rhs=[1.0]),
    "system-complex": lambda: DenseSystem(matrix=np.eye(2) + 0j, rhs=np.ones(2)),
    "curve-text": lambda: CurveSpec(BasisSpec.bernstein(1), "xy"),
    "curve-complex": lambda: CurveSpec(BasisSpec.bernstein(1), np.zeros((2, 3), dtype=complex)),
    "config-bounds-complex": lambda: PsoConfig(bounds=[[0.0, 1.0 + 1j]]),
    "real-bool": lambda: real_array(np.ones(2, dtype=bool), "x"),
    "theta-bool": lambda: check_theta_stack([True, True]),
    "config-bounds-bool": lambda: PsoConfig(bounds=[[False, True]]),
}


@pytest.mark.parametrize("case", sorted(NOT_REAL))
def test_non_real_input_raises_configuration_error(case):
    with pytest.raises(ConfigurationError):
        NOT_REAL[case]()


FLAT_PATCH = Patch.bernstein(ControlNet(points=np.zeros((2, 2, 3))))

#: Every library count, read back from what it built: given 3 (as a Python or numpy
#: integer), each gives the plain int 3.
COUNTS = {
    "integer": lambda n: integer(n, "n", 0),
    "bernstein-degree": lambda n: BasisSpec.bernstein(n).degree,
    "gt-degree": lambda n: BasisSpec.gt(n, 2.0, 2.0).degree,
    "gt-affine-degree": lambda n: gt_affine_tables(n, [0.5]).values.shape[1] - 1,
    "quadrature-order": lambda n: gauss_legendre_rule(n).order,
    "stream-seed": lambda n: RngStream(n).seed,
    "stream-id": lambda n: RngStream(0, n).stream_id,
    "tessellate": lambda n: round(len(tessellate(FLAT_PATCH, n)[0]) ** 0.5) - 1,
    "curvature-samples": lambda n: mean_curvature_grid(FLAT_PATCH, n)[0].size,
    "config-swarm-size": lambda n: PsoConfig(swarm_size=n).swarm_size,
    "config-max-iters": lambda n: PsoConfig(max_iters=n).max_iters,
    "config-seed": lambda n: PsoConfig(seed=n).seed,
    "config-threads": lambda n: PsoConfig(threads=n).threads,
    "resolve-threads": resolve_threads,
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_counts_share_one_integer_check(case):
    for value in (3, np.int64(3), np.uint8(3)):
        count = COUNTS[case](value)
        assert type(count) is int and count == 3
    for value in (True, np.True_, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ConfigurationError, match="must be an integer, got"):
            COUNTS[case](value)


def test_integer_range_messages():
    assert integer(5, "n", 5, 5) == 5
    with pytest.raises(ConfigurationError, match="^n must be >= 1, got 0$"):
        integer(0, "n", 1)
    with pytest.raises(ConfigurationError, match="^n must be <= 4, got 5$"):
        integer(np.int64(5), "n", 1, 4)


@pytest.mark.parametrize("build", [PsoConfig, lambda: DenseSystem(matrix=np.eye(2), rhs=np.ones(2))])
def test_array_holders_compare_by_identity(build):
    # the generated __eq__ compared array fields as a tuple, which numpy cannot truth-test
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second, first}) == 2


#: (build from the caller's array, that array, the field keeping it): every validated
#: value keeps a read-only copy, so what was checked at construction stays checked.
READ_ONLY = {
    "rule-nodes": (lambda a: QuadratureRule(nodes=a, weights=np.full(3, 1 / 3)), [0.2, 0.5, 0.8], "nodes"),
    "rule-weights": (lambda a: QuadratureRule(nodes=[0.2, 0.5, 0.8], weights=a), [0.25, 0.5, 0.25], "weights"),
    "system-matrix": (lambda a: DenseSystem(matrix=a, rhs=np.ones(2)), [[2.0, 1.0], [1.0, 2.0]], "matrix"),
    "system-rhs": (lambda a: DenseSystem(matrix=np.eye(2), rhs=a), [1.0, 2.0], "rhs"),
    "config-bounds": (lambda a: PsoConfig(bounds=a), [[0.0, 1.0], [2.0, 3.0]], "bounds"),
    "curve-controls": (lambda a: CurveSpec(BasisSpec.bernstein(1), a), np.arange(6.0).reshape(2, 3), "controls"),
}


@pytest.mark.parametrize("case", sorted(READ_ONLY))
def test_validated_arrays_are_read_only_copies(case):
    build, given, name = READ_ONLY[case]
    given = np.array(given, dtype=float)
    value = build(given)
    kept = getattr(value, name)
    want = given.copy()
    given.flat[1] = 5.0  # asymmetric matrix, unordered nodes, inverted bound
    np.testing.assert_array_equal(kept, want)
    with pytest.raises(ValueError, match="read-only"):
        kept.flat[1] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, given)
    np.testing.assert_array_equal(getattr(value, name), want)
