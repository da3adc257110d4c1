"""Harmonic-net reconstruction: the sampled least squares against the coefficient route."""

import numpy as np
import pytest

from gtplateau.errors import ConfigurationError, ReconstructionError
from gtplateau.harmonic import (
    CERTIFICATE_FACTOR,
    bernstein_laplacian_defect,
    defect_certificate_bound,
    defect_family,
    harmonic_reconstruct,
)
from gtplateau.basis import BasisSpec, basis_tables
from gtplateau.patch import (
    ControlNet,
    Patch,
    boundary_mask,
    surface_jet,
)
from gtplateau.pso import PsoConfig, optimize
from laplacian_operator import (
    bernstein_gram,
    elevation_coefficients,
    laplacian_coefficient_operator,
    operator_reconstruct,
)


def affine_net(rows: int = 5, cols: int = 5) -> ControlNet:
    """Exactly harmonic data: z affine in the grid indices."""
    i = np.arange(rows, dtype=float)[:, None]
    j = np.arange(cols, dtype=float)[None, :]
    points = np.stack(
        np.broadcast_arrays(i, j, 2.0 * i - 3.0 * j + 1.0), axis=-1
    )
    return ControlNet(points=points)


class TestElevationCoefficients:
    def test_cubic_rows(self):
        np.testing.assert_array_equal(
            elevation_coefficients(3), [[6.0, 4.0, 2.0], [2.0, 4.0, 6.0]]
        )

    def test_quartic_rows(self):
        np.testing.assert_array_equal(
            elevation_coefficients(4),
            [[12.0, 6.0, 2.0], [6.0, 8.0, 6.0], [2.0, 6.0, 12.0]],
        )

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_row_sums(self, degree):
        sums = elevation_coefficients(degree).sum(axis=1)
        np.testing.assert_array_equal(sums, float(degree * (degree + 1)))

    @pytest.mark.parametrize("degree", [1, 0, -2, 2.5])
    def test_degree_floor(self, degree):
        with pytest.raises(ConfigurationError):
            elevation_coefficients(degree)


class TestOperator:
    def test_shape(self):
        assert laplacian_coefficient_operator(3, 4).shape == (20, 20)

    def test_affine_net_is_in_kernel(self):
        net = affine_net()
        operator = laplacian_coefficient_operator(net.degree_u, net.degree_v)
        coeffs = operator @ net.points.reshape(-1, 3)
        assert np.abs(coeffs).max() < 1e-12

    def test_matches_sampled_laplacian(self, rule16):
        # operator output = Bernstein coefficients of S_uu + S_vv
        rng = np.random.default_rng(8)
        points = rng.uniform(-1.0, 1.0, (4, 5, 3))
        net = ControlNet(points=points)
        operator = laplacian_coefficient_operator(3, 4)
        coeffs = (operator @ points.reshape(-1, 3)).reshape(4, 5, 3)
        patch = Patch.bernstein(net)
        t = np.linspace(0.0, 1.0, 9)
        jet = surface_jet(patch, t, t)
        tu = basis_tables(BasisSpec.bernstein(3), t)
        tv = basis_tables(BasisSpec.bernstein(4), t)
        resampled = np.einsum("iu,jv,ijc->uvc", tu.values, tv.values, coeffs)
        np.testing.assert_allclose(resampled, jet.Suu + jet.Svv, atol=1e-10)


class TestBernsteinGram:
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_matches_quadrature(self, degree, rule32):
        tables = basis_tables(BasisSpec.bernstein(degree), rule32.nodes)
        oracle = (tables.values * rule32.weights) @ tables.values.T
        np.testing.assert_allclose(bernstein_gram(degree), oracle, atol=1e-14)

    def test_symmetric_positive_definite(self):
        gram = bernstein_gram(4)
        np.testing.assert_array_equal(gram, gram.T)
        np.linalg.cholesky(gram)


class TestReconstruct:
    def test_affine_interior_recovered(self):
        full = affine_net()
        points = full.points.copy()
        interior = ~boundary_mask(5, 5)
        points[interior] = np.nan
        rebuilt = harmonic_reconstruct(ControlNet(points=points))
        np.testing.assert_allclose(rebuilt.points, full.points, atol=1e-10)

    @pytest.mark.parametrize("fixture", ["columns_net", "rows_net"])
    def test_partial_data_certified(self, fixture, request, rule32):
        net = request.getfixturevalue(fixture)
        rebuilt = harmonic_reconstruct(net)
        assert rebuilt.is_complete
        defect = bernstein_laplacian_defect(rebuilt, rule32)
        assert defect < defect_certificate_bound(net)
        # known data carried bitwise
        np.testing.assert_array_equal(
            rebuilt.points[net.fixed], net.points[net.fixed]
        )

    def test_feasible_case_matches_direct_minimization(
        self, columns_net, rule32, quadratic_minimizer
    ):
        oracle = self._minimize_defect(columns_net, rule32, quadratic_minimizer)
        rebuilt = harmonic_reconstruct(columns_net)
        np.testing.assert_allclose(
            rebuilt.points[columns_net.free].ravel(), oracle, atol=1e-8
        )

    def test_infeasible_case_matches_direct_minimization(
        self, wave_net, rule32, quadratic_minimizer
    ):
        # alternating-sign boundary admits no exactly harmonic completion
        oracle = self._minimize_defect(wave_net, rule32, quadratic_minimizer)
        rebuilt = harmonic_reconstruct(wave_net)
        np.testing.assert_allclose(
            rebuilt.points[wave_net.free].ravel(), oracle, atol=1e-8
        )
        defect = bernstein_laplacian_defect(rebuilt, rule32)
        assert defect > defect_certificate_bound(wave_net)
        assert abs(defect - 120.33723031532347) / 120.33723031532347 < 1e-9

    @staticmethod
    def _minimize_defect(net, rule, quadratic_minimizer):
        def defect_of(vec):
            points = net.points.copy()
            points[net.free] = vec.reshape(-1, 3)
            return bernstein_laplacian_defect(ControlNet(points=points), rule)

        return quadratic_minimizer(defect_of, int(net.free.sum()) * 3)

    def test_complete_net_returns_copy(self):
        net = affine_net()
        result = harmonic_reconstruct(net)
        assert result is not net and result.points is not net.points
        np.testing.assert_array_equal(result.points, net.points)

    def test_missing_corner_rejected(self):
        points = affine_net().points.copy()
        points[0, 0] = np.nan
        with pytest.raises(ConfigurationError, match="corners"):
            harmonic_reconstruct(ControlNet(points=points))

    def test_degree_floor(self):
        points = np.zeros((2, 4, 3))
        with pytest.raises(ConfigurationError, match="degree >= 2"):
            harmonic_reconstruct(ControlNet(points=points))

    def test_corners_alone_are_rank_deficient(self):
        points = np.full((4, 4, 3), np.nan)
        for i in (0, -1):
            for j in (0, -1):
                points[i, j] = (float(i), float(j), 1.0)
        with pytest.raises(ReconstructionError, match="rank 8 < 12 unknowns"):
            harmonic_reconstruct(ControlNet(points=points))

    def test_one_short_is_rank_deficient(self):
        # three edge points more than the corners still leave one direction free
        points = np.full((4, 4, 3), np.nan)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3), (0, 1), (0, 2), (1, 0)]:
            points[i, j] = (float(i), float(j), 1.0 + i * j)
        with pytest.raises(ReconstructionError, match="rank 8 < 9 unknowns"):
            harmonic_reconstruct(ControlNet(points=points))


def random_partial_net(seed: int, degree_u: int, degree_v: int) -> ControlNet:
    """Random points, about 15% unknown anywhere but the corners, at least one on an edge."""
    rng = np.random.default_rng(seed)
    rows, cols = degree_u + 1, degree_v + 1
    points = rng.uniform(-1.0, 1.0, (rows, cols, 3))
    corners = ([0, 0, -1, -1], [0, -1, 0, -1])
    edge = boundary_mask(rows, cols)
    edge[corners] = False
    free = rng.random((rows, cols)) < 0.15
    free.ravel()[rng.choice(np.flatnonzero(edge))] = True
    free[corners] = False
    return ControlNet(points=points, fixed=~free)


class TestAgainstCoefficientRoute:
    """The sampled system against the Gram-weighted coefficient equations.

    Both have the normal matrix of the exact defect, so they agree up to the
    rounding of each route. On data with no harmonic completion the
    coefficient route is the less accurate one: the Cholesky factor of the
    Bernstein Gram matrix grows ill-conditioned with degree, so with many
    unknowns at high degree it leaves the exact minimizer by more than 1e-12
    of the scale while the sampled route does not (test_matches_exact_minimizer).
    The random nets keep few unknowns so the comparison measures the library,
    not the reference.
    """

    @pytest.mark.parametrize("fixture", ["columns_net", "rows_net", "wave_net"])
    def test_fixtures(self, fixture, request):
        net = request.getfixturevalue(fixture)
        reference, _ = operator_reconstruct(net)
        gap = np.abs(harmonic_reconstruct(net).points - reference.points).max()
        assert gap <= 1e-12 * net.scale()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_nets(self, seed):
        net = random_partial_net(seed, 3 + seed, 3 + (7 * seed) % 10)
        reference, rank = operator_reconstruct(net)
        assert rank == int(net.free.sum())
        rebuilt = harmonic_reconstruct(net)
        np.testing.assert_array_equal(rebuilt.points[net.fixed], net.points[net.fixed])
        assert np.abs(rebuilt.points - reference.points).max() <= 1e-12 * net.scale()

    def test_matches_exact_minimizer(self, exact_harmonic_points):
        points = np.random.default_rng(7).uniform(-1.0, 1.0, (8, 8, 3))
        net = ControlNet(points=points, fixed=boundary_mask(8, 8))
        exact = exact_harmonic_points(net)
        rebuilt = harmonic_reconstruct(net)
        assert np.abs(rebuilt.points[net.free] - exact).max() <= 1e-12 * net.scale()


class TestDefectMeasures:
    def test_defect_requires_complete_net(self, wave_net, rule16):
        with pytest.raises(ConfigurationError, match="fully known"):
            bernstein_laplacian_defect(wave_net, rule16)
        with pytest.raises(ConfigurationError, match="fully known"):
            defect_family(wave_net, rule16)

    def test_objective_nonnegative(self, wave_net, rule16):
        net = harmonic_reconstruct(wave_net)
        alphas = np.repeat([[0.5], [2.0], [3.5]], 4, axis=1)
        assert np.all(defect_family(net, rule16)(alphas) >= 0.0)

    def test_certificate_bound_formula(self, wave_net):
        scale = wave_net.scale()
        assert scale == 6.0
        assert defect_certificate_bound(wave_net) == pytest.approx(
            CERTIFICATE_FACTOR * 37.0, rel=1e-15
        )

    def test_shape_tuning_reduces_defect(self, columns_net, rule16):
        net = harmonic_reconstruct(columns_net)
        config = PsoConfig(swarm_size=12, max_iters=8, seed=0, threads=1)
        result = optimize(defect_family(net, rule16), config)
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.value <= result.history[0]
        assert result.value < 10.0
