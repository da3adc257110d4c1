"""The hybrid blended patch."""

import numpy as np
import pytest

from gtplateau.basis import BasisSpec, basis_tables, gt_affine_tables
from gtplateau.coons import (
    CurveSpec,
    TbPatch,
    _blend_tables,
    _hybrid_forms,
    optimize_tb,
    solve_tb_interior,
    tb_dirichlet_energy,
    tb_reduced_functional_family,
    tb_surface_jet,
)
from gtplateau.dirichlet import _free_split, _shape_weights, reduced_functional_family
from gtplateau.errors import ConfigurationError
from gtplateau.numerics import RngStream, finite_diff_gradient, gauss_legendre_rule
from gtplateau.patch import ControlNet, SurfaceShape, area, mean_curvature_grid, surface_jet, tessellate
from gtplateau.pso import PsoConfig
from hybrid_definition import tb_components, tb_coons, tb_system

CUBIC = BasisSpec.bernstein(3)
TS = np.linspace(0.0, 1.0, 21)


def random_points(seed: int, shape=(4, 4)) -> np.ndarray:
    return RngStream(seed, 0).uniform(-2.0, 4.0, shape + (3,))


def random_shape(seed: int) -> SurfaceShape:
    return SurfaceShape.from_iterable(RngStream(seed, 1).uniform(0.5, 3.5, 4))


def open_interior(points: np.ndarray) -> ControlNet:
    points = points.copy()
    points[1:-1, 1:-1] = np.nan
    return ControlNet(points=points)


def family_form(net: ControlNet, shape: SurfaceShape, rule) -> np.ndarray:
    """The hybrid family's 36 forms weighted at one shape vector: the form every hybrid solve reads."""
    forms = _hybrid_forms(net.degree_u, net.degree_v, rule)
    return np.tensordot(_shape_weights([shape.as_array()])[0], forms, 1)


class TestCurveSpec:
    def test_rejects_wrong_control_count(self):
        with pytest.raises(ConfigurationError, match=r"\(4, 3\)"):
            CurveSpec(basis=CUBIC, controls=np.zeros((3, 3)))

    def test_rejects_nonfinite(self):
        controls = np.zeros((4, 3))
        controls[2, 1] = np.inf
        with pytest.raises(ConfigurationError, match="finite"):
            CurveSpec(basis=CUBIC, controls=controls)

    def test_evaluation_shape_and_endpoints(self):
        controls = random_points(1)[:, 0]
        spec = CurveSpec(basis=CUBIC, controls=controls)
        values = spec.at(TS)
        assert values.shape == (21, 3)
        np.testing.assert_array_equal(values[0], controls[0])
        np.testing.assert_array_equal(values[-1], controls[-1])


class TestBlendNetValidation:
    def test_degree_one_refused(self, rule16):
        # GT's seed is quadratic, so neither direction may be linear
        for shape in ((2, 4), (4, 2), (2, 2)):
            net = ControlNet(points=random_points(7, shape))
            with pytest.raises(ConfigurationError, match="GT degree must be >= 2"):
                tb_surface_jet(net, random_shape(7), TS, TS)
            with pytest.raises(ConfigurationError, match="GT degree must be >= 2"):
                tb_reduced_functional_family(net, rule16)

    def test_needs_full_boundary(self, rule16):
        points = random_points(8)
        points[0, 2] = np.nan
        net = open_interior(points)
        with pytest.raises(ConfigurationError, match="require every boundary point fixed"):
            solve_tb_interior(net, random_shape(8), rule16)
        with pytest.raises(ConfigurationError, match="require every boundary point fixed"):
            tb_reduced_functional_family(net, rule16)

    def test_evaluation_needs_complete_interior(self, wave_net, rule16):
        with pytest.raises(ConfigurationError, match="must be known for evaluation"):
            tb_surface_jet(wave_net, random_shape(8), TS, TS)
        with pytest.raises(ConfigurationError, match="must be known for evaluation"):
            tb_dirichlet_energy(wave_net, random_shape(8), rule16)

    def test_solve_needs_open_interior(self, rule16):
        net = ControlNet(points=random_points(8))
        with pytest.raises(ConfigurationError, match="no unknown interior points"):
            tb_reduced_functional_family(net, rule16)

    def test_wave_fixture_fits_the_solve(self, wave_net, rule16):
        family = tb_reduced_functional_family(wave_net, rule16)
        assert family.n == 4 and family.blocks.shape[0] == 36


class TestHybridSurface:
    def test_corner_value(self):
        points = random_points(9)
        net = ControlNet(points=points)
        value = tb_coons(net, random_shape(9), 0.0, 0.0)
        np.testing.assert_allclose(value, points[0, 0], atol=1e-13)
        jet = tb_surface_jet(net, random_shape(9), [0.0], [0.0])
        np.testing.assert_allclose(jet.S[0, 0], points[0, 0], atol=1e-13)

    def test_correction_cancels_r2_on_bottom_edge(self):
        net = ControlNet(points=random_points(10))
        shape = random_shape(10)
        edge = tb_surface_jet(net, shape, TS[::3], [0.0]).S[:, 0]
        for k, u in enumerate(TS[::3]):
            r1, r2, t = tb_components(net, shape, u, 0.0)
            np.testing.assert_allclose(r2, t, atol=1e-12)
            np.testing.assert_allclose(tb_coons(net, shape, u, 0.0), r1, atol=1e-12)
            np.testing.assert_allclose(edge[k], r1, atol=1e-12)

    def test_boundary_is_bernstein_for_every_shape(self):
        points = random_points(11)
        net = ControlNet(points=points)
        grid = np.linspace(0.5, 3.5, 5)
        for a in grid:
            for b in grid:
                shape = SurfaceShape(a, a, b, b)
                jet = tb_surface_jet(net, shape, TS, np.array([0.0, 1.0]))
                np.testing.assert_allclose(
                    jet.S[:, 0], CurveSpec(basis=CUBIC, controls=points[:, 0]).at(TS),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    jet.S[:, 1], CurveSpec(basis=CUBIC, controls=points[:, 3]).at(TS),
                    atol=1e-12,
                )
                jet = tb_surface_jet(net, shape, np.array([0.0, 1.0]), TS)
                np.testing.assert_allclose(
                    jet.S[0], CurveSpec(basis=CUBIC, controls=points[0, :]).at(TS),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    jet.S[1], CurveSpec(basis=CUBIC, controls=points[3, :]).at(TS),
                    atol=1e-12,
                )

    def test_correction_ignores_interior(self):
        points = random_points(12)
        other = points.copy()
        other[1:3, 1:3] += 5.0
        shape = random_shape(12)
        r1_a, r2_a, t_a = tb_components(ControlNet(points=points), shape, 0.4, 0.7)
        r1_b, r2_b, t_b = tb_components(ControlNet(points=other), shape, 0.4, 0.7)
        np.testing.assert_array_equal(t_a, t_b)
        # the library's surface moves with the interior only through R1 + R2
        s_a = tb_surface_jet(ControlNet(points=points), shape, [0.4], [0.7]).S[0, 0]
        s_b = tb_surface_jet(ControlNet(points=other), shape, [0.4], [0.7]).S[0, 0]
        np.testing.assert_allclose(s_b - s_a, (r1_b + r2_b) - (r1_a + r2_a), atol=1e-12)

    def test_jet_against_finite_differences(self):
        net = ControlNet(points=random_points(13))
        shape = SurfaceShape(1.3, 0.7, 2.9, 1.1)
        h = 1e-5
        for u, v in [(0.3, 0.4), (0.62, 0.18), (0.5, 0.87)]:
            us = np.array([u - h, u, u + h])
            vs = np.array([v - h, v, v + h])
            jet = tb_surface_jet(net, shape, us, vs)
            s = jet.S
            checks = [
                ((s[2, 1] - s[0, 1]) / (2 * h), jet.Su[1, 1]),
                ((s[1, 2] - s[1, 0]) / (2 * h), jet.Sv[1, 1]),
                ((s[2, 1] - 2 * s[1, 1] + s[0, 1]) / h**2, jet.Suu[1, 1]),
                ((s[1, 2] - 2 * s[1, 1] + s[1, 0]) / h**2, jet.Svv[1, 1]),
                (
                    (s[2, 2] - s[2, 0] - s[0, 2] + s[0, 0]) / (4 * h**2),
                    jet.Suv[1, 1],
                ),
            ]
            for fd, exact in checks:
                assert np.abs(fd - exact).max() / (1 + np.abs(exact).max()) < 1e-5

    @pytest.mark.parametrize("seed", [18, 19, 20])
    def test_jet_grids_match_the_definition(self, seed):
        # S against the pointwise definition; its derivatives against central
        # differences of the definition, not of the library
        net = ControlNet(points=random_points(seed))
        shape = random_shape(seed)
        us, vs = np.array([0.0, 0.23, 0.5, 0.81, 1.0]), np.array([0.0, 0.37, 0.64, 1.0])
        jet = tb_surface_jet(net, shape, us, vs)
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                np.testing.assert_allclose(jet.S[a, b], tb_coons(net, shape, u, v), atol=1e-13)

        h = 1e-4

        def s(u, v):
            return tb_coons(net, shape, u, v)

        for a, u in enumerate(us[1:-1], start=1):
            for b, v in enumerate(vs[1:-1], start=1):
                centre = s(u, v)
                checks = [
                    (jet.Su, (s(u + h, v) - s(u - h, v)) / (2 * h)),
                    (jet.Sv, (s(u, v + h) - s(u, v - h)) / (2 * h)),
                    (jet.Suu, (s(u + h, v) - 2 * centre + s(u - h, v)) / h**2),
                    (jet.Svv, (s(u, v + h) - 2 * centre + s(u, v - h)) / h**2),
                    (
                        jet.Suv,
                        (s(u + h, v + h) - s(u + h, v - h) - s(u - h, v + h) + s(u - h, v - h))
                        / (4 * h**2),
                    ),
                ]
                for grid, fd in checks:
                    exact = grid[a, b]
                    assert np.abs(fd - exact).max() / (1 + np.abs(exact).max()) < 1e-5

    @pytest.mark.parametrize(
        "params",
        [([-0.1], [0.5]), ([0.5], [1.2]), ([float("nan")], [0.5]), ([0.5], [float("nan")]), ([[0.5]], [0.5])],
    )
    def test_jet_parameter_domain(self, params):
        net = ControlNet(points=random_points(14))
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            tb_surface_jet(net, random_shape(14), *params)

    @pytest.mark.parametrize(
        "ts",
        [np.linspace(0.0, 1.0, 17), gauss_legendre_rule(32).nodes, np.linspace(0.0, 1.0, 129)],
        ids=["uniform-17", "gauss-32", "uniform-129"],
    )
    def test_pair_tables_are_three_basis_tables(self, ts):
        for degree in (2, 3, 7):
            spec = random_shape(15).basis_specs(degree, degree)[1]
            got = _blend_tables(basis_tables(spec, ts), ts)
            parts = [basis_tables(s, ts) for s in (BasisSpec.bernstein(degree), spec, BasisSpec.bernstein(1))]
            for name in ("values", "first", "second"):
                want = np.concatenate([getattr(part, name) for part in parts])
                assert getattr(got, name).shape == (2 * degree + 4, ts.size)
                assert getattr(got, name).tobytes() == want.tobytes()

    @pytest.mark.parametrize("degree", [2, 3, 7])
    def test_blend_parts_rebuild_the_blend_tables(self, degree):
        # the parts of GT part tables, combined with (1, t1, t2), are the blend
        # tables of that shape pair; the Bernstein and linear rows are all in part 0
        ts = gauss_legendre_rule(32).nodes
        parts = _blend_tables(gt_affine_tables(degree, ts), ts)
        constant = np.r_[: degree + 1, 2 * degree + 2 : 2 * degree + 4]
        for th1, th2 in RngStream(degree, 2).uniform(0.5, 3.5, (5, 2)):
            single = _blend_tables(basis_tables(BasisSpec.gt(degree, th1, th2), ts), ts)
            for name in ("values", "first", "second"):
                part, want = getattr(parts, name), getattr(single, name)
                assert part.shape == (3, 2 * degree + 4, ts.size)
                rebuilt = part[0] + th1 * part[1] + th2 * part[2]
                assert np.abs(rebuilt - want).max() <= 1e-14 * np.abs(want).max()
                assert np.all(part[1:, constant] == 0.0)


class TestGramAssembly:
    @pytest.mark.parametrize("seed", range(21, 29))
    def test_system_matches_2d_reference(self, seed):
        net = open_interior(random_points(seed))
        shape = random_shape(seed)
        rule = gauss_legendre_rule(16 + seed % 3 * 8)
        matrix, rhs = _free_split(family_form(net, shape, rule), net)
        reference = tb_system(net, shape, rule)
        for got, want in ((matrix, reference.matrix), (rhs, reference.rhs)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(29, 35))
    def test_energy_matches_2d_quadrature(self, seed):
        # the form's energy 1/2 sum_c P_c^T F P_c against the quadrature of the jet
        net = ControlNet(points=random_points(seed))
        shape = random_shape(seed)
        rule = gauss_legendre_rule(8 + seed % 4 * 8)
        p = net.points.reshape(-1, 3)
        p = p - p.mean(axis=0)  # F 1 = 0
        energy = 0.5 * (p * (family_form(net, shape, rule) @ p)).sum()
        quadrature = tb_dirichlet_energy(net, shape, rule)
        assert abs(energy - quadrature) <= 1e-13 * quadrature

    @pytest.mark.parametrize("seed", range(35, 41))
    def test_translated_net_keeps_energy(self, seed):
        # translation leaves the energy alone; an uncentred quadratic form
        # loses about (offset / size)^2 of it to cancellation
        rule = gauss_legendre_rule(24)
        shape = random_shape(seed)
        solved = solve_tb_interior(open_interior(random_points(seed)), shape, rule)
        energy = tb_dirichlet_energy(solved, shape, rule)
        far = ControlNet(points=solved.points + 1e4)
        assert abs(tb_dirichlet_energy(far, shape, rule) - energy) <= 1e-11 * energy


class TestInteriorSolve:
    def test_planar_boundary_stays_planar(self, wave_net, rule32):
        points = wave_net.points.copy()
        points[..., 2] = np.where(np.isnan(points[..., 0]), np.nan, 0.0)
        net = ControlNet(points=points)
        solved = solve_tb_interior(net, SurfaceShape(1.5, 2.5, 0.8, 3.2), rule32)
        assert np.all(solved.points[..., 2] == 0.0)

    def test_boundary_carried_bitwise(self, wave_net, rule32):
        shape = SurfaceShape(2.0, 2.0, 2.0, 2.0)
        solved = solve_tb_interior(wave_net, shape, rule32)
        np.testing.assert_array_equal(
            solved.points[wave_net.fixed], wave_net.points[wave_net.fixed]
        )
        assert solved.is_complete

    def test_matches_direct_minimization(self, wave_net, rule32, quadratic_minimizer):
        shape = SurfaceShape(1.9, 0.8, 3.0, 1.4)

        def energy_of(vec):
            points = wave_net.points.copy()
            points[wave_net.free] = vec.reshape(-1, 3)
            return tb_dirichlet_energy(ControlNet(points=points), shape, rule32)

        oracle = quadratic_minimizer(energy_of, 12)
        solved = solve_tb_interior(wave_net, shape, rule32)
        np.testing.assert_allclose(
            solved.points[wave_net.free].ravel(), oracle, atol=1e-8
        )

    def test_energy_is_exactly_quadratic(self, wave_net, rule32):
        shape = SurfaceShape(2.7, 1.2, 0.6, 3.3)
        dims = 12

        def energy_of(vec):
            points = wave_net.points.copy()
            points[wave_net.free] = vec.reshape(-1, 3)
            return tb_dirichlet_energy(ControlNet(points=points), shape, rule32)

        basis = np.eye(dims)
        base = energy_of(np.zeros(dims))
        single = np.array([energy_of(basis[q]) for q in range(dims)])
        gradient = np.array(
            [(single[q] - energy_of(-basis[q])) / 2.0 for q in range(dims)]
        )
        hessian = np.empty((dims, dims))
        for q in range(dims):
            for r in range(q, dims):
                value = energy_of(basis[q] + basis[r]) - single[q] - single[r] + base
                hessian[q, r] = hessian[r, q] = value

        probe = RngStream(15, 0).uniform(-2.0, 2.0, dims)
        model = base + gradient @ probe + 0.5 * probe @ hessian @ probe
        actual = energy_of(probe)
        assert abs(actual - model) < 1e-9 * (1.0 + abs(actual))

    def test_solution_beats_random_perturbations(self, wave_net, rule32):
        shape = SurfaceShape(1.1, 1.1, 1.1, 1.1)
        solved = solve_tb_interior(wave_net, shape, rule32)
        best = tb_dirichlet_energy(solved, shape, rule32)
        rng = RngStream(16, 0)
        for _ in range(100):
            points = solved.points.copy()
            points[1:3, 1:3] += rng.uniform(-0.5, 0.5, (2, 2, 3))
            assert tb_dirichlet_energy(ControlNet(points=points), shape, rule32) >= best

    def test_gradient_certificate(self, wave_net, rule32):
        shape = SurfaceShape(0.9, 2.2, 1.7, 3.1)
        solved = solve_tb_interior(wave_net, shape, rule32)
        energy = tb_dirichlet_energy(solved, shape, rule32)

        def energy_of(vec):
            points = solved.points.copy()
            points[wave_net.free] = vec.reshape(-1, 3)
            return tb_dirichlet_energy(ControlNet(points=points), shape, rule32)

        gradient = finite_diff_gradient(
            energy_of, solved.points[wave_net.free].ravel(), step=1e-6
        )
        assert np.abs(gradient).max() < 1e-5 * (1.0 + energy)

    def test_complete_interior_rejected(self, rule32):
        with pytest.raises(ConfigurationError, match="no unknown interior points"):
            solve_tb_interior(
                ControlNet(points=random_points(17)), SurfaceShape(2, 2, 2, 2), rule32
            )


class TestShapeOptimization:
    def test_beats_default_shape(self, wave_net, rule32):
        default = SurfaceShape(2.0, 2.0, 2.0, 2.0)
        fixed = tb_dirichlet_energy(
            solve_tb_interior(wave_net, default, rule32), default, rule32
        )
        assert abs(fixed - 39.25238638199208) / 39.25238638199208 < 1e-9

        config = PsoConfig(swarm_size=6, max_iters=4, seed=3, threads=1)
        optimum = optimize_tb(wave_net, config, rule32)
        assert optimum.energy <= fixed
        assert abs(optimum.energy - 39.22525274076327) / 39.22525274076327 < 1e-9
        assert np.all(np.diff(optimum.history) <= 0.0)
        assert optimum.history.shape == (5,)
        assert optimum.net.is_complete
        assert optimum.energy == optimum.pso.value
        assert optimum.system_condition_hint >= 1.0
        np.testing.assert_array_equal(optimum.shape.as_array(), optimum.pso.position)

    def test_bounds_must_be_four_dimensional(self, wave_net, rule16):
        config = PsoConfig(bounds=np.array([[0.5, 3.5], [0.5, 3.5]]), swarm_size=4)
        with pytest.raises(ConfigurationError, match="4-dimensional"):
            optimize_tb(wave_net, config, rule16)
        with pytest.raises(ConfigurationError, match="4-dimensional"):
            reduced_functional_family(wave_net, rule16).minimize(config)


DEGREES = [(2, 2), (5, 4), (8, 8)]


def shape_grid() -> list[SurfaceShape]:
    """Shape vectors from the corners and centre of the box, in every combination
    of the two pairs, and a few random ones."""
    grid = [0.5, 2.0, 3.5]
    pairs = [(a, b) for a in grid for b in grid]
    shapes = [SurfaceShape(*u, *v) for u in pairs[::2] for v in pairs[::2]]
    return shapes + [random_shape(seed) for seed in range(50, 55)]


@pytest.mark.parametrize("degrees", DEGREES, ids=lambda d: f"{d[0]}x{d[1]}")
class TestAnyDegree:
    """The hybrid on (m + 1) x (n + 1) nets: the edges, the jet, the form and
    the swarm's family against their definitions and the reference route."""

    def test_boundary_is_bernstein_for_every_shape(self, degrees):
        m, n = degrees
        points = random_points(60 + m, (m + 1, n + 1))
        net = ControlNet(points=points)
        sides_v = [CurveSpec(basis=BasisSpec.bernstein(m), controls=points[:, j]).at(TS) for j in (0, n)]
        sides_u = [CurveSpec(basis=BasisSpec.bernstein(n), controls=points[i, :]).at(TS) for i in (0, m)]
        edge = np.array([0.0, 1.0])
        for shape in shape_grid():
            along_u = tb_surface_jet(net, shape, TS, edge).S
            along_v = tb_surface_jet(net, shape, edge, TS).S
            for got, want in ((along_u[:, 0], sides_v[0]), (along_u[:, 1], sides_v[1]),
                              (along_v[0], sides_u[0]), (along_v[1], sides_u[1])):
                assert np.abs(got - want).max() <= 1e-14

    def test_jet_matches_the_definition(self, degrees):
        m, n = degrees
        net = ControlNet(points=random_points(70 + m, (m + 1, n + 1)))
        shape = random_shape(70 + n)
        us, vs = np.array([0.0, 0.23, 0.5, 0.81, 1.0]), np.array([0.0, 0.37, 0.64, 1.0])
        jet = tb_surface_jet(net, shape, us, vs)
        h = 1e-5
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                np.testing.assert_allclose(jet.S[a, b], tb_coons(net, shape, u, v), atol=1e-13)
                if 0.0 < u < 1.0 and 0.0 < v < 1.0:
                    su = (tb_coons(net, shape, u + h, v) - tb_coons(net, shape, u - h, v)) / (2 * h)
                    sv = (tb_coons(net, shape, u, v + h) - tb_coons(net, shape, u, v - h)) / (2 * h)
                    for fd, exact in ((su, jet.Su[a, b]), (sv, jet.Sv[a, b])):
                        assert np.abs(fd - exact).max() <= 1e-6 * (1 + np.abs(exact).max())

    @pytest.mark.parametrize("seed", range(3))
    def test_form_matches_2d_reference(self, degrees, seed):
        m, n = degrees
        net = open_interior(random_points(80 + seed, (m + 1, n + 1)))
        shape = random_shape(80 + seed)
        rule = gauss_legendre_rule(max(m, n) + 1 + 8 * seed)
        matrix, rhs = _free_split(family_form(net, shape, rule), net)
        reference = tb_system(net, shape, rule)
        for got, want in ((matrix, reference.matrix), (rhs, reference.rhs)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_family_matches_single_solves(self, degrees, rule32):
        m, n = degrees
        net = open_interior(random_points(90 + m, (m + 1, n + 1)))
        shapes = shape_grid()[::3]
        energies = tb_reduced_functional_family(net, rule32)(np.array([s.as_array() for s in shapes]))
        for shape, energy in zip(shapes, energies):
            solved = solve_tb_interior(net, shape, rule32)
            np.testing.assert_array_equal(solved.points[net.fixed], net.points[net.fixed])
            want = tb_dirichlet_energy(solved, shape, rule32)
            assert abs(energy - want) <= 1e-13 * want


def test_partially_known_interior(rule32):
    # a (5, 4) net with three interior points known: they are kept bit for bit,
    # and the rest solve the reference route's normal equations
    points = random_points(95, (6, 5))
    net = open_interior(points)
    known = [(1, 1), (3, 2), (4, 3)]
    for i, j in known:
        net.points[i, j] = points[i, j]
    net = ControlNet(points=net.points)
    assert net.free.sum() == 12 - len(known)
    shape = random_shape(95)
    solved = solve_tb_interior(net, shape, rule32)
    np.testing.assert_array_equal(solved.points[net.fixed], net.points[net.fixed])
    assert solved.is_complete

    centre = net.points[net.fixed].mean(axis=0)
    centred = ControlNet(points=net.points - centre, fixed=net.fixed)
    reference = tb_system(centred, shape, rule32)
    want = np.linalg.solve(reference.matrix, reference.rhs) + centre
    got = solved.points[net.free]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    extremal = tb_reduced_functional_family(net, rule32).extremal(shape.as_array()).net
    np.testing.assert_array_equal(extremal.points[net.fixed], net.points[net.fixed])
    assert np.abs(extremal.points[net.free] - want).max() <= 1e-12 * np.abs(want).max()


def planar_net(m: int, n: int) -> ControlNet:
    """P_ij = (i/m, j/n, 0). Bernstein rows reproduce i/m and the GT rows sum to 1,
    so every hybrid of it is the unit square's identity chart (u, v, 0)."""
    i, j = np.indices((m + 1, n + 1))
    return ControlNet(points=np.stack([i / m, j / n, np.zeros(i.shape)], axis=-1))


@pytest.mark.parametrize("degrees", [(2, 2), (3, 3), (5, 4), (8, 8)], ids=lambda d: f"{d[0]}x{d[1]}")
class TestSurfaceValue:
    """The tensor patch's evaluations read a ``TbPatch`` as they read a ``Patch``:
    the identity chart, as given and as the extremal refills its interior (the
    identity is conformal, so it is its own extremal), at random shape vectors."""

    @pytest.fixture
    def charts(self, degrees, rule32):
        net = planar_net(*degrees)
        shapes = [random_shape(100 + seed) for seed in range(3)]
        return [(net, shape) for shape in shapes] + [
            (solve_tb_interior(open_interior(net.points), shape, rule32), shape) for shape in shapes
        ]

    def test_area_is_one(self, charts, rule32):
        for net, shape in charts:
            assert abs(area(TbPatch(net, shape), rule32) - 1.0) <= 1e-14

    def test_area_is_at_most_the_energy(self, charts, check_am_gm, rule32):
        for net, shape in charts:
            _, energy = check_am_gm(TbPatch(net, shape))
            assert energy == tb_dirichlet_energy(net, shape, rule32)

    def test_far_translation_keeps_the_area(self, charts, rule32):
        # the net as a 2^40 offset holds it, and that net offset (exactly)
        for net, shape in charts:
            far = net.points + 2.0**40
            near = area(TbPatch(ControlNet(points=far - 2.0**40), shape), rule32)
            assert abs(area(TbPatch(ControlNet(points=far), shape), rule32) - near) <= 1e-15 * near

    def test_mesh_and_curvature_grid_are_flat(self, charts):
        for net, shape in charts[::3]:
            surface = TbPatch(net, shape)
            ts = np.linspace(0.0, 1.0, 9)
            vertices, _ = tessellate(surface, 8)
            np.testing.assert_array_equal(vertices, surface_jet(surface, ts, ts).S.reshape(-1, 3))
            chart = np.stack(np.meshgrid(ts, ts, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
            assert np.abs(vertices - chart).max() <= 1e-14
            _, _, forms = mean_curvature_grid(surface, 7)
            assert np.all(forms.H == 0.0)
