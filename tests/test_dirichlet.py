"""Dirichlet-extremal interior solves and their two assembly routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtplateau.basis import THETA_MAX, THETA_MIN, BasisSpec, basis_tables
from gtplateau.coons import _blend_tables, _coefficient_map, _hybrid_forms
from gtplateau.dirichlet import (
    GramMatrices,
    _forms,
    _free_split,
    _shape_weights,
    assemble_coefficients,
    assemble_system,
    assemble_system_generic,
    reduced_functional,
    reduced_functional_family,
    solve_interior,
)
from gtplateau.errors import ConfigurationError, SolverError
from gtplateau.numerics import finite_diff_gradient, gauss_legendre_rule, pivot_ratio
from gtplateau.patch import (
    ControlNet,
    Patch,
    SurfaceJet,
    SurfaceShape,
    area,
    dirichlet_energy,
    tessellate,
)
from hybrid_definition import tb_system
from mesh_reference import mesh_area

CUBIC = BasisSpec.bernstein(3)
PROPERTY = settings(max_examples=25, deadline=None)


def bernstein_mass(degree: int, k: int, i: int) -> float:
    """Closed form of int_0^1 B_{k,d} B_{i,d} dt."""
    return (
        math.comb(degree, k)
        * math.comb(degree, i)
        / (math.comb(2 * degree, k + i) * (2 * degree + 1))
    )


def trapezoid_coefficients(basis_u, basis_v, samples: int) -> GramMatrices:
    """The four 1-D Gram matrices by composite trapezoid (independent quadrature)."""
    t = np.linspace(0.0, 1.0, samples)
    w = np.full(samples, 1.0 / (samples - 1))
    w[0] = w[-1] = 0.5 / (samples - 1)

    tu = basis_tables(basis_u, t)
    tv = basis_tables(basis_v, t)
    return GramMatrices(
        K_u=(tu.first * w) @ tu.first.T,
        M_u=(tu.values * w) @ tu.values.T,
        K_v=(tv.first * w) @ tv.first.T,
        M_v=(tv.values * w) @ tv.values.T,
    )


def bernstein_stiffness(degree: int) -> np.ndarray:
    """int B'_k B'_i dt from the mass matrix of degree - 1 and first differences."""
    low = np.array(
        [[bernstein_mass(degree - 1, a, b) for b in range(degree)] for a in range(degree)]
    )
    diff = np.zeros((degree, degree + 1))
    diff[:, 1:] += np.eye(degree)
    diff[:, :-1] -= np.eye(degree)
    return degree**2 * diff.T @ low @ diff


class TestCoefficients:
    @pytest.mark.parametrize("degree", [3, 4])
    def test_bernstein_mass_closed_form(self, degree, rule32):
        spec = BasisSpec.bernstein(degree)
        coeffs = assemble_coefficients(spec, spec, rule32)
        expected = np.array(
            [[bernstein_mass(degree, k, i) for i in range(degree + 1)] for k in range(degree + 1)]
        )
        np.testing.assert_allclose(coeffs.M_u, expected, atol=1e-12)
        np.testing.assert_allclose(coeffs.M_v, expected, atol=1e-12)
        np.testing.assert_allclose(coeffs.K_u, bernstein_stiffness(degree), atol=1e-12)

    def test_mass_diagonal_symmetry(self, rule32):
        coeffs = assemble_coefficients(CUBIC, CUBIC, rule32)
        # both entries integrate B_1 B_2 (and B'_1 B'_2)
        assert abs(coeffs.M_u[1, 2] - coeffs.M_u[2, 1]) < 1e-14
        assert abs(coeffs.K_u[1, 2] - coeffs.K_u[2, 1]) < 1e-14

    def test_shapes(self, rule32):
        coeffs = assemble_coefficients(CUBIC, BasisSpec.bernstein(4), rule32)
        assert coeffs.K_u.shape == coeffs.M_u.shape == (4, 4)
        assert coeffs.K_v.shape == coeffs.M_v.shape == (5, 5)

    @pytest.mark.parametrize(
        "samples,tol", [(10_001, 1e-7), (100_001, 1e-8)], ids=["coarse", "fine"]
    )
    def test_gt_against_trapezoid_oracle(self, samples, tol, rule32):
        bu = BasisSpec.gt(3, 2.0, 2.0)
        bv = BasisSpec.gt(3, 2.0, 2.0)
        gauss = assemble_coefficients(bu, bv, rule32)
        trap = trapezoid_coefficients(bu, bv, samples)
        for name in ("K_u", "M_u", "K_v", "M_v"):
            gap = np.abs(getattr(gauss, name) - getattr(trap, name)).max()
            assert gap < tol, f"{name}: {gap:.3e}"

    def test_low_degrees_accepted(self, rule32, boundary_net_factory):
        # GT degree 2 and Bernstein degree 1 have no lower family member; the
        # Gram matrices need none
        coeffs = assemble_coefficients(BasisSpec.gt(2, 2.0, 2.0), BasisSpec.bernstein(1), rule32)
        assert coeffs.K_u.shape == coeffs.M_u.shape == (3, 3)
        np.testing.assert_allclose(coeffs.K_v, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(coeffs.M_v, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
        # a degree-1 direction has no interior row: nothing to solve
        coeffs = assemble_coefficients(BasisSpec.bernstein(1), CUBIC, rule32)
        with pytest.raises(ConfigurationError, match="no unknown"):
            assemble_system(boundary_net_factory(5, shape=(2, 4)), coeffs)


def kron_form(tab_u, tab_v, rule) -> np.ndarray:
    """K_u (x) M_v + M_u (x) K_v by np.kron, from Gram matrices made here."""
    w = rule.weights
    k_u, m_u = ((t * w) @ t.T for t in (tab_u.first, tab_u.values))
    k_v, m_v = ((t * w) @ t.T for t in (tab_v.first, tab_v.values))
    return np.kron(k_u, m_v) + np.kron(m_u, k_v)


class TestFormBuilder:
    @pytest.mark.parametrize(
        "bases",
        [
            (BasisSpec.gt(3, 1.3, 2.7), BasisSpec.gt(3, 0.9, 3.1)),
            (BasisSpec.gt(5, 2.0, 0.6), BasisSpec.gt(4, 3.4, 1.1)),
            (BasisSpec.bernstein(4), CUBIC),
        ],
    )
    def test_fixed_form_is_the_kron_sum_of_the_grams(self, bases, rule32):
        c = assemble_coefficients(*bases, rule32)
        form = _forms(*(basis_tables(b, rule32.nodes) for b in bases), rule32)
        expected = np.kron(c.K_u, c.M_v) + np.kron(c.M_u, c.K_v)
        assert form.shape == (1,) + expected.shape
        assert form[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_net_map(self, seed, rule16):
        shape = SurfaceShape.from_iterable(np.random.default_rng(seed).uniform(0.5, 3.5, 4))
        for m, n in ((3, 3), (2, 5), (4, 2)):
            specs = shape.basis_specs(m, n)
            tab_u, tab_v = (_blend_tables(basis_tables(spec, rule16.nodes), rule16.nodes) for spec in specs)
            net_map = _coefficient_map(m, n)
            expected = net_map.T @ kron_form(tab_u, tab_v, rule16) @ net_map
            form = _forms(tab_u, tab_v, rule16, net_map=net_map)
            assert form.shape == (1, (m + 1) * (n + 1), (m + 1) * (n + 1))
            assert np.abs(form[0] - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_net_map_of_unequal_directions(self, rule16):
        # a 4 x 5 coefficient grid over 7 net points: the u and v row counts differ
        net_map = np.random.default_rng(5).normal(size=(20, 7))
        tab_u, tab_v = basis_tables(CUBIC, rule16.nodes), basis_tables(BasisSpec.gt(4, 1.7, 2.9), rule16.nodes)
        expected = net_map.T @ kron_form(tab_u, tab_v, rule16) @ net_map
        form = _forms(tab_u, tab_v, rule16, net_map=net_map)
        assert form.shape == (1, 7, 7)
        assert np.abs(form[0] - expected).max() <= 1e-13 * np.abs(expected).max()


class TestAssembly:
    def test_system_shape(self, wave_net, rule32):
        system = assemble_system(wave_net, assemble_coefficients(CUBIC, CUBIC, rule32))
        assert system.matrix.shape == (4, 4)
        assert system.rhs.shape == (4, 3)

    def test_coefficient_degree_check(self, wave_net, rule32):
        quartic = BasisSpec.bernstein(4)
        coeffs = assemble_coefficients(quartic, quartic, rule32)
        with pytest.raises(ConfigurationError, match="do not match"):
            assemble_system(wave_net, coeffs)

    def test_loose_boundary_rejected(self, rule32):
        points = np.zeros((4, 4, 3))
        points[0, 1] = np.nan
        with pytest.raises(ConfigurationError, match="boundary"):
            assemble_system(
                ControlNet(points=points), assemble_coefficients(CUBIC, CUBIC, rule32)
            )

    def test_complete_net_rejected(self, rule32):
        with pytest.raises(ConfigurationError, match="no unknown"):
            assemble_system(
                ControlNet(points=np.zeros((4, 4, 3))),
                assemble_coefficients(CUBIC, CUBIC, rule32),
            )

    def test_routes_agree(self, wave_net, rule32, boundary_net_factory):
        nets = [wave_net, boundary_net_factory(17, shape=(5, 5))]
        alphas = [0.5, 1.7826, 3.5]
        for net in nets:
            degree = net.degree_u
            for a in alphas:
                for b in alphas:
                    shape = SurfaceShape(a, a, b, b)
                    bu, bv = shape.basis_specs(degree, degree)
                    gram = assemble_system(net, assemble_coefficients(bu, bv, rule32))
                    generic = assemble_system_generic(net, bu, bv, rule32)
                    assert np.abs(gram.matrix - generic.matrix).max() < 1e-9
                    assert np.abs(gram.rhs - generic.rhs).max() < 1e-9
                    assert np.abs(gram.matrix - gram.matrix.T).max() < 1e-10
                    np.linalg.cholesky(gram.matrix)


def partly_known(net: ControlNet, share: float, seed: int) -> ControlNet:
    """The net with about ``share`` of its unknown interior points made known; (1, 1) stays unknown."""
    rng = np.random.default_rng(seed)
    known = net.free & (rng.uniform(size=net.free.shape) < share)
    known[1, 1] = False
    points = np.where(known[..., None], rng.uniform(-3.0, 5.0, net.points.shape), net.points)
    return ControlNet(points=points, fixed=net.fixed | known)


def same_system(got, want) -> None:
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestJetBuilder:
    """``gradient_normal_system`` integrates either patch's jet; each route must
    give the normal equations of its production form."""

    @PROPERTY
    @given(
        degrees=st.tuples(st.integers(2, 8), st.integers(2, 8)),
        gt=st.tuples(st.booleans(), st.booleans()),
        thetas=st.lists(st.floats(THETA_MIN, THETA_MAX), min_size=4, max_size=4),
        share=st.floats(0.0, 0.8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tensor_route_is_the_split_form(self, degrees, gt, thetas, share, seed, rule16, boundary_net_factory):
        net = partly_known(boundary_net_factory(seed, shape=(degrees[0] + 1, degrees[1] + 1)), share, seed)
        bases = [
            BasisSpec.gt(d, *pair) if is_gt else BasisSpec.bernstein(d)
            for d, is_gt, pair in zip(degrees, gt, (thetas[:2], thetas[2:]))
        ]
        form = _forms(*(basis_tables(b, rule16.nodes) for b in bases), rule16)[0]
        generic = assemble_system_generic(net, *bases, rule16)
        same_system((generic.matrix, generic.rhs), _free_split(form, net))

    @PROPERTY
    @given(
        degrees=st.tuples(st.integers(2, 6), st.integers(2, 6)),
        thetas=st.lists(st.floats(THETA_MIN, THETA_MAX), min_size=4, max_size=4),
        share=st.floats(0.0, 0.8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hybrid_route_is_the_split_form(self, degrees, thetas, share, seed, rule16, boundary_net_factory):
        net = partly_known(boundary_net_factory(seed, shape=(degrees[0] + 1, degrees[1] + 1)), share, seed)
        shape = SurfaceShape(*thetas)
        reference = tb_system(net, shape, rule16)
        form = np.tensordot(_shape_weights([thetas])[0], _hybrid_forms(*degrees, rule16), 1)
        same_system((reference.matrix, reference.rhs), _free_split(form, net))

    @PROPERTY
    @given(
        degrees=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        coordinates=st.sampled_from([1, 2, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jet_of_a_stack_is_the_jets_of_its_coordinates(self, degrees, coordinates, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3.0, 5.0, (degrees[0] + 1, degrees[1] + 1, coordinates))
        us, vs = rng.uniform(size=7), rng.uniform(size=5)
        tu, tv = (basis_tables(BasisSpec.bernstein(d), ts) for d, ts in zip(degrees, (us, vs)))
        jet = SurfaceJet(tu, tv, points)
        for c in range(coordinates):
            single = SurfaceJet(tu, tv, points[..., c])
            for name in ("S", "Su", "Sv", "Suu", "Suv", "Svv"):
                got, want = getattr(jet, name), getattr(single, name)
                assert got.shape == want.shape[:2] + (coordinates,)
                np.testing.assert_allclose(got[..., c], want, rtol=0.0, atol=1e-12 * (1 + np.abs(want).max()))


class TestSolveInterior:
    def test_zero_boundary_gives_zero_interior(self, rule32):
        points = np.full((4, 4, 3), np.nan)
        points[[0, -1], :, :] = 0.0
        points[:, [0, -1], :] = 0.0
        solved = solve_interior(ControlNet(points=points), CUBIC, CUBIC, rule32)
        assert np.all(solved.net.points == 0.0)

    def test_boundary_carried_bitwise(self, wave_net, rule32):
        solved = solve_interior(wave_net, CUBIC, CUBIC, rule32)
        np.testing.assert_array_equal(
            solved.net.points[wave_net.fixed], wave_net.points[wave_net.fixed]
        )
        np.testing.assert_array_equal(solved.net.fixed, wave_net.fixed)
        # input net untouched
        assert np.isnan(wave_net.points[1, 1]).all()
        assert solved.net.is_complete

    def test_degree_guard(self, wave_net, rule32):
        with pytest.raises(ConfigurationError, match="match the net"):
            solve_interior(wave_net, BasisSpec.bernstein(4), CUBIC, rule32)

    def test_route_selection(self, wave_net, rule32):
        gram = solve_interior(wave_net, CUBIC, CUBIC, rule32, route="gram")
        generic = solve_interior(wave_net, CUBIC, CUBIC, rule32, route="generic")
        assert gram.route == "gram" and generic.route == "generic"
        assert solve_interior(wave_net, CUBIC, CUBIC, rule32).route == "gram"
        assert abs(gram.energy - generic.energy) < 1e-12
        np.testing.assert_allclose(generic.net.points, gram.net.points, atol=1e-12)
        for route in ("fancy", "difference", "auto"):
            with pytest.raises(ConfigurationError, match="unknown assembly route"):
                solve_interior(wave_net, CUBIC, CUBIC, rule32, route=route)

    @pytest.mark.parametrize(
        "shape,bases",
        [
            ((3, 3), (BasisSpec.gt(2, 1.5, 2.5), BasisSpec.gt(2, 0.7, 3.1))),
            ((3, 5), (BasisSpec.gt(2, 1.5, 2.5), BasisSpec.bernstein(4))),
        ],
        ids=["gt2", "gt2-bernstein4"],
    )
    def test_quadratic_gt_on_gram_route(self, shape, bases, rule32, boundary_net_factory):
        net = boundary_net_factory(2, shape=shape)
        gram = solve_interior(net, *bases, rule32)
        generic = solve_interior(net, *bases, rule32, route="generic")
        assert gram.route == "gram"
        assert abs(gram.energy - generic.energy) <= 1e-12 * generic.energy
        np.testing.assert_allclose(gram.net.points, generic.net.points, rtol=0.0, atol=1e-12)

    def test_matches_direct_minimization_oracle(
        self, rule32, boundary_net_factory, quadratic_minimizer
    ):
        net = boundary_net_factory(23)
        dims = int(net.free.sum()) * 3

        def energy_of(vec: np.ndarray) -> float:
            points = net.points.copy()
            points[net.free] = vec.reshape(-1, 3)
            return dirichlet_energy(Patch.bernstein(ControlNet(points=points)), rule32)

        oracle = quadratic_minimizer(energy_of, dims)
        solved = solve_interior(net, CUBIC, CUBIC, rule32)
        np.testing.assert_allclose(
            solved.net.points[net.free].ravel(), oracle, atol=1e-9
        )

    def test_solution_is_stationary(self, wave_net, rule32):
        shape = SurfaceShape(1.1, 2.3, 0.7, 3.2)
        bu, bv = shape.basis_specs(3, 3)
        solved = solve_interior(wave_net, bu, bv, rule32)
        free = wave_net.free

        def energy_of(vec: np.ndarray) -> float:
            points = solved.net.points.copy()
            points[free] = vec.reshape(-1, 3)
            return dirichlet_energy(
                Patch(basis_u=bu, basis_v=bv, net=ControlNet(points=points)), rule32
            )

        at_solution = solved.net.points[free].ravel()
        gradient = finite_diff_gradient(energy_of, at_solution, step=1e-6)
        assert np.abs(gradient).max() < 1e-5 * (1.0 + solved.energy)

    def test_coordinates_decouple(self, wave_net, rule32):
        solved = solve_interior(wave_net, CUBIC, CUBIC, rule32)
        rolled = ControlNet(points=np.roll(wave_net.points, 1, axis=-1))
        solved_rolled = solve_interior(rolled, CUBIC, CUBIC, rule32)
        np.testing.assert_allclose(
            solved_rolled.net.points,
            np.roll(solved.net.points, 1, axis=-1),
            atol=1e-14,
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gt", [True, False], ids=["gt", "bernstein"])
    def test_far_offset_costs_no_digits(self, seed, gt, rule32, boundary_net_factory):
        # the system is assembled on the centred net, so translating the boundary
        # by 1e4 moves the degree-8 interior by the offset and nothing more
        net = boundary_net_factory(seed, shape=(9, 9))
        shape = SurfaceShape(*(0.8 + 0.6 * ((seed + np.arange(4)) % 4)))
        bases = shape.basis_specs(8, 8) if gt else (BasisSpec.bernstein(8),) * 2
        near = solve_interior(net, *bases, rule32).net.points
        moved = ControlNet(points=net.points + 1e4, fixed=net.fixed)
        far = solve_interior(moved, *bases, rule32).net.points - 1e4
        assert np.abs(far - near).max() <= 1e-9 * net.scale()

    @settings(max_examples=40, deadline=None)
    @given(
        degrees=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        gt=st.tuples(st.booleans(), st.booleans()),
        thetas=st.lists(st.floats(THETA_MIN, THETA_MAX), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_route_matches_its_references(
        self, degrees, gt, thetas, seed, rule32, boundary_net_factory
    ):
        # energy and hint come off the route's one factorization; the quadrature
        # energy of the filled patch and a second Cholesky must agree with them
        net = boundary_net_factory(seed, shape=(degrees[0] + 1, degrees[1] + 1))
        bases = [
            BasisSpec.gt(d, *pair) if is_gt else BasisSpec.bernstein(d)
            for d, is_gt, pair in zip(degrees, gt, (thetas[:2], thetas[2:]))
        ]
        coeffs = assemble_coefficients(*bases, rule32)
        solved = solve_interior(net, *bases, rule32)
        quadrature = dirichlet_energy(Patch(basis_u=bases[0], basis_v=bases[1], net=solved.net), rule32)
        # a float quadratic form's rounding scales with |P|^T |F| |P|, not P^T F P;
        # on a rough degree-12 boundary the first is up to 5e4 times the second
        form = np.abs(np.kron(coeffs.K_u, coeffs.M_v) + np.kron(coeffs.M_u, coeffs.K_v))
        centred = np.abs(solved.net.points - net.points[net.fixed].mean(axis=0)).reshape(-1, 3)
        rounding = 0.5 * (centred * (form @ centred)).sum() * np.finfo(float).eps
        assert abs(solved.energy - quadrature) <= 4.0 * rounding
        matrix = assemble_system(net, coeffs).matrix
        assert solved.system_condition_hint == pytest.approx(pivot_ratio(matrix), rel=1e-12, abs=0.0)

    def test_condition_hint_positive(self, wave_net, rule32):
        solved = solve_interior(wave_net, CUBIC, CUBIC, rule32)
        assert solved.system_condition_hint >= 1.0

    def test_degenerate_quadrature_raises(self, wave_net):
        # one node cannot resolve the stiffness integrals: singular system
        with pytest.raises(SolverError, match="bases:"):
            solve_interior(wave_net, CUBIC, CUBIC, gauss_legendre_rule(1))


class TestReducedFunctional:
    def test_finite_over_shape_grid(self, rule16):
        points = np.full((4, 4, 3), np.nan)
        i = np.arange(4, dtype=float)
        frame = np.stack(
            np.broadcast_arrays(2.0 * i[:, None], 2.0 * i[None, :], np.zeros((1, 1))),
            axis=-1,
        )
        edge = np.zeros((4, 4), dtype=bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        points[edge] = frame[edge]
        net = ControlNet(points=points)
        for a in (0.5, 2.0, 3.5):
            for b in (0.5, 2.0, 3.5):
                value = reduced_functional(net, SurfaceShape(a, a, b, b), rule16)
                assert np.isfinite(value) and value > 0.0

    def test_dominates_area(self, wave_net, rule32):
        for alpha in (0.6, 1.4823, 2.9):
            shape = SurfaceShape(alpha, alpha, alpha, alpha)
            value = reduced_functional(wave_net, shape, rule32)
            solved = solve_interior(wave_net, *shape.basis_specs(3, 3), rule32)
            patch = Patch.gt(solved.net, shape)
            assert value >= area(patch, rule32) - 1e-9
            assert abs(value - solved.energy) < 1e-12

    def test_family_keeps_its_own_net(self, wave_net, rule16):
        # editing the caller's net after the family is built changes no extremal
        net = wave_net.copy()
        family = reduced_functional_family(net, rule16)
        before = family.extremal([2.0, 2.0, 2.0, 2.0])
        net.points[0, 0] += 1.0
        net.points[1, 1] = 5.0
        after = family.extremal([2.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(after.net.points, before.net.points)
        assert after.energy == before.energy

    def test_frozen_wave_energy(self, wave_net, rule32):
        shape = SurfaceShape(0.8706, 0.8706, 0.8706, 0.8706)
        value = reduced_functional(wave_net, shape, rule32)
        assert abs(value - 38.453552026383576) / 38.453552026383576 < 1e-9

    def test_frozen_dome_area_with_mesh_oracle(self, dome_net, rule32):
        shape = SurfaceShape(1.4823, 1.4823, 1.4823, 1.4823)
        solved = solve_interior(dome_net, *shape.basis_specs(3, 3), rule32)
        patch = Patch.gt(solved.net, shape)
        quad_area = area(patch, rule32)
        assert abs(quad_area - 37.4682966298792) / 37.4682966298792 < 1e-9
        approx = mesh_area(*tessellate(patch, 64))
        assert abs(approx - quad_area) / quad_area < 1e-3
