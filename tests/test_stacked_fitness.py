"""Prepared shape-family swarm fitnesses against their scalar routes.

``reduced_functional_family`` and ``tb_reduced_functional_family`` prepare a
net's bi-quadratic shape family once, and ``harmonic.defect_family`` the 9 x 9
Gram form of a complete net's GT Laplacian; the function they return evaluates
a whole (k, 4) stack of shape vectors at once. It must agree with the scalar
routes row by row, give each row the same bits whatever stack it sits in, and
let ``pso.optimize`` pin a failure on the one particle that caused it. A
Dirichlet family's ``extremal`` is the solution behind one row, and its
``minimize`` is the swarm whose winner is read from it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtplateau.pso as pso
from gtplateau.basis import THETA_MAX, THETA_MIN, BasisSpec, basis_tables, gt_affine_tables
from gtplateau.coons import (
    _hybrid_forms,
    solve_tb_interior,
    tb_dirichlet_energy,
    tb_reduced_functional_family,
)
from gtplateau.dirichlet import (
    _ExtremalFamily,
    _family_forms,
    _forms,
    _tensor_forms,
    reduced_functional,
    reduced_functional_family,
    solve_interior,
)
from gtplateau.errors import ConfigurationError, SolverError
from gtplateau.harmonic import defect_family
from gtplateau.numerics import QuadratureRule, gauss_legendre_rule
from gtplateau.patch import ControlNet, SurfaceShape, boundary_mask
from gtplateau.pso import PsoConfig, optimize
from laplacian_reference import defect_objective

RULE = gauss_legendre_rule(24)

#: Scalar and prepared routes round differently (quadrature vs. quadratic form).
ROUTE_RTOL = 1e-13

PROPERTY = settings(max_examples=25, deadline=None)

thetas = st.floats(THETA_MIN, THETA_MAX)
alpha_stacks = st.lists(st.lists(thetas, min_size=4, max_size=4), min_size=1, max_size=9).map(
    lambda rows: np.array(rows)
)


def boundary_net(seed: int, rows: int, cols: int) -> ControlNet:
    rng = np.random.default_rng(seed)
    points = np.full((rows, cols, 3), np.nan)
    mask = boundary_mask(rows, cols)
    points[mask] = rng.uniform(-3.0, 5.0, size=(int(mask.sum()), 3))
    return ControlNet(points=points, fixed=mask)


@st.composite
def tensor_nets(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    return boundary_net(draw(st.integers(0, 2**32 - 1)), m + 1, n + 1)


hybrid_nets = st.integers(0, 2**32 - 1).map(lambda seed: boundary_net(seed, 4, 4))


@st.composite
def complete_nets(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ControlNet(points=rng.uniform(-3.0, 5.0, size=(m + 1, n + 1, 3)))


def tensor_scalar(net, alphas):
    return np.array([reduced_functional(net, SurfaceShape.from_iterable(a), RULE) for a in alphas])


def hybrid_scalar(net, alphas):
    values = []
    for a in alphas:
        shape = SurfaceShape.from_iterable(a)
        values.append(tb_dirichlet_energy(solve_tb_interior(net, shape, RULE), shape, RULE))
    return np.array(values)


def defect_scalar(net, alphas):
    return np.array([defect_objective(net, SurfaceShape.from_iterable(a), RULE) for a in alphas])


def tensor_stack(net, alphas):
    return reduced_functional_family(net, RULE)(alphas)


def hybrid_stack(net, alphas):
    return tb_reduced_functional_family(net, RULE)(alphas)


def defect_stack(net, alphas):
    return defect_family(net, RULE)(alphas)


ROUTES = {
    "tensor": (tensor_nets(), tensor_stack, tensor_scalar),
    "hybrid": (hybrid_nets, hybrid_stack, hybrid_scalar),
    "defect": (complete_nets(), defect_stack, defect_scalar),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_stack_matches_scalar_route(route):
    nets, stacked, scalar = ROUTES[route]

    @PROPERTY
    @given(net=nets, alphas=alpha_stacks)
    def check(net, alphas):
        want = scalar(net, alphas)
        got = stacked(net, alphas)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=ROUTE_RTOL, atol=0.0)

    check()


def tensor_solution(net, alpha):
    bases = SurfaceShape.from_iterable(alpha).basis_specs(net.degree_u, net.degree_v)
    return solve_interior(net, *bases, RULE).net


def hybrid_solution(net, alpha):
    return solve_tb_interior(net, SurfaceShape.from_iterable(alpha), RULE)


FAMILIES = {
    "tensor": (tensor_nets(), reduced_functional_family, tensor_solution),
    "hybrid": (hybrid_nets, tb_reduced_functional_family, hybrid_solution),
}


@pytest.mark.parametrize("route", sorted(FAMILIES))
def test_extremal_is_the_rows_solution(route):
    nets, family_of, solution = FAMILIES[route]

    @PROPERTY
    @given(net=nets, alphas=alpha_stacks)
    def check(net, alphas):
        family = family_of(net, RULE)
        for alpha, value in zip(alphas, family(alphas)):
            best = family.extremal(alpha)
            assert best.energy == value
            assert best.system_condition_hint >= 1.0
            np.testing.assert_array_equal(best.net.points[net.fixed], net.points[net.fixed])
            # the two routes assemble the system differently: degree-6 nets
            # at small shapes differ by up to about 3e-11 of the scale
            want = solution(net, alpha).points
            assert np.abs(best.net.points - want).max() <= 1e-9 * net.scale()

    check()


@pytest.mark.parametrize("route", sorted(FAMILIES))
def test_minimize_is_the_swarm_and_its_extremal(route, wave_net):
    family = FAMILIES[route][1](wave_net, RULE)
    config = PsoConfig(swarm_size=5, max_iters=3, seed=4, threads=1)
    optimum = family.minimize(config)
    swarm = optimize(family, config)
    winner = family.extremal(swarm.position)
    np.testing.assert_array_equal(optimum.history, swarm.history)
    np.testing.assert_array_equal(optimum.shape.as_array(), swarm.position)
    np.testing.assert_array_equal(optimum.net.points, winner.net.points)
    assert optimum.energy == winner.energy == swarm.value == optimum.pso.value
    assert optimum.system_condition_hint == winner.system_condition_hint
    assert optimum.route == winner.route == "gram"


@pytest.mark.parametrize("route", sorted(FAMILIES))
def test_extremal_failure_is_a_solver_error(route, wave_net, monkeypatch):
    family = FAMILIES[route][1](wave_net, RULE)

    def indefinite(matrices):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", indefinite)
    with pytest.raises(SolverError, match="bases:"):
        family.extremal(np.full(4, 2.0))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_row_value_independent_of_stack(route):
    nets, stacked, _ = ROUTES[route]

    @PROPERTY
    @given(net=nets, alphas=alpha_stacks, chunks=st.integers(1, 4))
    def check(net, alphas, chunks):
        whole = stacked(net, alphas)
        alone = np.concatenate([stacked(net, alphas[i : i + 1]) for i in range(len(alphas))])
        split = np.concatenate(
            [stacked(net, part) for part in np.array_split(alphas, chunks) if len(part)]
        )
        np.testing.assert_array_equal(whole, alone)
        np.testing.assert_array_equal(whole, split)

    check()


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("failure", [SolverError, np.linalg.LinAlgError, FloatingPointError])
def test_failing_particle_scores_inf_alone(route, failure, monkeypatch):
    nets, stacked, _ = ROUTES[route]
    monkeypatch.setattr(pso, "POOL_MIN_SWARM_S", 0.0)  # iteration 1 runs in the pool for threads > 1

    @settings(max_examples=10, deadline=None)
    @given(
        net=nets,
        swarm=st.integers(2, 9),
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def check(net, swarm, threads, seed, data):
        config = PsoConfig(swarm_size=swarm, max_iters=1, seed=seed, threads=threads)
        first = optimize(lambda alphas: stacked(net, alphas), dataclasses.replace(config, max_iters=0))
        clean = optimize(lambda alphas: stacked(net, alphas), config)
        # fail, in iteration 1, one particle whose step improved it: a +inf
        # score then leaves its initial value as its best
        improved = np.flatnonzero(clean.personal_best_values < first.personal_best_values)
        assume(improved.size > 0)
        poisoned_row = clean.positions[data.draw(st.sampled_from(improved.tolist()))]

        def fragile(alphas):
            if any(np.array_equal(a, poisoned_row) for a in alphas):
                raise failure("inner solve failed")
            return stacked(net, alphas)

        result = optimize(fragile, config)
        poisoned = np.all(clean.positions == poisoned_row, axis=1)
        start, step = (np.concatenate([stacked(net, a[None]) for a in run.positions]) for run in (first, clean))
        np.testing.assert_array_equal(first.personal_best_values, start)
        np.testing.assert_array_equal(clean.personal_best_values, np.minimum(start, step))
        np.testing.assert_array_equal(result.personal_best_values, np.where(poisoned, start, np.minimum(start, step)))

    check()


@pytest.mark.parametrize("build, degrees", [(_tensor_forms, (3, 5)), (_hybrid_forms, (3, 3)), (_hybrid_forms, (4, 2))])
def test_family_forms_are_built_once_read_only(build, degrees):
    cached = _family_forms(build, degrees, RULE)
    assert _family_forms(build, degrees, gauss_legendre_rule(RULE.order)) is cached
    assert cached.tobytes() == build(*degrees, RULE).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0, 0] = 1.0


def test_rules_of_one_order_keep_their_own_forms():
    k = RULE.order
    midpoint = QuadratureRule(nodes=(np.arange(k) + 0.5) / k, weights=np.full(k, 1.0 / k))
    gauss, mid = (_family_forms(_tensor_forms, (3, 3), rule) for rule in (RULE, midpoint))
    assert mid.tobytes() == _tensor_forms(3, 3, midpoint).tobytes()
    assert not np.array_equal(mid, gauss)


@pytest.mark.parametrize("stacked", [tensor_stack, hybrid_stack])
def test_nan_value_scores_inf(stacked, wave_net):
    config = PsoConfig(swarm_size=5, max_iters=0, seed=0, threads=1)
    clean = optimize(lambda alphas: stacked(wave_net, alphas), config)

    def with_nan(alphas):
        values = stacked(wave_net, alphas)
        values[0] = math.nan
        return values

    result = optimize(with_nan, config)
    assert math.isinf(result.personal_best_values[0])
    np.testing.assert_array_equal(result.personal_best_values[1:], clean.personal_best_values[1:])


class TestStackValidation:
    @pytest.mark.parametrize("stacked", [tensor_stack, hybrid_stack])
    @pytest.mark.parametrize(
        "row, message",
        [
            ([2.0, 0.3, 2.0, 2.0], "alpha2 must lie in"),
            ([2.0, 2.0, 3.6, 2.0], "beta1 must lie in"),
            ([2.0, 2.0, 2.0, math.nan], "beta2 must lie in"),
        ],
    )
    def test_domain_checked_per_particle(self, stacked, wave_net, row, message):
        alphas = np.array([[1.0, 1.0, 1.0, 1.0], row])
        with pytest.raises(ConfigurationError, match=message):
            stacked(wave_net, alphas)
        with pytest.raises(ConfigurationError, match=message):
            SurfaceShape.from_iterable(row)

    @pytest.mark.parametrize("stacked", [tensor_stack, hybrid_stack])
    def test_domain_error_aborts_the_swarm(self, stacked, wave_net):
        config = PsoConfig(swarm_size=3, max_iters=1, seed=0, bounds=[[0.1, 0.4]] * 4)
        with pytest.raises(ConfigurationError):
            optimize(lambda alphas: stacked(wave_net, alphas), config)

    @pytest.mark.parametrize("stacked", [tensor_stack, hybrid_stack])
    def test_stack_shape(self, stacked, wave_net):
        with pytest.raises(ConfigurationError, match=r"\(k, 4\)"):
            stacked(wave_net, np.ones(4))

    def test_objective_must_return_one_value_per_row(self):
        config = PsoConfig(swarm_size=3, max_iters=0, seed=0)
        with pytest.raises(ConfigurationError, match="one value per position"):
            optimize(lambda alphas: 1.0, config)


@PROPERTY
@given(degree=st.integers(2, 7), pairs=st.lists(st.tuples(thetas, thetas), min_size=1, max_size=6))
def test_gt_affine_tables_rebuild_basis_tables(degree, pairs):
    parts = gt_affine_tables(degree, RULE.nodes)
    for th1, th2 in pairs:
        single = basis_tables(BasisSpec.gt(degree, th1, th2), RULE.nodes)
        for name in ("values", "first", "second"):
            part, want = getattr(parts, name), getattr(single, name)
            rebuilt = part[0] + th1 * part[1] + th2 * part[2]
            assert np.abs(rebuilt - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("route", ["tensor", "defect"])
def test_translated_net_keeps_scalar_agreement(route):
    """An offset far from the net's size costs the prepared fitness no digits."""
    nets, stacked, scalar = ROUTES[route]

    @PROPERTY
    @given(net=nets, alphas=alpha_stacks)
    def check(net, alphas):
        moved = ControlNet(points=net.points + 100.0, fixed=net.fixed)
        want = scalar(moved, alphas)
        np.testing.assert_allclose(stacked(moved, alphas), want, rtol=ROUTE_RTOL, atol=0.0)

    check()


def single_form_family(family):
    """A family of one fixed-basis form: Bernstein, or GT at the drawn shape vector."""

    def build(net, rule, alpha):
        specs = [
            BasisSpec.bernstein(d) if family == "bernstein" else BasisSpec.gt(d, *pair)
            for d, pair in zip((net.degree_u, net.degree_v), (alpha[:2], alpha[2:]))
        ]
        return _ExtremalFamily(_forms(*(basis_tables(s, rule.nodes) for s in specs), rule), net, rule, family)

    return build


#: Every source of the forms whose split blocks the solve loop trusts to be symmetric,
#: with the degrees each is checked at.
FORM_SOURCES = {
    "tensor": (lambda net, rule, alpha: reduced_functional_family(net, rule), [(d, d) for d in range(2, 9)]),
    "hybrid": (lambda net, rule, alpha: tb_reduced_functional_family(net, rule), [(2, 2), (3, 3), (5, 4), (8, 8)]),
    "bernstein": (single_form_family("bernstein"), [(2, 2), (3, 3), (5, 4), (8, 8)]),
    "gt": (single_form_family("gt"), [(2, 2), (3, 3), (5, 4), (8, 8)]),
}


@pytest.mark.parametrize(
    "source, degrees",
    [(name, degrees) for name, (_, cases) in FORM_SOURCES.items() for degrees in cases],
    ids=lambda value: value if isinstance(value, str) else "x".join(map(str, value)),
)
def test_split_blocks_are_symmetric(source, degrees):
    # the family checks its blocks once, to 1e-10, and the solve does not check again;
    # every source is symmetric to rounding, far inside that gate
    build, (m, n) = FORM_SOURCES[source][0], degrees

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1), order=st.integers(max(m, n) + 1, 40),
        alpha=st.lists(thetas, min_size=4, max_size=4), known=st.sampled_from([0.0, 0.3, 0.7]),
    )
    def check(seed, order, alpha, known):
        net = boundary_net(seed, m + 1, n + 1)
        rng = np.random.default_rng(seed)
        fixed = net.fixed | (rng.random(net.fixed.shape) < known)
        fixed[m // 2, n // 2] = False  # at least one unknown point
        points = np.where(fixed[..., None], rng.uniform(-3.0, 5.0, size=net.points.shape), np.nan)
        points[net.fixed] = net.points[net.fixed]
        family = build(ControlNet(points=points, fixed=fixed), gauss_legendre_rule(order), alpha)
        k = family.n
        blocks = family.blocks[:, : k * k].reshape(-1, k, k)
        gap = np.abs(blocks - np.swapaxes(blocks, -1, -2)).max(axis=(-2, -1))
        assert np.all(gap <= 1e-13 * np.abs(blocks).max(axis=(-2, -1)))

    check()
