"""Tensor-product patches: evaluation, partials, functionals, curvature, meshes."""

import collections
import types
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gtplateau.basis import THETA_MAX, THETA_MIN, BasisSpec, basis_tables
from gtplateau.coons import tb_dirichlet_energy, tb_surface_jet
from gtplateau.dirichlet import solve_interior
from gtplateau.errors import ConfigurationError
from gtplateau.numerics import RngStream, gauss_legendre_rule
from gtplateau.patch import (
    ControlNet,
    FundamentalForms,
    Patch,
    SurfaceJet,
    SurfaceShape,
    area,
    boundary_mask,
    dirichlet_energy,
    mean_curvature_grid,
    surface_jet,
    tessellate,
)

from difference_form import partials_difference
from laplacian_reference import laplacian_defect
from mesh_reference import mesh_area

INNER = np.linspace(0.1, 0.9, 5)
PROPERTY = settings(max_examples=25, deadline=None)
#: The six grids of a ``SurfaceJet``.
JET_FIELDS = ("S", "Su", "Sv", "Suu", "Suv", "Svv")


def flat_chart(degree_u: int = 3, degree_v: int = 3) -> Patch:
    """Linear-precision chart S(u, v) = (u, v, 0)."""
    i = np.arange(degree_u + 1) / degree_u
    j = np.arange(degree_v + 1) / degree_v
    points = np.stack(
        np.broadcast_arrays(i[:, None], j[None, :], np.zeros((1, 1))), axis=-1
    )
    return Patch.bernstein(ControlNet(points=points))


def at(patch: Patch, u: float, v: float) -> types.SimpleNamespace:
    """The jet at one parameter pair: every field a 3-vector."""
    jet = surface_jet(patch, [u], [v])
    return types.SimpleNamespace(**{name: getattr(jet, name)[0, 0] for name in JET_FIELDS})


def random_net(seed: int, rows: int = 4, cols: int = 4) -> ControlNet:
    points = RngStream(seed, 0).uniform(-2.0, 3.0, (rows, cols, 3))
    return ControlNet(points=points)


def random_gt_patch(seed: int, rows: int = 4, cols: int = 4) -> Patch:
    rng = RngStream(seed, 1)
    shape = SurfaceShape.from_iterable(rng.uniform(0.5, 3.5, 4))
    return Patch.gt(random_net(seed, rows, cols), shape)


class TestSurfaceShape:
    def test_pairs_split_by_direction(self):
        shape = SurfaceShape(1.0, 2.0, 3.0, 0.5)
        bu, bv = shape.basis_specs(3, 3)
        assert bu.theta == (1.0, 2.0)
        assert bv.theta == (3.0, 0.5)
        np.testing.assert_array_equal(shape.as_array(), [1.0, 2.0, 3.0, 0.5])

    def test_component_interval(self):
        with pytest.raises(ConfigurationError):
            SurfaceShape(1.0, 2.0, 3.0, 4.0)

    def test_from_iterable_length(self):
        with pytest.raises(ConfigurationError):
            SurfaceShape.from_iterable([1.0, 2.0, 3.0])

    def test_basis_specs_carry_shape(self):
        bu, bv = SurfaceShape(1.0, 2.0, 3.0, 0.5).basis_specs(3, 4)
        assert (bu.degree, bv.degree) == (3, 4)
        assert bu.theta[1] == 2.0 and bv.theta[0] == 3.0


class TestControlNet:
    def test_mask_defaults_to_finite(self):
        points = np.zeros((4, 4, 3))
        points[1, 1] = np.nan
        net = ControlNet(points=points)
        assert not net.fixed[1, 1] and net.fixed.sum() == 15
        assert not net.is_complete and net.boundary_is_fixed()

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigurationError):
            ControlNet(points=np.zeros((4, 3)))
        with pytest.raises(ConfigurationError):
            ControlNet(points=np.zeros((1, 4, 3)))

    def test_rejects_mismatched_mask(self):
        with pytest.raises(ConfigurationError):
            ControlNet(points=np.zeros((4, 4, 3)), fixed=np.ones((3, 4), dtype=bool))

    def test_rejects_fixed_nan(self):
        points = np.zeros((4, 4, 3))
        points[2, 2] = np.nan
        with pytest.raises(ConfigurationError):
            ControlNet(points=points, fixed=np.ones((4, 4), dtype=bool))

    def test_keeps_writable_copies(self):
        points, fixed = np.zeros((2, 2, 3)), np.ones((2, 2), dtype=bool)
        net = ControlNet(points=points, fixed=fixed)
        points[0, 0, 0], fixed[0, 0] = 1.0, False
        assert net.points[0, 0, 0] == 0.0 and net.fixed[0, 0]
        net.points[0, 0, 0] = 2.0  # a net is filled in place

    def test_is_a_frozen_value(self):
        # a reassigned field would skip the construction checks; == and hash go by identity
        net = random_net(3)
        for name in ("points", "fixed"):
            with pytest.raises(FrozenInstanceError):
                setattr(net, name, np.ones(getattr(net, name).shape, dtype=bool))
        dup = net.copy()
        assert net == net and net != dup
        assert len({net, dup, net}) == 2

    def test_copy_is_deep(self):
        net = random_net(3)
        dup = net.copy()
        dup.points[0, 0, 0] += 1.0
        assert net.points[0, 0, 0] != dup.points[0, 0, 0]

    def test_scale_ignores_unknowns(self):
        points = np.full((4, 4, 3), np.nan)
        points[boundary_mask(4, 4)] = 2.0
        points[0, 0] = (-7.0, 0.0, 0.0)
        assert ControlNet(points=points).scale() == 7.0

    def test_scale_of_empty_mask(self):
        points = np.full((2, 2, 3), np.nan)
        net = ControlNet(points=points, fixed=np.zeros((2, 2), dtype=bool))
        assert net.scale() == 0.0

    @pytest.mark.parametrize(
        "points, fixed",
        [
            ("abc", None),
            ([[[0.0, 0.0, 0.0]] * 2, [[0.0, 0.0, 0.0]]], None),
            (np.zeros((2, 2, 3), dtype=complex), None),
            ([[[1j, 0, 0]] * 2] * 2, None),
            (np.zeros((2, 2, 3)), [[True, False], [True]]),
            (np.full((2, 2, 3), "1.5"), None),
            (np.ones((2, 2, 3), dtype=bool), None),
            (np.zeros((2, 2, 3)), [["a", "b"], ["c", "d"]]),
            (np.zeros((2, 2, 3)), [[0.5, 1], [1, 1]]),
            (np.zeros((2, 2, 3)), [[np.nan, True], [True, True]]),
            (np.zeros((2, 2, 3)), np.ones((2, 2), dtype=int)),
        ],
        ids=[
            "text", "ragged", "complex", "complex-list", "ragged-mask",
            "numeric-text", "bool-points", "text-mask", "float-mask", "nan-mask", "int-mask",
        ],
    )
    def test_rejects_what_is_not_a_real_grid(self, points, fixed):
        with pytest.raises(ConfigurationError, match="points must be real numbers and fixed booleans"):
            ControlNet(points=points, fixed=fixed)

    @PROPERTY
    @given(data=st.data())
    def test_every_construction_is_refused_or_consistent(self, data):
        # random shapes, non-finite patterns and masks: ConfigurationError, or a net whose
        # mask, degrees and copy agree with its points
        shape = data.draw(
            st.tuples(st.integers(2, 5), st.integers(2, 5), st.just(3))
            | st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple),
            label="shape",
        )
        points = data.draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)), label="points")
        holes = data.draw(arrays(bool, shape), label="non-finite entries")
        points[holes] = data.draw(arrays(float, shape, elements=st.sampled_from([np.nan, np.inf, -np.inf])))[holes]
        finite = np.isfinite(points).all(axis=-1) if points.ndim else np.bool_(True)
        grid = shape[:2] if len(shape) > 1 else (2, 2)
        masks = st.sampled_from([grid, (grid[0] + 1, grid[1]), grid[:1]]).flatmap(lambda s: arrays(bool, s))
        if finite.shape == grid:
            masks |= st.just(finite) | arrays(bool, grid).map(lambda m: m & finite)
        fixed = data.draw(st.none() | masks, label="fixed")
        form = data.draw(st.sampled_from(["array", "list", "complex"]), label="form")
        given_points = {"array": points, "list": points.tolist(), "complex": points.astype(complex)}[form]

        mask = finite if fixed is None else fixed
        valid = (
            form != "complex" and len(shape) == 3 and shape[2] == 3 and min(shape[:2]) >= 2
            and mask.shape == shape[:2] and not (mask & ~finite).any()
        )
        try:
            net = ControlNet(points=given_points, fixed=fixed)
        except ConfigurationError:
            assert not valid
            return
        assert valid
        np.testing.assert_array_equal(net.points, points)
        np.testing.assert_array_equal(net.fixed, mask)
        assert not (net.fixed & ~finite).any()
        np.testing.assert_array_equal(net.free, ~net.fixed)
        assert (net.degree_u, net.degree_v) == (shape[0] - 1, shape[1] - 1)
        dup = net.copy()
        np.testing.assert_array_equal(dup.points, net.points)
        np.testing.assert_array_equal(dup.fixed, net.fixed)
        dup.points[...] += 1.0
        dup.fixed[...] = ~dup.fixed
        np.testing.assert_array_equal(net.points, points)
        np.testing.assert_array_equal(net.fixed, mask)


class TestPatchConstruction:
    def test_requires_complete_net(self, wave_net):
        with pytest.raises(ConfigurationError, match="fully known"):
            Patch.bernstein(wave_net)

    def test_degree_mismatch(self):
        net = random_net(1)
        with pytest.raises(ConfigurationError, match="do not match"):
            Patch(basis_u=BasisSpec.bernstein(2), basis_v=BasisSpec.bernstein(3), net=net)


class TestEvaluation:
    def test_corner_is_control_point_exactly(self):
        net = random_net(7)
        patch = Patch.bernstein(net)
        assert at(patch, 0.0, 0.0).S.tolist() == net.points[0, 0].tolist()

    def test_bicubic_center(self):
        i = np.arange(4, dtype=float)
        points = np.stack(
            np.broadcast_arrays(2.0 * i[:, None], 2.0 * i[None, :], np.zeros((1, 1))),
            axis=-1,
        )
        patch = Patch.bernstein(ControlNet(points=points))
        np.testing.assert_allclose(at(patch, 0.5, 0.5).S, [3.0, 3.0, 0.0], atol=1e-14)

    def test_solved_wave_corners(self, wave_net, rule32):
        shape = SurfaceShape(0.8706, 0.8706, 0.8706, 0.8706)
        solved = solve_interior(wave_net, *shape.basis_specs(3, 3), rule32)
        patch = Patch.gt(solved.net, shape)
        for (u, v), corner in [
            ((0.0, 0.0), (0, 0)),
            ((0.0, 1.0), (0, 3)),
            ((1.0, 0.0), (3, 0)),
            ((1.0, 1.0), (3, 3)),
        ]:
            np.testing.assert_allclose(
                at(patch, u, v).S, wave_net.points[corner], atol=1e-13
            )

    def test_grid_shape(self):
        jet = surface_jet(flat_chart(), np.linspace(0, 1, 5), np.linspace(0, 1, 7))
        for name in JET_FIELDS:
            assert getattr(jet, name).shape == (5, 7, 3)

    def test_boundary_curves_match_univariate_form(self):
        patch = random_gt_patch(5)
        us = np.linspace(0.0, 1.0, 21)
        tu = basis_tables(patch.basis_u, us)
        side = np.einsum("it,ic->tc", tu.values, patch.net.points[:, 0, :])
        np.testing.assert_allclose(
            surface_jet(patch, us, [0.0]).S[:, 0], side, atol=1e-12
        )
        tv = basis_tables(patch.basis_v, us)
        side = np.einsum("jt,jc->tc", tv.values, patch.net.points[-1, :, :])
        np.testing.assert_allclose(
            surface_jet(patch, [1.0], us).S[0], side, atol=1e-12
        )

    @pytest.mark.parametrize("u,v", [(-0.1, 0.5), (0.5, 1.01), (float("nan"), 0.5), ([0.5], 0.5)])
    def test_parameter_domain(self, u, v):
        with pytest.raises(ConfigurationError):
            surface_jet(flat_chart(), [u], [v])

    def test_translation_equivariance(self):
        patch = random_gt_patch(9)
        offset = np.array([10.0, -5.0, 3.0])
        shifted = Patch(
            basis_u=patch.basis_u,
            basis_v=patch.basis_v,
            net=ControlNet(points=patch.net.points + offset),
        )
        np.testing.assert_allclose(
            at(shifted, 0.3, 0.7).S, at(patch, 0.3, 0.7).S + offset, atol=1e-12
        )
        jet0, jet1 = at(patch, 0.3, 0.7), at(shifted, 0.3, 0.7)
        np.testing.assert_allclose(jet1.Su, jet0.Su, atol=1e-12)
        np.testing.assert_allclose(jet1.Sv, jet0.Sv, atol=1e-12)


class TestPartials:
    def test_flat_chart(self):
        jet = at(flat_chart(), 0.37, 0.61)
        np.testing.assert_allclose(jet.Su, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(jet.Sv, [0.0, 1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed,rows,cols", [(11, 4, 4), (12, 4, 5)])
    def test_difference_route_agrees(self, seed, rows, cols):
        for patch in (
            Patch.bernstein(random_net(seed, rows, cols)),
            random_gt_patch(seed, rows, cols),
        ):
            for u in INNER:
                for v in INNER:
                    jet = at(patch, u, v)
                    du, dv = partials_difference(patch, u, v)
                    np.testing.assert_allclose(du, jet.Su, atol=1e-10)
                    np.testing.assert_allclose(dv, jet.Sv, atol=1e-10)

    def test_against_finite_differences(self):
        patch = random_gt_patch(21)
        h = 1e-6
        for u in INNER:
            for v in INNER:
                jet = at(patch, u, v)
                su, sv = jet.Su, jet.Sv
                fd_u = (at(patch, u + h, v).S - at(patch, u - h, v).S) / (2 * h)
                fd_v = (at(patch, u, v + h).S - at(patch, u, v - h).S) / (2 * h)
                assert np.abs(fd_u - su).max() / (1 + np.abs(su).max()) < 1e-6
                assert np.abs(fd_v - sv).max() / (1 + np.abs(sv).max()) < 1e-6


class TestSecondPartials:
    def test_flat_chart_vanishes(self):
        jet = surface_jet(flat_chart(), [0.4], [0.8])
        for arr in (jet.Suu, jet.Suv, jet.Svv):
            assert np.abs(arr).max() < 1e-12

    def test_bilinear_twist(self):
        # S = (u, v, uv): S_uu = S_vv = 0, S_uv = (0, 0, 1)
        points = np.array(
            [[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]
        )
        patch = Patch.bernstein(ControlNet(points=points))
        jet = surface_jet(patch, [0.3], [0.9])
        assert np.abs(jet.Suu).max() < 1e-14 and np.abs(jet.Svv).max() < 1e-14
        np.testing.assert_allclose(jet.Suv[0, 0], [0.0, 0.0, 1.0], atol=1e-14)

    def test_against_finite_differences_of_partials(self):
        patch = random_gt_patch(33)
        h = 1e-6
        for u in INNER[::2]:
            for v in INNER[::2]:
                jet = at(patch, u, v)
                fd_uu = (at(patch, u + h, v).Su - at(patch, u - h, v).Su) / (2 * h)
                up, down = at(patch, u, v + h), at(patch, u, v - h)
                fd_uv = (up.Su - down.Su) / (2 * h)
                fd_vv = (up.Sv - down.Sv) / (2 * h)
                for fd, exact in ((fd_uu, jet.Suu), (fd_uv, jet.Suv), (fd_vv, jet.Svv)):
                    assert np.abs(fd - exact).max() / (1 + np.abs(exact).max()) < 1e-5


class ReadCounter:
    """Basis tables that count each read of their values, first and second
    tables; with ``second=False`` reading second fails."""

    def __init__(self, tables, second=True):
        self._tables, self._second, self.reads = tables, second, collections.Counter()

    def __getattr__(self, name):
        assert name != "second" or self._second, "a second-derivative table was read"
        self.reads[name] += 1
        return getattr(self._tables, name)


def jet_case(data):
    """(u tables, v tables, points) of a random Bernstein or GT patch at random
    parameters, with a random stack of trailing coordinates."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    degrees = data.draw(st.tuples(st.integers(2, 9), st.integers(2, 9)))
    trail = data.draw(st.sampled_from([(), (3,), (2, 3), (7,)]))
    tables = []
    for degree in degrees:
        ts = rng.uniform(size=data.draw(st.integers(1, 12)))
        gt = data.draw(st.booleans())
        spec = BasisSpec.gt(degree, *rng.uniform(THETA_MIN, THETA_MAX, 2)) if gt else BasisSpec.bernstein(degree)
        tables.append(basis_tables(spec, ts))
    return (*tables, rng.uniform(-3.0, 5.0, (degrees[0] + 1, degrees[1] + 1) + trail))


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSurfaceJet:
    @PROPERTY
    @given(data=st.data())
    def test_any_reads_in_any_order_equal_the_full_read(self, data):
        tu, tv, points = jet_case(data)
        full = SurfaceJet(tu, tv, points)
        want = {name: getattr(full, name) for name in JET_FIELDS}
        order = data.draw(st.permutations(JET_FIELDS))
        jet = SurfaceJet(tu, tv, points)
        for name in order[: data.draw(st.integers(1, len(JET_FIELDS)))]:
            same_bits(getattr(jet, name), want[name])
            assert want[name].shape == (tu.values.shape[1], tv.values.shape[1]) + points.shape[2:]

    def test_first_partials_read_no_second_table(self):
        patch = random_gt_patch(3, rows=5, cols=4)
        us, vs = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 6)
        full = surface_jet(patch, us, vs)
        tu, tv = (
            ReadCounter(basis_tables(b, ts), second=False) for b, ts in ((patch.basis_u, us), (patch.basis_v, vs))
        )
        jet = SurfaceJet(tu, tv, patch.net.points)
        same_bits(jet.Su, full.Su)
        same_bits(jet.Sv, full.Sv)
        assert tu.reads == {"values": 1, "first": 1} and tv.reads == {"values": 1, "first": 1}

    def test_each_table_is_contracted_once_per_use(self):
        patch = random_gt_patch(4)
        tu, tv = (ReadCounter(basis_tables(b, INNER)) for b in (patch.basis_u, patch.basis_v))
        jet = SurfaceJet(tu, tv, patch.net.points)
        first = [getattr(jet, name) for name in JET_FIELDS]
        assert all(getattr(jet, name) is grid for name, grid in zip(JET_FIELDS, first))  # read once, kept
        assert tu.reads == {"values": 1, "first": 1, "second": 1}
        assert tv.reads == {"values": 3, "first": 2, "second": 1}

    def test_a_later_change_to_the_net_does_not_reach_it(self):
        patch = random_gt_patch(5)
        want = surface_jet(patch, INNER, INNER).S
        jet = surface_jet(patch, INNER, INNER)
        patch.net.points[...] += 1.0
        same_bits(jet.S, want)


class TestFunctionals:
    def test_flat_chart_energy_equals_area(self, rule32, check_am_gm):
        patch = flat_chart()
        e = dirichlet_energy(patch, rule32)
        a = area(patch, rule32)
        assert abs(e - 1.0) < 1e-12 and abs(a - 1.0) < 1e-12
        assert abs(a - e) < 1e-12
        check_am_gm(patch)

    def test_anisotropic_chart(self, rule32, check_am_gm):
        # S = (2u, v/2, 0): energy (4 + 1/4)/2, area 1
        points = flat_chart().net.points * np.array([2.0, 0.5, 1.0])
        patch = Patch.bernstein(ControlNet(points=points))
        assert abs(dirichlet_energy(patch, rule32) - 2.125) < 1e-12
        assert abs(area(patch, rule32) - 1.0) < 1e-12
        check_am_gm(patch)

    def test_solved_wave_area(self, wave_reference_net, rule32, check_am_gm):
        # 37.4396 is the published extremal energy, not area, of this net
        shape = SurfaceShape(0.8706, 0.8706, 0.8706, 0.8706)
        solved = solve_interior(wave_reference_net, *shape.basis_specs(3, 3), rule32)
        patch = Patch.gt(solved.net, shape)
        a, e = check_am_gm(patch)
        assert abs(e - 37.4396) / 37.4396 < 1e-4
        assert e >= a

    @pytest.mark.parametrize("exponent", [-300, -40, -1, 1, 17, 266])
    def test_area_scales_exactly_by_powers_of_two(self, wave_net, rule32, exponent):
        # at 2^266 the squared cross product overflowed (area inf); at 2^-300 it underflowed (area 0)
        shape = SurfaceShape(1.2, 2.0, 0.9, 3.1)
        solved = solve_interior(wave_net, *shape.basis_specs(3, 3), rule32).net
        scaled = ControlNet(points=np.ldexp(solved.points, exponent))
        expected = np.ldexp(area(Patch.gt(solved, shape), rule32), 2 * exponent)
        assert area(Patch.gt(scaled, shape), rule32) == expected

    @pytest.mark.parametrize("exponent", [20, 30, 40])
    @pytest.mark.parametrize("family", ["bernstein", "gt"])
    def test_exact_shift_keeps_energy_and_area(self, family, exponent, rule32):
        # a net of eighths moves exactly by 2^k; both integrals read only S_u and
        # S_v, so they are taken on the centred net. On the uncentred net they
        # drifted by about 1e-11 relative at 2^20 and 2e-5 at 2^40
        rng = np.random.default_rng(exponent)
        points = rng.integers(-24, 40, (5, 6, 3)) / 8.0
        shape = SurfaceShape(1.3, 2.9, 0.7, 2.2)

        def patch(offset):
            net = ControlNet(points=points + offset)
            return Patch.bernstein(net) if family == "bernstein" else Patch.gt(net, shape)

        for functional in (dirichlet_energy, area):
            near, far = functional(patch(0.0), rule32), functional(patch(2.0**exponent), rule32)
            assert abs(far - near) <= 1e-15 * near

    def test_random_patches_respect_am_gm(self, rule32, check_am_gm):
        for seed in range(6):
            check_am_gm(random_gt_patch(seed))
            check_am_gm(Patch.bernstein(random_net(seed + 100)))

    def test_laplacian_defect_flat(self, rule32):
        assert laplacian_defect(flat_chart(), rule32) < 1e-20

    def test_laplacian_defect_sees_displacement(self, rule32):
        points = flat_chart().net.points.copy()
        points[1, 1, 2] += 1.0
        patch = Patch.bernstein(ControlNet(points=points))
        assert laplacian_defect(patch, rule32) > 1e-3


@pytest.mark.parametrize("family, lowest", [("bernstein", 1), ("gt", 2), ("hybrid", 2)])
@PROPERTY
@given(data=st.data())
def test_area_never_exceeds_energy(family, lowest, data):
    # |S_u x S_v| <= (|S_u|^2 + |S_v|^2) / 2 at every node, and both integrals
    # take the same positive weights, so area <= energy for any complete net.
    # The nets are a rotated, scaled uniform grid plus noise: without noise the
    # Bernstein and hybrid charts are conformal and the two are equal
    m, n = (data.draw(st.integers(lowest, 6), label=f"degree {d}") for d in "uv")
    shape = SurfaceShape(*data.draw(st.lists(st.floats(0.5, 3.5), min_size=4, max_size=4), label="shape"))
    noise = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), label="noise")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u, v = np.meshgrid(np.linspace(0.0, 1.0, m + 1), np.linspace(0.0, 1.0, n + 1), indexing="ij")
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0] * rng.uniform(0.5, 4.0)
    grid = np.stack([u, v, np.zeros_like(u)], axis=-1) @ rotation.T
    net = ControlNet(points=grid + noise * rng.uniform(-1.0, 1.0, grid.shape))
    rule = gauss_legendre_rule(16)
    if family == "hybrid":
        jet = tb_surface_jet(net, shape, rule.nodes, rule.nodes)
        surface_area = rule.weights @ np.linalg.norm(np.cross(jet.Su, jet.Sv), axis=-1) @ rule.weights
        energy = tb_dirichlet_energy(net, shape, rule)
    else:
        patch = Patch.bernstein(net) if family == "bernstein" else Patch.gt(net, shape)
        surface_area, energy = area(patch, rule), dirichlet_energy(patch, rule)
    assert surface_area <= energy * (1 + 1e-12)


QUARTER = 4.0 / 3.0 * np.tan(np.pi / 8.0)


def cylinder_patch() -> Patch:
    """Quarter cylinder of radius 1: cubic arc approximation swept along x."""
    arc = np.array([[0.0, 1.0], [QUARTER, 1.0], [1.0, QUARTER], [1.0, 0.0]])
    points = np.empty((2, 4, 3))
    for i in range(2):
        points[i, :, 0] = float(i)
        points[i, :, 1] = arc[:, 0]
        points[i, :, 2] = arc[:, 1]
    return Patch.bernstein(ControlNet(points=points))


class TestMeanCurvature:
    def test_flat_chart_is_minimal(self):
        _, _, forms = mean_curvature_grid(flat_chart(), 9)
        assert np.abs(forms.H).max() < 1e-10
        np.testing.assert_allclose(forms.E, 1.0, atol=1e-12)
        np.testing.assert_allclose(forms.F, 0.0, atol=1e-12)
        np.testing.assert_allclose(forms.G, 1.0, atol=1e-12)

    def test_cylinder_sign_and_magnitude(self):
        _, _, forms = mean_curvature_grid(cylinder_patch(), 21)
        assert np.all(forms.H < 0.0)
        assert np.abs(forms.H + 0.5).max() < 0.05

    def test_solved_planar_boundary_stays_planar(self, wave_net, rule32):
        # flatten the wave: same xy frame, zero heights
        points = wave_net.points.copy()
        points[..., 2] = np.where(np.isnan(points[..., 0]), np.nan, 0.0)
        net = ControlNet(points=points)
        bu = bv = BasisSpec.bernstein(3)
        solved = solve_interior(net, bu, bv, rule32)
        assert np.abs(solved.net.points[..., 2]).max() == 0.0
        _, _, forms = mean_curvature_grid(Patch.bernstein(solved.net), 15)
        assert np.abs(forms.H).max() < 1e-8

    def test_degenerate_patch_yields_nan(self):
        points = np.ones((2, 2, 3))
        _, _, forms = mean_curvature_grid(Patch.bernstein(ControlNet(points=points)), 5)
        assert np.all(np.isnan(forms.H))

    @pytest.mark.parametrize("samples", [1, 0, 2.5])
    def test_sample_floor(self, samples):
        with pytest.raises(ConfigurationError):
            mean_curvature_grid(flat_chart(), samples)

    def test_translation_leaves_curvature_alone(self):
        patch = cylinder_patch()
        shifted = Patch.bernstein(ControlNet(points=patch.net.points + [3.0, -1.0, 8.0]))
        _, _, base = mean_curvature_grid(patch, 11)
        _, _, moved = mean_curvature_grid(shifted, 11)
        np.testing.assert_allclose(moved.H, base.H, atol=1e-9, equal_nan=True)

    @pytest.mark.parametrize("exponent", [-40, 17, 266])
    def test_forms_scale_exactly_by_powers_of_two(self, wave_net, rule32, exponent):
        # an absolute degenerate floor makes every H NaN at 2^-40; unscaled, EG - F^2 overflows at 2^266
        shape = SurfaceShape(1.3, 2.7, 0.9, 3.1)
        points = solve_interior(wave_net, *shape.basis_specs(3, 3), rule32).net.points
        points[0] = (0.1, 0.7, 1.0 / 3.0)  # a collapsed edge, where S_v is rounding noise
        _, _, base = mean_curvature_grid(Patch.gt(ControlNet(points=points), shape), 33)
        _, _, scaled = mean_curvature_grid(Patch.gt(ControlNet(points=np.ldexp(points, exponent)), shape), 33)
        assert np.isnan(base.H[0]).all() and np.isfinite(base.H[1:]).all()
        for name, power in zip("EFGLMNH", [2, 2, 2, 1, 1, 1, -1]):
            expected = np.ldexp(getattr(base, name), power * exponent)
            assert getattr(scaled, name).tobytes() == expected.tobytes(), name

    def test_forms_validation(self):
        one = np.ones(1)
        zero = np.zeros(1)
        with pytest.raises(ConfigurationError, match="diagonal"):
            FundamentalForms(E=-one, F=zero, G=one, L=zero, M=zero, N=zero, H=zero)
        with pytest.raises(ConfigurationError, match="Cauchy-Schwarz"):
            FundamentalForms(E=one, F=2 * one, G=one, L=zero, M=zero, N=zero, H=zero)
        big = np.ldexp(one, 1000)  # EG overflows a double, so the check must not form it
        FundamentalForms(E=big, F=big / 2, G=big, L=zero, M=zero, N=zero, H=zero)
        with pytest.raises(ConfigurationError, match="Cauchy-Schwarz"):
            FundamentalForms(E=big, F=2 * big, G=big, L=zero, M=zero, N=zero, H=zero)


class TestTessellation:
    def test_single_cell(self):
        patch = flat_chart()
        vertices, faces = tessellate(patch, 1)
        assert vertices.shape == (4, 3) and faces.shape == (2, 3)
        assert vertices[0].tolist() == patch.net.points[0, 0].tolist()

    def test_winding_is_consistent(self):
        vertices, faces = tessellate(flat_chart(), 4)
        a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
        b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
        assert np.all(np.cross(a, b)[:, 2] > 0.0)

    def test_mesh_area_converges_to_quadrature(self, wave_net, rule32):
        solved = solve_interior(wave_net, BasisSpec.bernstein(3), BasisSpec.bernstein(3), rule32)
        patch = Patch.bernstein(solved.net)
        exact = area(patch, rule32)
        approx = mesh_area(*tessellate(patch, 64))
        assert abs(approx - exact) / exact < 1e-3

    def test_unit_triangle_area(self):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        faces = np.array([[0, 1, 2]])
        assert mesh_area(vertices, faces) == 0.5

    @pytest.mark.parametrize("cells", [0, -1, 1.5])
    def test_cell_floor(self, cells):
        with pytest.raises(ConfigurationError):
            tessellate(flat_chart(), cells)
