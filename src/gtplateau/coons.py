"""Bilinearly blended Coons patches and the hybrid blended surface.

The classical construction interpolates four compatible boundary curves. The
hybrid surface S = R1 + R2 - T combines two mixed-basis bicubic tensor
patches (Bernstein in one parameter, GT in the other) with a GT-Coons corner
correction T built from the net's four GT boundary curves. At every boundary
parameter the GT contributions cancel, so the patch boundary is exactly the
Bernstein curve of the boundary control points for every shape vector; the
shape freedom moves only the interior.

Index convention: in Q_ij, i always indexes u and j always indexes v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_tables
from .dirichlet import gradient_normal_system
from .errors import ConfigurationError, SolverError
from .numerics import DenseSystem, QuadratureRule, pivot_ratio, solve_dense
from .patch import ControlNet, SurfaceShape, boundary_mask
from .pso import PsoConfig, PsoResult, optimize

_CORNER_TOL = 1e-12


@dataclass(frozen=True)
class CurveSpec:
    """A univariate curve: basis plus its control points."""

    basis: BasisSpec
    controls: np.ndarray

    def __post_init__(self):
        controls = np.asarray(self.controls, dtype=float)
        if controls.ndim != 2 or controls.shape != (self.basis.degree + 1, 3):
            raise ConfigurationError(
                f"curve controls must have shape ({self.basis.degree + 1}, 3)"
            )
        if not np.all(np.isfinite(controls)):
            raise ConfigurationError("curve controls must be finite")
        object.__setattr__(self, "controls", controls)

    def at(self, ts) -> np.ndarray:
        return basis_tables(self.basis, ts).values.T @ self.controls


@dataclass(frozen=True)
class BoundaryCurves:
    """Four boundary curves: sides v=0, v=1 run in u; sides u=0, u=1 run in v."""

    side_v0: CurveSpec
    side_v1: CurveSpec
    side_u0: CurveSpec
    side_u1: CurveSpec

    def __post_init__(self):
        pairs = [
            ("side_v0(0) vs side_u0(0)", self.side_v0.at([0.0])[0], self.side_u0.at([0.0])[0]),
            ("side_v0(1) vs side_u1(0)", self.side_v0.at([1.0])[0], self.side_u1.at([0.0])[0]),
            ("side_v1(0) vs side_u0(1)", self.side_v1.at([0.0])[0], self.side_u0.at([1.0])[0]),
            ("side_v1(1) vs side_u1(1)", self.side_v1.at([1.0])[0], self.side_u1.at([1.0])[0]),
        ]
        for label, a, b in pairs:
            if np.abs(a - b).max() > _CORNER_TOL:
                raise ConfigurationError(f"incompatible boundary corners: {label}")

    def corners(self) -> np.ndarray:
        """C[a, b] = patch corner at (u, v) = (a, b)."""
        c = np.empty((2, 2, 3))
        c[0, 0] = self.side_v0.at([0.0])[0]
        c[1, 0] = self.side_v0.at([1.0])[0]
        c[0, 1] = self.side_v1.at([0.0])[0]
        c[1, 1] = self.side_v1.at([1.0])[0]
        return c


def _check_unit(name, value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1]")
    return value


def _bilinear(corners: np.ndarray, u: float, v: float) -> np.ndarray:
    return (
        (1.0 - u) * (1.0 - v) * corners[0, 0]
        + (1.0 - u) * v * corners[0, 1]
        + u * (1.0 - v) * corners[1, 0]
        + u * v * corners[1, 1]
    )


def coons_classical(curves: BoundaryCurves, u, v) -> np.ndarray:
    """Bilinear blend of the two curve pairs minus the bilinear corner term."""
    u = _check_unit("u", u)
    v = _check_unit("v", v)
    blend = (
        (1.0 - v) * curves.side_v0.at([u])[0]
        + v * curves.side_v1.at([u])[0]
        + (1.0 - u) * curves.side_u0.at([v])[0]
        + u * curves.side_u1.at([v])[0]
    )
    return blend - _bilinear(curves.corners(), u, v)


def coons_classical_matrix(curves: BoundaryCurves, u, v) -> np.ndarray:
    """Same patch in compact matrix form: S = -row(u) . M . col(v)."""
    u = _check_unit("u", u)
    v = _check_unit("v", v)
    corners = curves.corners()
    row = np.array([-1.0, 1.0 - u, u])
    col = np.array([-1.0, 1.0 - v, v])
    m = np.empty((3, 3, 3))
    m[0, 0] = 0.0
    m[0, 1] = curves.side_v0.at([u])[0]
    m[0, 2] = curves.side_v1.at([u])[0]
    m[1, 0] = curves.side_u0.at([v])[0]
    m[2, 0] = curves.side_u1.at([v])[0]
    m[1, 1] = corners[0, 0]
    m[1, 2] = corners[0, 1]
    m[2, 1] = corners[1, 0]
    m[2, 2] = corners[1, 1]
    return -np.einsum("i,ijc,j->c", row, m, col)


def require_blend_net(net: ControlNet, complete: bool | None = None) -> None:
    """Validate the 4x4 net shape the hybrid construction is defined on."""
    if net.points.shape[:2] != (4, 4):
        raise ConfigurationError("the blended construction needs a 4x4 control net")
    border = boundary_mask(4, 4)
    finite = np.all(np.isfinite(net.points), axis=-1)
    if not finite[border].all():
        raise ConfigurationError("all twelve boundary points must be known")
    if complete is True and not net.is_complete:
        raise ConfigurationError("interior points must be known for evaluation")
    if complete is False and not net.free[1:3, 1:3].all():
        raise ConfigurationError("interior points must be unknown for the solve")


@dataclass(frozen=True)
class SurfaceJet:
    """Value and derivative grids of a surface on a tensor parameter grid."""

    S: np.ndarray
    Su: np.ndarray
    Sv: np.ndarray
    Suu: np.ndarray
    Suv: np.ndarray
    Svv: np.ndarray


def _tb_tables(shape: SurfaceShape, us, vs):
    bu = basis_tables(BasisSpec.bernstein(3), us)
    bv = basis_tables(BasisSpec.bernstein(3), vs)
    gu = basis_tables(BasisSpec(family="gt", degree=3, shape=shape.u_pair), us)
    gv = basis_tables(BasisSpec(family="gt", degree=3, shape=shape.v_pair), vs)
    return bu, bv, gu, gv


def _mixed_jet(tab_u, tab_v, points) -> SurfaceJet:
    def c(a, b):
        return np.einsum("iu,jv,ijc->uvc", a, b, points)

    return SurfaceJet(
        S=c(tab_u.values, tab_v.values),
        Su=c(tab_u.first, tab_v.values),
        Sv=c(tab_u.values, tab_v.first),
        Suu=c(tab_u.second, tab_v.values),
        Suv=c(tab_u.first, tab_v.first),
        Svv=c(tab_u.values, tab_v.second),
    )


def _correction_jet(points, gu, gv, us, vs) -> SurfaceJet:
    """Jet of T: the Coons blend of the four GT boundary curves."""
    u = us[:, None, None]
    v = vs[None, :, None]

    def curve(tab, controls):
        return (
            (tab.values.T @ controls),
            (tab.first.T @ controls),
            (tab.second.T @ controls),
        )

    gb, gb1, gb2 = curve(gu, points[:, 0])  # v = 0 side, runs in u
    gt_, gt1, gt2 = curve(gu, points[:, 3])  # v = 1 side
    gl, gl1, gl2 = curve(gv, points[0, :])  # u = 0 side, runs in v
    gr, gr1, gr2 = curve(gv, points[3, :])  # u = 1 side

    q00, q03, q30, q33 = points[0, 0], points[0, 3], points[3, 0], points[3, 3]
    bil = (
        (1.0 - u) * (1.0 - v) * q00
        + (1.0 - u) * v * q03
        + u * (1.0 - v) * q30
        + u * v * q33
    )
    bil_u = -(1.0 - v) * q00 - v * q03 + (1.0 - v) * q30 + v * q33
    bil_v = -(1.0 - u) * q00 + (1.0 - u) * q03 - u * q30 + u * q33
    bil_uv = q00 - q03 - q30 + q33

    ub = lambda a: a[:, None, :]  # broadcast u-curves over v
    vb = lambda a: a[None, :, :]  # broadcast v-curves over u
    return SurfaceJet(
        S=(1.0 - v) * ub(gb) + v * ub(gt_) + (1.0 - u) * vb(gl) + u * vb(gr) - bil,
        Su=(1.0 - v) * ub(gb1) + v * ub(gt1) - vb(gl) + vb(gr) - bil_u,
        Sv=-ub(gb) + ub(gt_) + (1.0 - u) * vb(gl1) + u * vb(gr1) - bil_v,
        Suu=(1.0 - v) * ub(gb2) + v * ub(gt2),
        Suv=-ub(gb1) + ub(gt1) - vb(gl1) + vb(gr1) - bil_uv,
        Svv=(1.0 - u) * vb(gl2) + u * vb(gr2),
    )


def tb_surface_jet(net: ControlNet, shape: SurfaceShape, us, vs) -> SurfaceJet:
    """Value and derivatives of S = R1 + R2 - T on a tensor grid."""
    require_blend_net(net, complete=True)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    for arr in (us, vs):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ConfigurationError("surface parameters must lie in [0, 1]")
    bu, bv, gu, gv = _tb_tables(shape, us, vs)
    r1 = _mixed_jet(bu, gv, net.points)
    r2 = _mixed_jet(gu, bv, net.points)
    t = _correction_jet(net.points, gu, gv, us, vs)
    return SurfaceJet(
        **{
            name: getattr(r1, name) + getattr(r2, name) - getattr(t, name)
            for name in ("S", "Su", "Sv", "Suu", "Suv", "Svv")
        }
    )


def tb_components(net: ControlNet, shape: SurfaceShape, u, v):
    """(R1, R2, T) at one parameter point."""
    require_blend_net(net, complete=True)
    u = _check_unit("u", u)
    v = _check_unit("v", v)
    us, vs = np.array([u]), np.array([v])
    bu, bv, gu, gv = _tb_tables(shape, us, vs)
    r1 = _mixed_jet(bu, gv, net.points).S[0, 0]
    r2 = _mixed_jet(gu, bv, net.points).S[0, 0]
    t = _correction_jet(net.points, gu, gv, us, vs).S[0, 0]
    return r1, r2, t


def tb_coons(net: ControlNet, shape: SurfaceShape, u, v) -> np.ndarray:
    """The hybrid surface S = R1 + R2 - T at one parameter point."""
    r1, r2, t = tb_components(net, shape, u, v)
    return r1 + r2 - t


def tb_dirichlet_energy(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    jet = tb_surface_jet(net, shape, rule.nodes, rule.nodes)
    integrand = 0.5 * ((jet.Su * jet.Su).sum(axis=-1) + (jet.Sv * jet.Sv).sum(axis=-1))
    return float(rule.weights @ integrand @ rule.weights)


def _tb_system(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> DenseSystem:
    """Normal equations of the hybrid surface energy in the four interior points.

    S is affine in them; their scalar coefficient fields come from R1 + R2
    (T never touches the interior), and the known part enters through the
    jet of the net with its interior anchored at zero.
    """
    free = net.free
    anchored = ControlNet(
        points=np.where(free[..., None], 0.0, net.points),
        fixed=np.ones_like(free),
    )
    jet0 = tb_surface_jet(anchored, shape, rule.nodes, rule.nodes)

    bu, bv, gu, gv = _tb_tables(shape, rule.nodes, rule.nodes)
    fi, fj = np.nonzero(free)
    phi_u = (
        bu.first[fi][:, :, None] * gv.values[fj][:, None, :]
        + gu.first[fi][:, :, None] * bv.values[fj][:, None, :]
    )
    phi_v = (
        bu.values[fi][:, :, None] * gv.first[fj][:, None, :]
        + gu.values[fi][:, :, None] * bv.first[fj][:, None, :]
    )
    return gradient_normal_system(phi_u, phi_v, jet0.Su, jet0.Sv, rule)


def solve_tb_interior(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> ControlNet:
    """Interior points minimizing the Dirichlet energy of the hybrid surface.

    The normal equations follow from the shared gradient quadratic-form
    engine (see ``_tb_system``).
    """
    require_blend_net(net, complete=False)
    system = _tb_system(net, shape, rule)
    try:
        solution = solve_dense(system, spd_hint=True)
    except SolverError as exc:
        raise SolverError(f"{exc} [blended-patch interior at alpha={tuple(shape.as_array())}]") from exc

    solved = net.copy()
    solved.points[net.free] = solution
    return solved


@dataclass
class TbOptimum:
    shape: SurfaceShape
    net: ControlNet
    energy: float
    history: np.ndarray
    system_condition_hint: float
    pso: PsoResult


def optimize_tb(net: ControlNet, config: PsoConfig, rule: QuadratureRule) -> TbOptimum:
    """Swarm-minimize the hybrid surface energy over the shape vector."""
    require_blend_net(net, complete=False)
    if config.dims != 4:
        raise ConfigurationError("shape optimization needs 4-dimensional bounds")

    def fitness(x):
        shape = SurfaceShape.from_iterable(x)
        solved = solve_tb_interior(net, shape, rule)
        return tb_dirichlet_energy(solved, shape, rule)

    result = optimize(fitness, config)
    best_shape = SurfaceShape.from_iterable(result.position)
    solved = solve_tb_interior(net, best_shape, rule)
    energy = tb_dirichlet_energy(solved, best_shape, rule)

    return TbOptimum(
        shape=best_shape,
        net=solved,
        energy=energy,
        history=result.history,
        system_condition_hint=pivot_ratio(_tb_system(net, best_shape, rule).matrix),
        pso=result,
    )
