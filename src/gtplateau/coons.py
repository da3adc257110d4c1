"""The hybrid blended surface S = R1 + R2 - T on a 4x4 control net.

R1 is the bicubic patch Bernstein in u and GT in v, R2 the reverse, and T the
GT-Coons blend of the net's four GT boundary curves. On the boundary the GT
terms cancel, so the patch edges are the Bernstein curves of the boundary
points for every shape vector; the shape moves only the interior.

Each term is a function of u times a function of v, so S is a tensor patch
over F = (B0..B3, Gu0..Gu3, 1-u, u) and H = (B0..B3, Gv0..Gv3, 1-v, v), each
the ``basis_tables`` of Bernstein 3, that direction's GT 3 and Bernstein 1
stacked (``_blend_tables``), whose 10x10 coefficient net is C = L P, with L
a constant 100 x 16 map:

* R1 and R2: C[B_i, Gv_j] = C[Gu_i, B_j] = P_ij;
* T's edges: C[Gu_i, 1-v] = -P_i0, C[Gu_i, v] = -P_i3, C[1-u, Gv_j] = -P_0j
  and C[u, Gv_j] = -P_3j;
* T's corners: C[lin_a, lin_b] = +corner_ab, the point at (u, v) = (a, b).

Jets contract the 10-row tables with C by the tensor patch's ``_jet``. With
Q = K_F (x) M_H + M_F (x) K_H from 1-D Gram matrices, the energy is 1/2 sum_c
P_c^T F P_c for the 16 x 16 form F = L^T Q L, which the tensor patch's form
builder ``_forms`` gives with L as its net map, and ``solve_tb_interior`` is
the tensor patch's extremal engine on F.
``_tb_system`` builds the same normal equations from 2-D gradient fields; it
is the independent reference. The GT rows of the tables carry the shape,
affinely, so F is bi-quadratic in it: the swarm's fitness
``tb_reduced_functional_family`` is the engine on its 36 blocks, and
``optimize_tb`` is that family's ``minimize``.

Index convention: in P_ij, i always indexes u and j always indexes v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, gt_affine_tables
from .dirichlet import ShapeOptimum, _ExtremalFamily, _family_forms, _forms, gradient_normal_system
from .errors import ConfigurationError
from .numerics import DenseSystem, QuadratureRule
from .patch import ControlNet, SurfaceJet, SurfaceShape, _jet, boundary_mask
from .pso import PsoConfig


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


_BASES = "bernstein(degree=3) + gt(degree=3) blend"

#: First rows of the blocks of the 10-function tables: Bernstein, GT, (1-t, t).
_B, _G, _LIN = 0, 4, 8


def _coefficient_map() -> np.ndarray:
    """L (100 x 16): the row-major 10x10 coefficient net C = L P of a 4x4 net P."""
    L = np.zeros((10, 10, 4, 4))
    i, j = np.indices((4, 4))
    L[_B + i, _G + j, i, j] = 1.0  # R1
    L[_G + i, _B + j, i, j] = 1.0  # R2
    k = np.arange(4)
    L[_G + k, _LIN, k, 0] = L[_G + k, _LIN + 1, k, 3] = -1.0  # T: sides v = 0, 1
    L[_LIN, _G + k, 0, k] = L[_LIN + 1, _G + k, 3, k] = -1.0  # T: sides u = 0, 1
    a, b = np.indices((2, 2))
    L[_LIN + a, _LIN + b, 3 * a, 3 * b] = 1.0  # T's bilinear corner term
    return L.reshape(100, 16)


_L = _coefficient_map()


def _blend_tables(gt: BasisEvaluation, ts) -> BasisEvaluation:
    """Rows (B0..B3, G0..G3, 1-t, t) of one direction: the cubic and linear Bernstein
    tables around its cubic GT tables; stacked GT tables give a stack of blend tables."""
    b = basis_tables(BasisSpec.bernstein(3), ts)
    lin = basis_tables(BasisSpec.bernstein(1), ts)
    lead = gt.values.shape[:-2]

    def rows(bernstein, gt_rows, linear):
        return np.concatenate(
            [np.broadcast_to(bernstein, lead + bernstein.shape), gt_rows,
             np.broadcast_to(linear, lead + linear.shape)],
            axis=-2,
        )

    return BasisEvaluation(
        values=rows(b.values, gt.values, lin.values),
        first=rows(b.first, gt.first, lin.first),
        second=rows(b.second, gt.second, lin.second),
    )


def _pair_tables(spec: BasisSpec, ts) -> BasisEvaluation:
    return _blend_tables(basis_tables(spec, ts), ts)


def _tb_form(shape: SurfaceShape, rule: QuadratureRule) -> np.ndarray:
    """F = L^T Q L (16 x 16) of one shape vector: the hybrid energy over the net."""
    u, v = (_pair_tables(spec, rule.nodes) for spec in shape.basis_specs(3, 3))
    return _forms(u, v, rule, net_map=_L)[0]


def tb_surface_jet(net: ControlNet, shape: SurfaceShape, us, vs) -> SurfaceJet:
    """Value and derivatives of S = R1 + R2 - T on a tensor grid."""
    require_blend_net(net, complete=True)
    c = (_L @ net.points.reshape(16, 3)).reshape(10, 10, 3)
    return _jet(*map(_pair_tables, shape.basis_specs(3, 3), (us, vs)), c)


def tb_dirichlet_energy(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    """1/2 sum_c P_c^T F P_c with F = L^T (K_F (x) M_H + M_F (x) K_H) L."""
    require_blend_net(net, complete=True)
    p = net.points.reshape(16, 3)
    p = p - p.mean(axis=0)  # F 1 = 0: centring costs no energy and saves a far offset's digits
    return float(0.5 * (p * (_tb_form(shape, rule) @ p)).sum())


def _tb_system(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> DenseSystem:
    """Reference route: the same normal equations from 2-D gradient fields.

    The interior points' coefficient fields come from R1 + R2 (T never touches
    the interior); the known part enters through the jet of the net with its
    interior anchored at zero.
    """
    free = net.free
    anchored = ControlNet(points=np.where(free[..., None], 0.0, net.points), fixed=np.ones_like(free))
    jet0 = tb_surface_jet(anchored, shape, rule.nodes, rule.nodes)

    bern = basis_tables(BasisSpec.bernstein(3), rule.nodes)
    gu, gv = (basis_tables(spec, rule.nodes) for spec in shape.basis_specs(3, 3))
    fi, fj = np.nonzero(free)
    phi_u = (
        bern.first[fi][:, :, None] * gv.values[fj][:, None, :]
        + gu.first[fi][:, :, None] * bern.values[fj][:, None, :]
    )
    phi_v = (
        bern.values[fi][:, :, None] * gv.first[fj][:, None, :]
        + gu.values[fi][:, :, None] * bern.first[fj][:, None, :]
    )
    return gradient_normal_system(phi_u, phi_v, jet0.Su, jet0.Sv, rule)


def solve_tb_interior(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> ControlNet:
    """Interior points minimizing the Dirichlet energy of the hybrid surface."""
    require_blend_net(net, complete=False)
    return _ExtremalFamily(_tb_form(shape, rule)[None], net, rule, f"{_BASES} at {shape}").extremal().net


def tb_reduced_functional_family(net: ControlNet, rule: QuadratureRule):
    """The swarm's hybrid fitness: prepares the 36 blocks of L^T Q L once and
    returns the family mapping a (k, 4) stack of shape vectors to k extremal
    energies, equal to ``tb_dirichlet_energy(solve_tb_interior(...))`` to
    rounding; ``minimize`` runs the swarm on it."""
    require_blend_net(net, complete=False)
    return _ExtremalFamily(_family_forms(_hybrid_forms, (), rule), net, rule, _BASES)


def _hybrid_forms(rule: QuadratureRule) -> np.ndarray:
    parts = _blend_tables(gt_affine_tables(3, rule.nodes), rule.nodes)
    for table in (parts.values, parts.first, parts.second):
        table[1:, :_G] = table[1:, _LIN:] = 0.0  # the Bernstein and linear rows are constant
    return _forms(parts, parts, rule, net_map=_L)  # both directions: cubic, on the same nodes


def optimize_tb(net: ControlNet, config: PsoConfig, rule: QuadratureRule) -> ShapeOptimum:
    """Swarm-minimize the hybrid surface energy over the shape vector."""
    return tb_reduced_functional_family(net, rule).minimize(config)
