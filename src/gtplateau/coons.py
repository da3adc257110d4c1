"""The hybrid blended surface S = R1 + R2 - T on an (m + 1) x (n + 1) control net.

R1 is the tensor patch Bernstein m in u and GT n in v, R2 the reverse, and T
the GT-Coons blend of the net's four GT boundary curves. On the boundary the
GT terms cancel, so the patch edges are the Bernstein curves of the boundary
points for every shape vector; the shape moves only the interior. Both
degrees are at least 2, GT's floor.

Each term is a function of u times a function of v, so S is a tensor patch
over F = (B0..Bm, Gu0..Gum, 1-u, u) and H = (B0..Bn, Gv0..Gvn, 1-v, v), each
the ``basis_tables`` of Bernstein d, that direction's GT d and Bernstein 1
stacked (``_blend_tables``), whose (2m + 4) x (2n + 4) coefficient grid is
C = L P, with L the map ``_coefficient_map(m, n)`` of index arithmetic over
those three blocks:

* R1 and R2: C[B_i, Gv_j] = C[Gu_i, B_j] = P_ij;
* T's edges: C[Gu_i, 1-v] = -P_i0, C[Gu_i, v] = -P_in, C[1-u, Gv_j] = -P_0j
  and C[u, Gv_j] = -P_mj;
* T's corners: C[lin_a, lin_b] = +corner_ab, the point at (u, v) = (a, b).

Jets contract the tables with C by the tensor patch's ``SurfaceJet``. With
Q = K_F (x) M_H + M_F (x) K_H from 1-D Gram matrices, the energy is 1/2 sum_c
P_c^T F P_c for the (m + 1)(n + 1)-point form F = L^T Q L, which the tensor
patch's form builder ``_forms`` gives with L as its net map, and
``solve_tb_interior`` is the tensor patch's extremal engine on F: it fills
whichever interior points are unknown. The independent reference reads the
jet instead: ``_tb_system`` is ``gradient_normal_system`` on it, and
``tb_dirichlet_energy`` is the tensor patch's quadrature energy of it. The GT
rows of the tables carry the shape, affinely, so F is bi-quadratic in it: the
swarm's fitness ``tb_reduced_functional_family`` is the engine on its 36
blocks, and ``optimize_tb`` is that family's ``minimize``. The ``coons``
command also writes R1 and R2 as meshes: ``component_grids`` contracts the
net with the Bernstein and GT row blocks of the surface jet's own tables, so
the three meshes come from one table evaluation.

Index convention: in P_ij, i always indexes u and j always indexes v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, gt_affine_tables
from .dirichlet import ShapeOptimum, _ExtremalFamily, _family_forms, _forms, gradient_normal_system
from .errors import ConfigurationError
from .numerics import DenseSystem, QuadratureRule, freeze_arrays
from .patch import ControlNet, SurfaceJet, SurfaceShape, _quadrature_energy
from .pso import PsoConfig


@dataclass(frozen=True)
class CurveSpec:
    """A univariate curve: basis plus its control points."""

    basis: BasisSpec
    controls: np.ndarray

    def __post_init__(self):
        (controls,) = freeze_arrays(self, "controls")
        if controls.shape != (self.basis.degree + 1, 3):
            raise ConfigurationError(f"curve controls must have shape ({self.basis.degree + 1}, 3)")
        if not np.all(np.isfinite(controls)):
            raise ConfigurationError("curve controls must be finite")

    def at(self, ts) -> np.ndarray:
        return basis_tables(self.basis, ts).values.T @ self.controls


def _coefficient_map(m: int, n: int) -> np.ndarray:
    """L: the row-major (2m + 4) x (2n + 4) coefficient grid C = L P of an
    (m + 1) x (n + 1) net P, over each direction's blocks (Bernstein, GT, linear)."""
    gu, lu, gv, lv = m + 1, 2 * m + 2, n + 1, 2 * n + 2  # first rows of the GT and linear blocks
    L = np.zeros((2 * m + 4, 2 * n + 4, m + 1, n + 1))
    i, j = np.indices((m + 1, n + 1))
    L[i, gv + j, i, j] = 1.0  # R1
    L[gu + i, j, i, j] = 1.0  # R2
    k, l = np.arange(m + 1), np.arange(n + 1)
    L[gu + k, lv, k, 0] = L[gu + k, lv + 1, k, n] = -1.0  # T: sides v = 0, 1
    L[lu, gv + l, 0, l] = L[lu + 1, gv + l, m, l] = -1.0  # T: sides u = 0, 1
    a, b = np.indices((2, 2))
    L[lu + a, lv + b, m * a, n * b] = 1.0  # T's bilinear corner term
    return L.reshape(L.shape[0] * L.shape[1], -1)


def _blend_tables(gt: BasisEvaluation, ts) -> BasisEvaluation:
    """Rows (B_0..B_d, G_0..G_d, 1-t, t) of one direction: the Bernstein tables of
    the GT tables' degree d and the linear ones around them; stacked GT tables
    give a stack of blend tables."""
    b = basis_tables(BasisSpec.bernstein(gt.values.shape[-2] - 1), ts)
    lin = basis_tables(BasisSpec.bernstein(1), ts)
    lead = gt.values.shape[:-2]

    def rows(name):
        parts = (getattr(table, name) for table in (b, gt, lin))
        return np.concatenate([np.broadcast_to(p, lead + p.shape[-2:]) for p in parts], axis=-2)

    return BasisEvaluation(*map(rows, ("values", "first", "second")))


def _pair_tables(spec: BasisSpec, ts) -> BasisEvaluation:
    return _blend_tables(basis_tables(spec, ts), ts)


def _bases(net: ControlNet) -> str:
    return f"bernstein + gt blend of degrees ({net.degree_u}, {net.degree_v})"


def _tb_form(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> np.ndarray:
    """F = L^T Q L of one shape vector on the net's degrees: the hybrid energy over the net."""
    m, n = net.degree_u, net.degree_v
    u, v = (_pair_tables(spec, rule.nodes) for spec in shape.basis_specs(m, n))
    return _forms(u, v, rule, net_map=_coefficient_map(m, n))[0]


def _known_points(net: ControlNet) -> np.ndarray:
    """The net's points, for evaluating the patch: every one must be known."""
    if not net.is_complete:
        raise ConfigurationError("every control point must be known for evaluation")
    return net.points


def _tb_jet_at(net: ControlNet, shape: SurfaceShape, us, vs):
    """The hybrid's jet on us x vs as a function of a net of ``net``'s degrees,
    (m + 1, n + 1, ...): the tensor patch's ``SurfaceJet`` of its coefficient grid C = L P."""
    m, n = net.degree_u, net.degree_v
    tables = list(map(_pair_tables, shape.basis_specs(m, n), (us, vs)))
    grid_map = _coefficient_map(m, n).reshape(2 * m + 4, 2 * n + 4, m + 1, n + 1)
    return lambda points: SurfaceJet(*tables, np.tensordot(grid_map, points, 2))


def tb_surface_jet(net: ControlNet, shape: SurfaceShape, us, vs) -> SurfaceJet:
    """Value and derivatives of S = R1 + R2 - T on a tensor grid."""
    return _tb_jet_at(net, shape, us, vs)(_known_points(net))


def component_grids(jet: SurfaceJet, net: ControlNet) -> tuple[np.ndarray, np.ndarray]:
    """The value grids of R1 (Bernstein m x GT n) and R2 (GT m x Bernstein n) of
    ``net`` on the grid of its hybrid ``jet``, from the Bernstein and GT row
    blocks of the jet's own tables."""
    m, n = net.degree_u, net.degree_v

    def block(table, d, k):  # rows of block k: 0 Bernstein, 1 GT
        rows = slice(k * (d + 1), (k + 1) * (d + 1))
        return BasisEvaluation(table.values[rows], table.first[rows], table.second[rows])

    p = _known_points(net)
    r1 = SurfaceJet(block(jet.tu, m, 0), block(jet.tv, n, 1), p)
    r2 = SurfaceJet(block(jet.tu, m, 1), block(jet.tv, n, 0), p)
    return r1.S, r2.S


def tb_dirichlet_energy(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    """(1/2) integral of |S_u|^2 + |S_v|^2: the tensor patch's quadrature energy of
    the jet of the net centred at its mean (S ignores constants; a far offset keeps its digits)."""
    p = _known_points(net)
    return _quadrature_energy(_tb_jet_at(net, shape, rule.nodes, rule.nodes)(p - p.mean(axis=(0, 1))), rule)


def _tb_system(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> DenseSystem:
    """Reference route: the same normal equations, ``gradient_normal_system`` on the hybrid's jet."""
    return gradient_normal_system(_tb_jet_at(net, shape, rule.nodes, rule.nodes), net, rule)


def solve_tb_interior(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> ControlNet:
    """Unknown interior points minimizing the Dirichlet energy of the hybrid surface."""
    form = _tb_form(net, shape, rule)[None]
    return _ExtremalFamily(form, net, rule, f"{_bases(net)} at {shape}").extremal().net


def tb_reduced_functional_family(net: ControlNet, rule: QuadratureRule):
    """The swarm's hybrid fitness: prepares the 36 blocks of L^T Q L once and
    returns the family mapping a (k, 4) stack of shape vectors to k extremal
    energies, equal to ``tb_dirichlet_energy(solve_tb_interior(...))`` to
    rounding; ``minimize`` runs the swarm on it."""
    forms = _family_forms(_hybrid_forms, (net.degree_u, net.degree_v), rule)
    return _ExtremalFamily(forms, net, rule, _bases(net))


def _hybrid_forms(m: int, n: int, rule: QuadratureRule) -> np.ndarray:
    def parts(d):
        blend = _blend_tables(gt_affine_tables(d, rule.nodes), rule.nodes)
        for table in (blend.values, blend.first, blend.second):
            table[1:, : d + 1] = table[1:, 2 * d + 2 :] = 0.0  # the Bernstein and linear rows are constant
        return blend

    return _forms(parts(m), parts(n), rule, net_map=_coefficient_map(m, n))


def optimize_tb(net: ControlNet, config: PsoConfig, rule: QuadratureRule) -> ShapeOptimum:
    """Swarm-minimize the hybrid surface energy over the shape vector."""
    return tb_reduced_functional_family(net, rule).minimize(config)
