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

``TbPatch`` is the hybrid as a surface value: its ``jet_at`` contracts the
tables with C by the tensor patch's ``SurfaceJet``, so ``patch``'s
``surface_jet``, ``dirichlet_energy`` and ``area`` evaluate it. With
Q = K_F (x) M_H + M_F (x) K_H from 1-D Gram matrices, the energy is 1/2 sum_c
P_c^T F P_c for the (m + 1)(n + 1)-point form F = L^T Q L, which the tensor
patch's form builder ``_forms`` gives with L as its net map. The GT rows carry
the shape affinely (``_blend_tables`` of GT part tables is the blend's parts),
so F is bi-quadratic in it, and its 36 blocks (``_hybrid_forms``) are the one
place the hybrid form is built: ``tb_reduced_functional_family`` is the
extremal engine on them, ``solve_tb_interior`` its extremal at one shape
vector (filling whichever interior points are unknown), and ``optimize_tb``
its ``minimize``. The independent reference reads the jet instead: the
quadrature energy ``tb_dirichlet_energy``, and in the tests
``gradient_normal_system`` on the jet. The ``coons`` command also writes R1
and R2 as meshes: ``component_grids`` contracts the net with the Bernstein and
GT row blocks of the surface jet's own tables, so the three meshes come from
one table evaluation.

Index convention: in P_ij, i always indexes u and j always indexes v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, gt_affine_tables
from .dirichlet import ShapeOptimum, _ExtremalFamily, _family_forms, _forms
from .dirichlet import gradient_normal_system  # noqa: F401  perfbench's tracer test reads it here
from .errors import ConfigurationError
from .numerics import QuadratureRule, freeze_arrays
from .patch import ControlNet, SurfaceJet, SurfaceShape, dirichlet_energy, surface_jet
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
    the GT tables' degree d and the linear ones around them. GT part tables
    (T0, T1, T2) give the blend's parts: the Bernstein and linear rows carry no
    shape, so they sit in T0's part and are zero in the other two."""
    d = gt.values.shape[-2] - 1
    fixed = basis_tables(BasisSpec.bernstein(d), ts), basis_tables(BasisSpec.bernstein(1), ts)

    def rows(name):
        g = getattr(gt, name)
        out = np.zeros(g.shape[:-2] + (2 * d + 4, g.shape[-1]))
        out[..., d + 1 : 2 * d + 2, :] = g
        head = out[(0,) * (g.ndim - 2)]  # T0's part, or the one table
        head[: d + 1], head[2 * d + 2 :] = (getattr(table, name) for table in fixed)
        return out

    return BasisEvaluation(*map(rows, ("values", "first", "second")))


@dataclass(frozen=True)
class TbPatch:
    """The hybrid surface of a complete net at one shape vector: a surface value
    like ``patch.Patch``, so the tensor patch's jet, energy and area read it."""

    net: ControlNet
    shape: SurfaceShape

    def __post_init__(self):
        if not self.net.is_complete:
            raise ConfigurationError("every control point must be known for evaluation")

    def jet_at(self, us, vs):
        """The map from a net of its degrees to the ``SurfaceJet`` on us x vs of its grid C = L P."""
        m, n = self.net.degree_u, self.net.degree_v
        tables = [_blend_tables(basis_tables(spec, ts), ts) for spec, ts in zip(self.shape.basis_specs(m, n), (us, vs))]
        grid_map = _coefficient_map(m, n).reshape(2 * m + 4, 2 * n + 4, m + 1, n + 1)
        return lambda points: SurfaceJet(*tables, np.tensordot(grid_map, points, 2))


def tb_surface_jet(net: ControlNet, shape: SurfaceShape, us, vs) -> SurfaceJet:
    """Value and derivatives of S = R1 + R2 - T on a tensor grid."""
    return surface_jet(TbPatch(net, shape), us, vs)


def component_grids(jet: SurfaceJet, patch: TbPatch) -> tuple[np.ndarray, np.ndarray]:
    """The value grids of R1 (Bernstein m x GT n) and R2 (GT m x Bernstein n) of
    the hybrid ``patch`` on the grid of its ``jet``, from the Bernstein and GT row
    blocks of the jet's own tables."""
    m, n = patch.net.degree_u, patch.net.degree_v

    def block(table, d, k):  # rows of block k: 0 Bernstein, 1 GT
        rows = slice(k * (d + 1), (k + 1) * (d + 1))
        return BasisEvaluation(table.values[rows], table.first[rows], table.second[rows])

    r1 = SurfaceJet(block(jet.tu, m, 0), block(jet.tv, n, 1), patch.net.points)
    r2 = SurfaceJet(block(jet.tu, m, 1), block(jet.tv, n, 0), patch.net.points)
    return r1.S, r2.S


def tb_dirichlet_energy(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    """(1/2) integral of |S_u|^2 + |S_v|^2: the tensor patch's quadrature energy of the hybrid."""
    return dirichlet_energy(TbPatch(net, shape), rule)


def solve_tb_interior(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> ControlNet:
    """Unknown interior points minimizing the Dirichlet energy of the hybrid
    surface: the extremal of the family's row at ``shape``, the net ``coons``
    writes at that shape vector."""
    return tb_reduced_functional_family(net, rule).extremal(shape.as_array()).net


def tb_reduced_functional_family(net: ControlNet, rule: QuadratureRule):
    """The hybrid's shape family, the one place its form is built: its 36 blocks
    of L^T Q L, prepared once, map a (k, 4) stack of shape vectors to k extremal
    energies (``tb_dirichlet_energy(solve_tb_interior(...))`` to rounding);
    ``extremal`` solves one row and ``minimize`` runs the swarm on it."""
    m, n = net.degree_u, net.degree_v
    forms = _family_forms(_hybrid_forms, (m, n), rule)
    return _ExtremalFamily(forms, net, rule, f"bernstein + gt blend of degrees ({m}, {n})")


def _hybrid_forms(m: int, n: int, rule: QuadratureRule) -> np.ndarray:
    u, v = (_blend_tables(gt_affine_tables(d, rule.nodes), rule.nodes) for d in (m, n))
    return _forms(u, v, rule, net_map=_coefficient_map(m, n))


def optimize_tb(net: ControlNet, config: PsoConfig, rule: QuadratureRule) -> ShapeOptimum:
    """Swarm-minimize the hybrid surface energy over the shape vector."""
    return tb_reduced_functional_family(net, rule).minimize(config)
