"""The hybrid surface S = R1 + R2 - T, written pointwise from its definition,
and its normal equations from first principles.

The library evaluates S as one tensor patch over 2d + 4 functions per
direction; these helpers evaluate R1, R2 and the GT-Coons correction T term
by term, on a net of any degrees (m, n). ``tb_system`` is the reference the
hybrid's form is checked against.
"""

import numpy as np

from gtplateau.basis import BasisSpec, basis_tables
from gtplateau.coons import TbPatch
from gtplateau.dirichlet import gradient_normal_system
from gtplateau.patch import ControlNet


def tb_components(net, shape, u: float, v: float):
    """(R1, R2, T) at one parameter point of a complete (m + 1) x (n + 1) net."""
    p = net.points
    m, n = net.degree_u, net.degree_v
    gu_spec, gv_spec = shape.basis_specs(m, n)
    bu, gu = (basis_tables(spec, [u]).values[:, 0] for spec in (BasisSpec.bernstein(m), gu_spec))
    bv, gv = (basis_tables(spec, [v]).values[:, 0] for spec in (BasisSpec.bernstein(n), gv_spec))
    r1 = np.einsum("i,j,ijc->c", bu, gv, p)
    r2 = np.einsum("i,j,ijc->c", gu, bv, p)
    edges = (1 - v) * (gu @ p[:, 0]) + v * (gu @ p[:, -1]) + (1 - u) * (gv @ p[0]) + u * (gv @ p[-1])
    corners = (1 - u) * (1 - v) * p[0, 0] + (1 - u) * v * p[0, -1] + u * (1 - v) * p[-1, 0] + u * v * p[-1, -1]
    return r1, r2, edges - corners


def tb_coons(net, shape, u: float, v: float) -> np.ndarray:
    """The hybrid surface S = R1 + R2 - T at one parameter point."""
    r1, r2, t = tb_components(net, shape, u, v)
    return r1 + r2 - t


def tb_system(net, shape, rule):
    """The hybrid's normal equations for the net's unknowns: ``gradient_normal_system``
    on the jet of the hybrid at ``shape``. ``jet_at`` reads no points, so the patch
    is built on the net with its unknowns at 0."""
    zeroed = ControlNet(points=np.where(net.free[..., None], 0.0, net.points))
    return gradient_normal_system(TbPatch(zeroed, shape).jet_at(rule.nodes, rule.nodes), net, rule)
