"""The hybrid surface S = R1 + R2 - T, written pointwise from its definition.

The library evaluates S as one tensor patch over 2d + 4 functions per
direction; these helpers evaluate R1, R2 and the GT-Coons correction T term
by term, on a net of any degrees (m, n).
"""

import numpy as np

from gtplateau.basis import BasisSpec, basis_tables


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
