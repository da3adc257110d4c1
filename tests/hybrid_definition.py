"""The hybrid surface S = R1 + R2 - T, written pointwise from its definition.

The library evaluates S as one tensor patch over ten functions per direction;
these helpers evaluate R1, R2 and the GT-Coons correction T term by term.
"""

import numpy as np

from gtplateau.basis import BasisSpec, basis_tables

CUBIC = BasisSpec.bernstein(3)


def tb_components(net, shape, u: float, v: float):
    """(R1, R2, T) at one parameter point of a complete 4x4 net."""
    p = net.points
    gu_spec, gv_spec = shape.basis_specs(3, 3)
    bu, gu = (basis_tables(spec, [u]).values[:, 0] for spec in (CUBIC, gu_spec))
    bv, gv = (basis_tables(spec, [v]).values[:, 0] for spec in (CUBIC, gv_spec))
    r1 = np.einsum("i,j,ijc->c", bu, gv, p)
    r2 = np.einsum("i,j,ijc->c", gu, bv, p)
    edges = (1 - v) * (gu @ p[:, 0]) + v * (gu @ p[:, 3]) + (1 - u) * (gv @ p[0]) + u * (gv @ p[3])
    corners = (1 - u) * (1 - v) * p[0, 0] + (1 - u) * v * p[0, 3] + u * (1 - v) * p[3, 0] + u * v * p[3, 3]
    return r1, r2, edges - corners


def tb_coons(net, shape, u: float, v: float) -> np.ndarray:
    """The hybrid surface S = R1 + R2 - T at one parameter point."""
    r1, r2, t = tb_components(net, shape, u, v)
    return r1 + r2 - t
