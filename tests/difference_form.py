"""Difference-form oracles: first partials through the lower-degree basis.

The elevation recursion ``G_{k,n} = (1-t) G_{k,n-1} + t G_{k-1,n-1}`` writes
a degree-n derivative through the degree-(n-1) basis of the same family and
shape. The library differentiates termwise; these helpers take the other
route, so they check its partials independently.
"""

import numpy as np

from gtplateau.basis import BasisSpec, basis_tables
from gtplateau.errors import ConfigurationError
from gtplateau.patch import Patch


def lower(spec: BasisSpec) -> BasisSpec:
    """Same family and shape, one degree lower."""
    if spec.family == "bernstein":
        if spec.degree < 1:
            raise ConfigurationError("no Bernstein basis below degree 0")
        return BasisSpec(family="bernstein", degree=spec.degree - 1)
    if spec.degree < 3:
        raise ConfigurationError("no GT basis below degree 2")
    return BasisSpec(family="gt", degree=spec.degree - 1, theta=spec.theta)


def partials_difference(patch: Patch, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """(S_u, S_v) via the lower-degree difference identity.

    Writing C_i(v) for the v-contracted control rows, the elevation recursion
    gives S_u = sum_i (g_i + u g_i') dC_i + sum_i g_i' C_i with g_i the
    degree-(m-1) basis of the same family and shape, and symmetrically in v.
    Requires the lower-degree basis to exist (GT degree >= 3).
    """
    tu = basis_tables(patch.basis_u, [u])
    tv = basis_tables(patch.basis_v, [v])
    lu = basis_tables(lower(patch.basis_u), [u])
    lv = basis_tables(lower(patch.basis_v), [v])
    p = patch.net.points

    rows = np.einsum("jt,ijc->ic", tv.values, p)  # C_i(v), shape (m+1, 3)
    gu = lu.values[:, 0] + u * lu.first[:, 0]
    su = gu @ np.diff(rows, axis=0) + lu.first[:, 0] @ rows[:-1]

    cols = np.einsum("it,ijc->jc", tu.values, p)  # C_j(u), shape (n+1, 3)
    gv = lv.values[:, 0] + v * lv.first[:, 0]
    sv = gv @ np.diff(cols, axis=0) + lv.first[:, 0] @ cols[:-1]
    return su, sv
