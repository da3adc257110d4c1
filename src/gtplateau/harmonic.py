"""Reconstruction of unknown control points from harmonicity.

Unknown points are chosen to minimize the integrated squared Laplacian
``int |S_uu + S_vv|^2`` of the Bernstein patch (the harmonic condition of
Monterde and Ugail, "On harmonic and biharmonic Bezier surfaces", CAGD 21,
2004). The Laplacian is linear in the control points, and its square has
degree at most 2m in u and 2n in v, so sampling it at the nodes of a
(max(m, n) + 1)-point Gauss rule, each row weighted by the root of its
quadrature weight, turns the integral into an exact sum of squares. The
unknowns are the least-squares solution of that sampled system. When the data
admit an exactly harmonic completion this recovers it; otherwise it is the
completion of least defect.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSpec, basis_tables
from .errors import ConfigurationError, ReconstructionError
from .numerics import QuadratureRule, gauss_legendre_rule
from .patch import ControlNet, Patch, SurfaceShape, laplacian_defect

#: Certificate threshold scale: defect < 1e-8 * (1 + scale^2).
CERTIFICATE_FACTOR = 1e-8


def defect_certificate_bound(net: ControlNet) -> float:
    return CERTIFICATE_FACTOR * (1.0 + net.scale() ** 2)


def harmonic_reconstruct(net: ControlNet) -> ControlNet:
    """Fill unknown points so the Bernstein patch is as harmonic as possible.

    Unknowns may sit anywhere, but the four corners must be known. Rows of the
    least-squares system are Gauss node pairs (a, b), columns are points
    (i, j): ``sqrt(w_a w_b) (G''_i(u_a) G_j(v_b) + G_i(u_a) G''_j(v_b))``.
    Rank deficiency (too little known data) raises a reconstruction error
    naming the deficiency.
    """
    if net.degree_u < 2 or net.degree_v < 2:
        raise ConfigurationError("harmonic reconstruction needs degree >= 2 in each direction")
    corner_fixed = net.fixed[[0, 0, -1, -1], [0, -1, 0, -1]]
    if not corner_fixed.all():
        raise ConfigurationError("harmonic reconstruction requires all four corners known")

    free_flat = net.free.ravel()
    unknowns = int(free_flat.sum())
    if unknowns == 0:
        return net.copy()

    rule = gauss_legendre_rule(max(net.degree_u, net.degree_v) + 1)
    root = np.sqrt(rule.weights)
    tu, tv = (
        basis_tables(BasisSpec.bernstein(degree), rule.nodes)
        for degree in (net.degree_u, net.degree_v)
    )
    design = np.kron((tu.second * root).T, (tv.values * root).T) + np.kron(
        (tu.values * root).T, (tv.second * root).T
    )
    known_points = np.where(net.fixed[..., None], net.points, 0.0).reshape(-1, 3)
    rhs = -(design[:, ~free_flat] @ known_points[~free_flat])
    solution, _, rank, _ = np.linalg.lstsq(design[:, free_flat], rhs, rcond=None)
    if rank < unknowns:
        raise ReconstructionError(
            f"harmonic system is rank deficient: rank {rank} < {unknowns} unknowns; "
            "the known points do not determine the rest"
        )

    result = net.copy()
    result.points[net.free] = solution
    return result


def bernstein_laplacian_defect(net: ControlNet, rule: QuadratureRule) -> float:
    """Certificate value: integrated squared Laplacian of the Bernstein patch."""
    if not net.is_complete:
        raise ConfigurationError("defect requires a fully known net")
    return laplacian_defect(Patch.bernstein(net), rule)


def defect_objective(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    """The tuning target F(alpha): Laplacian defect of the GT patch on this net."""
    if not net.is_complete:
        raise ConfigurationError("defect objective requires a fully known net")
    return laplacian_defect(Patch.gt(net, shape), rule)
