"""Harmonic nets: reconstruction, certificate and shape tuning from one Laplacian.

Unknown points are chosen to minimize the integrated squared Laplacian
``int |S_uu + S_vv|^2`` of the Bernstein patch (the harmonic condition of
Monterde and Ugail, "On harmonic and biharmonic Bezier surfaces", CAGD 21,
2004). The Laplacian is linear in the control points, and its square has
degree at most 2m in u and 2n in v, so sampling it at the nodes of a
(max(m, n) + 1)-point Gauss rule, each sample weighted by the root of its
quadrature weight, turns the integral into an exact sum of squares. The
unknowns are the least-squares solution of that sampled system. When the data
admit an exactly harmonic completion this recovers it; otherwise it is the
completion of least defect. The certificate is the sum of squares of the
same samples, and the GT tuner is a 9 x 9 Gram form of them (``defect_family``).
"""

from __future__ import annotations

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, gt_affine_tables
from .dirichlet import _lift_shapes, check_rule, describe_bases
from .errors import ConfigurationError, ReconstructionError
from .numerics import QuadratureRule, gauss_legendre_rule
from .patch import ControlNet

#: Certificate threshold scale: defect < 1e-8 * (1 + scale^2).
CERTIFICATE_FACTOR = 1e-8


def defect_certificate_bound(net: ControlNet) -> float:
    return CERTIFICATE_FACTOR * (1.0 + net.scale() ** 2)


def _laplacian_samples(tu: BasisEvaluation, tv: BasisEvaluation, points, rule: QuadratureRule):
    """Root-weighted Laplacian samples ``sqrt(w_a w_b) (S_uu + S_vv)`` (Q, Q, c) of the
    complete net ``points`` (m+1, n+1, c) at the rule's node pairs (a, b). Tables may
    carry leading part axes, (p, m+1, Q) and (q, n+1, Q), giving (p, q, Q, Q, c)."""
    root = np.sqrt(rule.weights)

    def term(u_table, v_table):  # (parts u..., a, c, parts v..., b)
        along_u = np.tensordot(u_table * root, points, axes=(-2, 0))
        return np.tensordot(along_u, v_table * root, axes=(-2, -2))

    lap = term(tu.second, tv.values) + term(tu.values, tv.second)
    lead = tu.values.ndim - 2
    return np.moveaxis(lap, (lead, lead + 1), (-3, -1))


def harmonic_reconstruct(net: ControlNet) -> ControlNet:
    """Fill unknown points so the Bernstein patch is as harmonic as possible.

    Unknowns may sit anywhere, but the four corners must be known. Rows of the
    least-squares system are Gauss node pairs (a, b), columns are points
    (i, j): the Laplacian samples of the net with P_ij = 1 and every other
    point 0, ``sqrt(w_a w_b) (G''_i(u_a) G_j(v_b) + G_i(u_a) G''_j(v_b))``.
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
    tu, tv = (
        basis_tables(BasisSpec.bernstein(degree), rule.nodes)
        for degree in (net.degree_u, net.degree_v)
    )
    units = np.eye(free_flat.size).reshape(net.points.shape[:2] + (-1,))
    design = _laplacian_samples(tu, tv, units, rule).reshape(-1, free_flat.size)
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
    specs = BasisSpec.bernstein(net.degree_u), BasisSpec.bernstein(net.degree_v)
    check_rule(net, rule, describe_bases(*specs))
    tu, tv = (basis_tables(spec, rule.nodes) for spec in specs)
    samples = _laplacian_samples(tu, tv, net.points, rule).ravel()
    return float(samples @ samples)


def defect_family(net: ControlNet, rule: QuadratureRule):
    """The tuning target, the GT patch's defect on a complete net, mapping a (k, 4)
    stack of shape vectors to k defects z^T G z, each row by its own product: the
    samples are sum_pq s_p(u pair) s_q(v pair) L_pq with s = (1, t1, t2), since the
    tables are affine in each pair, so z = s_u (x) s_v and G is the 9 x 9 Gram
    matrix of the L_pq, built on the net centred at its mean (L annihilates constants).
    """
    if not net.is_complete:
        raise ConfigurationError("defect objective requires a fully known net")
    check_rule(net, rule, f"gt(degree={net.degree_u}) x gt(degree={net.degree_v})")
    tu, tv = (gt_affine_tables(degree, rule.nodes) for degree in (net.degree_u, net.degree_v))
    centred = net.points - net.points.mean(axis=(0, 1))
    grids = _laplacian_samples(tu, tv, centred, rule).reshape(9, -1)
    gram = grids @ grids.T

    def defects(alphas) -> np.ndarray:
        lifted = _lift_shapes(alphas)
        z = (lifted[:, 0, :, None] * lifted[:, 1, None, :]).reshape(-1, 1, 9)
        return ((z @ gram) * z).sum(axis=(1, 2))

    return defects
