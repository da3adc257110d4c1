"""Interior control points extremizing the Dirichlet energy.

On a tensor-product patch the Dirichlet energy separates exactly. With K and
M the 1-D Gram matrices of the basis derivatives and values,

    K[a, b] = int G'_a G'_b dt,    M[a, b] = int G_a G_b dt,

the energy of the row-major flattened net P is

    E(P) = 1/2 P^T (K_u (x) M_v + M_u (x) K_v) P

for each coordinate. It is quadratic in the interior points, so stationarity
is one symmetric positive-definite linear system shared by the x/y/z
coordinates (one matrix, three right-hand sides). Two independent assembly
routes are provided:

* ``assemble_system`` forms the Kronecker sum above from the four 1-D Gram
  matrices (the production route, "gram"), and
* ``assemble_system_generic`` builds the same normal equations directly from
  the 2-D gradient fields of the unknowns' scalar coefficient functions
  ("generic"), the independent reference.

Both integrate with the same quadrature rule, so they agree to rounding. The
blended patch of ``coons`` reuses the Gram product and the free/fixed split,
and the gradient engine behind the generic route is its reference as well.

The swarm's fitness ``reduced_functional_family`` uses that the GT tables
are affine in each shape pair: K and M are quadratic in it, so the free/fixed
split of the Kronecker sum is bi-quadratic in alpha, 36 blocks built once per
net and rule. A call weights them, then factors and solves the whole stack,
and its ``extremal`` is the swarm's winner. Every solve centres the net and
refuses a rule too coarse for the bases (``check_rule``, shared with harmonic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, check_theta_stack, gt_affine_tables
from .errors import ConfigurationError, SolverError
from .numerics import DenseSystem, QuadratureRule, pivot_ratio, solve_dense, solve_spd_stack
from .patch import ControlNet, Patch, SurfaceShape, dirichlet_energy


@dataclass(frozen=True)
class GramMatrices:
    """1-D Gram matrices of the u and v bases: K of derivatives, M of values.

    Each is (degree + 1) x (degree + 1) and symmetric.
    """

    K_u: np.ndarray
    M_u: np.ndarray
    K_v: np.ndarray
    M_v: np.ndarray


def describe_bases(*specs: BasisSpec) -> str:
    return " x ".join(
        f"gt(degree={s.degree}, theta=({s.shape.theta1}, {s.shape.theta2}))" if s.family == "gt"
        else f"bernstein(degree={s.degree})" for s in specs
    )


def _gram(tab: BasisEvaluation, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """(K, M) of one direction's tables, sampled at the rule's nodes.

    Tables may carry leading stack axes; each stacked table gets its own
    matrix product, so its Gram matrices do not depend on the stack.
    """
    w = rule.weights
    return (
        (tab.first * w) @ np.swapaxes(tab.first, -1, -2),
        (tab.values * w) @ np.swapaxes(tab.values, -1, -2),
    )


def _kron_sum(k_u: np.ndarray, m_u: np.ndarray, k_v: np.ndarray, m_v: np.ndarray) -> np.ndarray:
    """K_u (x) M_v + M_u (x) K_v over any leading stack axes (np.kron's products)."""

    def kron(a, b):
        rows = a.shape[-1] * b.shape[-1]
        outer = a[..., :, None, :, None] * b[..., None, :, None, :]
        return outer.reshape(outer.shape[:-4] + (rows, rows))

    return kron(k_u, m_v) + kron(m_u, k_v)


def assemble_coefficients(
    basis_u: BasisSpec, basis_v: BasisSpec, rule: QuadratureRule
) -> GramMatrices:
    """Quadrature values of the 1-D Gram matrices of both bases."""
    k_u, m_u = _gram(basis_tables(basis_u, rule.nodes), rule)
    k_v, m_v = _gram(basis_tables(basis_v, rule.nodes), rule)
    return GramMatrices(K_u=k_u, M_u=m_u, K_v=k_v, M_v=m_v)


def _require_plateau(net: ControlNet) -> np.ndarray:
    if not net.boundary_is_fixed():
        raise ConfigurationError("Plateau-type solves require every boundary point fixed")
    free = net.free
    if not free.any():
        raise ConfigurationError("empty system: the net has no unknown interior points")
    return free


def assemble_system(net: ControlNet, coeffs: GramMatrices) -> DenseSystem:
    """Normal equations from the Kronecker sum K_u (x) M_v + M_u (x) K_v.

    Unknown ordering is row-major over the grid.
    """
    _require_plateau(net)
    m, n = net.degree_u, net.degree_v
    if coeffs.M_u.shape != (m + 1, m + 1) or coeffs.M_v.shape != (n + 1, n + 1):
        raise ConfigurationError("Gram matrices do not match the net degrees")

    return _free_system(_kron_sum(coeffs.K_u, coeffs.M_u, coeffs.K_v, coeffs.M_v), net)


def check_rule(net: ControlNet, rule: QuadratureRule, bases: str) -> None:
    """Refuse a rule below max(m, n) + 1 nodes, the fewest that integrate the
    Bernstein Gram matrices and squared Laplacian exactly (fewer leave M singular)."""
    need = max(net.degree_u, net.degree_v) + 1
    if rule.order < need:
        msg = f"quadrature order {rule.order} is below {need}, the fewest nodes that resolve the bases"
        raise SolverError(f"{msg} [bases: {bases}]")


def _solve_frame(net: ControlNet, rule: QuadratureRule, bases: str) -> tuple[ControlNet, np.ndarray]:
    """(net centred at the mean of its fixed points, that mean) for a solve on
    a rule ``check_rule`` accepts: the energies annihilate constants, so
    centring saves a far offset's digits."""
    _require_plateau(net)
    check_rule(net, rule, bases)
    centre = net.points[net.fixed].mean(axis=0)
    return ControlNet(points=net.points - centre, fixed=net.fixed), centre


def _free_split(form: np.ndarray, net: ControlNet) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, rhs) of the normal equations of a quadratic form (or a stack
    of forms) over the row-major flattened net: free rows and columns kept,
    fixed columns moved to the right-hand side."""
    cols = net.free.ravel()
    rows = form[..., cols, :]
    fixed_points = net.points.reshape(-1, 3)[~cols]
    return rows[..., cols], -(rows[..., ~cols] @ fixed_points)


def _free_system(form: np.ndarray, net: ControlNet) -> DenseSystem:
    matrix, rhs = _free_split(form, net)
    return DenseSystem(matrix=matrix, rhs=rhs)


#: Monomials (1, t1, t2, t1^2, t1 t2, t2^2) of a pair as products t_a t_b, t_0 = 1.
_MONOMIALS = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2]))
#: (u, v) monomial indices of the 36 blocks of a bi-quadratic family.
_PAIRS = np.divmod(np.arange(36), 6)


def _lift_shapes(alphas) -> np.ndarray:
    """A checked (k, 4) stack of shape vectors as (k, 2, 3): per pair (1, t1, t2)."""
    alphas = check_theta_stack(alphas)
    if alphas.ndim != 2 or alphas.shape[1] != 4:
        raise ConfigurationError("shape vectors must be a (k, 4) array")
    return np.insert(alphas.reshape(-1, 2, 2), 0, 1.0, axis=2)


def _monomial_grams(parts: BasisEvaluation, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """(K, M) of tables T0 + t1 T1 + t2 T2, given the parts stacked on axis
    0, as (6, n, n) coefficient stacks: K(t) = sum_p monomial_p(t) K[p]."""
    a, b = _MONOMIALS

    def coefficients(table):
        cross = (table[a] * rule.weights) @ np.swapaxes(table[b], -1, -2)
        return np.where((a != b)[:, None, None], cross + np.swapaxes(cross, -1, -2), cross)

    return coefficients(parts.first), coefficients(parts.values)


class _ExtremalFamily:
    """Dirichlet extremals over a shape family, where forms[6p + q] over the
    flattened net multiplies monomial p of the u pair times q of the v.

    Called on a (k, 4) stack of shape vectors it gives k energies, E = 1/2
    (c - sum x . rhs) from the split made once on the centred net. Each row is
    weighted by its own matrix product, so it does not depend on its stack, and
    ``extremal`` solves one vector by the same code: its energy is the row's.
    """

    def __init__(self, forms: np.ndarray, net: ControlNet, rule: QuadratureRule, bases: str):
        centred, self.centre = _solve_frame(net, rule, bases)
        matrix, rhs = _free_split(forms, centred)
        known = np.where(net.fixed[..., None], centred.points, 0.0).reshape(-1, 3)
        const = (known * (forms @ known)).sum(axis=(-2, -1))
        self.blocks = np.concatenate([matrix.reshape(36, -1), rhs.reshape(36, -1), const[:, None]], 1)
        self.net, self.bases, self.n = net, bases, matrix.shape[-1]

    def _solve(self, alphas):
        lifted = _lift_shapes(alphas)
        mono = lifted[..., _MONOMIALS[0]] * lifted[..., _MONOMIALS[1]]
        mixed = ((mono[:, 0, :, None] * mono[:, 1, None]).reshape(-1, 1, 36) @ self.blocks)[:, 0]
        n = self.n
        b = mixed[:, n * n : -1].reshape(-1, n, 3)
        x, pivots = solve_spd_stack(mixed[:, : n * n].reshape(-1, n, n), b)
        return x, pivots, 0.5 * (mixed[:, -1] - (x * b).reshape(len(x), -1).sum(axis=1))

    def __call__(self, alphas) -> np.ndarray:
        return self._solve(alphas)[-1]

    def extremal(self, alpha) -> ExtremalSolution:
        try:
            x, pivots, energy = self._solve(np.reshape(alpha, (1, 4)))
        except SolverError as exc:
            raise SolverError(f"{exc} [bases: {self.bases} at {alpha}]") from exc
        filled = self.net.copy()
        filled.points[self.net.free] = x[0] + self.centre
        hint = float(pivots[0].max() / pivots[0].min())
        return ExtremalSolution(net=filled, energy=float(energy[0]), system_condition_hint=hint, route="family")


def gradient_normal_system(phi_u, phi_v, fixed_su, fixed_sv, rule: QuadratureRule) -> DenseSystem:
    """Normal equations for any surface affine in its unknowns.

    ``phi_u``/``phi_v`` hold the gradient grids (q, U, V) of each unknown's
    scalar coefficient field on the tensor quadrature grid; ``fixed_su``/
    ``fixed_sv`` are the (U, V, 3) gradients of the fully known part. This is
    the shared engine behind the generic tensor-patch route and the blended
    -patch interior solve.
    """
    w2 = np.outer(rule.weights, rule.weights)
    pu = phi_u * w2
    pv = phi_v * w2
    matrix = np.tensordot(pu, phi_u, axes=([1, 2], [1, 2])) + np.tensordot(
        pv, phi_v, axes=([1, 2], [1, 2])
    )
    rhs = -(
        np.tensordot(pu, fixed_su, axes=([1, 2], [0, 1]))
        + np.tensordot(pv, fixed_sv, axes=([1, 2], [0, 1]))
    )
    return DenseSystem(matrix=matrix, rhs=rhs)


def assemble_system_generic(
    net: ControlNet, basis_u: BasisSpec, basis_v: BasisSpec, rule: QuadratureRule
) -> DenseSystem:
    """Normal equations from first principles: A[q,r] = intgrl <grad phi_q, grad phi_r>.

    phi for unknown P_ab is the scalar field G_a(u) G_b(v); the fixed part
    enters through its gradient. Independent of assemble_system (no shared
    integrals), used as its oracle.
    """
    free = _require_plateau(net)
    tu = basis_tables(basis_u, rule.nodes)
    tv = basis_tables(basis_v, rule.nodes)

    fi, fj = np.nonzero(free)
    phi_u = tu.first[fi][:, :, None] * tv.values[fj][:, None, :]
    phi_v = tu.values[fi][:, :, None] * tv.first[fj][:, None, :]

    anchored = np.where(net.fixed[..., None], net.points, 0.0)
    fixed_su = np.einsum("iu,jv,ijc->uvc", tu.first, tv.values, anchored)
    fixed_sv = np.einsum("iu,jv,ijc->uvc", tu.values, tv.first, anchored)
    return gradient_normal_system(phi_u, phi_v, fixed_su, fixed_sv, rule)


@dataclass
class ExtremalSolution:
    """A solved net and the numbers a caller reports; route is "gram", "generic" or "family"."""

    net: ControlNet
    energy: float
    system_condition_hint: float
    route: str


def solve_interior(
    net: ControlNet,
    basis_u: BasisSpec,
    basis_v: BasisSpec,
    rule: QuadratureRule,
    route: str = "gram",
) -> ExtremalSolution:
    """Fill the unknown interior points with the Dirichlet extremal.

    Fixed points are carried over bit for bit. ``route`` picks the assembly:
    "gram" (production) or "generic" (first-principles).
    """
    if basis_u.degree != net.degree_u or basis_v.degree != net.degree_v:
        raise ConfigurationError("basis degrees must match the net")
    if route not in ("gram", "generic"):
        raise ConfigurationError(f"unknown assembly route {route!r}")
    bases = describe_bases(basis_u, basis_v)
    centred, centre = _solve_frame(net, rule, bases)
    if route == "gram":
        system = assemble_system(centred, assemble_coefficients(basis_u, basis_v, rule))
    else:
        system = assemble_system_generic(centred, basis_u, basis_v, rule)

    try:
        solution = solve_dense(system)
    except SolverError as exc:
        raise SolverError(f"{exc} [bases: {bases}]") from exc

    filled = net.copy()
    filled.points[net.free] = solution + centre
    energy = dirichlet_energy(Patch(basis_u=basis_u, basis_v=basis_v, net=filled), rule)
    hint = pivot_ratio(system.matrix)
    return ExtremalSolution(net=filled, energy=energy, system_condition_hint=hint, route=route)


def reduced_functional(net: ControlNet, shape: SurfaceShape, rule: QuadratureRule) -> float:
    """J(alpha): energy of the GT Dirichlet extremal on the given boundary."""
    bu, bv = shape.basis_specs(net.degree_u, net.degree_v)
    return solve_interior(net, bu, bv, rule).energy


def reduced_functional_family(net: ControlNet, rule: QuadratureRule) -> _ExtremalFamily:
    """J over the GT shape family of a net, its 36 blocks prepared once: the
    swarm's fitness maps a (k, 4) stack of shape vectors to k energies, each
    ``reduced_functional`` to rounding, and ``extremal`` gives the winner."""
    k_u, m_u = _monomial_grams(gt_affine_tables(net.degree_u, rule.nodes), rule)
    k_v, m_v = _monomial_grams(gt_affine_tables(net.degree_v, rule.nodes), rule)
    p, q = _PAIRS
    bases = f"gt(degree={net.degree_u}) x gt(degree={net.degree_v})"
    return _ExtremalFamily(_kron_sum(k_u[p], m_u[p], k_v[q], m_v[q]), net, rule, bases)
