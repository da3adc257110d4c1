"""Interior control points extremizing the Dirichlet energy.

On a tensor-product patch the Dirichlet energy separates exactly. With K and
M the 1-D Gram matrices of the basis derivatives and values,

    K[a, b] = int G'_a G'_b dt,    M[a, b] = int G_a G_b dt,

the energy of the row-major flattened net P is

    E(P) = 1/2 P^T (K_u (x) M_v + M_u (x) K_v) P

for each coordinate. It is quadratic in the interior points, so stationarity
is one symmetric positive-definite linear system shared by the x/y/z
coordinates (one matrix, three right-hand sides).

Every such form comes from one builder, ``_forms``. A fixed basis gives one
form; GT tables are affine in each shape pair, T0 + t1 T1 + t2 T2, so K and M
are quadratic in it and a shape family has 36 forms. The hybrid of ``coons``
also hands the builder its map L from the net to its coefficient grid.

Every production solve is ``_ExtremalFamily``: the free/fixed split of a
stack of such forms on the net centred at the mean of its fixed points, then
one checked Cholesky of the weighted stack gives the interior, the energy
1/2 (c - x . rhs) and the max/min pivot hint. The "gram" route of
``solve_interior`` hands it one form. The swarm's fitness
``reduced_functional_family`` hands it the 36, and its ``minimize`` is the
shape search, returning its own winning extremal. Those 36 forms depend only
on the degrees and the rule, and ``_family_forms`` keeps them, read-only, for
the process, keyed by the rule object: rules are immutable, and there is one
per Gauss order. So does the hybrid's family, whose ``extremal`` at one shape
vector is also the hybrid's single-shape solve.
The independent reference reads the surface's jet, not a form:
``gradient_normal_system`` integrates the normal equations of any surface linear
in its net from the jets of unit nets. The "generic" route (with its own solve,
quadrature energy and pivot ratio) is it on the tensor patch's jet, and the
tests' hybrid reference is it on ``coons.TbPatch``'s. Every solve refuses a
rule too coarse for the bases (``check_rule``, shared with harmonic).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, check_theta_stack, gt_affine_tables
from .errors import ConfigurationError, SolverError
from .numerics import DenseSystem, QuadratureRule, _check_symmetric, pivot_ratio, solve_dense, solve_spd_stack
from .patch import SHAPE_NAMES, ControlNet, Patch, SurfaceShape, dirichlet_energy
from .pso import PsoConfig, PsoResult, optimize


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
        f"gt(degree={s.degree}, theta={s.theta})" if s.family == "gt"
        else f"bernstein(degree={s.degree})" for s in specs
    )


def _grams(parts: BasisEvaluation, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """(K, M) stacks of tables with their parts on axis 0 (a 2-D table is one
    part), one pair per product of parts a <= b in ``np.triu_indices`` order:
    for T0 + t1 T1 + t2 T2, K(t) = sum_p monomial_p(t) K[p] over the monomials
    (1, t1, t2, t1^2, t1 t2, t2^2)."""

    def gram(table):
        table = table.reshape((-1,) + table.shape[-2:])
        a, b = np.triu_indices(len(table))
        cross = (table[a] * rule.weights) @ np.swapaxes(table[b], -1, -2)
        return np.where((a != b)[:, None, None], cross + np.swapaxes(cross, -1, -2), cross)

    return gram(parts.first), gram(parts.values)


def _forms(parts_u: BasisEvaluation, parts_v: BasisEvaluation, rule: QuadratureRule, net_map=None) -> np.ndarray:
    """The Dirichlet forms K_u (x) M_v + M_u (x) K_v of every (u, v) pair of
    ``_grams`` products, u-major: one form for fixed tables, or 36 for two
    shape pairs, where forms[6p + q] multiplies u monomial p times v monomial q.

    A ``net_map`` L, from the net to the row-major coefficient grid, gives
    L^T (...) L one Kronecker factor at a time: the grid's form is never built.
    """
    k_u, m_u = _grams(parts_u, rule)
    k_v, m_v = _grams(parts_v, rule)
    p, q = np.indices((len(k_u), len(k_v))).reshape(2, -1)
    n_u, n_v = k_u.shape[-1], k_v.shape[-1]
    if net_map is None:
        def product(a, b):  # np.kron's products over the stack axis
            outer = a[:, :, None, :, None] * b[:, None, :, None, :]
            return outer.reshape(-1, n_u * n_v, n_u * n_v)
    else:
        by_u = net_map.reshape(n_u, -1)  # rows: u index; columns: (v index, net point)

        def product(a, b):  # sum_cd a[i, c] b[j, d] L[(c, d), r], laid out as (k, i, j, r)
            return b[:, None] @ (a @ by_u).reshape(len(a), n_u, n_v, -1)

    form = product(k_u[p], m_v[q]) + product(m_u[p], k_v[q])
    return form if net_map is None else net_map.T @ form.reshape(len(p), n_u * n_v, -1)


def assemble_coefficients(
    basis_u: BasisSpec, basis_v: BasisSpec, rule: QuadratureRule
) -> GramMatrices:
    """Quadrature values of the 1-D Gram matrices of both bases."""
    (k_u,), (m_u,) = _grams(basis_tables(basis_u, rule.nodes), rule)
    (k_v,), (m_v,) = _grams(basis_tables(basis_v, rule.nodes), rule)
    return GramMatrices(K_u=k_u, M_u=m_u, K_v=k_v, M_v=m_v)


def _require_plateau(net: ControlNet) -> np.ndarray:
    if not net.boundary_is_fixed():
        raise ConfigurationError("Plateau-type solves require every boundary point fixed")
    free = net.free
    if not free.any():
        raise ConfigurationError("empty system: the net has no unknown interior points")
    return free


def assemble_system(net: ControlNet, coeffs: GramMatrices) -> DenseSystem:
    """Normal equations of the form K_u (x) M_v + M_u (x) K_v of given Gram matrices.

    Unknown ordering is row-major over the grid.
    """
    _require_plateau(net)
    m, n = net.degree_u, net.degree_v
    if coeffs.M_u.shape != (m + 1, m + 1) or coeffs.M_v.shape != (n + 1, n + 1):
        raise ConfigurationError("Gram matrices do not match the net degrees")

    form = np.kron(coeffs.K_u, coeffs.M_v) + np.kron(coeffs.M_u, coeffs.K_v)
    return DenseSystem(*_free_split(form, net))


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


def _lift_shapes(alphas) -> np.ndarray:
    """A checked (k, 4) stack of shape vectors as (k, 2, 3): per pair (1, t1, t2)."""
    alphas = check_theta_stack(alphas, SHAPE_NAMES)
    if alphas.ndim != 2 or alphas.shape[1] != 4:
        raise ConfigurationError("shape vectors must be a (k, 4) array")
    return np.concatenate([np.ones((len(alphas), 2, 1)), alphas.reshape(-1, 2, 2)], axis=2)


def _shape_weights(alphas) -> np.ndarray:
    """(k, 36) weights of a family's forms: u monomial p times v monomial q,
    where a pair's monomials are the products of (1, t1, t2) in ``_grams``'s
    order: (1, t1, t2, t1^2, t1 t2, t2^2)."""
    lifted = _lift_shapes(alphas)
    t1, t2 = lifted[..., 1:2], lifted[..., 2:]
    mono = np.concatenate([lifted, t1 * lifted[..., 1:], t2 * t2], axis=-1)
    return (mono[:, 0, :, None] * mono[:, 1, None]).reshape(-1, 36)


class _ExtremalFamily:
    """Dirichlet extremals of a weighted stack of quadratic forms over the
    flattened net: one form for a fixed basis, or a shape family's 36, where
    forms[6p + q] multiplies monomial p of the u pair times q of the v.

    The split blocks are checked symmetric once per net, at construction, so
    the per-particle solve does not check again. Each row is weighted by its
    own matrix product and factored once, which gives its interior, energy
    1/2 (c - x . rhs) and max/min pivot hint independently of its stack. A
    family called on a (k, 4) stack of shape vectors gives k energies;
    ``extremal`` fills the net from one row, and ``minimize`` swarm-searches
    the shape vectors for the lowest.
    """

    def __init__(self, forms: np.ndarray, net: ControlNet, rule: QuadratureRule, bases: str):
        centred, self.centre = _solve_frame(net, rule, bases)
        matrix, rhs = _free_split(forms, centred)
        _check_symmetric(matrix)
        known = np.where(net.fixed[..., None], centred.points, 0.0).reshape(-1, 3)
        const = (known * (forms @ known)).sum(axis=(-2, -1))
        k = len(forms)
        self.blocks = np.concatenate([matrix.reshape(k, -1), rhs.reshape(k, -1), const[:, None]], 1)
        self.net, self.bases, self.n = net.copy(), bases, matrix.shape[-1]  # the caller's net may change

    def _solve(self, weights: np.ndarray):
        mixed = (weights[:, None] @ self.blocks)[:, 0]
        n = self.n
        b = mixed[:, n * n : -1].reshape(-1, n, 3)
        x, pivots = solve_spd_stack(mixed[:, : n * n].reshape(-1, n, n), b)
        return x, pivots, 0.5 * (mixed[:, -1] - (x * b).reshape(len(x), -1).sum(axis=1))

    def __call__(self, alphas) -> np.ndarray:
        return self._solve(_shape_weights(alphas))[-1]

    def extremal(self, alpha=None) -> ExtremalSolution:
        """The filled net of one shape vector, or of the one form when alpha is None."""
        weights = np.ones((1, 1)) if alpha is None else _shape_weights(np.reshape(alpha, (1, 4)))
        at = "" if alpha is None else " at " + ", ".join(
            f"{name}={np.format_float_positional(x, trim='-')}" for name, x in zip(SHAPE_NAMES, np.ravel(alpha))
        )
        try:
            x, pivots, energy = self._solve(weights)
        except SolverError as exc:
            raise SolverError(f"{exc} [bases: {self.bases}{at}]") from exc
        filled = self.net.copy()
        filled.points[self.net.free] = x[0] + self.centre
        hint = float(pivots[0].max() / pivots[0].min())
        return ExtremalSolution(net=filled, energy=float(energy[0]), system_condition_hint=hint, route="gram")

    def minimize(self, config: PsoConfig) -> ShapeOptimum:
        """The swarm's best shape vector on config's box, with its extremal."""
        if config.dims != 4:
            raise ConfigurationError("shape optimization needs 4-dimensional bounds")
        result = optimize(self, config)
        shape = SurfaceShape.from_iterable(result.position)
        return ShapeOptimum(**vars(self.extremal(result.position)), shape=shape, history=result.history, pso=result)


def gradient_normal_system(jet_at, net: ControlNet, rule: QuadratureRule) -> DenseSystem:
    """Normal equations A[q, r] = integral <grad phi_q, grad phi_r> of any surface
    linear in its net, from first principles.

    ``jet_at`` maps an (m+1, n+1, ...) net to its ``SurfaceJet`` on the rule's
    tensor grid. phi_q is the jet of the scalar net that is 1 at unknown q and 0
    elsewhere, all unknowns (row-major) in one (m+1, n+1, N) stack; the known
    part enters through the jet of the net with its unknowns at 0.
    """
    free = net.free
    units = np.eye(free.size)[:, free.ravel()].reshape(free.shape + (-1,))
    phi, known = jet_at(units), jet_at(np.where(free[..., None], 0.0, net.points))
    w2 = np.outer(rule.weights, rule.weights)[..., None]

    def inner(grad_phi, grad):  # sum over the grid of w_a w_b grad_phi[a, b, q] grad[a, b, ...]
        return np.tensordot(grad_phi * w2, grad, axes=([0, 1], [0, 1]))

    matrix = inner(phi.Su, phi.Su) + inner(phi.Sv, phi.Sv)
    rhs = -(inner(phi.Su, known.Su) + inner(phi.Sv, known.Sv))
    return DenseSystem(matrix=matrix, rhs=rhs)


def assemble_system_generic(
    net: ControlNet, basis_u: BasisSpec, basis_v: BasisSpec, rule: QuadratureRule
) -> DenseSystem:
    """Normal equations from first principles, ``gradient_normal_system`` on the tensor
    patch's jet: independent of assemble_system (no shared integrals), used as its oracle."""
    _require_plateau(net)
    zeroed = ControlNet(points=np.where(net.free[..., None], 0.0, net.points))  # jet_at reads no points
    return gradient_normal_system(Patch(basis_u, basis_v, zeroed).jet_at(rule.nodes, rule.nodes), net, rule)


@dataclass
class ExtremalSolution:
    """A solved net and the numbers a caller reports; route is "gram" (every
    ``_ExtremalFamily`` solve) or "generic" (the reference)."""

    net: ControlNet
    energy: float
    system_condition_hint: float
    route: str


@dataclass
class ShapeOptimum(ExtremalSolution):
    """A shape family's extremal at the swarm's best shape vector."""

    shape: SurfaceShape
    history: np.ndarray
    pso: PsoResult


def solve_interior(
    net: ControlNet,
    basis_u: BasisSpec,
    basis_v: BasisSpec,
    rule: QuadratureRule,
    route: str = "gram",
) -> ExtremalSolution:
    """Fill the unknown interior points with the Dirichlet extremal.

    Fixed points are carried over bit for bit. ``route`` picks the assembly:
    "gram" (production: the Kronecker-sum form through ``_ExtremalFamily``) or
    "generic" (first-principles, with the quadrature energy of the filled patch).
    """
    if basis_u.degree != net.degree_u or basis_v.degree != net.degree_v:
        raise ConfigurationError("basis degrees must match the net")
    if route not in ("gram", "generic"):
        raise ConfigurationError(f"unknown assembly route {route!r}")
    bases = describe_bases(basis_u, basis_v)
    if route == "gram":
        form = _forms(basis_tables(basis_u, rule.nodes), basis_tables(basis_v, rule.nodes), rule)
        return _ExtremalFamily(form, net, rule, bases).extremal()

    centred, centre = _solve_frame(net, rule, bases)
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


@functools.lru_cache(maxsize=8)
def _family_forms(build, degrees: tuple, rule: QuadratureRule) -> np.ndarray:
    """``build(*degrees, rule)``, a shape family's 36 forms, made once per
    builder, degrees and rule object and shared read-only. A degree-d tensor
    entry holds 36 (d + 1)^4 doubles: 0.37 MB at degree 5, 8.2 MB at degree 12."""
    forms = build(*degrees, rule)
    forms.flags.writeable = False
    return forms


def _tensor_forms(degree_u: int, degree_v: int, rule: QuadratureRule) -> np.ndarray:
    return _forms(gt_affine_tables(degree_u, rule.nodes), gt_affine_tables(degree_v, rule.nodes), rule)


def reduced_functional_family(net: ControlNet, rule: QuadratureRule) -> _ExtremalFamily:
    """J over the GT shape family of a net, its 36 blocks prepared once: the
    swarm's fitness maps a (k, 4) stack of shape vectors to k energies, each
    ``reduced_functional`` to rounding, and ``minimize`` runs the swarm."""
    forms = _family_forms(_tensor_forms, (net.degree_u, net.degree_v), rule)
    bases = f"gt(degree={net.degree_u}) x gt(degree={net.degree_v})"
    return _ExtremalFamily(forms, net, rule, bases)
