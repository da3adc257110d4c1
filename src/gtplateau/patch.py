"""Tensor-product surface patches over any pair of basis specs.

A patch is ``S(u, v) = sum_ij P_ij G_i(u) G_j(v)`` with independent basis
families per direction (Bernstein x Bernstein, GT x GT, or mixed). One jet,
``SurfaceJet``, is the only code that contracts basis tables with a net: it
gives the surface with its first and second partials on a tensor grid, and
computes only what is read, each grid when first read. ``surface_jet`` builds
it from the ``basis_tables`` of each direction, which also check the
parameters; the Dirichlet energy, surface area, mean-curvature grids and
uniform tessellation all read from it. It takes any trailing coordinates, so
the hybrid of ``coons``, the normal equations of ``dirichlet`` over a stack of
unit nets, and the Laplacian samples of ``harmonic`` (over root-weighted
tables) are jets too. The CLI writes a surface's mesh and curvature grid from
one jet (``triangulate_grid`` and ``fundamental_forms``). Area and
the curvature forms work on values scaled by a power of two, so neither
depends on the net's units; area and energy take the jet of the net centred
at its mean, so a translation costs them no digits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import BasisEvaluation, BasisSpec, basis_tables, check_theta_stack
from .errors import ConfigurationError
from .numerics import QuadratureRule, integer, real_array


#: Components of a surface shape vector, in order; domain errors name them.
SHAPE_NAMES = ("alpha1", "alpha2", "beta1", "beta2")


@dataclass(frozen=True)
class SurfaceShape:
    """Surface-level shape vector (alpha1, alpha2, beta1, beta2).

    The first pair modulates the u-direction basis, the second the
    v-direction; every component must lie in the admissible interval.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        values = check_theta_stack([getattr(self, name) for name in SHAPE_NAMES], SHAPE_NAMES)
        for name, value in zip(SHAPE_NAMES, values):
            object.__setattr__(self, name, float(value))

    @classmethod
    def from_iterable(cls, values) -> "SurfaceShape":
        values = list(values)
        if len(values) != 4:
            raise ConfigurationError("a surface shape needs exactly 4 components")
        return cls(*values)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha1, self.alpha2, self.beta1, self.beta2])

    def basis_specs(self, degree_u: int, degree_v: int) -> tuple[BasisSpec, BasisSpec]:
        """GT basis pair of the given degrees carrying this shape vector."""
        return BasisSpec.gt(degree_u, self.alpha1, self.alpha2), BasisSpec.gt(degree_v, self.beta1, self.beta2)


def boundary_mask(rows: int, cols: int) -> np.ndarray:
    mask = np.zeros((rows, cols), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


@dataclass(frozen=True, eq=False)
class ControlNet:
    """A (m+1) x (n+1) grid of 3-D control points with a fixed/known mask.

    Entries not marked fixed may be NaN (unknown, to be solved for). The
    default mask marks exactly the finite entries as fixed, as files mark
    unknowns by nulls; a given mask must be bool. Solvers fill the net's writable
    copies in place; no field can be reassigned, and nets compare and hash by identity.
    """

    points: np.ndarray
    fixed: np.ndarray | None = None

    def __post_init__(self):
        try:
            points = np.array(real_array(self.points, "points"))  # a writable copy
            fixed = None if self.fixed is None else np.array(self.fixed)
            if fixed is not None and fixed.dtype != bool:
                raise ValueError(f"fixed has dtype {fixed.dtype}")
        except (ConfigurationError, ValueError) as exc:
            raise ConfigurationError(f"points must be real numbers and fixed booleans, as arrays: {exc}") from exc
        if points.ndim != 3 or points.shape[2] != 3:
            raise ConfigurationError("points must be a (rows, cols, 3) array")
        if points.shape[0] < 2 or points.shape[1] < 2:
            raise ConfigurationError("a control net needs at least 2 points per direction")
        finite = np.all(np.isfinite(points), axis=-1)
        fixed = finite if fixed is None else fixed
        if fixed.shape != points.shape[:2]:
            raise ConfigurationError("fixed mask shape must match the point grid")
        if np.any(fixed & ~finite):
            raise ConfigurationError("fixed control points must have finite coordinates")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "fixed", fixed)

    @property
    def degree_u(self) -> int:
        return self.points.shape[0] - 1

    @property
    def degree_v(self) -> int:
        return self.points.shape[1] - 1

    @property
    def free(self) -> np.ndarray:
        return ~self.fixed

    @property
    def is_complete(self) -> bool:
        return bool(np.all(np.isfinite(self.points)))

    def boundary_is_fixed(self) -> bool:
        """True when every boundary entry is fixed (equivalently: free cells are interior)."""
        return bool(np.all(self.fixed[boundary_mask(*self.fixed.shape)]))

    def copy(self) -> "ControlNet":
        return ControlNet(points=self.points, fixed=self.fixed)  # the constructor copies both

    def scale(self) -> float:
        """Largest coordinate magnitude among known points (0 if none)."""
        known = self.points[self.fixed]
        if known.size == 0:
            return 0.0
        return float(np.abs(known).max())


@dataclass(frozen=True)
class Patch:
    """A fully determined tensor-product surface."""

    basis_u: BasisSpec
    basis_v: BasisSpec
    net: ControlNet

    def __post_init__(self):
        if self.basis_u.degree != self.net.degree_u or self.basis_v.degree != self.net.degree_v:
            raise ConfigurationError(
                f"basis degrees ({self.basis_u.degree}, {self.basis_v.degree}) do not match "
                f"net degrees ({self.net.degree_u}, {self.net.degree_v})"
            )
        if not self.net.is_complete:
            raise ConfigurationError("patch requires a fully known control net")

    @classmethod
    def bernstein(cls, net: ControlNet) -> "Patch":
        return cls(
            basis_u=BasisSpec.bernstein(net.degree_u),
            basis_v=BasisSpec.bernstein(net.degree_v),
            net=net,
        )

    @classmethod
    def gt(cls, net: ControlNet, shape: SurfaceShape) -> "Patch":
        bu, bv = shape.basis_specs(net.degree_u, net.degree_v)
        return cls(basis_u=bu, basis_v=bv, net=net)


def _grid(u: str, v: str):
    """A jet field: the net contracted with u table ``u`` and v table ``v`` when first read."""
    return functools.cached_property(lambda jet: jet._contract(u, v))


class SurfaceJet:
    """Value and derivative grids (U, V, ...) of the surface of ``points``
    (m+1, n+1, ...) over u tables (m+1, U) and v tables (n+1, V), for any
    trailing coordinates (a stack of nets is one more). The tables are kept as
    ``tu`` and ``tv``.

    Each grid is contracted the first time it is read, and each u table at most
    once, to rows (u node, coordinate): ``np.tensordot``'s products without its
    call overhead. A grid reads only its own two tables. The jet keeps a copy of
    ``points``, so a later change to the net does not reach it.
    """

    def __init__(self, tu: BasisEvaluation, tv: BasisEvaluation, points: np.ndarray):
        self.tu, self.tv, self._cols, self._trail = tu, tv, points.shape[1], points.shape[2:]
        self._flat = np.array(points).reshape(points.shape[0], -1)
        self._along_u = {}

    def _contract(self, u: str, v: str) -> np.ndarray:
        cols = self._cols
        c = self._flat.shape[1] // cols
        if u not in self._along_u:
            product = np.dot(getattr(self.tu, u).T, self._flat)
            self._along_u[u] = product.reshape(-1, cols, c).transpose(0, 2, 1).reshape(-1, cols)
        table = getattr(self.tv, v)
        grid = np.dot(self._along_u[u], table).reshape(-1, c, table.shape[1]).transpose(0, 2, 1)
        return grid.reshape(grid.shape[:2] + self._trail)

    S = _grid("values", "values")
    Su = _grid("first", "values")
    Sv = _grid("values", "first")
    Suu = _grid("second", "values")
    Suv = _grid("first", "first")
    Svv = _grid("values", "second")


def surface_jet(patch: Patch, us, vs) -> SurfaceJet:
    """Value, first and second partials of the patch on the grid us x vs."""
    return SurfaceJet(basis_tables(patch.basis_u, us), basis_tables(patch.basis_v, vs), patch.net.points)


def _quadrature_energy(jet: SurfaceJet, rule: QuadratureRule) -> float:
    """(1/2) integral of |S_u|^2 + |S_v|^2 from a jet on the rule's tensor grid."""
    integrand = 0.5 * ((jet.Su * jet.Su).sum(axis=-1) + (jet.Sv * jet.Sv).sum(axis=-1))
    return float(rule.weights @ integrand @ rule.weights)


def _centred_jet(patch: Patch, rule: QuadratureRule) -> SurfaceJet:
    """The jet on the rule's tensor grid of the net centred at its mean: S_u and
    S_v ignore translation, and centring saves a far offset's digits."""
    points = patch.net.points
    tu, tv = (basis_tables(basis, rule.nodes) for basis in (patch.basis_u, patch.basis_v))
    return SurfaceJet(tu, tv, points - points.mean(axis=(0, 1)))


def dirichlet_energy(patch: Patch, rule: QuadratureRule) -> float:
    """(1/2) integral of |S_u|^2 + |S_v|^2 over the unit square."""
    return _quadrature_energy(_centred_jet(patch, rule), rule)


def _cross(a, b):
    """Components of a x b from those of a and b, in ``np.cross``'s order of operations."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    """a . b from components, as ``(a * b).sum(axis=-1)`` adds them: in order, onto +0.0."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + 0.0


def area(patch: Patch, rule: QuadratureRule) -> float:
    """Integral of |S_u x S_v| over the unit square. The norm squares the cross
    product scaled by a power of two (exactly), so it overflows only where the
    cross product does."""
    jet = _centred_jet(patch, rule)
    cross = _cross(np.moveaxis(jet.Su, -1, 0), np.moveaxis(jet.Sv, -1, 0))
    _, exponent = np.frexp(np.abs(cross).max())
    cross = np.ldexp(cross, -exponent)
    integrand = np.sqrt(_dot(cross, cross))
    return float(np.ldexp(rule.weights @ integrand @ rule.weights, exponent))


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental form coefficients plus mean curvature.

    Fields are arrays over the sampled grid; H is NaN where the
    parameterization is too close to degenerate for a reliable normal.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if np.any(self.E < 0.0) or np.any(self.G < 0.0):
            raise ConfigurationError("first-form diagonal must be nonnegative")
        if np.any(np.abs(self.F) > np.sqrt(self.E) * np.sqrt(self.G) * (1.0 + 1e-12)):  # EG may overflow
            raise ConfigurationError("first-form discriminant violates Cauchy-Schwarz")


def fundamental_forms(su, sv, suu, suv, svv) -> FundamentalForms:
    """Forms from precomputed partials; normal n = S_u x S_v normalized.

    The first form is taken on S_u and S_v over 2^s, the power of two of their
    largest entry, and E, F, G and H are scaled back exactly, so nothing
    overflows and the units cancel. In those units, near-degenerate samples
    (EG - F^2 < 1e-12 (EG + 1)) get NaN second-form coefficients and H.
    """
    _, s = np.frexp(max(np.abs(su).max(), np.abs(sv).max()))
    su, sv = (np.moveaxis(np.ldexp(x, -s), -1, 0) for x in (su, sv))
    e, f, g = _dot(su, su), _dot(su, sv), _dot(sv, sv)
    disc = e * g - f * f
    cross = _cross(su, sv)
    norm = np.sqrt(_dot(cross, cross))
    degenerate = disc < 1e-12 * (e * g + 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        normal = [c / norm for c in cross]
        l, m, n = (_dot(np.moveaxis(x, -1, 0), normal) for x in (suu, suv, svv))
        h = (e * n - 2.0 * f * m + g * l) / (2.0 * disc)  # 4^s H: l, m, n are in the net's units

    nanval = np.where(degenerate, np.nan, 1.0)
    first = (np.ldexp(x, 2 * s) for x in (e, f, g))
    return FundamentalForms(*first, *(x * nanval for x in (l, m, n)), H=np.ldexp(h * nanval, -2 * s))


def mean_curvature_grid(patch: Patch, samples: int):
    """Forms and mean curvature on a uniform samples x samples grid.

    Returns (us, vs, FundamentalForms) with array fields of shape
    (samples, samples).
    """
    us = np.linspace(0.0, 1.0, integer(samples, "samples", 2))
    jet = surface_jet(patch, us, us)
    return us, us, fundamental_forms(jet.Su, jet.Sv, jet.Suu, jet.Suv, jet.Svv)


def triangulate_grid(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a (U, V, 3) point grid into vertices and consistently wound triangles.

    Vertex order is u-major: index(iu, iv) = iu * V + iv. Each cell yields the
    two triangles (v00, v10, v11) and (v00, v11, v01).
    """
    nu, nv = grid.shape[0], grid.shape[1]
    vertices = grid.reshape(nu * nv, 3)
    iu, iv = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    v00 = (iu * nv + iv).ravel()
    v10 = ((iu + 1) * nv + iv).ravel()
    v01 = (iu * nv + iv + 1).ravel()
    v11 = ((iu + 1) * nv + iv + 1).ravel()
    faces = np.concatenate(
        [np.stack([v00, v10, v11], axis=1), np.stack([v00, v11, v01], axis=1)], axis=0
    )
    return vertices, faces


def tessellate(patch: Patch, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform tessellation: (cells+1)^2 vertices, 2*cells^2 triangles."""
    params = np.linspace(0.0, 1.0, integer(cells, "cells", 1) + 1)
    return triangulate_grid(surface_jet(patch, params, params).S)
