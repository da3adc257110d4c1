"""Univariate basis families with values and first/second derivatives.

Two families are supported:

* the classical Bernstein basis of degree 0 to 1029, and
* a generalized trigonometric (GT) basis of degree 2 to 1031: a two-parameter
  quadratic trigonometric seed (g0, g1, g2) raised to degree n by Bezier
  degree elevation. Elevation is Bernstein's recursion, so the GT basis is
  the seed times the Bernstein basis of degree n - 2,
  ``G_{k,n} = sum_j g_j B_{k-j,n-2}`` (terms with k - j out of range are
  zero), and both derivatives follow by the product rule,
  ``G' = g'B + gB'`` and ``G'' = g''B + 2g'B' + gB''``.

A ``BasisSpec`` names one: its family, its degree and, for GT, the shape pair
``theta`` = (theta1, theta2) of its direction. Past the highest degree a
binomial of the Bernstein factor overflows a double, so the spec refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import integer, real_array

#: Admissible closed interval for every shape parameter.
THETA_MIN = 0.5
THETA_MAX = 3.5

_HALF_PI = 0.5 * np.pi

#: Highest Bernstein degree whose binomials all fit in a double: C(1030, 515)
#: does not. GT of degree n is built on Bernstein of degree n - 2.
_BERNSTEIN_MAX_DEGREE = 1029


def _check_gt_degree(degree: int) -> int:
    return integer(degree, "GT degree", 2, _BERNSTEIN_MAX_DEGREE + 2)  # the seed is quadratic


@dataclass(frozen=True)
class BasisSpec:
    """A basis family selection: Bernstein of degree 0..1029, or GT of degree 2..1031.

    ``theta``, one direction's shape pair (theta1, theta2), is required for the
    GT family (kept as a tuple of two floats) and must be None for Bernstein.
    """

    family: str
    degree: int
    theta: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in ("bernstein", "gt"):
            raise ConfigurationError(f"unknown basis family {self.family!r}")
        if self.family == "bernstein":
            object.__setattr__(self, "degree", integer(self.degree, "Bernstein degree", 0, _BERNSTEIN_MAX_DEGREE))
            if self.theta is not None:
                raise ConfigurationError("Bernstein basis takes no shape parameters")
        else:
            object.__setattr__(self, "degree", _check_gt_degree(self.degree))
            theta = None if self.theta is None else check_theta_stack(self.theta)
            if theta is None or theta.shape != (2,):
                raise ConfigurationError(f"GT basis requires theta = (theta1, theta2), got {self.theta!r}")
            object.__setattr__(self, "theta", tuple(theta.tolist()))

    @classmethod
    def bernstein(cls, degree: int) -> "BasisSpec":
        return cls(family="bernstein", degree=degree)

    @classmethod
    def gt(cls, degree: int, theta1: float, theta2: float) -> "BasisSpec":
        return cls(family="gt", degree=degree, theta=(theta1, theta2))


@dataclass(frozen=True)
class BasisEvaluation:
    """Basis values and derivatives; rows k = 0..degree, columns follow t."""

    values: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _check_t(t) -> np.ndarray:
    t = np.atleast_1d(real_array(t, "t"))
    if t.ndim != 1:
        raise ConfigurationError("t must be a scalar or a 1-D array of values in [0, 1]")
    if t.size and (not np.all(np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0):
        raise ConfigurationError("t must lie in [0, 1]")
    return t


def _bernstein_values(degree: int, t: np.ndarray) -> np.ndarray:
    k = np.arange(degree + 1)
    coeff = np.array([math.comb(degree, int(i)) for i in k], dtype=float)
    return coeff[:, None] * t[None, :] ** k[:, None] * (1.0 - t)[None, :] ** (degree - k)[:, None]


def _shift_sum(parts: np.ndarray) -> np.ndarray:
    """Rows ``out[k] = sum_j parts[j][k - j]`` (out-of-range terms zero); j on axis -3, k on -2."""
    *lead, count, rows, cols = parts.shape
    out = np.zeros((*lead, rows + count - 1, cols))
    for j in range(count):
        out[..., j:j + rows, :] += parts[..., j, :, :]
    return out


def _bernstein_tables(degree: int, t: np.ndarray):
    """Values, and derivatives from the differences of degrees n - 1 and n - 2."""
    values = _bernstein_values(degree, t)
    first, second = np.zeros_like(values), np.zeros_like(values)
    if degree >= 1:
        first = degree * _shift_sum(np.multiply.outer([-1.0, 1.0], _bernstein_values(degree - 1, t)))
    if degree >= 2:
        low2 = _bernstein_values(degree - 2, t)
        second = degree * (degree - 1) * _shift_sum(np.multiply.outer([1.0, -2.0, 1.0], low2))
    return values, first, second


def _gt_seed_tables(th1, th2, t: np.ndarray):
    """Quadratic seed values and analytic derivatives, rows k = 0, 1, 2.

    The shape parameters are scalars, giving (3, len(t)) tables, or (k, 1)
    columns, giving a (k, 3, len(t)) stack with one table per row.
    """
    s = np.sin(_HALF_PI * t)
    c = np.cos(_HALF_PI * t)

    g0 = 0.5 * th1 * (s * s - s) + c * c
    g2 = 0.5 * th2 * (c * c - c) + s * s
    g1 = 1.0 - g0 - g2

    a = 0.5 * th1 * (2.0 * s - 1.0) - 2.0 * s
    b = 0.5 * th2 * (1.0 - 2.0 * c) + 2.0 * c
    d0 = _HALF_PI * c * a
    d2 = _HALF_PI * s * b
    d1 = -d0 - d2

    dd0 = _HALF_PI**2 * (-s * a + c * c * (th1 - 2.0))
    dd2 = _HALF_PI**2 * (c * b + s * s * (th2 - 2.0))
    dd1 = -dd0 - dd2

    return tuple(np.stack(rows, axis=-2) for rows in ((g0, g1, g2), (d0, d1, d2), (dd0, dd1, dd2)))


def _gt_tables(degree: int, th1, th2, t: np.ndarray):
    """The seed times one Bernstein table of degree - 2, derivatives by the product rule."""
    g, dg, ddg = (x[..., :, None, :] for x in _gt_seed_tables(th1, th2, t))  # seed rows on axis -3
    b, db, ddb = _bernstein_tables(degree - 2, t)
    return _shift_sum(g * b), _shift_sum(dg * b + g * db), _shift_sum(ddg * b + 2.0 * dg * db + g * ddb)


def check_theta_stack(thetas, names=("theta1", "theta2")) -> np.ndarray:
    """Validate an array of shape parameters against the admissible interval.

    Raises ``ConfigurationError`` for input that is not real numbers, or for the
    first offending entry (row-major), naming it by its column:
    ``names[column % len(names)]``. Returns a read-only float copy.
    """
    thetas = real_array(thetas, ", ".join(names))
    bad = ~(np.isfinite(thetas) & (thetas >= THETA_MIN) & (thetas <= THETA_MAX))
    if bad.any():
        index = np.unravel_index(np.flatnonzero(bad)[0], thetas.shape)
        name = names[index[-1] % len(names)]
        raise ConfigurationError(
            f"{name} must lie in [{THETA_MIN}, {THETA_MAX}], got {float(thetas[index])!r}"
        )
    return thetas


def gt_affine_tables(degree: int, t) -> BasisEvaluation:
    """Parts (T0, T1, T2) of the GT tables, which are affine in the shape pair.

    ``basis_tables(BasisSpec.gt(degree, th1, th2), t)`` equals
    ``T0 + th1 T1 + th2 T2`` to rounding, for values and both derivatives:
    the seed is affine in (th1, th2) and its product with Bernstein is
    linear. Each array has shape (3, degree + 1, len(t)), the parts stacked
    on axis 0.
    """
    degree = _check_gt_degree(degree)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # tables T0, T0 + T1, T0 + T2
    at = _gt_tables(degree, corners[:, :1], corners[:, 1:], _check_t(t))
    return BasisEvaluation(*(np.stack([x[0], x[1] - x[0], x[2] - x[0]]) for x in at))


def basis_tables(spec: BasisSpec, t) -> BasisEvaluation:
    """Evaluate a whole basis family on an array of parameters.

    Returns arrays of shape (degree + 1, len(t)). This is the workhorse used
    by the surface, assembly, and blending modules.
    """
    t = _check_t(t)
    if spec.family == "bernstein":
        values, first, second = _bernstein_tables(spec.degree, t)
    else:
        values, first, second = _gt_tables(spec.degree, *spec.theta, t)
    return BasisEvaluation(values=values, first=first, second=second)
