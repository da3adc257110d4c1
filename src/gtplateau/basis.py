"""Univariate basis families with values and first/second derivatives.

Two families are supported:

* the classical Bernstein basis of any degree, and
* a generalized trigonometric (GT) basis of degree >= 2, built from a
  two-parameter quadratic trigonometric seed by repeated Bezier-style degree
  elevation ``G_{k,n} = (1-t) G_{k,n-1} + t G_{k-1,n-1}`` (terms with k out of
  range are zero).

Derivatives of the GT family follow the differentiated elevation recursion,
seeded with the analytic derivatives of the trigonometric seed, so the
recursion base is exact and error does not accumulate through elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

#: Admissible closed interval for every shape parameter.
THETA_MIN = 0.5
THETA_MAX = 3.5

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class ShapePair:
    """Shape-parameter pair (theta1, theta2) of one parametric direction."""

    theta1: float
    theta2: float

    def __post_init__(self):
        theta1, theta2 = check_theta_stack([float(self.theta1), float(self.theta2)])
        object.__setattr__(self, "theta1", float(theta1))
        object.__setattr__(self, "theta2", float(theta2))


@dataclass(frozen=True)
class BasisSpec:
    """A basis family selection: Bernstein of degree >= 0, or GT of degree >= 2.

    ``shape`` is required for the GT family and must be None for Bernstein.
    """

    family: str
    degree: int
    shape: ShapePair | None = None

    def __post_init__(self):
        if self.family not in ("bernstein", "gt"):
            raise ConfigurationError(f"unknown basis family {self.family!r}")
        if not isinstance(self.degree, (int, np.integer)) or isinstance(self.degree, bool):
            raise ConfigurationError("degree must be an integer")
        object.__setattr__(self, "degree", int(self.degree))
        if self.family == "bernstein":
            if self.degree < 0:
                raise ConfigurationError("Bernstein degree must be >= 0")
            if self.shape is not None:
                raise ConfigurationError("Bernstein basis takes no shape parameters")
        else:
            if self.degree < 2:
                raise ConfigurationError("GT degree must be >= 2 (the seed is quadratic)")
            if not isinstance(self.shape, ShapePair):
                raise ConfigurationError("GT basis requires a ShapePair")

    @classmethod
    def bernstein(cls, degree: int) -> "BasisSpec":
        return cls(family="bernstein", degree=degree)

    @classmethod
    def gt(cls, degree: int, theta1: float, theta2: float) -> "BasisSpec":
        return cls(family="gt", degree=degree, shape=ShapePair(theta1, theta2))


@dataclass(frozen=True)
class BasisEvaluation:
    """Basis values and derivatives; rows k = 0..degree, columns follow t."""

    values: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _check_t(t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1:
        raise DomainError("t must be a scalar or a 1-D array")
    if t.size and (not np.all(np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0):
        raise DomainError("t must lie in [0, 1]")
    return t


def _bernstein_values(degree: int, t: np.ndarray) -> np.ndarray:
    k = np.arange(degree + 1)
    coeff = np.array([math.comb(degree, int(i)) for i in k], dtype=float)
    return coeff[:, None] * t[None, :] ** k[:, None] * (1.0 - t)[None, :] ** (degree - k)[:, None]


def _bernstein_tables(degree: int, t: np.ndarray):
    values = _bernstein_values(degree, t)
    first = np.zeros_like(values)
    second = np.zeros_like(values)
    if degree >= 1:
        low = _bernstein_values(degree - 1, t)
        first[:-1] -= low
        first[1:] += low
        first *= degree
    if degree >= 2:
        low2 = _bernstein_values(degree - 2, t)
        second[:-2] += low2
        second[1:-1] -= 2.0 * low2
        second[2:] += low2
        second *= degree * (degree - 1)
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

    return (
        np.stack([g0, g1, g2], axis=-2),
        np.stack([d0, d1, d2], axis=-2),
        np.stack([dd0, dd1, dd2], axis=-2),
    )


def _elevate(values, first, second, t):
    """One degree-elevation step applied to value/derivative tables (rows on axis -2)."""
    zero = np.zeros(values.shape[:-2] + (1, t.size))

    def shifted(table):
        return np.concatenate([table, zero], axis=-2), np.concatenate([zero, table], axis=-2)

    lo_v, hi_v = shifted(values)
    lo_1, hi_1 = shifted(first)
    lo_2, hi_2 = shifted(second)
    w = 1.0 - t
    return (
        w * lo_v + t * hi_v,
        -lo_v + w * lo_1 + hi_v + t * hi_1,
        -2.0 * lo_1 + w * lo_2 + 2.0 * hi_1 + t * hi_2,
    )


def _gt_tables(degree: int, th1, th2, t: np.ndarray):
    values, first, second = _gt_seed_tables(th1, th2, t)
    for _ in range(degree - 2):
        values, first, second = _elevate(values, first, second, t)
    return values, first, second


def check_theta_stack(thetas) -> np.ndarray:
    """Validate an array of shape parameters against the admissible interval.

    Raises the ``DomainError`` a ShapePair raises for the first offending entry
    (row-major), naming it theta1 or theta2 by the parity of its column.
    """
    thetas = np.asarray(thetas, dtype=float)
    bad = ~(np.isfinite(thetas) & (thetas >= THETA_MIN) & (thetas <= THETA_MAX))
    if bad.any():
        index = np.unravel_index(np.flatnonzero(bad)[0], thetas.shape)
        name = "theta1" if index[-1] % 2 == 0 else "theta2"
        raise DomainError(
            f"{name} must lie in [{THETA_MIN}, {THETA_MAX}], got {float(thetas[index])!r}"
        )
    return thetas


def gt_affine_tables(degree: int, t) -> BasisEvaluation:
    """Parts (T0, T1, T2) of the GT tables, which are affine in the shape pair.

    ``basis_tables(BasisSpec.gt(degree, th1, th2), t)`` equals
    ``T0 + th1 T1 + th2 T2`` to rounding, for values and both derivatives:
    the seed is affine in (th1, th2) and elevation is linear. Each array has
    shape (3, degree + 1, len(t)), the parts stacked on axis 0.
    """
    if degree < 2:
        raise ConfigurationError("GT degree must be >= 2 (the seed is quadratic)")
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
        values, first, second = _gt_tables(spec.degree, spec.shape.theta1, spec.shape.theta2, t)
    return BasisEvaluation(values=values, first=first, second=second)
