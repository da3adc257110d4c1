"""Shared low-level numerics.

Gauss-Legendre quadrature on [0, 1], SPD solves, independent seeded random
substreams, and central-difference utilities used as test oracles throughout
the package. A quadrature rule is an immutable value hashed by identity, one
object per Gauss order, so it can key a cache. Every system is the normal
equations of a positive-definite energy, so every solve is certified by
Cholesky and a residual bound, and fails with ``SolverError`` instead of
falling back to elimination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverError

MAX_QUADRATURE_ORDER = 256

#: Default central-difference step, balanced for unit-scale double data.
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on [0, 1].

    Nodes are strictly increasing inside (0, 1); weights are positive and sum
    to 1 (the interval length). A rule is an immutable value: it keeps
    read-only copies of its arrays, and is compared and hashed by identity.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ConfigurationError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ConfigurationError("a quadrature rule needs at least one node")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0) or np.any(np.diff(nodes) <= 0.0):
            raise ConfigurationError("nodes must be strictly increasing inside (0, 1)")
        if np.any(weights <= 0.0) or abs(weights.sum() - 1.0) > 1e-14:
            raise ConfigurationError("weights must be positive and sum to 1")

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_legendre_rule(k: int) -> QuadratureRule:
    """Return the k-node Gauss-Legendre rule mapped from [-1, 1] to [0, 1].

    Exact for polynomials of degree <= 2k - 1.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ConfigurationError("node count must be an integer")
    if not 1 <= k <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"node count must lie in [1, {MAX_QUADRATURE_ORDER}], got {k}"
        )
    return _gauss_legendre(int(k))


@functools.cache
def _gauss_legendre(k: int) -> QuadratureRule:  # one rule per order, so one form-cache key
    x, w = np.polynomial.legendre.leggauss(k)
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


@dataclass
class DenseSystem:
    """A dense symmetric linear system ``matrix @ X = rhs`` with K right-hand sides.

    Every system here is the normal equations of a quadratic energy, so
    near-symmetry is checked at construction time.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ConfigurationError("matrix must be square")
        n = self.matrix.shape[0]
        if self.rhs.shape[:1] != (n,) or self.rhs.ndim not in (1, 2):
            raise ConfigurationError("rhs must have one row per matrix row")
        _check_symmetric(self.matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _check_symmetric(matrix: np.ndarray) -> None:
    """Raise ConfigurationError unless every matrix of the stack (last two
    axes) is symmetric to 1e-10 of its largest entry."""
    axes = (-2, -1)
    gap = np.abs(matrix - np.swapaxes(matrix, -1, -2)).max(axis=axes, initial=0.0)
    scale = 1.0 + np.abs(matrix).max(axis=axes, initial=0.0)
    bad = gap >= 1e-10 * scale
    if bad.any():
        raise ConfigurationError(
            f"system must be symmetric but max asymmetry {gap[bad].max():.3e} exceeds tolerance"
        )


def _check_residual(matrix: np.ndarray, x: np.ndarray, b: np.ndarray) -> None:
    """Raise SolverError unless every solve of the stack meets the residual bound."""
    axes = (-2, -1)
    residual = np.abs(matrix @ x - b).max(axis=axes, initial=0.0)
    bound = 1e-9 * (1.0 + np.abs(b).max(axis=axes, initial=0.0))
    bad = ~np.isfinite(residual) | (residual >= bound)
    if bad.any():
        worst = np.flatnonzero(bad.ravel())[0]
        raise SolverError(
            f"solve residual {residual.ravel()[worst]:.3e} exceeds bound "
            f"{bound.ravel()[worst]:.3e}; system is numerically unusable"
        )


def solve_spd_stack(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a (k, n, n) stack of SPD systems with (k, n, r) right-hand sides.

    Every matrix is checked for symmetry, verified SPD by one stacked Cholesky
    (``SolverError`` when any factor fails), solved by one stacked LU solve,
    and held to a residual bound (``SolverError``). Each matrix goes through
    LAPACK on its own, so a system's solution does not depend on the rest of
    the stack. Returns the solutions and the (k, n) Cholesky pivots.
    """
    _check_symmetric(matrices)
    try:
        pivots = np.diagonal(np.linalg.cholesky(matrices), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "matrix is not positive definite (singular or indefinite to working precision)"
        ) from exc
    x = np.linalg.solve(matrices, rhs)
    _check_residual(matrices, x, rhs)
    return x, pivots


def solve_dense(system: DenseSystem) -> np.ndarray:
    """Solve one system by ``solve_spd_stack``; the solution is shaped like the rhs."""
    b = system.rhs.reshape(system.size, -1)
    return solve_spd_stack(system.matrix[None], b[None])[0][0].reshape(system.rhs.shape)


def pivot_ratio(matrix: np.ndarray) -> float:
    """Max/min pivot magnitude ratio, a cheap conditioning hint."""
    matrix = np.asarray(matrix, dtype=float)
    try:
        d = np.abs(np.diag(np.linalg.cholesky(matrix)))
    except np.linalg.LinAlgError:
        d = np.abs(np.diag(np.linalg.qr(matrix, mode="r")))
    if d.size == 0 or d.min() == 0.0:
        return float("inf")
    return float(d.max() / d.min())


def finite_diff_gradient(f, x, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h."""
    if not step > 0.0:
        raise ConfigurationError("finite-difference step must be positive")
    x = np.array(x, dtype=float)  # private copy; f sees perturbed snapshots only
    grad = np.empty(x.size)
    flat = x.ravel()
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        hi = float(f(x))
        flat[i] = saved - step
        lo = float(f(x))
        flat[i] = saved
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


class RngStream:
    """One independent, reproducible random substream.

    Streams with equal (seed, stream_id) replay identical draw sequences;
    distinct ids give statistically independent streams. A stream is stateful
    and must not be shared across concurrent workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")
        if not isinstance(stream_id, (int, np.integer)) or stream_id < 0:
            raise ConfigurationError("stream_id must be a nonnegative integer")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
