"""Global-best particle swarm optimization on a box.

The velocity update pairs the first acceleration with the global best and the
second with the particle's personal best:

    v <- w v + c1 r1 (g - x) + c2 r2 (p - x)

with componentwise draws r1, r2. Updates are synchronous: every particle in
iteration t sees the global best settled at the end of iteration t - 1.

The objective is evaluated on stacks: it maps a (k, dims) array of positions
to k values, so a whole swarm costs one call. The initial swarm is evaluated
on the driver thread, and that call is timed. ``threads`` (or
``GT_PLATEAU_THREADS``, at most ``MAX_THREADS``) is an upper bound: only when the call took at least
``POOL_MIN_SWARM_S`` is a thread pool built, and then each iteration's swarm
is split into one contiguous chunk per worker; a cheaper swarm runs every
iteration sequentially, because a pool's hand-off costs more than it saves.
A chunk whose call raises a solver failure is re-evaluated one row at a time,
so only the failing particles score +inf.

Determinism is a hard contract. Each particle owns an independent RngStream
keyed by (seed, particle index); initialization draws its position then its
velocity, and every iteration draws r1 then r2, one (2, dims) call per
particle and step, always in particle order on the driver thread. Chunks are
reassembled in particle order, so parallel runs replay sequential ones
whenever a particle's value does not depend on the chunk it is evaluated in
(true of the package's stacked fitnesses). Under the same condition the
clock-driven choice of a pool changes no value either.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .numerics import RngStream

THREADS_ENV_VAR = "GT_PLATEAU_THREADS"

_DEFAULT_BOUNDS = ((0.5, 3.5), (0.5, 3.5), (0.5, 3.5), (0.5, 3.5))

#: Initial velocities are uniform in +-(this fraction of each box width).
VELOCITY_INIT_FRACTION = 0.25

#: Seconds the initial whole-swarm call must take before a thread pool is
#: built. On a 2-core host, 2 threads lost 8-37% at 1-5.5 ms per call (degree
#: 5-8 tensor nets, 50 particles), broke even at 8 ms and won 40% at 14 ms
#: (degree 10). A cold process's first call can take twice its warm time.
POOL_MIN_SWARM_S = 0.005

#: Most fitness threads a swarm may use, from ``threads`` or ``GT_PLATEAU_THREADS``;
#: numpy's bundled OpenBLAS is built for at most 64 threads.
MAX_THREADS = 64


@dataclass
class PsoConfig:
    swarm_size: int = 50
    inertia: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    max_iters: int = 200
    bounds: np.ndarray = field(default_factory=lambda: np.array(_DEFAULT_BOUNDS))
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        counts = (self.swarm_size, self.max_iters, self.seed, 1 if self.threads is None else self.threads)
        for name, value in zip(("swarm_size", "max_iters", "seed", "threads"), counts):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("inertia", "c1", "c2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        try:
            self.bounds = np.asarray(self.bounds, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bounds must be a (dims, 2) array of numbers: {exc}") from exc
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2 or self.bounds.shape[0] < 1:
            raise ConfigurationError("bounds must be a (dims, 2) array")
        if not np.all(np.isfinite(self.bounds)) or np.any(
            self.bounds[:, 0] >= self.bounds[:, 1]
        ):
            raise ConfigurationError("each bound must satisfy lower < upper")
        if self.swarm_size < 1:
            raise ConfigurationError("swarm size must be >= 1")
        if not 0.0 <= self.inertia <= 1.0:
            raise ConfigurationError("inertia must lie in [0, 1]")
        if not (0.0 < self.c1 < math.inf and 0.0 < self.c2 < math.inf):
            raise ConfigurationError(
                f"accelerations c1, c2 must be finite and positive, got {self.c1}, {self.c2}"
            )
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")
        if self.threads is not None and self.threads < 1:
            raise ConfigurationError("threads must be >= 1 when given")
        if self.threads is not None and self.threads > MAX_THREADS:
            raise ConfigurationError(f"threads must be <= {MAX_THREADS}, got {self.threads}")

    @property
    def dims(self) -> int:
        return self.bounds.shape[0]


@dataclass
class PsoResult:
    """Global best with its per-iteration history, and the final swarm (one row per particle)."""

    position: np.ndarray
    value: float
    history: np.ndarray
    evaluations: int
    positions: np.ndarray
    velocities: np.ndarray
    personal_best: np.ndarray
    personal_best_values: np.ndarray


def project_to_bounds(x, bounds) -> np.ndarray:
    """Componentwise clamp onto the box; idempotent."""
    bounds = np.asarray(bounds, dtype=float)
    return np.clip(np.asarray(x, dtype=float), bounds[:, 0], bounds[:, 1])


def resolve_threads(threads: int | None) -> int:
    """Explicit setting wins; else the environment cap; else sequential."""
    if threads is not None:
        return int(threads)
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    if value > MAX_THREADS:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be <= {MAX_THREADS}, got {value}")
    return value


#: Failures of one fitness evaluation that score +inf instead of aborting the swarm.
_FITNESS_FAILURES = (SolverError, FloatingPointError, np.linalg.LinAlgError)


def _guard(objective):
    """Evaluate one chunk of positions; NaN and failed evaluations become +inf.

    A failure of the stacked call is pinned to its rows by evaluating them one
    at a time.
    """

    def call(points):
        try:
            values = np.asarray(objective(points), dtype=float)
        except _FITNESS_FAILURES:
            if len(points) == 1:
                return np.array([math.inf])
            return np.concatenate([call(points[i : i + 1]) for i in range(len(points))])
        if values.shape != (len(points),):
            raise ConfigurationError(
                f"objective must return one value per position: {len(points)} positions "
                f"gave shape {values.shape}"
            )
        return np.where(np.isnan(values), math.inf, values)

    return call


def optimize(objective, config: PsoConfig) -> PsoResult:
    """Minimize ``objective`` over the configured box.

    ``objective`` maps a (k, dims) stack of positions to an array of k values.
    Inner-solver failures count as +inf fitness rather than aborting the
    swarm. The returned history holds the global best value per iteration,
    including the initial swarm (index 0), and is non-increasing.
    """
    lo = config.bounds[:, 0]
    width = config.bounds[:, 1] - lo
    n = config.swarm_size
    dims = config.dims
    guarded = _guard(objective)

    streams = [RngStream(config.seed, i) for i in range(n)]

    def draw():  # (n, 2, dims): one call per particle stream, in particle order
        return np.array([stream.uniform(size=(2, dims)) for stream in streams])

    draws = draw()
    positions = lo + width * draws[:, 0]
    velocities = VELOCITY_INIT_FRACTION * width * (2.0 * draws[:, 1] - 1.0)

    threads = min(resolve_threads(config.threads), n)
    start = time.perf_counter()
    values = guarded(positions)
    if time.perf_counter() - start < POOL_MIN_SWARM_S:
        threads = 1
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        def evaluate_all(points):
            if pool is None:
                return guarded(points)
            # one contiguous chunk per worker; map preserves order
            return np.concatenate(list(pool.map(guarded, np.array_split(points, threads))))

        evaluations = n
        personal_best = positions.copy()
        personal_values = values.copy()
        best_index = int(np.argmin(personal_values))
        global_best = personal_best[best_index].copy()
        global_value = float(personal_values[best_index])
        history = [global_value]

        for iteration in range(1, config.max_iters + 1):
            draws = draw()
            velocities = (
                config.inertia * velocities
                + config.c1 * draws[:, 0] * (global_best - positions)
                + config.c2 * draws[:, 1] * (personal_best - positions)
            )
            positions = project_to_bounds(positions + velocities, config.bounds)

            values = evaluate_all(positions)
            evaluations += n
            improved = values < personal_values
            personal_best[improved] = positions[improved]
            personal_values[improved] = values[improved]
            best_index = int(np.argmin(personal_values))
            if personal_values[best_index] < global_value:
                global_value = float(personal_values[best_index])
                global_best = personal_best[best_index].copy()
            history.append(global_value)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)

    return PsoResult(
        position=global_best.copy(),
        value=global_value,
        history=np.array(history),
        evaluations=evaluations,
        positions=positions,
        velocities=velocities,
        personal_best=personal_best,
        personal_best_values=personal_values,
    )
