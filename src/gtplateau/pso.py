"""Global-best particle swarm optimization on a box.

The velocity update pairs the first acceleration with the global best and the
second with the particle's personal best:

    v <- w v + c1 r1 (g - x) + c2 r2 (p - x)

with componentwise draws r1, r2. Updates are synchronous: every particle in
iteration t sees the global best settled at the end of iteration t - 1.

The objective is evaluated on stacks: it maps a (k, dims) array of positions
to k values, so a whole swarm costs one call. The initial swarm is iteration 0
of the one update: the bests start at +inf, and only later iterations draw,
move, clamp and evaluate. A frozen ``PsoConfig`` is checked once, where it is
built; its ``threads`` (else ``GT_PLATEAU_THREADS``, else 1, held to [1,
``MAX_THREADS``] by ``resolve_threads``) is fixed there and is an upper bound:
only when the initial swarm's call, timed on the calling thread, took at least
``POOL_MIN_SWARM_S`` is a thread pool built, which splits each later swarm
into one contiguous chunk per worker. A cheaper swarm runs sequentially, as a
pool's hand-off costs more than it saves. A chunk whose call raises a solver
failure is re-evaluated one row at a time, so only the failing particles score
+inf.

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

import contextlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import THETA_MAX, THETA_MIN
from .errors import ConfigurationError, SolverError
from .numerics import RngStream, freeze_arrays, integer, real_array

THREADS_ENV_VAR = "GT_PLATEAU_THREADS"

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


@dataclass(frozen=True, eq=False)
class PsoConfig:
    swarm_size: int = 50
    inertia: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    max_iters: int = 200
    bounds: np.ndarray = ((THETA_MIN, THETA_MAX),) * 4  # the shape domain, one row per component
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        for name, low in (("swarm_size", 1), ("max_iters", 0), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        object.__setattr__(self, "threads", resolve_threads(self.threads))
        for name in ("inertia", "c1", "c2"):
            value = real_array(getattr(self, name), name)
            if value.ndim:
                raise ConfigurationError(f"{name} must be a real number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, float(value))
        (bounds,) = freeze_arrays(self, "bounds")
        if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.shape[0] < 1:
            raise ConfigurationError("bounds must be a (dims, 2) array")
        if not np.all(np.isfinite(bounds)) or np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ConfigurationError("each bound must satisfy lower < upper")
        if not 0.0 <= self.inertia <= 1.0:
            raise ConfigurationError("inertia must lie in [0, 1]")
        if not (0.0 < self.c1 < math.inf and 0.0 < self.c2 < math.inf):
            raise ConfigurationError(f"accelerations c1, c2 must be finite and positive, got {self.c1}, {self.c2}")

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


def resolve_threads(threads: int | None) -> int:
    """Explicit setting wins; else the environment cap; else sequential; each in [1, MAX_THREADS]."""
    name, value = "threads", threads
    if threads is None:
        name, raw = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return integer(value, name, 1, MAX_THREADS)


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
    """Minimize ``objective``, a map from a (k, dims) stack to k values, over the box.

    Inner-solver failures score +inf rather than aborting the swarm. The history
    holds the non-increasing global best of each iteration, the initial swarm's at 0.
    """
    lo, hi = config.bounds.T
    width = hi - lo
    n = config.swarm_size
    dims = config.dims
    guarded = _guard(objective)

    streams = [RngStream(config.seed, i) for i in range(n)]

    def draw():  # (n, 2, dims): one call per particle stream, in particle order
        return np.array([stream.uniform(size=(2, dims)) for stream in streams])

    draws = draw()
    positions = lo + width * draws[:, 0]
    velocities = VELOCITY_INIT_FRACTION * width * (2.0 * draws[:, 1] - 1.0)
    personal_best = positions.copy()
    personal_values = np.full(n, math.inf)
    global_best = personal_best[0].copy()  # kept while every value is +inf: the strict < never fires
    global_value = math.inf
    history = []

    threads = min(config.threads, n)
    start = time.perf_counter()
    values = guarded(positions)
    if time.perf_counter() - start < POOL_MIN_SWARM_S:
        threads = 1
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else contextlib.nullcontext() as pool:
        for iteration in range(config.max_iters + 1):
            if iteration:  # the initial swarm, evaluated above, is iteration 0
                draws = draw()
                velocities = (
                    config.inertia * velocities
                    + config.c1 * draws[:, 0] * (global_best - positions)
                    + config.c2 * draws[:, 1] * (personal_best - positions)
                )
                positions = np.clip(positions + velocities, lo, hi)
                if pool is None:
                    values = guarded(positions)
                else:  # one contiguous chunk per worker; map preserves order
                    values = np.concatenate(list(pool.map(guarded, np.array_split(positions, threads))))
            improved = values < personal_values
            personal_best[improved] = positions[improved]
            personal_values[improved] = values[improved]
            best_index = int(np.argmin(personal_values))
            if personal_values[best_index] < global_value:
                global_value = float(personal_values[best_index])
                global_best = personal_best[best_index].copy()
            history.append(global_value)

    return PsoResult(
        position=global_best.copy(),
        value=global_value,
        history=np.array(history),
        evaluations=n * (config.max_iters + 1),
        positions=positions,
        velocities=velocities,
        personal_best=personal_best,
        personal_best_values=personal_values,
    )
