"""Particle swarm: determinism, update-rule semantics, guards, threading."""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtplateau.pso as pso
from gtplateau.basis import THETA_MAX, THETA_MIN
from gtplateau.dirichlet import reduced_functional, solve_interior
from gtplateau.errors import ConfigurationError, SolverError
from gtplateau.numerics import RngStream
from gtplateau.patch import Patch, SurfaceShape, area
from gtplateau.pso import (
    MAX_THREADS,
    POOL_MIN_SWARM_S,
    THREADS_ENV_VAR,
    VELOCITY_INIT_FRACTION,
    PsoConfig,
    PsoResult,
    optimize,
    resolve_threads,
)
from rowwise import rowwise

UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0]])


def sphere(x: np.ndarray) -> float:
    return float(((x - 2.0) ** 2).sum())


#: Counts that PsoConfig must accept (small integers of either kind) or refuse.
COUNTS = st.one_of(
    st.integers(-2, 4), st.integers(-2, 4).map(np.int64), st.booleans(),
    st.floats(allow_nan=True), st.sampled_from([2.0, np.float64(3.0), "3", None]),
)
#: Values that no real-valued field nor the bounds accept.
NOT_REALS = st.sampled_from([None, "1.5", "ab", True, False, np.True_, [1.0], [[0.0, 1.0], [2.0]]])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bounds": [0.0, 1.0]},
            {"bounds": np.empty((0, 2))},
            {"bounds": [[1.0, 1.0]]},
            {"bounds": [[0.0, np.inf]]},
            {"swarm_size": 0},
            {"inertia": -0.1},
            {"inertia": 1.5},
            {"c1": 0.0},
            {"c2": -1.0},
            {"max_iters": -1},
            {"seed": -1},
            {"threads": 0},
            {"threads": MAX_THREADS + 1},
            {"threads": np.int64(100_000)},
            {"c1": math.nan},
            {"c2": math.inf},
            {"swarm_size": 2.5},
            {"swarm_size": True},
            {"max_iters": math.nan},
            {"max_iters": 3.0},
            {"seed": "0"},
            {"seed": np.float64(1.0)},
            {"threads": 1.5},
            {"threads": False},
            {"inertia": None},
            {"inertia": True},
            {"c1": "1.5"},
            {"c2": [1.0]},
            {"c2": np.True_},
            {"bounds": "ab"},
            {"bounds": [[0.0, 1.0], [2.0]]},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            PsoConfig(**kwargs)

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        "swarm_size": COUNTS, "max_iters": COUNTS, "seed": COUNTS | st.just(2**70), "threads": COUNTS,
        "inertia": st.floats(-0.5, 1.5) | NOT_REALS
        | st.sampled_from([math.nan, math.inf, np.float32(0.5), np.int64(1)]),
        "c1": st.floats(-1.0, 3.0) | st.sampled_from([math.nan, math.inf, 2]) | NOT_REALS,
        "c2": st.floats(-1.0, 3.0).map(np.float64) | NOT_REALS,
        "bounds": NOT_REALS
        | st.sampled_from([[[0.0, 1.0]], [[1.0, 0.0]], [[0.0, math.nan]], [[-1.0, 1.0], [2.0, 5.0]]]),
    }))
    def test_invalid_fields_raise_configuration_error(self, kwargs):
        # every config is either refused with ConfigurationError or runs a swarm
        try:
            config = PsoConfig(**kwargs)
        except ConfigurationError:
            return
        result = optimize(lambda x: np.sum(x * x, axis=1), config)
        assert len(result.history) == config.max_iters + 1
        assert result.evaluations == config.swarm_size * (config.max_iters + 1)
        assert np.all(np.clip(result.positions, *config.bounds.T) == result.positions)

    def test_default_box_is_shape_domain(self):
        config = PsoConfig()
        assert config.dims == 4
        np.testing.assert_array_equal(config.bounds[:, 0], 0.5)
        np.testing.assert_array_equal(config.bounds[:, 1], 3.5)
        # one source: the box is the interval every shape parameter is checked against
        np.testing.assert_array_equal(config.bounds, [[THETA_MIN, THETA_MAX]] * 4)


class TestOptimize:
    def test_sphere_converges(self):
        result = optimize(rowwise(sphere), PsoConfig(seed=42))
        assert np.abs(result.position - 2.0).max() < 1e-3
        assert result.value < 1e-6

    def test_history_contract(self):
        config = PsoConfig(swarm_size=12, max_iters=30, seed=5, bounds=UNIT_BOX)
        result = optimize(rowwise(lambda x: float(np.cos(9.0 * x).sum())), config)
        assert result.history.shape == (31,)
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.evaluations == 12 * 31
        assert result.history[-1] == result.value
        assert len(result.history) - 1 == config.max_iters

    def test_constant_objective(self):
        config = PsoConfig(swarm_size=4, max_iters=7, seed=1, bounds=UNIT_BOX)
        result = optimize(rowwise(lambda x: 5.0), config)
        assert np.all(result.history == 5.0)
        assert result.history.shape == (8,)

    def test_zero_iterations_reports_initial_swarm(self):
        config = PsoConfig(swarm_size=3, max_iters=0, seed=9, bounds=UNIT_BOX)
        result = optimize(rowwise(sphere), config)
        assert result.history.shape == (1,) and result.evaluations == 3

        # replay the initialization draws: position first, then velocity
        lo, width = UNIT_BOX[:, 0], UNIT_BOX[:, 1] - UNIT_BOX[:, 0]
        best = math.inf
        for i in range(3):
            stream = RngStream(9, i)
            position = lo + width * stream.uniform(size=2)
            stream.uniform(size=2)
            best = min(best, sphere(position))
        assert result.history[0] == best

    def test_runs_replay_exactly(self):
        config = PsoConfig(swarm_size=8, max_iters=12, seed=13, bounds=UNIT_BOX)
        first = optimize(rowwise(sphere), config)
        second = optimize(rowwise(sphere), PsoConfig(swarm_size=8, max_iters=12, seed=13, bounds=UNIT_BOX))
        np.testing.assert_array_equal(first.history, second.history)
        np.testing.assert_array_equal(first.position, second.position)
        np.testing.assert_array_equal(first.positions, second.positions)

    def test_seed_changes_trajectory(self):
        result_a = optimize(rowwise(sphere), PsoConfig(swarm_size=8, max_iters=5, seed=0, bounds=UNIT_BOX))
        result_b = optimize(rowwise(sphere), PsoConfig(swarm_size=8, max_iters=5, seed=1, bounds=UNIT_BOX))
        assert not np.array_equal(result_a.history, result_b.history)

    def test_parallel_replays_sequential(self, monkeypatch):
        monkeypatch.setattr(pso, "POOL_MIN_SWARM_S", 0.0)  # a pool however cheap the swarm
        kwargs = dict(swarm_size=10, max_iters=15, seed=21, bounds=UNIT_BOX)
        sequential = optimize(rowwise(sphere), PsoConfig(threads=1, **kwargs))
        parallel = optimize(rowwise(sphere), PsoConfig(threads=2, **kwargs))
        np.testing.assert_array_equal(parallel.history, sequential.history)
        np.testing.assert_array_equal(parallel.position, sequential.position)
        np.testing.assert_array_equal(parallel.velocities, sequential.velocities)

    def test_cheap_swarm_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built for a cheap swarm")

        monkeypatch.setattr(pso, "ThreadPoolExecutor", no_pool)
        kwargs = dict(swarm_size=10, max_iters=15, seed=21, bounds=UNIT_BOX)
        sequential = optimize(rowwise(sphere), PsoConfig(threads=1, **kwargs))
        threaded = optimize(rowwise(sphere), PsoConfig(threads=2, **kwargs))
        np.testing.assert_array_equal(threaded.history, sequential.history)

    def test_slow_swarm_uses_the_pool(self):
        workers = set()

        def slow(x):
            workers.add(threading.current_thread())
            time.sleep(POOL_MIN_SWARM_S)
            return rowwise(sphere)(x)

        kwargs = dict(swarm_size=4, max_iters=2, seed=5, bounds=UNIT_BOX)
        pooled = optimize(slow, PsoConfig(threads=2, **kwargs))
        assert len(workers - {threading.current_thread()}) == 2
        sequential = optimize(rowwise(sphere), PsoConfig(threads=1, **kwargs))
        np.testing.assert_array_equal(pooled.history, sequential.history)

    def test_evaluated_positions_stay_feasible(self):
        seen = []

        def recording(x):
            seen.append(x.copy())
            return sphere(x)

        config = PsoConfig(swarm_size=6, max_iters=10, seed=3, threads=1, bounds=UNIT_BOX)
        optimize(rowwise(recording), config)
        stacked = np.array(seen)
        assert stacked.shape == (6 * 11, 2)
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0

    def test_personal_best_dominates_particle_trajectory(self):
        seen = []

        def recording(x):
            seen.append(float(np.cos(7.0 * x).sum() + (x * x).sum()))
            return seen[-1]

        n = 5
        config = PsoConfig(swarm_size=n, max_iters=9, seed=11, threads=1, bounds=UNIT_BOX)
        result = optimize(rowwise(recording), config)
        values = np.array(seen).reshape(-1, n)  # sequential: call k is particle k % n
        per_particle_min = values.min(axis=0)
        np.testing.assert_array_equal(result.personal_best_values, per_particle_min)
        assert result.value == per_particle_min.min()

    def test_exact_replay_of_update_rule(self):
        # asymmetric accelerations: a swapped-coefficient update cannot replay this
        bounds = np.array([[0.0, 1.0], [0.0, 2.0]])
        config = PsoConfig(
            swarm_size=2, inertia=0.5, c1=1.5, c2=0.5, max_iters=2,
            bounds=bounds, seed=7, threads=1,
        )
        assert_replays(config)

    @pytest.mark.parametrize("doubles", [1, 12, 24, 36])
    def test_chunked_draws_replay_per_step_draws(self, monkeypatch, doubles):
        # 3 particles, 2 dims: 12 numbers per iteration, so chunks of 1, 1, 2 and 3
        # iterations, and 7 iterations leave a short last chunk
        monkeypatch.setattr(pso, "_DRAW_DOUBLES", doubles)
        bounds = np.array([[0.0, 1.0], [-1.0, 2.0]])
        config = PsoConfig(
            swarm_size=3, inertia=0.6, c1=1.2, c2=0.4, max_iters=7,
            bounds=bounds, seed=11, threads=1,
        )
        assert_replays(config)


def assert_replays(config):
    """``optimize`` equals the update rule replayed with one (dims,) draw per
    particle and vector, in particle order."""

    def objective(x):
        return float((x * x).sum())

    result = optimize(rowwise(objective), config)

    bounds, n = config.bounds, config.swarm_size
    lo, width = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    streams = [RngStream(config.seed, i) for i in range(n)]
    positions = np.empty((n, config.dims))
    velocities = np.empty((n, config.dims))
    for i, stream in enumerate(streams):
        positions[i] = lo + width * stream.uniform(size=config.dims)
        velocities[i] = (
            VELOCITY_INIT_FRACTION * width * (2.0 * stream.uniform(size=config.dims) - 1.0)
        )
    personal_best = positions.copy()
    personal_values = np.array([objective(p) for p in positions])
    best = int(np.argmin(personal_values))
    global_best = personal_best[best].copy()
    global_value = float(personal_values[best])
    history = [global_value]

    for _ in range(config.max_iters):
        for i, stream in enumerate(streams):
            r1 = stream.uniform(size=config.dims)
            r2 = stream.uniform(size=config.dims)
            velocities[i] = (
                config.inertia * velocities[i]
                + config.c1 * r1 * (global_best - positions[i])
                + config.c2 * r2 * (personal_best[i] - positions[i])
            )
            positions[i] = np.clip(positions[i] + velocities[i], bounds[:, 0], bounds[:, 1])
        values = np.array([objective(p) for p in positions])
        improved = values < personal_values
        personal_best[improved] = positions[improved]
        personal_values[improved] = values[improved]
        best = int(np.argmin(personal_values))
        if personal_values[best] < global_value:
            global_value = float(personal_values[best])
            global_best = personal_best[best].copy()
        history.append(global_value)

    np.testing.assert_array_equal(result.history, np.array(history))
    np.testing.assert_array_equal(result.positions, positions)
    np.testing.assert_array_equal(result.velocities, velocities)
    np.testing.assert_array_equal(result.personal_best, personal_best)
    np.testing.assert_array_equal(result.position, global_best)
    assert result.value == global_value
    assert result.evaluations == n * (config.max_iters + 1)


class TestGuards:
    def test_solver_failures_count_as_inf(self):
        def fragile(x):
            if x[0] < 0.5:
                raise SolverError("inner solve failed")
            return float(x.sum())

        config = PsoConfig(swarm_size=12, max_iters=8, seed=2, bounds=UNIT_BOX)
        result = optimize(rowwise(fragile), config)
        assert math.isfinite(result.value)
        assert result.position[0] >= 0.5

    def test_nan_never_becomes_best(self):
        def patchy(x):
            return float("nan") if x[0] > 0.3 else float(x[1])

        config = PsoConfig(swarm_size=12, max_iters=8, seed=4, bounds=UNIT_BOX)
        result = optimize(rowwise(patchy), config)
        assert math.isfinite(result.value)
        assert result.position[0] <= 0.3

    def test_all_failures_yield_inf_result(self):
        def hopeless(x):
            raise np.linalg.LinAlgError("always singular")

        config = PsoConfig(swarm_size=3, max_iters=2, seed=6, bounds=UNIT_BOX)
        result = optimize(rowwise(hopeless), config)
        assert math.isinf(result.value)
        assert np.all(np.isinf(result.history)) and result.history.shape == (3,)
        assert result.evaluations == 3 * (2 + 1)
        # no best ever improves on +inf: argmin's pick, particle 0's initial position
        lo, width = UNIT_BOX[:, 0], UNIT_BOX[:, 1] - UNIT_BOX[:, 0]
        np.testing.assert_array_equal(result.position, lo + width * RngStream(6, 0).uniform(size=2))

    def test_unguarded_errors_propagate(self):
        def broken(x):
            raise ValueError("not a solver failure")

        with pytest.raises(ValueError):
            optimize(rowwise(broken), PsoConfig(swarm_size=2, max_iters=1, seed=0, bounds=UNIT_BOX))


class TestResolveThreads:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "7")
        assert resolve_threads(3) == 3

    def test_env_used_when_unset(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        assert resolve_threads(None) == 4

    def test_defaults_to_sequential(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "  ")
        assert resolve_threads(None) == 1

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2"])
    def test_invalid_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        with pytest.raises(ConfigurationError):
            resolve_threads(None)
        with pytest.raises(ConfigurationError, match=THREADS_ENV_VAR):
            PsoConfig()  # where a swarm's thread count is fixed

    def test_config_fixes_the_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert PsoConfig().threads == 3

    def test_env_after_config_is_not_read(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        config = PsoConfig(swarm_size=3, max_iters=2, seed=1, bounds=UNIT_BOX)
        monkeypatch.setenv(THREADS_ENV_VAR, "abc")
        result = optimize(rowwise(sphere), config)
        assert config.threads == 1 and result.evaluations == 9

    def test_thread_cap(self, monkeypatch):
        # the cap is checked where the count enters: the variable here, the config's field
        # in PsoConfig; no pool may be built on the way
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(pso, "ThreadPoolExecutor", refuse)
        monkeypatch.setenv(THREADS_ENV_VAR, str(MAX_THREADS))
        assert resolve_threads(None) == MAX_THREADS == PsoConfig(threads=MAX_THREADS).threads
        for raw in (str(MAX_THREADS + 1), "100000"):
            monkeypatch.setenv(THREADS_ENV_VAR, raw)
            with pytest.raises(ConfigurationError, match=f"{THREADS_ENV_VAR} must be <= {MAX_THREADS}, got {raw}"):
                resolve_threads(None)
        with pytest.raises(ConfigurationError, match=f"threads must be <= {MAX_THREADS}, got 100000"):
            PsoConfig(threads=100_000)

    def test_config_is_checked_once_and_frozen(self, monkeypatch):
        # a config cannot change after its checks: a field is frozen, the bounds are a
        # read-only copy, and dataclasses.replace checks the new config; no pool is built
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(pso, "ThreadPoolExecutor", refuse)
        config = PsoConfig(swarm_size=500, threads=2)
        for name, value in (("threads", 100_000), ("threads", 0), ("swarm_size", 0), ("bounds", [[3.0, 1.0]] * 4)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, value)
            with pytest.raises(ConfigurationError):
                dataclasses.replace(config, **{name: value})
        with pytest.raises(ValueError, match="read-only"):
            config.bounds[0] = [3.0, 1.0]
        assert (config.swarm_size, config.threads) == (500, 2)
        np.testing.assert_array_equal(config.bounds, [[0.5, 3.5]] * 4)
        with pytest.raises(ConfigurationError, match="threads must be >= 1, got 0"):
            resolve_threads(0)
        with pytest.raises(ConfigurationError, match=f"threads must be <= {MAX_THREADS}, got 100000"):
            resolve_threads(100_000)


class TestShapeOptimization:
    def test_small_swarm_improves_wave_energy(self, wave_net, rule16):
        def objective(x):
            return reduced_functional(wave_net, SurfaceShape.from_iterable(x), rule16)

        config = PsoConfig(swarm_size=8, max_iters=5, seed=0, threads=1)
        result = optimize(rowwise(objective), config)
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.value <= result.history[0]

        shape = SurfaceShape.from_iterable(result.position)
        solved = solve_interior(wave_net, *shape.basis_specs(3, 3), rule16)
        patch = Patch.gt(solved.net, shape)
        assert area(patch, rule16) <= 38.0
