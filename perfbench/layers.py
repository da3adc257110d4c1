"""Per-layer instrumentation of ``gtplateau`` for the traced benchmark run.

Layers are the modules of ``src/gtplateau``. ``FUNCTIONS`` lists the public
functions traced in each; every one yields ``<module>.<function>.calls`` (an
exact count under seeding) and ``<module>.<function>.self_s`` (span time minus
child spans). A few wrappers also count work at the same boundary:

* io writers add the size of the file they wrote to ``io.bytes_written``;
* ``numerics.solve_dense`` adds n^3/3 + 2 n^2 k computed flops per call;
* ``pso.optimize`` wraps the objective it is given, so every swarm fitness
  evaluation is a ``pso.objective`` span, and an evaluation that raised or
  returned a non-finite value is counted there. ``pso._guard`` is untouched.

Cholesky-to-LU fallbacks are counted from the ``RuntimeWarning`` that
``solve_dense`` emits; the caller records warnings around the traced jobs.

``trace.coverage`` is the summed self time of all spans over the thread time
the traced jobs had: their wall time, plus (threads - 1) times the duration
of each multi-threaded ``pso.optimize``. Near 1 means the spans account for
the jobs' time; well below 1 means time went to untraced code or idle pool
threads. ``trace.overhead_ratio`` is the traced over the untraced time of the
same jobs, each taken at its fastest pass.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import threading

from gtplateau import pso
from tracer import Tracer, by_name

FUNCTIONS = {
    "cli": ("main",),
    "io": (
        "load_net", "write_obj", "write_curvature_csv", "save_net", "write_summary",
        "write_convergence_csv",
    ),
    "basis": ("basis_tables",),
    "patch": ("dirichlet_energy", "area", "tessellate", "mean_curvature_grid"),
    "dirichlet": (
        "reduced_functional", "solve_interior", "assemble_coefficients", "assemble_system",
        "assemble_system_generic", "gradient_normal_system",
    ),
    "numerics": ("solve_dense", "pivot_ratio"),
    "pso": ("optimize",),
    "coons": ("optimize_tb", "solve_tb_interior", "tb_dirichlet_energy", "tb_surface_jet"),
    "harmonic": ("harmonic_reconstruct", "bernstein_laplacian_defect"),
}
IO_WRITERS = ("write_obj", "write_curvature_csv", "save_net", "write_summary", "write_convergence_csv")
LU_FALLBACK_WARNING = "SPD hint failed Cholesky"

#: name -> (unit, better) of every per-layer metric besides the function metrics.
EXTRA_METRICS = {
    "setup.import_numpy_s": ("s", "lower"),
    "setup.import_scipy_s": ("s", "lower"),
    "setup.import_gtplateau_s": ("s", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "io.write_mb_per_s": ("MB/s", "higher"),
    "numerics.lu_fallbacks": ("count", "lower"),
    "numerics.solve_dense.flops_computed": ("flop", "lower"),
    "pso.evaluations": ("count", "higher"),
    "pso.iteration_s": ("s", "lower"),
    "pso.inf_fitness_ratio": ("ratio", "lower"),
    "pso.parallel_efficiency": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def function_labels() -> list[str]:
    return [f"{module}.{name}" for module, names in FUNCTIONS.items() for name in names]


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {}
    for label in function_labels():
        units[f"{label}.calls"] = ("count", "lower")
        units[f"{label}.self_s"] = ("s", "lower")
    units.update(EXTRA_METRICS)
    return units


class Instrumentation:
    """Installs the tracer on gtplateau and keeps the counters its wrappers feed."""

    def __init__(self):
        self.tracer = Tracer()
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.flops = 0.0
        self.bad_fitness = 0
        #: (span id, iterations, threads) per pso.optimize call
        self.optimize_calls: list[tuple[int, int, int]] = []

    def _add(self, counter: str, amount) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def _writer(self, label: str):
        def make(original):
            signature = inspect.signature(original)

            def traced(*args, **kwargs):
                with self.tracer.span(label):
                    result = original(*args, **kwargs)
                path = signature.bind(*args, **kwargs).arguments["path"]
                self._add("bytes_written", os.path.getsize(path))
                return result

            return traced

        return make

    def _solve_dense(self, original):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            system = signature.bind(*args, **kwargs).arguments["system"]
            n = system.size
            k = 1 if system.rhs.ndim == 1 else system.rhs.shape[1]
            self._add("flops", n**3 / 3.0 + 2.0 * n * n * k)
            with self.tracer.span("numerics.solve_dense"):
                return original(*args, **kwargs)

        return traced

    def _optimize(self, original):
        signature = inspect.signature(original)
        tracer = self.tracer

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            objective = bound.arguments["objective"]
            config = bound.arguments["config"]
            with tracer.span("pso.optimize") as swarm:
                threads = pso.resolve_threads(config.threads)
                with self._lock:
                    self.optimize_calls.append((swarm, config.max_iters, threads))

                def counted(x):
                    # pool threads have no open span: attribute their work to this swarm
                    with tracer.span("pso.objective", parent=swarm):
                        try:
                            value = objective(x)
                        except Exception:
                            self._add("bad_fitness", 1)
                            raise
                    try:
                        finite = math.isfinite(float(value))
                    except (TypeError, ValueError):
                        finite = False
                    if not finite:
                        self._add("bad_fitness", 1)
                    return value

                bound.arguments["objective"] = counted
                return original(*bound.args, **bound.kwargs)

        return traced

    def targets(self):
        special = {("numerics", "solve_dense"): self._solve_dense, ("pso", "optimize"): self._optimize}
        for module, names in FUNCTIONS.items():
            for name in names:
                if module == "io" and name in IO_WRITERS:
                    make = self._writer(f"io.{name}")
                else:
                    make = special.get((module, name))
                yield f"gtplateau.{module}", name, make

    def install(self) -> None:
        self.tracer.install("gtplateau", list(self.targets()))

    def restore(self) -> None:
        self.tracer.restore()

    def metrics(self, passes: int, traced_wall_s: float, overhead_ratio: float,
                lu_fallbacks: int) -> dict:
        """Per-layer metrics (setup.* excluded) per traced pass of the job pool.

        Counts come out as whole numbers when every pass did the same work.
        """
        spans = self.tracer.spans
        table = by_name(spans)
        out = {}
        for label in function_labels():
            row = table.get(label, {"calls": 0, "self_s": 0.0})
            out[f"{label}.calls"] = row["calls"] / passes
            out[f"{label}.self_s"] = row["self_s"] / passes

        write_s = sum(out[f"io.{name}.self_s"] for name in IO_WRITERS)
        out["io.bytes_written"] = self.bytes_written / passes
        out["io.write_mb_per_s"] = out["io.bytes_written"] / write_s / 1e6 if write_s > 0 else 0.0
        out["numerics.lu_fallbacks"] = lu_fallbacks / passes
        out["numerics.solve_dense.flops_computed"] = self.flops / passes

        evaluations = table.get("pso.objective", {"calls": 0})["calls"]
        durations = {s.id: s.duration for s in spans if s.name == "pso.optimize"}
        objective_s = sum(s.duration for s in spans if s.name == "pso.objective")
        capacity_s = sum(threads * durations[sid] for sid, _, threads in self.optimize_calls)
        iteration_s = [durations[sid] / (iters + 1) for sid, iters, _ in self.optimize_calls]
        out["pso.evaluations"] = evaluations / passes
        out["pso.iteration_s"] = statistics.median(iteration_s) if iteration_s else 0.0
        out["pso.inf_fitness_ratio"] = self.bad_fitness / evaluations if evaluations else 0.0
        out["pso.parallel_efficiency"] = objective_s / capacity_s if capacity_s > 0 else 0.0

        # pool threads add capacity while a multi-threaded swarm runs
        pool_s = sum((threads - 1) * durations[sid] for sid, _, threads in self.optimize_calls)
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.coverage"] = sum(row["self_s"] for row in table.values()) / (traced_wall_s + pool_s)
        return out
