"""Benchmark of the gtplateau command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload swarm_tensor --seed 1 --seconds 35 --trace 0

One client drives ``gtplateau.cli.main(argv)`` in-process as a closed loop:
the next job starts only when the last one has finished. A run makes whole
passes over the workload's seeded job pool (see ``workloads``) until
``--seconds`` have elapsed; pass 0 is a warm-up. Every job writes into a fresh
output directory, its outputs are checked (see ``oracles``) and then deleted.
A job fails on a non-zero exit, an exception, a failed check, or a
``summary.json`` that differs from an earlier pass (``SOURCE_DATE_EPOCH`` is
pinned, so every repeat must be byte-identical).

On a shared virtual machine, other tenants only ever add time, in bursts of
a few seconds. Latency and throughput are therefore taken from each pool
job's fastest timed pass (``job_s_p50``, ``jobs_per_s``, ``evals_per_s``),
and ``job_s_tail`` from each job's fastest time in each third of the timed
passes, so the tail always has three samples per job and a burst shows only
when it lasts through a third of the run.
``setup_s`` is the median of fresh-interpreter imports spread over the run.

End-to-end metrics (``--trace 0``):

* ``setup_s``: wall time of a fresh interpreter importing ``gtplateau.cli``;
* ``jobs_per_s``: pool size over the sum of the jobs' fastest passes;
* ``evals_per_s``: energy evaluations per second of the fastest passes: swarm
  fitness evaluations, or one per solve or harmonic job on solve_artifacts;
* ``energy_ratio``: median over the pool of a job's energy over the Bernstein
  extremal energy of its net (swarm optimum, or GT solve on solve_artifacts);
  deterministic, so a speed-up that searches less shows here;
* ``ok_ratio``: 1 - fail_ratio over every job run (fail_ratio is printed;
  it is 0 when all is well, so the bounded metric is its complement);
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The latency percentiles are printed but left out of the JSON metrics:
``job_s_p50`` (median of the jobs' fastest passes) and ``job_s_tail`` (highest
percentile with ten samples beyond it). A median of 12-15 jobs, or a tail of
36-45 samples, moves by a quarter of its value between runs on a shared
2-core host, as much as the widest bound a metric may have; the throughputs,
which sum over every job, move less.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics per
pass of the pool (so ``.calls`` counts repeat exactly for a seed) and the
traced/untraced ratio of the jobs' fastest passes.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORKLOADS = ("swarm_tensor", "swarm_hybrid", "solve_artifacts")

#: Fresh interpreters per set-up measurement (at most); the median is reported.
SETUP_REPS = 7
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Contiguous groups of timed passes; each gives one tail sample per job.
GROUPS = 3
#: Timed passes a run makes even when --seconds is shorter.
MIN_TIMED_PASSES = GROUPS

#: name -> (unit, better) of the end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "evals_per_s": ("1/s", "higher"),
    "energy_ratio": ("ratio", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Runs and checks jobs; keeps the failures and each job's outcome."""

    def __init__(self, work_dir: str):
        import gtplateau.cli
        import oracles

        self.cli = gtplateau.cli
        self.oracles = oracles
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.outcomes: dict[str, object] = {}
        self._summaries: dict[str, bytes] = {}

    def out_dir(self, job) -> str:
        return os.path.join(self.work_dir, "out", job.key)

    def execute(self, job) -> tuple[float, str | None]:
        """Run one job; returns its wall seconds and an error if it did not exit 0."""
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(job.argv(self.out_dir(job)))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, error = None, traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[:300]}"
        return wall, error

    def check(self, job, error: str | None) -> None:
        """Count one attempt, check its outputs, then delete them."""
        self.attempted += 1
        out = self.out_dir(job)
        if error is None:
            try:
                outcome = self.oracles.check(job.command, job.payload, out)
                with open(os.path.join(out, "summary.json"), "rb") as handle:
                    summary = handle.read()
                if self._summaries.setdefault(job.key, summary) != summary:
                    error = "summary.json differs from an earlier pass of the same job"
                else:
                    self.outcomes[job.key] = outcome
            except self.oracles.CHECK_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{job.key}: {error}")
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, jobs) -> dict[str, float]:
        walls = {}
        for job in jobs:
            walls[job.key], error = self.execute(job)
            self.check(job, error)
        return walls


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest-percentile sample with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0 * (n - 1) / n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def fastest(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each job's fastest wall time over several passes."""
    return {key: min(p[key] for p in passes) for key in passes[0]}


def group_samples(passes: list[dict[str, float]]) -> list[float]:
    """Each job's fastest wall time in each of GROUPS contiguous groups of passes."""
    size, extra = divmod(len(passes), GROUPS)
    samples, start = [], 0
    for g in range(GROUPS):
        stop = start + size + (g < extra)
        samples += fastest(passes[start:stop]).values()
        start = stop
    return samples


def end_to_end(work, runner: Runner, seconds: float) -> dict:
    import setuptime

    deadline = time.perf_counter() + seconds
    # set-up samples are spread over the run, so one burst of host load cannot skew them all
    setup = setuptime.import_wall_s(SRC, 1)
    runner.run_pass(work.jobs)  # warm-up: lazy imports and first-call costs
    passes = []
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        passes.append(runner.run_pass(work.jobs))
        if len(setup) < SETUP_REPS:
            setup += setuptime.import_wall_s(SRC, 1)

    best = fastest(passes)
    busy = sum(best.values())
    ok = [runner.outcomes[job.key] for job in work.jobs if job.key in runner.outcomes]
    ratios = [
        runner.outcomes[job.key].energy / job.reference_energy
        for job in work.jobs
        if job.reference_energy is not None and job.key in runner.outcomes
    ]
    samples = group_samples(passes)
    value, pct = tail(samples)
    print(f"# {len(work.jobs)} jobs x {len(passes)} timed passes, {len(setup)} set-up samples")
    print(f"job_s_p50 = {statistics.median(best.values()):.6g} s (not in the JSON metrics)")
    print(f"job_s_tail = {value:.6g} s (p{pct:.1f} of {len(samples)} samples: "
          "fastest per job and third; not in the JSON metrics)")
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(best) / busy,
        "evals_per_s": sum(o.evaluations for o in ok) / busy,
        # no ratio at all means every swarm job failed, and correct is false
        "energy_ratio": statistics.median(ratios) if ratios else 0.0,
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(work, runner: Runner, seconds: float) -> dict:
    import layers
    import setuptime

    instrumentation = layers.Instrumentation()
    deadline = time.perf_counter() + seconds
    runner.run_pass(work.jobs)  # warm-up
    untraced, traced_passes = [], []
    lu_fallbacks = 0
    while not traced_passes or time.perf_counter() < deadline:
        untraced.append(runner.run_pass(work.jobs))
        walls, errors = {}, {}
        instrumentation.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                for job in work.jobs:
                    walls[job.key], errors[job.key] = runner.execute(job)
        finally:
            instrumentation.restore()
        lu_fallbacks += sum(
            1 for w in caught if str(w.message).startswith(layers.LU_FALLBACK_WARNING)
        )
        for job in work.jobs:  # oracles run untraced
            runner.check(job, errors[job.key])
        traced_passes.append(walls)

    n = len(traced_passes)
    traced_s = sum(sum(p.values()) for p in traced_passes)
    print(f"# {len(work.jobs)} jobs x {n} traced passes (and as many untraced); "
          "per-layer metrics are per pass")
    metrics = setuptime.import_split_median(SRC, SETUP_REPS)
    metrics.update(instrumentation.metrics(
        passes=n,
        traced_wall_s=traced_s,
        overhead_ratio=sum(fastest(traced_passes).values()) / sum(fastest(untraced).values()),
        lu_fallbacks=lu_fallbacks,
    ))
    return metrics


class Terminated(BaseException):
    """Raised on SIGTERM; no job handler swallows it, so the work directory is removed."""


def _terminate(signum, frame):
    raise Terminated()


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import gtplateau.cli
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import gtplateau from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(gtplateau.cli.__file__).startswith(SRC + os.sep):
        # an installed copy must not stand in for the checkout's sources
        print(f"perfbench: gtplateau was imported from {gtplateau.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    meta = machine()
    print("# machine: " + json.dumps(meta, sort_keys=True))
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    signal.signal(signal.SIGTERM, _terminate)
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        net_dir = os.path.join(work_dir, "nets")
        os.makedirs(net_dir)
        work = workloads.build(args.workload, args.seed, net_dir, FIXTURES)
        if work.threads > meta["nproc"]:
            print(
                f"perfbench: {args.workload} needs {work.threads} threads but nproc is "
                f"{meta['nproc']}; refusing to run it", file=sys.stderr,
            )
            return 2
        runner = Runner(work_dir)
        if args.trace:
            import layers

            values = traced(work, runner, args.seconds)
            units = {name: unit for name, (unit, _) in layers.metric_units().items()}
        else:
            values = end_to_end(work, runner, args.seconds)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} jobs checked, {failed} failed, "
          f"fail_ratio = {failed / runner.attempted:.6g}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
