"""The benchmark workloads: seeded pools of CLI jobs.

A workload is a fixed pool of jobs that a run executes in whole passes, so
every run has the same job mix whatever its length, and every job repeats.
Nets are generated from the seed (see ``netgen``) and written as JSON files;
the program reads nothing else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import netgen
import oracles

#: Workload name -> one line on why it is in the benchmark.
WHY = {
    "swarm_tensor": (
        "optimize, 1 thread, on wave, dome and degree 3-5 nets: time is per-fitness "
        "basis/dirichlet/numerics/patch work, so a faster fitness path shows here"
    ),
    "swarm_hybrid": (
        "coons with 2 threads on 4x4 nets: coons jets, gradient_normal_system and the "
        "pso pool run; the tensor assembly never does, so tensor-only changes must not move it"
    ),
    "solve_artifacts": (
        "solve (GT and Bernstein) on degree 8-12 nets at tess 128 plus harmonic: "
        "OBJ/CSV writing dominates, so a fitness gain that costs evaluation or writing shows"
    ),
}


@dataclass
class Job:
    key: str
    command: str
    net_path: str
    payload: dict
    options: list[str]
    #: Bernstein extremal energy of the net when the job's energy feeds energy_ratio.
    reference_energy: float | None = None

    def argv(self, out: str) -> list[str]:
        return [self.command, self.net_path, *self.options, "--out", out]


@dataclass
class Workload:
    name: str
    threads: int
    jobs: list[Job] = field(default_factory=list)


def _seed_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode()])


class _Nets:
    """Writes generated nets and caches their reference energies."""

    def __init__(self, net_dir: str, fixtures_dir: str):
        self.net_dir = net_dir
        self.fixtures_dir = fixtures_dir
        self._references: dict[str, float] = {}

    def generated(self, name: str, payload: dict) -> tuple[str, dict]:
        path = os.path.join(self.net_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(netgen.dumps(payload))
        return path, payload

    def fixture(self, name: str) -> tuple[str, dict]:
        path = os.path.join(self.fixtures_dir, name + ".json")
        with open(path, encoding="utf-8") as handle:
            return path, json.load(handle)

    def reference(self, path: str, payload: dict) -> float:
        if path not in self._references:
            self._references[path] = oracles.bernstein_extremal_energy(payload)
        return self._references[path]


SWARM_TENSOR_NET_SETS = 3
SWARM_TENSOR_DEGREES = (3, 4, 5)
SWARM_TENSOR_OPTIONS = ["--runs", "1", "--swarm", "10", "--iters", "10", "--tess", "16", "--threads", "1"]

SWARM_HYBRID_NETS = 12
SWARM_HYBRID_THREADS = 2
SWARM_HYBRID_OPTIONS = ["--swarm", "10", "--iters", "5", "--tess", "16", "--threads", str(SWARM_HYBRID_THREADS)]

SOLVE_NET_SETS = 1
SOLVE_DEGREES = (8, 9, 10, 11, 12)
SOLVE_TESS = "128"
HARMONIC_NETS = (("columns", 5, 4), ("rows", 4, 5))


def _swarm_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def swarm_tensor(seed: int, nets: _Nets) -> Workload:
    rng = _seed_stream(seed, "swarm_tensor")
    work = Workload("swarm_tensor", threads=1)
    for r in range(SWARM_TENSOR_NET_SETS):
        inputs = [nets.fixture("wave_boundary"), nets.fixture("dome_boundary")]
        inputs += [
            nets.generated(f"tensor-r{r}-d{d}", netgen.boundary_net(rng, d, d))
            for d in SWARM_TENSOR_DEGREES
        ]
        work.jobs += [
            Job(
                key=f"r{r}-{os.path.basename(path)[:-5]}",
                command="optimize",
                net_path=path,
                payload=payload,
                options=[*SWARM_TENSOR_OPTIONS, "--seed", _swarm_seed(rng)],
                reference_energy=nets.reference(path, payload),
            )
            for path, payload in inputs
        ]
    return work


def swarm_hybrid(seed: int, nets: _Nets) -> Workload:
    rng = _seed_stream(seed, "swarm_hybrid")
    work = Workload("swarm_hybrid", threads=SWARM_HYBRID_THREADS)
    for k in range(SWARM_HYBRID_NETS):
        path, payload = nets.generated(f"hybrid-{k}", netgen.boundary_net(rng, 3, 3))
        work.jobs.append(Job(
            key=f"hybrid-{k}",
            command="coons",
            net_path=path,
            payload=payload,
            options=[*SWARM_HYBRID_OPTIONS, "--seed", _swarm_seed(rng)],
            reference_energy=nets.reference(path, payload),
        ))
    return work


def solve_artifacts(seed: int, nets: _Nets) -> Workload:
    rng = _seed_stream(seed, "solve_artifacts")
    work = Workload("solve_artifacts", threads=1)
    for r in range(SOLVE_NET_SETS):
        for d in SOLVE_DEGREES:
            path, payload = nets.generated(f"solve-r{r}-d{d}", netgen.boundary_net(rng, d, d))
            alpha = ",".join(repr(x) for x in netgen.shape_vector(rng))
            work.jobs.append(Job(
                key=f"r{r}-gt-d{d}",
                command="solve",
                net_path=path,
                payload=payload,
                options=["--basis", "gt", "--alpha", alpha, "--tess", SOLVE_TESS],
                reference_energy=nets.reference(path, payload),
            ))
            work.jobs.append(Job(
                key=f"r{r}-bernstein-d{d}",
                command="solve",
                net_path=path,
                payload=payload,
                options=["--basis", "bernstein", "--tess", SOLVE_TESS],
            ))
        for pattern, m, n in HARMONIC_NETS:
            path, payload = nets.generated(
                f"harmonic-r{r}-{pattern}", netgen.partial_net(rng, m, n, pattern)
            )
            work.jobs.append(Job(
                key=f"r{r}-harmonic-{pattern}",
                command="harmonic",
                net_path=path,
                payload=payload,
                options=[],
            ))
    return work


BUILDERS = {"swarm_tensor": swarm_tensor, "swarm_hybrid": swarm_hybrid, "solve_artifacts": solve_artifacts}


def build(name: str, seed: int, net_dir: str, fixtures_dir: str) -> Workload:
    return BUILDERS[name](seed, _Nets(net_dir, fixtures_dir))
