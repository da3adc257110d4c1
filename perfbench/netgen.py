"""Seeded control-net generator for the benchmark workloads.

Every net is a plain JSON document in the format ``gtplateau.io.load_net``
reads: ``degrees``, and ``points`` with ``null`` for each unknown point. The
generator uses numpy only, never the library under test, so the program sees
its inputs exclusively through its own net reader.
"""

from __future__ import annotations

import json

import numpy as np

#: Side length of the square the generated nets span in x and y.
SPAN = 6.0


def _height(rng: np.random.Generator):
    """A smooth random height field z(u, v) on the unit square."""
    amp = rng.uniform(0.8, 2.0, size=2)
    freq = rng.uniform(0.5, 1.5, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    tilt = rng.uniform(-0.5, 0.5, size=2)

    def z(u, v):
        return (
            amp[0] * np.sin(2.0 * np.pi * freq[0] * u + phase[0])
            + amp[1] * np.cos(2.0 * np.pi * freq[1] * v + phase[1])
            + tilt[0] * u * SPAN
            + tilt[1] * v * SPAN
        )

    return z


def _net(rng: np.random.Generator, m: int, n: int, known) -> dict:
    """Net payload of degrees (m, n); ``known(i, j)`` selects the given points."""
    z = _height(rng)
    jitter = 0.15 * SPAN / max(m, n)
    points = []
    for i in range(m + 1):
        row = []
        for j in range(n + 1):
            if not known(i, j):
                row.append(None)
                continue
            u, v = i / m, j / n
            dx, dy = rng.uniform(-jitter, jitter, size=2)
            # points on the u = 0, 1 (v = 0, 1) sides keep their exact x (y)
            x = SPAN * u + (0.0 if i in (0, m) else dx)
            y = SPAN * v + (0.0 if j in (0, n) else dy)
            row.append([float(x), float(y), float(z(u, v))])
        points.append(row)
    return {"degrees": [m, n], "points": points}


def boundary_net(rng: np.random.Generator, m: int, n: int) -> dict:
    """Plateau-type net: every boundary point known, every interior point unknown."""
    return _net(rng, m, n, lambda i, j: i in (0, m) or j in (0, n))


def partial_net(rng: np.random.Generator, m: int, n: int, pattern: str) -> dict:
    """Harmonic-reconstruction input: only the first and last columns or rows known."""
    if pattern == "columns":
        return _net(rng, m, n, lambda i, j: j in (0, n))
    if pattern == "rows":
        return _net(rng, m, n, lambda i, j: i in (0, m))
    raise ValueError(f"unknown partial-net pattern {pattern!r}")


def shape_vector(rng: np.random.Generator, lo: float = 0.5, hi: float = 3.5) -> list:
    """A GT shape vector (alpha1, alpha2, beta1, beta2) inside the default box."""
    return [float(x) for x in rng.uniform(lo, hi, size=4)]


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"
