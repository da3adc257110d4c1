"""Cold-start cost of the command line: fresh interpreters importing ``gtplateau.cli``."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

IMPORT = "import gtplateau.cli"


def _env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def _run(args, src_dir: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args, "-c", IMPORT],
        env=_env(src_dir), capture_output=True, text=True, timeout=60, check=True,
    )


def import_wall_s(src_dir: str, reps: int) -> list[float]:
    """Wall seconds of ``reps`` fresh interpreters that only import the CLI."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _run([], src_dir)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(text: str) -> list[tuple[str, float, list]]:
    """Forest of ``(module, cumulative seconds, children)`` from ``-X importtime``.

    The interpreter prints each import when it finishes, children before
    parents, with two spaces of indent per nesting level.
    """
    stack: list[tuple[int, tuple]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop()[1])
        node = (name.strip(), int(cumulative) * 1e-6, children[::-1])
        stack.append((depth, node))
    return [node for _, node in stack]


PACKAGES = ("numpy", "scipy")


def _attribute(nodes, owner, totals: dict) -> None:
    """Add each import's self time to the outermost numpy/scipy import above it, else gtplateau."""
    for name, cumulative, children in nodes:
        own = owner or next(
            (p for p in PACKAGES if name == p or name.startswith(p + ".")), None
        )
        totals[own or "gtplateau"] += cumulative - sum(c[1] for c in children)
        _attribute(children, own, totals)


def import_split(text: str) -> dict[str, float]:
    """Seconds of ``import gtplateau.cli`` spent importing numpy, scipy, and the rest."""
    roots = [n for n in parse_importtime(text) if n[0].split(".")[0] == "gtplateau"]
    totals = dict.fromkeys((*PACKAGES, "gtplateau"), 0.0)
    _attribute(roots, None, totals)
    return {f"setup.import_{key}_s": value for key, value in totals.items()}


def import_split_median(src_dir: str, reps: int) -> dict[str, float]:
    samples = [import_split(_run(["-X", "importtime"], src_dir).stderr) for _ in range(reps)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
