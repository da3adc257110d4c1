"""Digest of the command line's artifacts: one sha256 line for each file a run
wrote, and for its stdout, stderr and exit code.

    PYTHONPATH=src python tests/artifact_digest.py OUT

runs every command of ``COMMANDS`` in process, with SOURCE_DATE_EPOCH=0, once
at each of 1 and 2 fitness threads (GT_PLATEAU_THREADS, which ``--threads``
would override, so the settings a summary records are the same for both).
These swarms are too cheap to pass the pool's clock gate ``pso.POOL_MIN_SWARM_S``,
so the 2-thread runs set it to 0 while they run: each of their swarms builds
its thread pool and evaluates every iteration after the first in it, and the
two thread counts compare a sequential run with a pooled one.
The runs of thread count t are made in OUT/threads-t, beside a copy of the
fixtures there, and every path a run is given is relative to it: the lines do
not depend on where OUT or the checkout is, and the two thread counts give
the same lines under their own prefix. The gtplateau on the import path is
the one digested, so two checkouts compare with one ``diff``:

    PYTHONPATH=a/src python tests/artifact_digest.py /tmp/a > a.txt
    PYTHONPATH=b/src python tests/artifact_digest.py /tmp/b > b.txt
    diff a.txt b.txt

``check`` says what is wrong with a digest, and

    python tests/artifact_digest.py --check a.txt

exits 1 unless every run of ``COMMANDS`` is in it, each exited 0 and wrote
the files ``ARTIFACTS`` names for it, and the thread counts gave the same
lines and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import shutil
import sys
import traceback
import warnings

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
THREADS = (1, 2)

_PER_NET = {
    "solve-gt": ("solve", "--tess", "128"),
    "solve-bernstein": ("solve", "--basis", "bernstein", "--tess", "128"),
    "optimize": ("optimize", "--runs", "2"),
    "coons": ("coons",),
    "compare": ("compare", "--runs", "2"),
    "harmonic": ("harmonic", "--tune-alpha"),
}
#: label -> argv of every digested run; "{out}" stands for the run's directory.
COMMANDS = {
    **{
        f"{name}/{net}": (argv[0], f"fixtures/{net}.json", *argv[1:], "--out", "{out}")
        for net in ("wave_boundary", "dome_boundary")
        for name, argv in _PER_NET.items()
    },
    **{
        f"harmonic/{net}": ("harmonic", f"fixtures/{net}.json", "--tune-alpha", "--out", "{out}")
        for net in ("columns_known", "rows_known")
    },
    "basis-gt": ("basis", "eval", "--basis", "gt"),
    "basis-bernstein": ("basis", "eval", "--basis", "bernstein", "--degree", "12", "--out", "{out}/basis.csv"),
    # the hybrid at boundary degrees (5, 4), beyond the bicubic nets above
    "coons/saddle_boundary": ("coons", "fixtures/saddle_boundary.json", "--out", "{out}"),
}

_SURFACE = ("summary.json", "net.json", "surface.obj", "curvature.csv")
#: label up to its first "/" -> the files each run of it writes.
ARTIFACTS = {
    "solve-gt": _SURFACE,
    "solve-bernstein": _SURFACE,
    "optimize": (*_SURFACE, "convergence_00.csv", "convergence_01.csv"),
    "coons": (*_SURFACE, "convergence.csv", "r1.obj", "r2.obj"),
    "compare": ("comparison.csv", "comparison.md", "summary.json"),
    "harmonic": ("net.json", "summary.json", "convergence.csv"),
    "basis-gt": (),
    "basis-bernstein": ("basis.csv",),
}


@contextlib.contextmanager
def _environment(cwd, **variables):
    """Work in ``cwd`` with the given environment variables set; restore both."""
    saved_cwd, saved = os.getcwd(), {name: os.environ.get(name) for name in variables}
    os.chdir(cwd)
    os.environ.update(variables)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextlib.contextmanager
def _pool_forced(threads: int):
    """Above 1 thread, build every swarm's pool however cheap the swarm; restore the gate."""
    from gtplateau import pso

    saved = pso.POOL_MIN_SWARM_S
    if threads > 1:
        pso.POOL_MIN_SWARM_S = 0.0
    try:
        yield
    finally:
        pso.POOL_MIN_SWARM_S = saved


def _run(label: str, argv: tuple[str, ...]) -> dict[str, bytes]:
    """Path -> bytes of one run in the new directory ``label``: its files, and
    ``label/:stdout``, ``:stderr`` and ``:exit``."""
    from gtplateau.cli import main

    os.makedirs(label)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # each run shows its warnings, as a fresh process would
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([arg.format(out=label) for arg in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception as exc:  # exit 1, as a process; the last line only, as paths differ by checkout
                stderr.write("".join(traceback.format_exception_only(type(exc), exc)))
                code = 1
    files = {p.as_posix(): p.read_bytes() for p in sorted(pathlib.Path(label).rglob("*")) if p.is_file()}
    streams = {":stdout": stdout.getvalue(), ":stderr": stderr.getvalue(), ":exit": str(code)}
    return files | {f"{label}/{name}": text.encode() for name, text in streams.items()}


def digest(out, labels=tuple(COMMANDS)) -> list[str]:
    """Run each labelled command at each of ``THREADS`` in the new directory
    ``out`` and return the lines "<sha256>  threads-<t>/<path>"."""
    lines = []
    for t in THREADS:
        root = pathlib.Path(out, f"threads-{t}")
        root.mkdir(parents=True)
        shutil.copytree(FIXTURES, root / "fixtures")
        with _environment(root, SOURCE_DATE_EPOCH="0", GT_PLATEAU_THREADS=str(t)), _pool_forced(t):
            for label in labels:
                for path, data in _run(label, COMMANDS[label]).items():
                    lines.append(f"{hashlib.sha256(data).hexdigest()}  threads-{t}/{path}")
    return lines


def check(lines, required_labels) -> list[str]:
    """What is wrong with the digest ``lines``: an empty digest, a nonzero exit,
    lines of no thread count in ``THREADS``, thread counts whose lines differ,
    a required label with no run, or a run whose files are not its ``ARTIFACTS``.
    Empty when there is nothing."""
    zero = hashlib.sha256(b"0").hexdigest()
    problems = [f"nonzero exit: {line}" for line in lines if line.endswith("/:exit") and not line.startswith(zero)]
    passes = [[line.replace(f"  threads-{t}/", "  ") for line in lines if f"  threads-{t}/" in line] for t in THREADS]
    if not lines:
        problems.append("the digest is empty")
    if sum(map(len, passes)) != len(lines):
        problems.append("some lines belong to no thread count")
    if any(other != passes[0] for other in passes):
        problems.append(f"the thread counts {THREADS} give different lines")
    ran = {line.split("  ", 1)[1] for line in passes[0]}
    for label in required_labels:
        if f"{label}/:exit" not in ran:
            problems.append(f"no run of {label}")
            continue
        files = {path.rsplit("/", 1)[1] for path in ran if path.rsplit("/", 1)[0] == label}
        expected = {*ARTIFACTS[label.split("/")[0]], ":stdout", ":stderr", ":exit"}
        problems += [f"{label} wrote no {name}" for name in sorted(expected - files)]
        problems += [f"{label} wrote {name}, which it should not" for name in sorted(files - expected)]
    return problems


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--check":
        lines = pathlib.Path(sys.argv[2]).read_text().splitlines()
        problems = check(lines, COMMANDS)
        if problems:
            sys.exit("digest check failed:\n" + "\n".join(problems))
        print(f"{len(lines)} digest lines; every command exited 0 and wrote its artifacts; the thread counts {THREADS} agree")
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT | --check FILE")
    import gtplateau

    print(f"digesting {gtplateau.__file__}", file=sys.stderr)
    print("\n".join(digest(sys.argv[1])))
