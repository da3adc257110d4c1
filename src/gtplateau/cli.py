"""Command-line driver.

Commands: ``basis eval``, ``solve``, ``optimize``, ``harmonic``, ``coons``,
and ``compare``. Every command writes its artifacts into --out and a
summary.json recording the settings that produced the numbers, so each
reported value can be recomputed from the emitted files (a swarm's energy is
its convergence CSV's last row). Exit codes: 0 success, 2 invalid input or
usage, 3 solver failure (nothing written), 4 file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .basis import THETA_MAX, THETA_MIN, BasisSpec, basis_tables
from .coons import component_grids, optimize_tb, tb_surface_jet
from .dirichlet import check_rule, describe_bases, reduced_functional_family, solve_interior
from .errors import ConfigurationError, NetFormatError, SolverError
from .harmonic import (
    bernstein_laplacian_defect,
    defect_certificate_bound,
    defect_family,
    harmonic_reconstruct,
)
from .io import (
    _face_block,
    atomic_write_text,
    format_table,
    load_net,
    save_net,
    utc_timestamp,
    write_convergence_csv,
    write_curvature_csv,
    write_obj,
    write_summary,
)
from .numerics import gauss_legendre_rule, integer
from .patch import (
    Patch,
    SurfaceShape,
    area,
    dirichlet_energy,
    fundamental_forms,
    surface_jet,
    triangulate_grid,
)
from .pso import MAX_THREADS, PsoConfig, optimize

NOT_IMPLEMENTED_NOTE = "not implemented: out of scope"

#: Largest coordinate magnitude (``ControlNet.scale``) a command accepts. Areas and
#: curvature forms scale their inputs by a power of two, so the largest numbers are
#: quadratic in the coordinates (energies, Laplacian defects, E, F, G), times the square
#: of the bases' largest sum |G_i'| or |G_i''| (under 1e11 up to degree 255). At 1e70
#: those stay below about 1e152; the wave scaled by 1e154 writes an infinite energy.
MAX_NET_SCALE = 1e70

#: Runs whose energies lie within this relative gap of the least are tied, and the
#: lowest-index one is the best run, so a one-ulp difference cannot decide it.
_BEST_RUN_RTOL = 1e-12

#: Largest ``--tess``: a cold ``solve`` of the wave peaks at 618 MB RSS at 1024 and 2218 MB at
#: 2048 (numpy 2.4 on x86-64 Linux), and the grids grow as the square of it.
_MAX_TESS = 2048

#: Largest ``basis eval`` table, samples x (3 (degree + 1) + 1) cells, under about 0.8 GB RSS at any degree:
#: cold peaks were 561 MB at 3.1 M cells (degree 1029) and 877 MB at 13 M (degree 3), numpy 2.4 on x86-64 Linux.
_MAX_TABLE_CELLS = 2**22


def _float_tuple(flag: str, count: int):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{flag} needs {count} comma-separated numbers, got {text!r}"
            )
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} needs numbers, got {text!r}")

    return parse


def _int_in_range(flag: str, low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            return integer(int(text), flag, low, high)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} needs an integer, got {text!r}")

    return parse


def _bounds_type(text: str):
    lo, hi = _float_tuple("--bounds", 2)(text)
    if not THETA_MIN <= lo < hi <= THETA_MAX:
        raise argparse.ArgumentTypeError(
            f"--bounds needs {THETA_MIN} <= LO < HI <= {THETA_MAX}, got {text!r}"
        )
    return lo, hi


def _alpha_type(text: str):
    values = _float_tuple("--alpha", 4)(text)
    try:
        return SurfaceShape(*values)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _shape_list(shape: SurfaceShape | None):
    if shape is None:
        return None
    return [float(x) for x in shape.as_array()]


def _shape_text(shape: SurfaceShape) -> str:
    return "(%.4f, %.4f, %.4f, %.4f)" % tuple(shape.as_array())


def _add_output_args(parser, tess: bool = True):
    parser.add_argument("net", help="control net JSON file")
    parser.add_argument(
        "--quad", type=int, default=32, metavar="K",
        help="Gauss-Legendre points per direction (default 32)",
    )
    if tess:
        parser.add_argument(
            "--tess", type=_int_in_range("--tess", 1, _MAX_TESS), default=64, metavar="K",
            help=f"tessellation cells per direction for OBJ/curvature output (default 64, at most {_MAX_TESS})",
        )
    parser.add_argument(
        "--out", default="out", metavar="DIR",
        help="output directory, created if missing (default ./out)",
    )


def _add_pso_args(parser, min_runs: int | None = None):
    if min_runs is not None:
        parser.add_argument(
            "--runs", type=_int_in_range("--runs", min_runs), default=1, metavar="R",
            help="independent swarm runs; run r uses seed SEED+r (default 1)",
        )
    parser.add_argument("--seed", type=int, default=0, metavar="S", help="base RNG seed (default 0)")
    parser.add_argument(
        "--swarm", type=_int_in_range("--swarm", 1), default=50, metavar="N",
        help="particles (default 50)",
    )
    parser.add_argument("--inertia", type=float, default=0.7, metavar="W", help="inertia weight (default 0.7)")
    parser.add_argument("--c1", type=float, default=1.5, help="acceleration toward the global best (default 1.5)")
    parser.add_argument("--c2", type=float, default=1.5, help="acceleration toward the personal best (default 1.5)")
    parser.add_argument(
        "--iters", type=_int_in_range("--iters", 0), default=200, metavar="T",
        help="swarm iterations (default 200)",
    )
    parser.add_argument(
        "--bounds", type=_bounds_type, default=(THETA_MIN, THETA_MAX), metavar="LO,HI",
        help=f"shape-parameter box inside [{THETA_MIN}, {THETA_MAX}], applied per component "
        f"(default {THETA_MIN},{THETA_MAX})",
    )
    parser.add_argument(
        "--threads", type=_int_in_range("--threads", 1, MAX_THREADS), default=None, metavar="N",
        help=f"fitness evaluation threads, at most {MAX_THREADS} (default: GT_PLATEAU_THREADS or 1)",
    )


def _pso_config(args) -> PsoConfig:  # every swarm command checks its settings before writing
    return PsoConfig(
        swarm_size=args.swarm,
        inertia=args.inertia,
        c1=args.c1,
        c2=args.c2,
        max_iters=args.iters,
        bounds=np.array([args.bounds] * 4, dtype=float),
        seed=args.seed,
        threads=args.threads,  # None reads GT_PLATEAU_THREADS here, so a bad value fails before any write
    )


_PSO_SETTINGS = ("seed", "swarm", "inertia", "c1", "c2", "iters", "bounds", "threads")


def _pso_settings(args, runs: bool = False) -> dict:
    settings = {name: getattr(args, name) for name in _PSO_SETTINGS + (("runs",) if runs else ())}
    settings["bounds"] = list(args.bounds)
    return settings


def _select_bases(basis_name: str, shape: SurfaceShape, net) -> tuple[BasisSpec, BasisSpec]:
    if basis_name == "gt":
        return shape.basis_specs(net.degree_u, net.degree_v)
    return BasisSpec.bernstein(net.degree_u), BasisSpec.bernstein(net.degree_v)


def _read_net(path):
    """The net at ``path``, refused before any write when its coordinates are too large."""
    net = load_net(path)
    if net.scale() > MAX_NET_SCALE:
        raise ConfigurationError(
            f"{path}: coordinate magnitude {net.scale():.17g} exceeds the supported {MAX_NET_SCALE:g}"
        )
    return net


def _extremal(net, basis_u: BasisSpec, basis_v: BasisSpec, rule):
    """(patch, energy, hint, route): the interior solved when anything is
    unknown, else the net as-is, on a rule the solve would accept."""
    if net.free.any():
        sol = solve_interior(net, basis_u, basis_v, rule)
        surface = Patch(basis_u=basis_u, basis_v=basis_v, net=sol.net)
        return surface, sol.energy, sol.system_condition_hint, sol.route
    check_rule(net, rule, describe_bases(basis_u, basis_v))
    surface = Patch(basis_u=basis_u, basis_v=basis_v, net=net)
    return surface, dirichlet_energy(surface, rule), None, "none (net already complete)"


def _swarm_runs(net, rule, config: PsoConfig, count: int):
    """``count`` seeded swarms (seed SEED+r) on one prepared family, as its
    ``ShapeOptimum`` winners, and the first run within ``_BEST_RUN_RTOL`` of the least."""
    family = reduced_functional_family(net, rule)
    runs = [family.minimize(dataclasses.replace(config, seed=config.seed + r)) for r in range(count)]
    least = min(run.energy for run in runs)
    return runs, next(r for r, run in enumerate(runs) if run.energy <= least + _BEST_RUN_RTOL * abs(least))


def _summary_writer(args):
    """Resolve the timestamp before making --out, so a bad SOURCE_DATE_EPOCH writes
    nothing; finish(settings, results, line) writes summary.json and prints."""
    stamp = utc_timestamp()
    os.makedirs(args.out, exist_ok=True)

    def finish(settings: dict, results: dict, line: str) -> int:
        settings = {"net": os.fspath(args.net), **settings}
        write_summary(os.path.join(args.out, "summary.json"), args.command, stamp, settings, results)
        print(line)
        return 0

    return finish


def _write_surface(out: str, net, jet_at, tess: int):
    """net.json, and curvature.csv and surface.obj from jet_at(params, params)
    on the (tess + 1)^2 parameter grid; returns the jet and the mesh's face block.
    The mesh comes last, so its arrays and face block do not add to the
    curvature grid's peak memory."""
    params = np.linspace(0.0, 1.0, tess + 1)
    jet = jet_at(params, params)
    save_net(net, os.path.join(out, "net.json"))
    forms = fundamental_forms(jet.Su, jet.Sv, jet.Suu, jet.Suv, jet.Svv)
    write_curvature_csv(os.path.join(out, "curvature.csv"), params, params, forms)
    vertices, faces = triangulate_grid(jet.S)
    block = _face_block(faces, len(vertices))
    write_obj(os.path.join(out, "surface.obj"), vertices, block)
    return jet, block


def cmd_solve(args) -> int:
    for flag, value in (
        ("--reference-area", args.reference_area),
        ("--reference-rel-tol", args.reference_rel_tol),
    ):
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"{flag} must be a positive finite number, got {value!r}")
    net = _read_net(args.net)
    rule = gauss_legendre_rule(args.quad)
    surface, energy, hint, route = _extremal(net, *_select_bases(args.basis, args.alpha, net), rule)

    finish = _summary_writer(args)
    _write_surface(args.out, surface.net, functools.partial(surface_jet, surface), args.tess)
    area_value = area(surface, rule)
    line = f"solve: route={route} energy={energy:.6f} area={area_value:.6f}"

    discrepancy = None
    if args.reference_area is not None:
        relative = abs(area_value - args.reference_area) / abs(args.reference_area)
        if relative > args.reference_rel_tol:
            discrepancy = {
                "area": area_value,
                "energy": energy,
                "quadrature_order": args.quad,
                "reference_area": args.reference_area,
                "relative_error": relative,
            }
            atomic_write_text(
                os.path.join(args.out, "discrepancy_report.json"),
                json.dumps(discrepancy, indent=2) + "\n",
            )
            line += f"\nsolve: area misses the reference by {relative:.3%}; wrote discrepancy_report.json"

    settings = {
        "basis": args.basis,
        "alpha": _shape_list(args.alpha) if args.basis == "gt" else None,
        "quadrature_order": args.quad,
        "tessellation_cells": args.tess,
        "reference_area": args.reference_area,
        "reference_rel_tol": args.reference_rel_tol,
    }
    results = {
        "solved_points": int(net.free.sum()),
        "route": route,
        "energy": energy,
        "area": area_value,
        "system_condition_hint": hint,
        "discrepancy": discrepancy is not None,
    }
    return finish(settings, results, line)


def cmd_optimize(args) -> int:
    net = _read_net(args.net)
    if not net.free.any():
        raise ConfigurationError("optimize needs a net with unknown interior points")
    rule = gauss_legendre_rule(args.quad)
    runs, r_best = _swarm_runs(net, rule, _pso_config(args), args.runs)

    finish = _summary_writer(args)
    run_rows = []
    for r, run in enumerate(runs):
        write_convergence_csv(os.path.join(args.out, f"convergence_{r:02d}.csv"), run.history)
        run_rows.append(dict(
            run=r, seed=args.seed + r, alpha=_shape_list(run.shape), energy=run.energy,
            area=area(Patch.gt(run.net, run.shape), rule), evaluations=run.pso.evaluations,
        ))

    best, best_area = runs[r_best], run_rows[r_best]["area"]
    jet_at = functools.partial(surface_jet, Patch.gt(best.net, best.shape))
    _write_surface(args.out, best.net, jet_at, args.tess)
    return finish(
        {"quadrature_order": args.quad, "tessellation_cells": args.tess, **_pso_settings(args, runs=True)},
        {
            "best_run": r_best,
            "alpha": _shape_list(best.shape),
            "energy": best.energy,
            "area": best_area,
            "system_condition_hint": best.system_condition_hint,
            "runs": run_rows,
        },
        f"optimize: best run {r_best} alpha={_shape_text(best.shape)} "
        f"energy={best.energy:.6f} area={best_area:.6f}",
    )


def cmd_harmonic(args) -> int:
    net = _read_net(args.net)
    rule = gauss_legendre_rule(args.quad)
    config = _pso_config(args)  # checked even when unused; the summary echoes only what shaped the numbers
    reconstructed = harmonic_reconstruct(net)
    defect = bernstein_laplacian_defect(reconstructed, rule)
    bound = defect_certificate_bound(reconstructed)

    finish = _summary_writer(args)
    save_net(reconstructed, os.path.join(args.out, "net.json"))
    settings = {"quadrature_order": args.quad, "tune_alpha": bool(args.tune_alpha)}
    results = {
        "reconstructed_points": int(net.free.sum()),
        "laplacian_defect": defect,
        "certificate_bound": bound,
        "certified": bool(defect < bound),
    }
    line = f"harmonic: defect={defect:.3e} certified={results['certified']}"
    if args.tune_alpha:
        result = optimize(defect_family(reconstructed, rule), config)
        write_convergence_csv(os.path.join(args.out, "convergence.csv"), result.history)
        settings.update(_pso_settings(args))
        shape = SurfaceShape.from_iterable(result.position)
        results.update(alpha=_shape_list(shape), tuned_defect=result.value, evaluations=result.evaluations)
        line += f" tuned_defect={result.value:.3e}"
    return finish(settings, results, line)


def cmd_coons(args) -> int:
    net = _read_net(args.net)
    rule = gauss_legendre_rule(args.quad)
    optimum = optimize_tb(net, _pso_config(args), rule)

    finish = _summary_writer(args)
    write_convergence_csv(os.path.join(args.out, "convergence.csv"), optimum.history)
    jet_at = functools.partial(tb_surface_jet, optimum.net, optimum.shape)
    jet, block = _write_surface(args.out, optimum.net, jet_at, args.tess)

    # the two mixed-basis components, as inspectable meshes on the surface's grid
    for name, grid in zip(("r1.obj", "r2.obj"), component_grids(jet, optimum.net)):
        write_obj(os.path.join(args.out, name), grid.reshape(-1, 3), block)

    return finish(
        {"quadrature_order": args.quad, "tessellation_cells": args.tess, **_pso_settings(args)},
        {
            "alpha": _shape_list(optimum.shape),
            "energy": optimum.energy,
            "evaluations": optimum.pso.evaluations,
            "system_condition_hint": optimum.system_condition_hint,
        },
        f"coons: alpha={_shape_text(optimum.shape)} energy={optimum.energy:.6f}",
    )


def cmd_compare(args) -> int:
    net = _read_net(args.net)
    rule = gauss_legendre_rule(args.quad)
    config = _pso_config(args)  # summary.json echoes the settings even when no swarm runs
    rows = []

    def add_row(method, shape, energy, area_value, note=""):
        rows.append(dict(method=method, alpha=_shape_list(shape), energy=energy, area=area_value,
                         note=note))

    optimized = args.runs > 0 and bool(net.free.any())
    if optimized:
        runs, r_best = _swarm_runs(net, rule, config, args.runs)
        best = runs[r_best]
        add_row("gt-optimized", best.shape, best.energy, area(Patch.gt(best.net, best.shape), rule))

    fixed_rows = (("gt-fixed-alpha", args.alpha, "gt"), ("bernstein-dirichlet", None, "bernstein"))
    for method, shape, basis in fixed_rows:
        surface, energy, _, _ = _extremal(net, *_select_bases(basis, args.alpha, net), rule)
        add_row(method, shape, energy, area(surface, rule))

    add_row("quasi-harmonic", None, None, None, NOT_IMPLEMENTED_NOTE)
    add_row("bending-energy", None, None, None, NOT_IMPLEMENTED_NOTE)

    def cells(values, fmt):  # blank where a row has no value
        return ["" if x is None else fmt % x for x in values]

    csv_lines = ["method,alpha1,alpha2,beta1,beta2,energy,area,note"]
    md_lines = ["| method | alpha | energy | area | note |", "| --- | --- | --- | --- | --- |"]
    for row in rows:
        numbers = cells((row["alpha"] or [None] * 4) + [row["energy"], row["area"]], "%.17g")
        csv_lines.append(",".join([row["method"], *numbers, row["note"]]))
        alpha = "" if row["alpha"] is None else _shape_text(SurfaceShape(*row["alpha"]))
        md_cells = [row["method"], alpha, *cells([row["energy"], row["area"]], "%.6f"), row["note"]]
        md_lines.append("| " + " | ".join(md_cells) + " |")
    table = "\n".join(md_lines)

    finish = _summary_writer(args)
    atomic_write_text(os.path.join(args.out, "comparison.csv"), "\n".join(csv_lines) + "\n")
    atomic_write_text(os.path.join(args.out, "comparison.md"), table + "\n")
    return finish(
        {"alpha": _shape_list(args.alpha), "quadrature_order": args.quad, **_pso_settings(args, runs=True)},
        {"rows": rows, "optimized_row_included": optimized},
        table,
    )


def cmd_basis_eval(args) -> int:
    spec = BasisSpec.gt(args.degree, *args.theta) if args.basis == "gt" else BasisSpec.bernstein(args.degree)
    cells = args.samples * (3 * (spec.degree + 1) + 1)
    if cells > _MAX_TABLE_CELLS:
        raise ConfigurationError(
            f"--samples {args.samples} at degree {spec.degree} is {cells} table cells, over {_MAX_TABLE_CELLS}"
        )
    ts = np.linspace(0.0, 1.0, args.samples)
    tables = basis_tables(spec, ts)

    count = spec.degree + 1
    header = ["t"]
    for prefix in ("value", "d1", "d2"):
        header += [f"{prefix}_{i}" for i in range(count)]
    text = ",".join(header) + "\n" + format_table(ts, tables.values.T, tables.first.T, tables.second.T)

    if args.out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(args.out, text)
        print(f"basis eval: wrote {args.samples} samples to {args.out}")
    return 0


@functools.cache  # one parser per process: parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtplateau",
        description=(
            "Dirichlet-extremal tensor-product patches with tunable trigonometric "
            "bases: solve, shape-optimize, reconstruct, and compare."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    basis_cmd = sub.add_parser("basis", help="basis-function utilities")
    basis_sub = basis_cmd.add_subparsers(dest="basis_command", required=True, metavar="SUBCOMMAND")
    ev = basis_sub.add_parser("eval", help="tabulate one basis family as CSV")
    ev.add_argument("--basis", choices=("gt", "bernstein"), default="gt")
    ev.add_argument("--degree", type=int, default=3, help="basis degree (default 3)")
    ev.add_argument(
        "--theta", type=_float_tuple("--theta", 2), default=(2.0, 2.0), metavar="T1,T2",
        help="shape pair for the gt family (default 2,2)",
    )
    ev.add_argument("--samples", type=_int_in_range("--samples", 2), default=21, help="parameter samples (default 21)")
    ev.add_argument("--out", default=None, metavar="FILE", help="CSV file (default stdout)")
    ev.set_defaults(handler=cmd_basis_eval)

    solve = sub.add_parser("solve", help="fill unknown interior points with the energy extremal")
    _add_output_args(solve)
    solve.add_argument("--basis", choices=("gt", "bernstein"), default="gt")
    solve.add_argument(
        "--alpha", type=_alpha_type, default=SurfaceShape(2.0, 2.0, 2.0, 2.0),
        metavar="A1,A2,B1,B2", help="shape vector for the gt basis (default 2,2,2,2)",
    )
    solve.add_argument(
        "--reference-area", type=float, default=None, metavar="X",
        help="compare the computed area against X and report discrepancies",
    )
    solve.add_argument(
        "--reference-rel-tol", type=float, default=0.005, metavar="T",
        help="relative tolerance for --reference-area (default 0.005)",
    )
    solve.set_defaults(handler=cmd_solve)

    opt = sub.add_parser("optimize", help="swarm-search the shape vector minimizing the extremal energy")
    _add_output_args(opt)
    _add_pso_args(opt, min_runs=1)
    opt.set_defaults(handler=cmd_optimize)

    harm = sub.add_parser("harmonic", help="reconstruct missing points from the harmonicity relations")
    _add_output_args(harm, tess=False)
    harm.add_argument(
        "--tune-alpha", action="store_true",
        help="after reconstruction, swarm-minimize the Laplacian defect over the shape vector",
    )
    _add_pso_args(harm)
    harm.set_defaults(handler=cmd_harmonic)

    coons = sub.add_parser("coons", help="minimal blended patch: solve the interior and optimize the shape vector")
    _add_output_args(coons)
    _add_pso_args(coons)
    coons.set_defaults(handler=cmd_coons)

    comp = sub.add_parser("compare", help="area/energy table across solver variants")
    _add_output_args(comp, tess=False)
    comp.add_argument(
        "--alpha", type=_alpha_type, default=SurfaceShape(2.0, 2.0, 2.0, 2.0),
        metavar="A1,A2,B1,B2", help="shape vector for the fixed-alpha row (default 2,2,2,2)",
    )
    _add_pso_args(comp, min_runs=0)
    comp.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"gtplateau: invalid input: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"gtplateau: solver failure: {exc}", file=sys.stderr)
        return 3
    except (NetFormatError, OSError) as exc:
        print(f"gtplateau: file error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
