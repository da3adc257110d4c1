"""Output checks for every benchmark job.

Each check recomputes the job's headline number by a second route and
compares it with what the command wrote:

* ``solve``: the energy against ``solve_interior(route="generic")``, the
  first-principles assembly, to 1e-9 relative;
* ``optimize``: the energy against ``reduced_functional`` re-evaluated at the
  reported shape vector;
* ``coons``: the energy against ``tb_dirichlet_energy(solve_tb_interior(...))``
  at the reported shape vector, and the boundary of ``net.json`` against the
  input, bit for bit;
* ``harmonic``: the known points of ``net.json`` against the input, bit for
  bit, and the reported Laplacian defect and certificate against a recomputation;
* every OBJ mesh: (tess+1)^2 vertices and 2 tess^2 faces.

Input nets are rebuilt from the generated payloads, not read back through the
program's own net reader.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from gtplateau.basis import BasisSpec
from gtplateau.coons import solve_tb_interior, tb_dirichlet_energy
from gtplateau.dirichlet import reduced_functional, solve_interior
from gtplateau.errors import GtPlateauError
from gtplateau.harmonic import bernstein_laplacian_defect, defect_certificate_bound
from gtplateau.numerics import gauss_legendre_rule
from gtplateau.patch import ControlNet, SurfaceShape, boundary_mask

#: Relative agreement required between two assembly routes of one solve.
ROUTE_RTOL = 1e-9
#: Relative agreement required when the same route is re-evaluated.
REPLAY_RTOL = 1e-12

#: Quadrature order used for reference energies.
REFERENCE_QUAD = 32


class CheckFailed(Exception):
    pass


#: Errors that mark a job's outputs as failing their check.
CHECK_ERRORS = (CheckFailed, GtPlateauError, OSError, KeyError, TypeError, ValueError)


@dataclass(frozen=True)
class Outcome:
    """What a passed check learned: the job's energy and its energy evaluations."""

    energy: float | None
    evaluations: int


def net_from_payload(payload: dict) -> ControlNet:
    points = np.array(
        [[cell if cell is not None else [np.nan] * 3 for cell in row] for row in payload["points"]],
        dtype=float,
    )
    return ControlNet(points=points)


def bernstein_extremal_energy(payload: dict) -> float:
    """Dirichlet energy of the Bernstein extremal of a boundary net (the energy_ratio base)."""
    net = net_from_payload(payload)
    bases = BasisSpec.bernstein(net.degree_u), BasisSpec.bernstein(net.degree_v)
    rule = gauss_legendre_rule(REFERENCE_QUAD)
    return solve_interior(net, *bases, rule, route="generic").energy


def _close(name: str, got: float, want: float, rtol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise CheckFailed(f"{name}: reported {got!r}, recomputed {want!r} (rtol {rtol:g})")


def _obj_counts(path: str) -> tuple[int, int]:
    vertices = faces = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("v "):
                vertices += 1
            elif line.startswith("f "):
                faces += 1
    return vertices, faces


def _check_meshes(out: str, names, tess: int) -> None:
    want = ((tess + 1) ** 2, 2 * tess * tess)
    for name in names:
        got = _obj_counts(os.path.join(out, name))
        if got != want:
            raise CheckFailed(f"{name}: {got[0]} vertices / {got[1]} faces, expected {want}")


def _same_points(label: str, got: np.ndarray, want: np.ndarray, mask: np.ndarray) -> None:
    if got.shape != want.shape or not np.array_equal(got[mask], want[mask]):
        raise CheckFailed(f"{label}: known points differ from the input net")


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(command: str, payload: dict, out: str) -> Outcome:
    """Check the artifacts a command wrote into ``out``; raise CheckFailed on a mismatch."""
    summary = _read_json(os.path.join(out, "summary.json"))
    if summary.get("command") != command:
        raise CheckFailed(f"summary.json names command {summary.get('command')!r}")
    settings, results = summary["settings"], summary["results"]
    rule = gauss_legendre_rule(settings["quadrature_order"])
    net = net_from_payload(payload)

    if command == "solve":
        if settings["basis"] == "gt":
            bases = SurfaceShape(*settings["alpha"]).basis_specs(net.degree_u, net.degree_v)
        else:
            bases = BasisSpec.bernstein(net.degree_u), BasisSpec.bernstein(net.degree_v)
        want = solve_interior(net, *bases, rule, route="generic").energy
        _close("solve energy", results["energy"], want, ROUTE_RTOL)
        _check_meshes(out, ["surface.obj"], settings["tessellation_cells"])
        return Outcome(energy=results["energy"], evaluations=1)

    if command == "optimize":
        want = reduced_functional(net, SurfaceShape(*results["alpha"]), rule)
        _close("optimize energy", results["energy"], want, REPLAY_RTOL)
        _check_meshes(out, ["surface.obj"], settings["tessellation_cells"])
        evaluations = sum(run["evaluations"] for run in results["runs"])
        return Outcome(energy=results["energy"], evaluations=evaluations)

    if command == "coons":
        shape = SurfaceShape(*results["alpha"])
        want = tb_dirichlet_energy(solve_tb_interior(net, shape, rule), shape, rule)
        _close("coons energy", results["energy"], want, REPLAY_RTOL)
        written = net_from_payload(_read_json(os.path.join(out, "net.json")))
        _same_points("coons net.json", written.points, net.points, boundary_mask(4, 4))
        _check_meshes(out, ["surface.obj", "r1.obj", "r2.obj"], settings["tessellation_cells"])
        return Outcome(energy=results["energy"], evaluations=results["evaluations"])

    if command == "harmonic":
        written = net_from_payload(_read_json(os.path.join(out, "net.json")))
        _same_points("harmonic net.json", written.points, net.points, net.fixed)
        if not written.is_complete:
            raise CheckFailed("harmonic net.json still has unknown points")
        want = bernstein_laplacian_defect(written, rule)
        bound = defect_certificate_bound(written)
        if not abs(results["laplacian_defect"] - want) <= ROUTE_RTOL * (abs(want) + bound):
            raise CheckFailed(
                f"harmonic defect: reported {results['laplacian_defect']!r}, recomputed {want!r}"
            )
        if results["certified"] != bool(want < bound):
            raise CheckFailed("harmonic certificate flag disagrees with the recomputed defect")
        return Outcome(energy=None, evaluations=1)

    raise CheckFailed(f"no oracle for command {command!r}")
