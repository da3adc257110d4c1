"""The public surface: what ``gtplateau`` exports, names it no longer has, and
names the benchmark in ``perfbench/`` still needs."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gtplateau

#: Names taken out of the library. The classical Coons block, scalar basis
#: evaluation, curve curvature, pointwise 2-D quadrature, single-point second
#: partials and the mesh area had no caller outside their own tests; the
#: harmonic coefficient route gave way to sampled least squares. The
#: coefficient route and the mesh area stay in ``tests/`` as references. The
#: per-call stacked fitnesses gave way to the prepared shape families. The
#: patch evaluators gave way to one jet, ``surface_jet``, and the 100 x 100
#: hybrid Gram to the 16 x 16 form of ``_net_form_stack``. The swarm's winner
#: is read from the prepared family, so the re-solve helpers went with it, and
#: every swarm is the family's ``minimize``, so the hybrid's optimum record too.
#: The harmonic tuner and certificate read one sampled Laplacian, so the
#: per-particle defect and its jet quadrature are references in ``tests/``.
#: The per-row "%" formatter of the writers gave way to ``io.format_table`` and
#: is the reference of the writer tests.
REMOVED = {
    "basis": (
        "eval_bernstein", "eval_gt", "_scalar_evaluation", "curve_point_and_curvature",
        "gt_table_stack",
    ),
    "coons": (
        "BoundaryCurves", "coons_classical", "coons_classical_matrix", "_bilinear",
        "_check_unit", "_CORNER_TOL", "tb_reduced_functional_stack", "_hybrid_gram",
        "_tb_gram_system", "_solve_tb", "_tb_energy", "TbOptimum",
    ),
    "dirichlet": ("reduced_functional_stack", "_extremal_energies", "_columns", "_family_fitness"),
    "io": ("_format_rows", "_ROW_BLOCK"),
    "harmonic": (
        "elevation_coefficients", "_direction_operator", "laplacian_coefficient_operator",
        "bernstein_gram", "defect_objective",
    ),
    "numerics": ("integrate_2d",),
    "patch": (
        "second_partials", "mesh_area", "evaluate_grid", "partial_grids",
        "second_partial_grids", "evaluate", "partials", "laplacian_defect",
    ),
}


def submodules():
    return [
        importlib.import_module(f"gtplateau.{info.name}")
        for info in pkgutil.iter_modules(gtplateau.__path__)
        if info.name != "__main__"
    ]


def test_every_export_resolves():
    assert [name for name in gtplateau.__all__ if not hasattr(gtplateau, name)] == []


def test_exports_are_unique():
    assert len(set(gtplateau.__all__)) == len(gtplateau.__all__)


@pytest.mark.parametrize("name", sorted({n for names in REMOVED.values() for n in names}))
def test_removed_name_is_unreachable(name):
    for module in [gtplateau, *submodules()]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"



PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_pins():
    """(module, name) of every gtplateau function the benchmark traces by name
    (``layers.FUNCTIONS``) and every gtplateau name it imports, read from source."""
    pins = []
    for file in ("layers.py", "oracles.py"):
        tree = ast.parse((PERFBENCH / file).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gtplateau"):
                pins += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FUNCTIONS":
                traced = ast.literal_eval(node.value)
                pins += [(f"gtplateau.{m}", name) for m, names in traced.items() for name in names]
    return pins


def test_benchmark_pins_resolve():
    pins = benchmark_pins()
    assert ("gtplateau.harmonic", "bernstein_laplacian_defect") in pins
    missing = [pin for pin in pins if not hasattr(importlib.import_module(pin[0]), pin[1])]
    assert missing == []
