"""The public surface: what ``gtplateau`` exports, and names it no longer has."""

import importlib
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
#: hybrid Gram to the 16 x 16 form of ``_net_form_stack``.
REMOVED = {
    "basis": (
        "eval_bernstein", "eval_gt", "_scalar_evaluation", "curve_point_and_curvature",
        "gt_table_stack",
    ),
    "coons": (
        "BoundaryCurves", "coons_classical", "coons_classical_matrix", "_bilinear",
        "_check_unit", "_CORNER_TOL", "tb_reduced_functional_stack", "_hybrid_gram",
        "_tb_gram_system",
    ),
    "dirichlet": ("reduced_functional_stack", "_extremal_energies", "_columns"),
    "harmonic": (
        "elevation_coefficients", "_direction_operator", "laplacian_coefficient_operator",
        "bernstein_gram",
    ),
    "numerics": ("integrate_2d",),
    "patch": (
        "second_partials", "mesh_area", "evaluate_grid", "partial_grids",
        "second_partial_grids", "evaluate", "partials",
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

