"""The public surface: what ``gtplateau`` exports, names it no longer has, and
names the benchmark in ``perfbench/`` still needs."""

import ast
import importlib
import pathlib
import pkgutil
import shlex

import pytest

import gtplateau
import gtplateau.cli as cli

#: Names taken out of the library. The classical Coons block, scalar basis
#: evaluation, curve curvature, pointwise 2-D quadrature, single-point second
#: partials and the mesh area had no caller outside their own tests; the
#: harmonic coefficient route gave way to sampled least squares. The
#: coefficient route and the mesh area stay in ``tests/`` as references. The
#: per-call stacked fitnesses gave way to the prepared shape families. The
#: patch evaluators gave way to one jet, ``surface_jet``, and the 100 x 100
#: hybrid Gram to its 16 x 16 net form. The swarm's winner
#: is read from the prepared family, so the re-solve helpers went with it, and
#: every swarm is the family's ``minimize``, so the hybrid's optimum record too.
#: The harmonic tuner and certificate read one sampled Laplacian, so the
#: per-particle defect and its jet quadrature are references in ``tests/``.
#: The per-row "%" formatter of the writers gave way to ``io.format_table`` and
#: is the reference of the writer tests. A quadrature rule is hashable, so it
#: keys the form cache itself; the one summary writer takes its four fields;
#: the normal equations are built where they are used. Every Dirichlet form,
#: of a fixed basis, a shape family or the hybrid, comes from one builder,
#: ``dirichlet._forms``, so the per-route Gram and Kronecker helpers went. The
#: hybrid's map is built from the net's degrees, so the 4x4 net check, the block
#: offsets and the constant map went; the engine's own checks refuse what it
#: cannot solve. ``--tess`` has an upper bound, so the integer parser has both.
#: Each exit code has one exception class, so the domain and reconstruction
#: errors went into the configuration and solver errors that shared their codes.
#: The hybrid's single-shape solve is a row of its cached shape family, so its
#: own form, per-shape tables and bases label went.
#: The hybrid is a surface value, ``coons.TbPatch``, whose jet the tensor
#: patch's jet, energy and area read, so its own jet map and completeness check
#: went, and its reference normal equations are ``tb_system`` in ``tests/``.
#: The Dirichlet energy was the jet quadrature's one caller, so it holds it.
REMOVED = {
    "basis": (
        "eval_bernstein", "eval_gt", "_scalar_evaluation", "curve_point_and_curvature",
        "gt_table_stack", "ShapePair",
    ),
    "coons": (
        "BoundaryCurves", "coons_classical", "coons_classical_matrix", "_bilinear",
        "_check_unit", "_CORNER_TOL", "tb_reduced_functional_stack", "_hybrid_gram",
        "_tb_gram_system", "_solve_tb", "_tb_energy", "TbOptimum", "_net_form_stack",
        "require_blend_net", "_BASES", "_B", "_G", "_LIN", "_L", "_tb_form", "_pair_tables", "_bases",
        "_tb_jet_at", "_known_points", "_tb_system",
    ),
    "cli": ("_int_at_least",),
    "errors": ("DomainError", "ReconstructionError"),
    "dirichlet": (
        "reduced_functional_stack", "_extremal_energies", "_columns", "_family_fitness",
        "_cached_forms", "_free_system", "_gram", "_kron_sum", "_monomial_grams", "_PAIRS",
        "_MONOMIALS",
    ),
    "io": ("_format_rows", "_ROW_BLOCK", "RunSummary", "_int_cells", "_INT_QUADS", "_LEADING", "_INT_WIDTH"),
    "harmonic": (
        "elevation_coefficients", "_direction_operator", "laplacian_coefficient_operator",
        "bernstein_gram", "defect_objective",
    ),
    "numerics": ("integrate_2d",),
    "pso": ("project_to_bounds",),
    "patch": (
        "second_partials", "mesh_area", "evaluate_grid", "partial_grids",
        "second_partial_grids", "evaluate", "partials", "laplacian_defect", "_check_params",
        "_quadrature_energy",
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


#: Names that left ``__all__`` but stay in their modules, where the acceptance
#: criteria (05 compares the assembly routes, 09 builds boundary curves) and the
#: benchmark's traced functions import them from.
MODULE_ONLY = {
    "dirichlet": ("assemble_coefficients", "assemble_system", "assemble_system_generic"),
    "coons": ("CurveSpec",),
    "patch": ("mean_curvature_grid",),
}


@pytest.mark.parametrize(("module", "name"), [(m, n) for m, names in MODULE_ONLY.items() for n in names])
def test_module_only_name_is_not_exported(module, name):
    assert name not in gtplateau.__all__ and not hasattr(gtplateau, name)
    assert hasattr(importlib.import_module(f"gtplateau.{module}"), name)


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


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_prints_its_comments(capsys, monkeypatch):
    """The README's Library example runs, and each print shows the numbers of
    its trailing comment, to the comment's decimals."""
    block = README.read_text().split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    comments = [line.split("#")[-1].split() for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 2
    for got, want in zip(printed, comments):
        rounded = [
            g if "." not in w else f"{float(g):.{len(w.split('.')[1])}f}" for g, w in zip(got, want)
        ]
        assert (len(got), rounded) == (len(want), want)


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    """Every ``gtplateau`` line of the README's Command line block exits 0 from
    ``tmp_path``, and a command whose comment quotes an energy prints it."""
    block = README.read_text().split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixtures").symlink_to(README.parent / "fixtures")
    quoted, ran, checked = None, 0, 0
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            quoted = line.split("(energy ", 1)[1].split(")")[0] if "(energy " in line else None
        elif line.strip():
            argv = shlex.split(line)
            assert argv[0] == "gtplateau"
            capsys.readouterr()
            assert cli.main(argv[1:]) == 0, line
            assert quoted is None or f"energy={quoted}" in capsys.readouterr().out, line
            ran, checked = ran + 1, checked + (quoted is not None)
    assert (ran, checked) == (9, 1)
