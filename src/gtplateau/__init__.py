"""Dirichlet-extremal tensor-product patches with tunable trigonometric bases.

The library solves a discrete least-area problem: given the boundary rows and
columns of a control net, fill the interior so the patch extremizes the
Dirichlet energy, optionally optimizing the basis shape parameters by a
particle swarm. Harmonic reconstruction of partially known nets and a blended
Coons-style construction with Bernstein boundaries round out the toolkit.
"""

from .basis import BasisSpec, ShapePair, basis_tables
from .coons import (
    CurveSpec,
    optimize_tb,
    solve_tb_interior,
    tb_dirichlet_energy,
    tb_surface_jet,
)
from .dirichlet import (
    assemble_coefficients,
    assemble_system,
    assemble_system_generic,
    reduced_functional,
    solve_interior,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GtPlateauError,
    NetFormatError,
    ReconstructionError,
    SolverError,
)
from .harmonic import harmonic_reconstruct
from .io import load_net, save_net
from .numerics import QuadratureRule, RngStream, gauss_legendre_rule
from .patch import (
    ControlNet,
    Patch,
    SurfaceShape,
    area,
    dirichlet_energy,
    mean_curvature_grid,
    surface_jet,
    tessellate,
)
from .pso import PsoConfig, PsoResult, optimize

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "ConfigurationError",
    "ControlNet",
    "CurveSpec",
    "DomainError",
    "GtPlateauError",
    "NetFormatError",
    "Patch",
    "PsoConfig",
    "PsoResult",
    "QuadratureRule",
    "ReconstructionError",
    "RngStream",
    "ShapePair",
    "SolverError",
    "SurfaceShape",
    "area",
    "assemble_coefficients",
    "assemble_system",
    "assemble_system_generic",
    "basis_tables",
    "dirichlet_energy",
    "gauss_legendre_rule",
    "harmonic_reconstruct",
    "load_net",
    "mean_curvature_grid",
    "optimize",
    "optimize_tb",
    "reduced_functional",
    "save_net",
    "solve_interior",
    "solve_tb_interior",
    "surface_jet",
    "tb_dirichlet_energy",
    "tb_surface_jet",
    "tessellate",
]
