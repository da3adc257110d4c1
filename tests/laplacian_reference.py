"""Squared Laplacian by quadrature of the surface jet, the reference for ``harmonic``'s samples."""

from gtplateau.errors import ConfigurationError
from gtplateau.patch import Patch, surface_jet


def laplacian_defect(patch, rule) -> float:
    """Integral of |S_uu + S_vv|^2 over the unit square."""
    jet = surface_jet(patch, rule.nodes, rule.nodes)
    lap = jet.Suu + jet.Svv
    integrand = (lap * lap).sum(axis=-1)
    return float(rule.weights @ integrand @ rule.weights)


def defect_objective(net, shape, rule) -> float:
    """The tuning target F(alpha): Laplacian defect of the GT patch on this net."""
    if not net.is_complete:
        raise ConfigurationError("defect objective requires a fully known net")
    return laplacian_defect(Patch.gt(net, shape), rule)
