"""Surface forms and area through numpy's vector calls (``np.cross``,
``np.linalg.norm`` and sums over the last axis).

This is how ``gtplateau.patch`` computed them before it wrote out the
components; ``fundamental_forms`` and ``area`` must still give these bits.
"""

import numpy as np

from gtplateau.patch import FundamentalForms, _centred_jet


def fundamental_forms(su, sv, suu, suv, svv) -> FundamentalForms:
    _, s = np.frexp(max(np.abs(su).max(), np.abs(sv).max()))
    su, sv = np.ldexp(su, -s), np.ldexp(sv, -s)
    e = (su * su).sum(axis=-1)
    f = (su * sv).sum(axis=-1)
    g = (sv * sv).sum(axis=-1)
    disc = e * g - f * f
    cross = np.cross(su, sv)
    norm = np.linalg.norm(cross, axis=-1)
    degenerate = disc < 1e-12 * (e * g + 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        normal = cross / norm[..., None]
        l = (suu * normal).sum(axis=-1)
        m = (suv * normal).sum(axis=-1)
        n = (svv * normal).sum(axis=-1)
        h = (e * n - 2.0 * f * m + g * l) / (2.0 * disc)

    nanval = np.where(degenerate, np.nan, 1.0)
    first = (np.ldexp(x, 2 * s) for x in (e, f, g))
    return FundamentalForms(*first, *(x * nanval for x in (l, m, n)), H=np.ldexp(h * nanval, -2 * s))


def area(patch, rule) -> float:
    jet = _centred_jet(patch, rule)
    cross = np.cross(jet.Su, jet.Sv)
    _, exponent = np.frexp(np.abs(cross).max())
    integrand = np.linalg.norm(np.ldexp(cross, -exponent), axis=-1)
    return float(np.ldexp(rule.weights @ integrand @ rule.weights, exponent))
