"""Adapter from a per-point objective to the stacked objective of ``pso.optimize``."""

import numpy as np


def rowwise(objective):
    """Evaluate ``objective`` on each row of a (k, dims) stack, in row order."""

    def stacked(points):
        return np.array([objective(x) for x in points])

    return stacked
