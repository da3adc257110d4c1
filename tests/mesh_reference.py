"""Triangle-mesh area, the reference that quadrature areas converge to."""

import numpy as np


def mesh_area(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Total area of a triangle mesh."""
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    return float(0.5 * np.linalg.norm(np.cross(a, b), axis=-1).sum())
