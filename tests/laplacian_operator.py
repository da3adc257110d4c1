"""Coefficient-space route to harmonic reconstruction, the reference for the library.

In the Bernstein setting the Laplacian of a degree-(m, n) patch is itself a
degree-(m, n) Bernstein surface whose coefficients are linear in the control
points: the second differences in each direction, degree-elevated back up by
two. Weighting those coefficient equations by the Cholesky factor of the
Bernstein Gram matrix makes their least-squares minimum the integrated
squared Laplacian. The library samples the Laplacian at a Gauss rule instead;
both routes have the same normal matrix.
"""

import math

import numpy as np

from gtplateau.errors import ConfigurationError
from gtplateau.patch import ControlNet


def elevation_coefficients(degree: int) -> np.ndarray:
    """Weights (a_k, b_k, c_k) expressing a degree-(n-2) Bernstein function in degree n.

    Row k (k = 0..n-2) holds a_k = (n-k)(n-k-1), b_k = 2(k+1)(n-k-1),
    c_k = (k+1)(k+2); each row sums to n(n+1).
    """
    if not isinstance(degree, (int, np.integer)) or degree < 2:
        raise ConfigurationError("elevation coefficients need degree >= 2")
    n = int(degree)
    k = np.arange(n - 1)
    return np.stack(
        [
            (n - k) * (n - k - 1.0),
            2.0 * (k + 1) * (n - k - 1.0),
            (k + 1) * (k + 2.0),
        ],
        axis=1,
    )


def _direction_operator(degree: int) -> np.ndarray:
    """Matrix taking control values to the direction's Laplacian coefficients.

    Composition of the second-difference stencil with the two-step degree
    elevation; the derivative prefactors n(n-1) cancel exactly against the
    elevation denominators, so none appear here.
    """
    coeff = elevation_coefficients(degree)
    size = degree + 1
    elevate = np.zeros((size, degree - 1))
    for k in range(degree - 1):
        elevate[k, k] = coeff[k, 0]
        elevate[k + 1, k] = coeff[k, 1]
        elevate[k + 2, k] = coeff[k, 2]
    second_diff = np.zeros((degree - 1, size))
    for i in range(degree - 1):
        second_diff[i, i] = 1.0
        second_diff[i, i + 1] = -2.0
        second_diff[i, i + 2] = 1.0
    return elevate @ second_diff


def laplacian_coefficient_operator(degree_u: int, degree_v: int) -> np.ndarray:
    """Flat linear map from grid points to the Bernstein coefficients of S_uu + S_vv.

    Acts on row-major flattened (m+1) x (n+1) grids, one coordinate channel at
    a time.
    """
    ku = _direction_operator(degree_u)
    kv = _direction_operator(degree_v)
    return np.kron(ku, np.eye(degree_v + 1)) + np.kron(np.eye(degree_u + 1), kv)


def bernstein_gram(degree: int) -> np.ndarray:
    """Closed-form products int B_i B_k dt = C(d,i) C(d,k) / (C(2d,i+k) (2d+1))."""
    d = int(degree)
    idx = np.arange(d + 1)
    comb_d = np.array([math.comb(d, int(i)) for i in idx], dtype=float)
    comb_2d = np.array([math.comb(2 * d, int(s)) for s in range(2 * d + 1)], dtype=float)
    return comb_d[:, None] * comb_d[None, :] / (comb_2d[idx[:, None] + idx[None, :]] * (2 * d + 1))


def operator_reconstruct(net: ControlNet) -> tuple[ControlNet, int]:
    """The unknown points and the lstsq rank from the Gram-weighted coefficient equations."""
    free_flat = net.free.ravel()
    operator = laplacian_coefficient_operator(net.degree_u, net.degree_v)
    known_points = np.where(net.fixed[..., None], net.points, 0.0).reshape(-1, 3)
    rhs = -(operator[:, ~free_flat] @ known_points[~free_flat])
    gram = np.kron(bernstein_gram(net.degree_u), bernstein_gram(net.degree_v))
    weight = np.linalg.cholesky(gram).T
    solution, _, rank, _ = np.linalg.lstsq(weight @ operator[:, free_flat], weight @ rhs, rcond=None)
    result = net.copy()
    result.points[net.free] = solution
    return result, int(rank)
