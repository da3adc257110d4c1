"""Shared fixtures: bundled nets, quadrature rules, and invariant helpers."""

import itertools
import json
import pathlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from gtplateau.io import load_net
from gtplateau.numerics import RngStream, gauss_legendre_rule
from gtplateau.patch import ControlNet, area, boundary_mask, dirichlet_energy
from laplacian_operator import _direction_operator

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def rule32():
    return gauss_legendre_rule(32)


@pytest.fixture(scope="session")
def rule16():
    return gauss_legendre_rule(16)


#: Net files no JSON net can be read from: bytes that are not UTF-8, arrays nested
#: past the decoder's recursion limit, and an integer literal past Python's digit
#: limit for int (an interpreter without that limit reads it as a non-finite point).
MALFORMED_NET_FILES = {
    "not-utf8": b"\xff{}",
    "nested": b'{"points": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    "long-integer": b'{"points": [[[' + b"7" * 5000 + b", 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]]}",
}


@pytest.fixture(params=sorted(MALFORMED_NET_FILES))
def malformed_net_file(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_bytes(MALFORMED_NET_FILES[request.param])
    return path


@pytest.fixture
def wave_net():
    """Bicubic boundary net with alternating-sign z data; interior unknown."""
    return load_net(FIXTURES / "wave_boundary.json")


@pytest.fixture
def dome_net():
    """Bicubic boundary net with all-positive z data; interior unknown."""
    return load_net(FIXTURES / "dome_boundary.json")


@pytest.fixture
def wave_reference_net():
    """The wave net with corner (3, 0) at z = 0, the net the published values fit."""
    return load_net(FIXTURES / "wave_reference.json")


@pytest.fixture
def columns_net():
    """4x4 net with only the first and last columns known (8 unknowns)."""
    return load_net(FIXTURES / "columns_known.json")


@pytest.fixture
def rows_net():
    """4x4 net with only the first and last rows known (8 unknowns)."""
    return load_net(FIXTURES / "rows_known.json")


@pytest.fixture(scope="session")
def check_am_gm(rule32):
    """Assert area <= Dirichlet energy on a patch; returns (area, energy)."""

    def check(patch):
        a = area(patch, rule32)
        e = dirichlet_energy(patch, rule32)
        assert a <= e + 1e-9, f"area {a!r} exceeds Dirichlet energy {e!r}"
        return a, e

    return check


@pytest.fixture(scope="session")
def boundary_net_factory():
    """Seeded random boundary-only nets (interior unknown, boundary fixed)."""

    def make(seed, shape=(4, 4), low=-3.0, high=5.0):
        rng = RngStream(seed, 0)
        points = np.full(shape + (3,), np.nan)
        mask = boundary_mask(*shape)
        points[mask] = rng.uniform(low, high, size=(int(mask.sum()), 3))
        return ControlNet(points=points, fixed=mask)

    return make


@pytest.fixture(scope="session")
def quadratic_minimizer():
    """Direct minimizer of a quadratic functional.

    For quadratic E the unit-step differences are exact: H[q,r] =
    E(e_q + e_r) - E(e_q) - E(e_r) + E(0) and 2 g[q] = E(e_q) - E(-e_q),
    so solving H p = -g recovers the minimizer without touching the
    production assembly code.
    """

    def minimize(energy_of, dims: int):
        basis = np.eye(dims)
        base = energy_of(np.zeros(dims))
        single = np.array([energy_of(basis[q]) for q in range(dims)])
        gradient = np.array(
            [(single[q] - energy_of(-basis[q])) / 2.0 for q in range(dims)]
        )
        hessian = np.empty((dims, dims))
        for q in range(dims):
            for r in range(q, dims):
                value = energy_of(basis[q] + basis[r]) - single[q] - single[r] + base
                hessian[q, r] = hessian[r, q] = value
        return np.linalg.solve(hessian, -gradient)

    return minimize


def _bernstein_mass(m: int):
    """Exact int B_i^m B_j^m = C(m,i) C(m,j) / ((2m+1) C(2m,i+j)) on [0, 1]."""
    return [
        [
            Fraction(comb(m, i) * comb(m, j), (2 * m + 1) * comb(2 * m, i + j))
            for j in range(m + 1)
        ]
        for i in range(m + 1)
    ]


def _bernstein_grams(n: int):
    """Exact mass M[i][j] = int B_i B_j and stiffness K[i][j] = int B_i' B_j'.

    B_i^n' = n (B_{i-1}^{n-1} - B_i^{n-1}), out-of-range terms vanishing.
    """

    def d(i, k):
        return n * ((k == i - 1) - (k == i))

    lower = _bernstein_mass(n - 1)
    stiffness = [
        [
            sum(d(i, a) * lower[a][b] * d(j, b) for a in range(n) for b in range(n))
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]
    return _bernstein_mass(n), stiffness


def _solve_exact(matrix, rhs):
    """Gauss-Jordan elimination over Fractions; rhs holds one row per equation."""
    n = len(matrix)
    rows = [list(a) + list(b) for a, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for r in range(n):
            if r != k and rows[r][k] != 0:
                factor = rows[r][k]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return [row[n:] for row in rows]


@pytest.fixture(scope="session")
def bernstein_extremal_energy():
    """Exact Dirichlet energy of the Bernstein extremal of a net file.

    Reads the JSON itself (unknowns are the null entries) and minimises
    E = 1/2 sum_c P_c^T (K_u (x) M_v + M_u (x) K_v) P_c over the unknowns in
    rational arithmetic, so the result is a Fraction that owes nothing to the
    production basis, quadrature, or assembly code.
    """

    def energy(path) -> Fraction:
        raw = json.loads(pathlib.Path(path).read_text())
        (nu, nv), grid = raw["degrees"], raw["points"]
        mu, ku = _bernstein_grams(nu)
        mv, kv = _bernstein_grams(nv)
        cells = list(itertools.product(range(nu + 1), range(nv + 1)))
        a = {
            (p, q): ku[p[0]][q[0]] * mv[p[1]][q[1]] + mu[p[0]][q[0]] * kv[p[1]][q[1]]
            for p in cells
            for q in cells
        }
        points = {
            p: [Fraction(x) for x in grid[p[0]][p[1]]]
            for p in cells
            if grid[p[0]][p[1]] is not None
        }
        free = [p for p in cells if p not in points]
        rhs = [
            [-sum(a[p, q] * points[q][c] for q in points) for c in range(3)]
            for p in free
        ]
        matrix = [[a[p, q] for q in free] for p in free]
        points.update(zip(free, _solve_exact(matrix, rhs)))
        return sum(
            points[p][c] * a[p, q] * points[q][c]
            for p in cells
            for q in cells
            for c in range(3)
        ) / 2

    return energy


@pytest.fixture(scope="session")
def exact_harmonic_points():
    """Exact minimizer of the integrated squared Laplacian over a net's unknowns.

    With K the integer direction operator of the coefficient route and B the
    rational Bernstein mass matrix, the defect is sum_c P_c^T Q P_c with
    Q = (K_u (x) I + I (x) K_v)^T (B_u (x) B_v) (K_u (x) I + I (x) K_v). Per
    direction that needs S = K^T B K, X = K^T B and B. The free rows of Q are
    solved in rational arithmetic from the binary values of the known points;
    the result is rounded to floats, one row per unknown in row-major order.
    """

    def factors(degree):
        k = [[int(x) for x in row] for row in _direction_operator(degree)]
        b = _bernstein_mass(degree)
        size = range(degree + 1)
        x = [[sum(k[a][i] * b[a][j] for a in size) for j in size] for i in size]
        s = [[sum(x[i][a] * k[a][j] for a in size) for j in size] for i in size]
        return s, x, b

    def solve(net):
        su, xu, bu = factors(net.degree_u)
        sv, xv, bv = factors(net.degree_v)

        def q(p, r):
            (i, j), (k, l) = p, r
            return (
                su[i][k] * bv[j][l]
                + xu[i][k] * xv[l][j]
                + xu[k][i] * xv[j][l]
                + bu[i][k] * sv[j][l]
            )

        cells = list(itertools.product(range(net.degree_u + 1), range(net.degree_v + 1)))
        free = [p for p in cells if not net.fixed[p]]
        known = {p: [Fraction(float(x)) for x in net.points[p]] for p in cells if net.fixed[p]}
        rhs = [[-sum(q(p, r) * known[r][c] for r in known) for c in range(3)] for p in free]
        solution = _solve_exact([[q(p, r) for r in free] for p in free], rhs)
        return np.array(solution, dtype=float)

    return solve
