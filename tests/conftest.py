"""Shared fixtures: small transformation data reused across the suite."""

import numpy as np
import pytest

from nnls_gbdt import gbdt_core


@pytest.fixture(scope="session")
def scalar_triple():
    """Scalar datum whose S never vanishes on real grids (unequal columns)."""
    return gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[1.0]])


@pytest.fixture(scope="session")
def scalar_focusing_triple():
    return gbdt_core.complete_triple(-1, [[1.0]], [[2.0]], [[1.0]])


@pytest.fixture(scope="session")
def jordan_triple():
    return gbdt_core.complete_triple(
        1, [[1.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]], [[0.0], [0.3]]
    )


@pytest.fixture(scope="session")
def wide_triple():
    return gbdt_core.complete_triple(1, [[1.0]], [[2.0, 1.0]], [[1.0]])


@pytest.fixture(scope="session")
def small_grid():
    return gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)


def make_random_triple(rng, sigma, n=None, m1=None, m2=None):
    """Random datum with eigenvalues pushed off the imaginary axis.

    The real shift keeps the spectral margin comfortable so the Sylvester
    route is always available; the smaller second column block keeps the
    resulting fields bounded on desk-scale grids.
    """
    if n is None:
        n = int(rng.integers(1, 5))
    if m1 is None:
        m1 = int(rng.integers(1, 3))
    if m2 is None:
        m2 = int(rng.integers(1, 3))
    a = 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a += 0.45 * np.eye(n)
    th1 = rng.normal(size=(n, m1)) + 1j * rng.normal(size=(n, m1))
    th2 = 0.3 * (rng.normal(size=(n, m2)) + 1j * rng.normal(size=(n, m2)))
    return gbdt_core.complete_triple(sigma, a, th1, th2)


def field_with_stacks(triple, grid):
    """solution_field's level, and the level's M and K, node-first,
    gathered from the tiles solution_field hands a check by their rows."""
    nodes = (grid.nx, grid.nt)
    m = np.empty(nodes + (triple.n, triple.n), dtype=complex)
    k = np.empty(nodes + (triple.n, triple.m2), dtype=complex)

    def gather(tile):
        m[tile.rows] = tile.M
        k[tile.rows] = tile.K

    return gbdt_core.solution_field(triple, grid, [gather]), m, k
