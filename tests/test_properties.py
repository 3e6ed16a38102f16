"""Invariants of the construction under changes of the datum, as properties.

Examples are derandomized, so every run checks the same data.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nnls_gbdt import gbdt_core
from nnls_gbdt.errors import DegenerateS, SingularPoint, SpectralClash
from conftest import field_with_stacks, make_random_triple

GRID = gbdt_core.Grid.build(1.0, 9, -0.2, 0.2, 5)
POINTS = ((0.3, 0.1), (-0.7, -0.15))
PROPERTY = settings(derandomize=True, database=None, max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SIGMAS = st.sampled_from((1, -1))


def _h(m):
    return np.conj(np.swapaxes(m, -1, -2))


def _close(got, expected, rtol=1e-8):
    return np.linalg.norm(got - expected) <= rtol * max(1.0, np.linalg.norm(expected))


def _completed(sigma, a, theta1, theta2):
    try:
        return gbdt_core.complete_triple(sigma, a, theta1, theta2)
    except (SpectralClash, DegenerateS):
        assume(False)


def _assert_same_u(base, other):
    """Same mask and u on GRID, same u at POINTS away from singular points;
    returns each field with its M and K."""
    field0, m0, k0 = field_with_stacks(base, GRID)
    field1, m1, k1 = field_with_stacks(other, GRID)
    assert np.array_equal(field0.singular_mask, field1.singular_mask)
    keep = ~field0.singular_mask
    assert _close(field1.u[keep], field0.u[keep])
    for x, t in POINTS:
        try:
            u0 = gbdt_core.u_tilde_at(base, x, t)
        except SingularPoint:
            continue
        assert _close(gbdt_core.u_tilde_at(other, x, t), u0)
    return (m0, k0), (m1, k1)


@PROPERTY
@given(
    seed=SEEDS,
    sigma=SIGMAS,
    modulus=st.floats(0.1, 10.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_common_theta_scaling_leaves_u_and_mask(seed, sigma, modulus, phase):
    base = make_random_triple(np.random.default_rng(seed), sigma)
    c = modulus * cmath.exp(1j * phase)
    scaled = _completed(sigma, base.A, c * base.theta1, c * base.theta2)
    _assert_same_u(base, scaled)


@PROPERTY
@given(seed=SEEDS, sigma=SIGMAS)
def test_similarity_of_the_datum(seed, sigma):
    """A -> P A P^-1, theta -> P theta: u is unchanged, S -> P S P*, and
    on the grid M -> P M P* and K -> P K."""
    rng = np.random.default_rng(seed)
    base = make_random_triple(rng, sigma)
    n = base.n
    p = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    assume(np.linalg.cond(p) < 1e2)
    assume(np.linalg.norm(_h(p) @ p - np.eye(n)) > 0.1)
    moved = _completed(
        sigma, p @ base.A @ np.linalg.inv(p), p @ base.theta1, p @ base.theta2
    )
    (m0, k0), (m1, k1) = _assert_same_u(base, moved)
    assert _close(m1, p @ m0 @ _h(p))
    assert _close(k1, p @ k0)
    for x, t in POINTS:
        assert _close(
            gbdt_core.s_at(moved, x, t), p @ gbdt_core.s_at(base, x, t) @ _h(p)
        )


def _jordan_matrix(rng, n):
    """Block-diagonal Jordan form: blocks of random sizes, each with its own
    eigenvalue off the imaginary axis."""
    a = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        size = int(rng.integers(1, n - start + 1))
        block = slice(start, start + size)
        a[block, block] = (0.45 + 0.3 * rng.random() + 0.5j * rng.normal()) * np.eye(size)
        a[block, block] += np.eye(size, k=1)
        start += size
    return a


@PROPERTY
@given(
    seed=SEEDS,
    sigma=SIGMAS,
    n=st.integers(1, 8),
    jordan=st.booleans(),
    x=st.floats(-1.0, 1.0),
    t=st.floats(-0.3, 0.3),
)
def test_propagated_s_matches_the_kronecker_solve(seed, sigma, n, jordan, x, t):
    """s_at, propagated from the origin parts, solves the coupling identity
    at (x, t) as the Kronecker solve of its right side does, and keeps
    S(-x, t) = S(x, t)*."""
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if jordan:
        a = _jordan_matrix(rng, n)
    else:
        a = 0.35 * cnormal(n, n) + 0.45 * np.eye(n)
    m1, m2 = (int(m) for m in rng.integers(1, 3, size=2))
    triple = _completed(sigma, a, cnormal(n, m1), 0.3 * cnormal(n, m2))
    p = gbdt_core.pi_at(triple, x, t)
    pm = gbdt_core.pi_at(triple, -x, t)
    rhs = gbdt_core.coupling_term(
        triple.kappa, p[:, :m1], p[:, m1:], pm[:, :m1], pm[:, m1:]
    )
    expected = triple.sylvester(rhs)
    s = gbdt_core.s_at(triple, x, t)
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(s - expected) <= 1e-12 * scale
    assert np.linalg.norm(gbdt_core.s_at(triple, -x, t) - _h(s)) <= 1e-12 * scale
