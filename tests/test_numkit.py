"""Tests of the dense linear-algebra primitives against independent oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nnls_gbdt import numkit
from nnls_gbdt.errors import InvalidRange, NonSquare, Overflow, SpectralClash


def test_expm_zero_is_identity():
    out = numkit.expm(np.zeros((2, 2)))
    assert np.array_equal(out, np.eye(2))


def test_expm_diagonal():
    out = numkit.expm(np.diag([1j * math.pi, 0.0]))
    assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-13)


def test_expm_nilpotent_truncates():
    # A0^2 = 0, so the series ends after the linear term
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = 0.7
    out = numkit.expm(1j * x * a0)
    assert np.allclose(out, np.eye(2) + 1j * x * a0, atol=1e-15)


def test_expm_inverse_pairs():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m *= 5.0 / np.linalg.norm(m, 1)
        prod = numkit.expm(m) @ numkit.expm(-m)
        assert np.linalg.norm(prod - np.eye(3)) <= 1e-11


def test_expm_similarity():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    lhs = numkit.expm(p @ m @ np.linalg.inv(p))
    rhs = p @ numkit.expm(m) @ np.linalg.inv(p)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_expm_rejects_nonsquare_and_overflow():
    with pytest.raises(NonSquare):
        numkit.expm(np.ones((2, 3)))
    with pytest.raises(NonSquare):
        numkit.expm(np.ones((3, 2, 3)))
    with pytest.raises(Overflow):
        numkit.expm(np.diag([800.0, 0.0]))
    # one slice over the range fails the whole stack
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[2] = np.diag([800.0, 0.0])
    with pytest.raises(Overflow):
        numkit.expm(stack)
    # a table's range is that of its last entry, 419 m, although the largest
    # exponential it takes is the stride 399 m, inside the range
    with pytest.raises(Overflow):
        numkit.expm_steps(np.diag([1.7, 0.0]), 420)
    with pytest.raises(InvalidRange):
        numkit.expm_steps(np.eye(2), 0)
    with pytest.raises(NonSquare):
        numkit.expm_steps(np.ones((2, 3)), 5)
    with pytest.raises(ValueError):
        numkit.expm_steps(np.diag([np.nan, 0.0]), 5)


def _expm_slices(n, rng):
    diagonal = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
    jordan = 0.7 * np.eye(n) + np.eye(n, k=1)
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.stack([diagonal, 3.0 * jordan, 1j * jordan, dense, 10.0 * dense])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_expm_stack_matches_per_matrix_loop(n):
    stack = _expm_slices(n, np.random.default_rng(20 + n))
    batched = numkit.expm(stack)
    assert batched.shape == stack.shape
    for k in range(stack.shape[0]):
        assert np.array_equal(batched[k], numkit.expm(stack[k]))
    nested = numkit.expm(stack.reshape(5, 1, n, n))
    assert np.array_equal(nested.reshape(stack.shape), batched)


@pytest.mark.parametrize("count", [1, 2, 3, 17, 401])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_expm_steps_matches_per_step_exponentials(n, count):
    """Each table entry e^{km} against expm(k m), with (count - 1) m of
    1-norm 5, about the size of one Simpson leg's last exponent."""
    for slice_ in _expm_slices(n, np.random.default_rng(30 + n)):
        m = 5.0 * slice_ / (max(count - 1, 1) * np.linalg.norm(slice_, 1))
        table = numkit.expm_steps(m, count)
        assert table.shape == (count, n, n)
        for k in range(count):
            expected = numkit.expm(k * m)
            assert np.linalg.norm(table[k] - expected) <= 1e-14 * np.linalg.norm(expected)


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_matches_lapack(s, b, det, x):
    """det and x against np.linalg.det and np.linalg.solve, per matrix, to
    1e-13 relative times cond s (LU's backward error times the condition
    number bounds the forward error of both)."""
    n, k = b.shape[-2:]
    s, b = s.reshape(-1, n, n), b.reshape(-1, n, k)
    det, x = det.reshape(-1), x.reshape(-1, n, k)
    if s.shape[0] == 0:
        return
    cond = np.linalg.cond(s)
    expected_det = np.linalg.det(s)
    expected_x = np.linalg.solve(s, b)
    det_gap = np.abs(det - expected_det) / np.abs(expected_det)
    x_gap = np.linalg.norm(x - expected_x, axis=(-2, -1)) / np.linalg.norm(
        expected_x, axis=(-2, -1)
    )
    assert np.all(det_gap <= 1e-13 * cond)
    assert np.all(x_gap <= 1e-13 * cond)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    k=st.integers(1, 8),
    count=st.sampled_from((0, 1, 2, 7, 33)),
    zero_lead=st.booleans(),
)
def test_factor_solve_matches_lapack(seed, n, k, count, zero_lead):
    rng = np.random.default_rng(seed)
    s = _cnormal(rng, count, n, n)
    b = _cnormal(rng, count, n, k)
    if zero_lead and n > 1:
        s[::2, 0, 0] = 0.0
    det, x = numkit.factor_solve(s, b)
    assert det.shape == (count,) and x.shape == (count, n, k)
    _assert_matches_lapack(s, b, det, x)


@pytest.mark.parametrize("offset", [-1, 0, 1, 1027])
def test_factor_solve_across_chunks(offset):
    """Stacks just under, at, just over and well past one chunk, with
    leading axes kept."""
    count = numkit._FACTOR_CHUNK + offset
    rng = np.random.default_rng(40 + offset)
    s = _cnormal(rng, count, 3, 3).reshape(count, 1, 3, 3)
    b = _cnormal(rng, count, 3, 2).reshape(count, 1, 3, 2)
    det, x = numkit.factor_solve(s, b)
    assert det.shape == (count, 1) and x.shape == (count, 1, 3, 2)
    _assert_matches_lapack(s, b, det, x)


def test_factor_solve_pivots_rows():
    """Zero leading entries force row exchanges; a permutation matrix has
    det +-1 exactly and solves to the permuted right side."""
    perm = np.eye(4)[[2, 0, 3, 1]]
    swap = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [3.0, 0.0, 1j]])
    b_perm = np.arange(8.0).reshape(4, 2)
    det, x = numkit.factor_solve(perm, b_perm)
    assert det == np.linalg.det(perm)
    assert np.array_equal(x, perm.T @ b_perm)
    det, x = numkit.factor_solve(swap, np.eye(3))
    assert abs(det - np.linalg.det(swap)) <= 1e-15 * abs(det)
    assert np.allclose(x, np.linalg.inv(swap), rtol=0, atol=1e-15)


def test_factor_solve_singular_node_is_quiet():
    """An exactly singular matrix gives det 0 and NaN in x without a
    warning, and leaves the other matrices of its chunk as they are."""
    rng = np.random.default_rng(41)
    s = _cnormal(rng, 5, 2, 2)
    b = _cnormal(rng, 5, 2, 3)
    s[1] = [[1.0, 2.0], [2.0, 4.0]]
    s[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, x = numkit.factor_solve(s, b)
    assert det[1] == 0 and det[3] == 0
    assert np.isnan(x[[1, 3]]).all()
    keep = [0, 2, 4]
    _assert_matches_lapack(s[keep], b[keep], det[keep], x[keep])


def test_factor_solve_repeats_bytes():
    rng = np.random.default_rng(42)
    s = _cnormal(rng, 1500, 4, 4)
    b = _cnormal(rng, 1500, 4, 2)
    first = numkit.factor_solve(s, b)
    second = numkit.factor_solve(s, b)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()


def test_factor_solve_rejects_bad_operands():
    with pytest.raises(NonSquare):
        numkit.factor_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        numkit.factor_solve(np.eye(2), np.ones((3, 1)))
    with pytest.raises(ValueError):
        numkit.factor_solve(np.ones((4, 2, 2)), np.ones((3, 2, 1)))
    with pytest.raises(ValueError):
        numkit.factor_solve(np.diag([np.inf, 1.0]), np.ones((2, 1)))


def test_solve_sylvester_scalar_cases():
    assert np.allclose(numkit.solve_sylvester([[1.0]], [[1.0]], [[2.0]]), [[1.0]])
    out = numkit.solve_sylvester([[1.0 + 1j]], [[1.0 - 1j]], [[2.0]])
    assert np.allclose(out, [[1.0]])


def test_solve_sylvester_matches_scipy():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = numkit.solve_sylvester(a, b, c)
    expected = scipy.linalg.solve_sylvester(a, b, c)
    assert np.linalg.norm(x - expected) <= 1e-11 * max(1.0, np.linalg.norm(expected))
    res = np.linalg.norm(a @ x + x @ b - c)
    scale = (
        np.linalg.norm(a) * np.linalg.norm(x)
        + np.linalg.norm(x) * np.linalg.norm(b)
        + np.linalg.norm(c)
    )
    assert res <= 1e-11 * scale


def test_solve_sylvester_hermitian_structure():
    """X is Hermitian whenever B = A* and C = C*."""
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 1.5 * np.eye(3)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = c + c.conj().T
    x = numkit.solve_sylvester(a, a.conj().T, c)
    assert np.linalg.norm(x - x.conj().T) <= 1e-12 * np.linalg.norm(x)


def test_solve_sylvester_spectral_clash():
    with pytest.raises(SpectralClash):
        numkit.solve_sylvester([[1.0]], [[-1.0]], [[1.0]])


def test_sylvester_solver_batches_match_single_solves():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + np.eye(2)
    b = a.conj().T
    solver = numkit.sylvester_solver(a, b)
    stack = rng.normal(size=(4, 3, 2, 2)) + 1j * rng.normal(size=(4, 3, 2, 2))
    batched = solver(stack)
    for i in range(4):
        for k in range(3):
            single = numkit.solve_sylvester(a, b, stack[i, k])
            assert np.allclose(batched[i, k], single, atol=1e-13)


def test_eigenvalues_basic():
    out = sorted(numkit.eigenvalues(np.diag([1.0, 2j])), key=abs)
    assert np.allclose(out, [1.0, 2j])
    jordan = numkit.eigenvalues([[0.5, 1.0], [0.0, 0.5]])
    assert np.allclose(sorted(jordan.real), [0.5, 0.5], atol=1e-8)
    assert np.allclose(jordan.imag, 0.0, atol=1e-8)


def test_eigenvalues_companion_matrix():
    # companion form of z^2 - 3z + 2, roots 1 and 2
    comp = np.array([[0.0, -2.0], [1.0, 3.0]])
    roots = sorted(numkit.eigenvalues(comp).real)
    assert np.allclose(roots, [1.0, 2.0], atol=1e-10)


def test_eigenvalues_reflection_conjugation():
    """The spectrum of -A* mirrors the spectrum of A across the imaginary axis."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    left = sorted(numkit.eigenvalues(-a.conj().T), key=lambda z: (z.real, z.imag))
    right = sorted(-np.conj(numkit.eigenvalues(a)), key=lambda z: (z.real, z.imag))
    assert np.allclose(left, right, atol=1e-10)


def test_integrate_matrix_constant():
    c = np.array([[1.0 + 2j, 0.5], [0.0, -1j]])
    out = numkit.integrate_matrix(
        lambda r: np.broadcast_to(c, r.shape + c.shape), 0.0, 1.0, 10
    )
    assert np.allclose(out, c, atol=1e-14)


def test_integrate_matrix_oscillatory():
    out = numkit.integrate_matrix(
        lambda r: np.exp(1j * r)[:, None, None], 0.0, math.pi, 200
    )
    assert abs(out[0, 0] - 2j) <= 1e-8


def test_integrate_matrix_orientation():
    f = lambda r: r[:, None, None]
    forward = numkit.integrate_matrix(f, 0.0, 1.0, 20)
    backward = numkit.integrate_matrix(f, 1.0, 0.0, 20)
    assert np.allclose(forward, -backward, atol=1e-14)


def test_integrate_matrix_rounds_odd_steps_up():
    f = lambda r: (r * r)[:, None, None]
    odd = numkit.integrate_matrix(f, 0.0, 1.0, 3)
    even = numkit.integrate_matrix(f, 0.0, 1.0, 4)
    assert np.array_equal(odd, even)


def test_integrate_matrix_rejects_bad_input():
    f = lambda r: np.ones((r.size, 1, 1))
    with pytest.raises(InvalidRange):
        numkit.integrate_matrix(f, 0.0, float("inf"), 10)
    with pytest.raises(InvalidRange):
        numkit.integrate_matrix(f, 0.0, 1.0, 0)
    short = lambda r: np.ones((r.size - 1, 1, 1))
    with pytest.raises(InvalidRange):
        numkit.integrate_matrix(short, 0.0, 1.0, 10)
    flat = lambda r: np.ones(r.size)
    with pytest.raises(InvalidRange):
        numkit.integrate_matrix(flat, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        numkit.integrate_matrix(lambda r: np.full((r.size, 1, 1), np.nan), 0.0, 1.0, 10)


def test_spectral_margin_scalar():
    assert numkit.spectral_margin([[1.0]], [[1.0]]) == pytest.approx(2.0)
    # purely imaginary eigenvalue meets its own conjugate pair head on
    assert numkit.spectral_margin([[1j]], [[-1j]]) == pytest.approx(0.0)
