"""Tests of the dense linear-algebra primitives against independent oracles."""

import math
import warnings

import mpmath
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


def _field_tables(a, x_max, nx, t_max, nt):
    """i x A over the x nodes, then -2i t A^2 and 2i t A^2 over the t
    nodes: solution_field's tables of -i x A and 2i t A^2 are among them,
    the x nodes being symmetric, and the pointwise route takes the rest."""
    xs = np.linspace(-x_max, x_max, nx)[:, None, None]
    ts = np.linspace(-t_max, t_max, nt)[:, None, None]
    a2 = a @ a
    return np.concatenate([1j * xs * a, -2j * ts * a2, 2j * ts * a2])


def _expm_stacks():
    """The five slices at n = 1, 2, 4, then table stacks of the solution
    field's shapes: (603, 8, 8) of a dense A and (503, 2, 2) of a Jordan
    block, both wide enough that part of each stack needs squarings."""
    stacks = {str(n): _expm_slices(n, np.random.default_rng(20 + n)) for n in (1, 2, 4)}
    rng = np.random.default_rng(28)
    dense = 0.6 * np.eye(8) + 0.35 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / 8**0.5
    stacks["603x8x8"] = _field_tables(dense, 6.0, 201, 1.0, 201)
    jordan = np.array([[1.0 + 1.0j, 1.0], [0.0, 1.0 + 1.0j]])
    stacks["503x2x2"] = _field_tables(jordan, 8.0, 201, 1.0, 151)
    return stacks


_STACKS = _expm_stacks()


@pytest.mark.parametrize("stack", _STACKS.values(), ids=_STACKS.keys())
def test_expm_stack_matches_per_matrix_loop(stack):
    count, n = stack.shape[:2]
    batched = numkit.expm(stack)
    assert batched.shape == stack.shape
    for k in range(count):
        assert np.array_equal(batched[k], numkit.expm(stack[k]))
    nested = numkit.expm(stack.reshape(count, 1, n, n))
    assert np.array_equal(nested.reshape(stack.shape), batched)
    assert np.array_equal(numkit.expm(stack[::-1]), batched[::-1])


def _mp_expm(m):
    """e^m from mpmath at 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(m.tolist()))
        return np.array([[complex(e[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])])


def _oracle_matrix(kind, n, rng):
    if kind == "dense":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "jordan":
        return (0.7 + 0.2j) * np.eye(n) + np.eye(n, k=1)
    if kind == "diagonal":
        return np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
    return np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)


def _assert_matches_mpmath(m):
    """Relative 1-norm error against the 40-digit exponential within
    1e-14 max(1, ||m||_1): the contract's backward error of 1e-12 leaves
    that margin at the condition numbers of these matrices, whose own
    forward errors stay below 3e-15."""
    norm = float(np.abs(m).sum(axis=0).max())
    expected = _mp_expm(m)
    gap = np.abs(numkit.expm(m) - expected).sum(axis=0).max()
    assert gap <= 1e-14 * max(1.0, norm) * np.abs(expected).sum(axis=0).max()


@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 20.0, 50.0])
@pytest.mark.parametrize("kind", ["dense", "jordan", "diagonal", "nilpotent"])
@pytest.mark.parametrize("n", [2, 4])
def test_expm_matches_mpmath(n, kind, norm):
    m = _oracle_matrix(kind, n, np.random.default_rng(50 + n))
    _assert_matches_mpmath(m * (norm / np.abs(m).sum(axis=0).max()))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    kind=st.sampled_from(["dense", "jordan", "diagonal", "nilpotent"]),
    log_norm=st.floats(math.log10(1e-3), math.log10(50.0)),
)
def test_expm_matches_mpmath_property(seed, n, kind, log_norm):
    m = _oracle_matrix(kind, n, np.random.default_rng(seed))
    _assert_matches_mpmath(m * (10.0**log_norm / np.abs(m).sum(axis=0).max()))


def test_expm_stack_with_zero_and_nilpotent_matrices_is_quiet():
    """In a stack that needs squarings, a zero matrix gives the identity
    and a nilpotent one its finite series, with no warning from the
    scaling choice, whose d_k and ell then read 0."""
    nilpotent = 30.0 * np.eye(3, k=1) - 20.0j * np.eye(3, k=2)
    stack = np.stack([
        np.zeros((3, 3)),
        30.0 * np.eye(3, k=1) + np.diag([1.0, 2.0, 3.0]),
        10.0 * (np.ones((3, 3)) + 1j * np.eye(3)),
        nilpotent,
    ]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numkit.expm(stack)
    assert np.array_equal(out[0], np.eye(3))
    assert np.allclose(out[1:3], scipy.linalg.expm(stack[1:3]), rtol=1e-13, atol=0)
    series = np.eye(3) + nilpotent + nilpotent @ nilpotent / 2
    assert np.linalg.norm(out[3] - series) <= 1e-15 * np.linalg.norm(series)


@pytest.mark.parametrize("count", [1, 2, 3, 17, 401])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_expm_steps_matches_per_step_exponentials(n, count):
    """Each table entry e^{km} against expm(k m), with (count - 1) m of
    1-norm 5, about the size of one Simpson leg's last exponent."""
    for slice_ in _expm_slices(n, np.random.default_rng(30 + n)):
        m = 5.0 * slice_ / (max(count - 1, 1) * np.linalg.norm(slice_, 1))
        [steps] = numkit.expm_steps(m, count)
        table = steps.apply(np.eye(n))
        assert table.shape == (count, n, n)
        for k in range(count):
            expected = numkit.expm(k * m)
            assert np.linalg.norm(table[k] - expected) <= 1e-14 * np.linalg.norm(expected)


def test_expm_steps_tabulates_a_stack_of_generators_in_one_call(monkeypatch):
    """A stack of generators takes one expm call for all their steps and
    strides, and each table is, bit for bit, its generator's own."""
    rng = np.random.default_rng(33)
    generators = 0.01 * (rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2)))
    right = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    single = [numkit.expm_steps(g, 401)[0].apply(right) for g in generators.reshape(-1, 2, 2)]
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    tables = numkit.expm_steps(generators, 401)
    assert calls == [(6, 40, 2, 2)]
    assert [table.apply(right).tobytes() for table in tables] == [s.tobytes() for s in single]
    # each entry applied to a right factor is the entry times it
    entries = tables[0].apply(np.eye(2))
    assert np.allclose(tables[0].apply(right), entries @ right, rtol=1e-14, atol=0)
    # the range is checked per generator, and the entries as for one matrix
    with pytest.raises(Overflow):
        numkit.expm_steps(np.stack([np.eye(2), np.diag([1.7, 0.0])]), 420)
    with pytest.raises(Overflow):
        numkit.expm_steps(np.stack([np.eye(2), np.diag([1e101, 0.0])]), 1)
    with pytest.raises(ValueError):
        numkit.expm_steps(np.ones(3), 5)


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _factor_solve(s, b):
    """det, X = s^{-1} b and the smallest pivot from numkit.lu_factor and
    numkit.lu_solve: factor, then solve."""
    factors = numkit.lu_factor(s)
    return factors.det, numkit.lu_solve(factors, b), factors.pivot


def _assert_matches_lapack(s, b, det, x, pivot):
    """det and x against np.linalg.det and np.linalg.solve, per matrix, to
    1e-13 relative times cond s (LU's backward error times the condition
    number bounds the forward error of both); pivot against the smallest
    diagonal modulus of LAPACK's U, which pivots by the same rule, and
    against its lower bound sigma_min(s) / n."""
    n, k = b.shape[-2:]
    s, b = s.reshape(-1, n, n), b.reshape(-1, n, k)
    det, x, pivot = det.reshape(-1), x.reshape(-1, n, k), pivot.reshape(-1)
    if s.shape[0] == 0:
        return
    lapack_pivot = [np.min(np.abs(np.diag(scipy.linalg.lu_factor(m)[0]))) for m in s]
    sigma_min = np.linalg.svd(s, compute_uv=False)[:, -1]
    assert np.all(np.abs(pivot - lapack_pivot) <= 1e-13 * np.linalg.cond(s) * pivot)
    assert np.all(pivot >= (1.0 - 1e-12) * sigma_min / n)
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
    det, x, pivot = _factor_solve(s, b)
    assert det.shape == pivot.shape == (count,) and x.shape == (count, n, k)
    _assert_matches_lapack(s, b, det, x, pivot)


@pytest.mark.parametrize("offset", [-1, 0, 1, 1027])
def test_factor_solve_across_chunks(offset):
    """Stacks just under, at, just over and well past one chunk, with
    leading axes kept."""
    count = numkit._FACTOR_CHUNK + offset
    rng = np.random.default_rng(40 + offset)
    s = _cnormal(rng, count, 3, 3).reshape(count, 1, 3, 3)
    b = _cnormal(rng, count, 3, 2).reshape(count, 1, 3, 2)
    det, x, pivot = _factor_solve(s, b)
    assert det.shape == pivot.shape == (count, 1) and x.shape == (count, 1, 3, 2)
    _assert_matches_lapack(s, b, det, x, pivot)


def test_factor_solve_pivots_rows():
    """Zero leading entries force row exchanges; a permutation matrix has
    det +-1 exactly and solves to the permuted right side."""
    perm = np.eye(4)[[2, 0, 3, 1]]
    swap = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [3.0, 0.0, 1j]])
    b_perm = np.arange(8.0).reshape(4, 2)
    det, x, pivot = _factor_solve(perm, b_perm)
    assert det == np.linalg.det(perm) and pivot == 1.0
    assert np.array_equal(x, perm.T @ b_perm)
    det, x, _ = _factor_solve(swap, np.eye(3))
    assert abs(det - np.linalg.det(swap)) <= 1e-15 * abs(det)
    assert np.allclose(x, np.linalg.inv(swap), rtol=0, atol=1e-15)


def test_factor_solve_singular_node_is_quiet():
    """An exactly singular matrix gives det 0, pivot 0 and NaN in x
    without a warning, and leaves the other matrices of its chunk as they
    are."""
    rng = np.random.default_rng(41)
    s = _cnormal(rng, 5, 2, 2)
    b = _cnormal(rng, 5, 2, 3)
    s[1] = [[1.0, 2.0], [2.0, 4.0]]
    s[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, x, pivot = _factor_solve(s, b)
    assert det[1] == 0 and det[3] == 0
    assert pivot[1] == 0 and pivot[3] == 0
    assert np.isnan(x[[1, 3]]).all()
    keep = [0, 2, 4]
    _assert_matches_lapack(s[keep], b[keep], det[keep], x[keep], pivot[keep])


def test_factor_solve_repeats_bytes():
    rng = np.random.default_rng(42)
    s = _cnormal(rng, 1500, 4, 4)
    b = _cnormal(rng, 1500, 4, 2)
    first = _factor_solve(s, b)
    second = _factor_solve(s, b)
    for one, two in zip(first, second, strict=True):
        assert one.tobytes() == two.tobytes()


def test_factor_solve_reads_node_last_stacks():
    """Stacks held with their node axes last, as solution_field's tiles
    hold them, give the bytes of their contiguous copies."""
    rng = np.random.default_rng(43)
    s = _cnormal(rng, 4, 4, 30, 40)
    b = _cnormal(rng, 4, 3, 30, 40)
    views = [np.moveaxis(a, (0, 1), (2, 3)) for a in (s, b)]
    got = _factor_solve(*views)
    expected = _factor_solve(*(np.ascontiguousarray(v) for v in views))
    for one, two in zip(got, expected, strict=True):
        assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_lu_solve_gives_the_bytes_of_columns_solved_together(n):
    """Each right side takes the same operations whatever the others: two
    blocks of columns solved apart with one factorisation give the bytes
    of solving them together, over more than one chunk, with zero leading
    entries forcing row exchanges and a singular matrix among them. The
    factors give the same bytes on a second solve."""
    count = numkit._FACTOR_CHUNK + 5
    rng = np.random.default_rng(44 + n)
    s = _cnormal(rng, count, n, n)
    if n > 1:
        s[::3, 0, 0] = 0.0
    s[7] = 0.0
    b = _cnormal(rng, count, n, 4)
    factors = numkit.lu_factor(s)
    together = numkit.lu_solve(factors, b)
    apart = [numkit.lu_solve(factors, b[..., :1]), numkit.lu_solve(factors, b[..., 1:])]
    assert np.ascontiguousarray(together).tobytes() == np.ascontiguousarray(
        np.concatenate(apart, axis=-1)
    ).tobytes()
    again = numkit.lu_solve(factors, b)
    assert np.ascontiguousarray(again).tobytes() == np.ascontiguousarray(together).tobytes()
    assert np.isnan(together[7]).all() and factors.det[7] == 0


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (3, 2)])
def test_lu_factor_and_solve_leave_their_operands_as_they_are(n, k):
    """A node-last stack whose chunks are contiguous once transposed, as a
    tile's M and K are at n = 1, is read, never factored in place."""
    rng = np.random.default_rng(45)
    s = np.moveaxis(_cnormal(rng, n, n, 9, 7), (0, 1), (2, 3))
    b = np.moveaxis(_cnormal(rng, n, k, 9, 7), (0, 1), (2, 3))
    s_before, b_before = s.copy(), b.copy()
    numkit.lu_solve(numkit.lu_factor(s), b)
    assert np.array_equal(s, s_before) and np.array_equal(b, b_before)


def test_lu_solve_rejects_a_non_finite_right_side():
    factors = numkit.lu_factor(np.eye(2)[None].repeat(3, axis=0))
    b = np.ones((3, 2, 1))
    b[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        numkit.lu_solve(factors, b)


@pytest.mark.parametrize(
    "lead_a, lead_b, p, q, r",
    [
        ((5, 7), (5, 7), 2, 2, 2),
        ((5, 7), (5, 7), 1, 3, 2),
        ((5, 7), (5, 7), 8, 2, 8),
        ((5, 7), (5, 7), 2, 8, 1),
        ((), (5, 7), 2, 8, 3),
        ((5, 1), (1, 7), 3, 1, 3),
    ],
)
def test_stack_matmul_matches_per_matrix_matmul(lead_a, lead_b, p, q, r):
    """Every product of the broadcast stacks equals np.matmul of its pair
    to 1e-14 relative, for stacks held node-first or node-last."""
    rng = np.random.default_rng(p * 100 + q * 10 + r)
    a = _cnormal(rng, *lead_a, p, q)
    b = _cnormal(rng, *lead_b, q, r)
    lead = np.broadcast_shapes(lead_a, lead_b)
    expected = np.empty(lead + (p, r), dtype=complex)
    a_full = np.broadcast_to(a, lead + (p, q))
    b_full = np.broadcast_to(b, lead + (q, r))
    for index in np.ndindex(*lead):
        expected[index] = a_full[index] @ b_full[index]
    # the same b held with its stack axes last in memory
    node_last = np.ascontiguousarray(np.moveaxis(b, (-2, -1), (0, 1)))
    for operand in (b, np.moveaxis(node_last, (0, 1), (-2, -1))):
        got = numkit.stack_matmul(a, operand)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_stack_matmul_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        numkit.stack_matmul(np.ones((3, 2, 2)), np.ones((3, 3, 2)))
    with pytest.raises(ValueError):
        numkit.stack_matmul(np.ones(2), np.ones((2, 2)))


def test_factor_solve_rejects_bad_operands():
    with pytest.raises(NonSquare):
        _factor_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        _factor_solve(np.eye(2), np.ones((3, 1)))
    with pytest.raises(ValueError):
        _factor_solve(np.ones((4, 2, 2)), np.ones((3, 2, 1)))
    with pytest.raises(ValueError):
        _factor_solve(np.diag([np.inf, 1.0]), np.ones((2, 1)))


def test_solve_sylvester_scalar_cases():
    assert np.allclose(numkit.sylvester_solver([[1.0]], [[1.0]])([[2.0]]), [[1.0]])
    out = numkit.sylvester_solver([[1.0 + 1j]], [[1.0 - 1j]])([[2.0]])
    assert np.allclose(out, [[1.0]])


def test_solve_sylvester_matches_scipy():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = numkit.sylvester_solver(a, b)(c)
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
    x = numkit.sylvester_solver(a, a.conj().T)(c)
    assert np.linalg.norm(x - x.conj().T) <= 1e-12 * np.linalg.norm(x)


def test_solve_sylvester_spectral_clash():
    with pytest.raises(SpectralClash):
        numkit.sylvester_solver([[1.0]], [[-1.0]])
    # zero operands: a zero margin against a zero threshold is a clash,
    # not a singular Kronecker system
    with pytest.raises(SpectralClash):
        numkit.sylvester_solver(np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("factor", [0.5, 2.0, 10.0, 1e3])
def test_solve_sylvester_near_the_clash_threshold(factor):
    """With min |lambda_i(a) + mu_j(b)| at ``factor`` times the clash
    threshold 1e-8 (||a|| + ||b||), the solver refuses below it and keeps
    the residual contract above it, where X grows like 1 / margin."""
    rng = np.random.default_rng(60)
    p = np.eye(3) + 0.3 * _cnormal(rng, 3, 3)
    q = np.eye(3) + 0.3 * _cnormal(rng, 3, 3)
    lam = np.array([1.0 + 0.5j, 2.0 - 1.0j, 3.0 + 0.2j])
    mu = np.array([-1.0 - 0.5j, 4.0, 5.0 - 2.0j])
    a = p @ np.diag(lam) @ np.linalg.inv(p)
    b0 = q @ np.diag(mu) @ np.linalg.inv(q)
    threshold = numkit.SPECTRAL_CLASH_FACTOR * (np.linalg.norm(a) + np.linalg.norm(b0))
    # shift b so that lam[0] + mu[0] sits at factor x threshold
    b = b0 + factor * threshold * np.eye(3)
    c = _cnormal(rng, 3, 3)
    margin = numkit.spectral_margin(a, b)
    limit = numkit.SPECTRAL_CLASH_FACTOR * (np.linalg.norm(a) + np.linalg.norm(b))
    assert margin == pytest.approx(factor * threshold, rel=1e-3)
    assert (margin < limit) == (factor < 1.0)
    if factor < 1.0:
        with pytest.raises(SpectralClash):
            numkit.sylvester_solver(a, b)
        return
    x = numkit.sylvester_solver(a, b)(c)
    res = np.linalg.norm(a @ x + x @ b - c)
    scale = (
        np.linalg.norm(a) * np.linalg.norm(x)
        + np.linalg.norm(x) * np.linalg.norm(b)
        + np.linalg.norm(c)
    )
    assert res <= 1e-11 * scale
    assert np.linalg.norm(x) >= 0.1 / margin


def test_sylvester_solver_batches_match_single_solves():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + np.eye(2)
    b = a.conj().T
    solver = numkit.sylvester_solver(a, b)
    stack = rng.normal(size=(4, 3, 2, 2)) + 1j * rng.normal(size=(4, 3, 2, 2))
    batched = solver(stack)
    for i in range(4):
        for k in range(3):
            single = numkit.sylvester_solver(a, b)(stack[i, k])
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


def test_spectral_margin_reads_an_exact_adjoint_as_the_conjugate(monkeypatch):
    """b = a* exactly takes one eigvals and gives the two-spectrum margin
    to rounding; a b one ulp away from a* takes its own spectrum."""
    rng = np.random.default_rng(12)
    a = _cnormal(rng, 4, 4)
    adjoint = a.conj().T
    lam, mu = np.linalg.eigvals(a), np.linalg.eigvals(adjoint)
    reference = np.min(np.abs(lam[:, None] + mu[None, :]))
    nudged = adjoint.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, np.inf) + 1j * nudged[0, 0].imag
    calls = []
    original = np.linalg.eigvals

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert numkit.spectral_margin(a, adjoint) == pytest.approx(reference, rel=1e-12)
    assert len(calls) == 1
    numkit.spectral_margin(a, nudged)
    assert len(calls) == 3
