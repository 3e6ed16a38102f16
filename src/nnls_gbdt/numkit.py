"""Dense complex linear algebra for small matrices, on numpy alone.

All routines operate on plain ``complex128`` numpy arrays and are sized for
the orders the runner's node budget admits: A up to order 53, whose n^4
Kronecker entries fit the budget, and theta blocks as wide as the grid
leaves room for, since a node weighs (n + 2 m1)(n + 2 m2) / 8. The
matrix exponential is Al-Mohy and Higham's scaling and squaring with the
degree-13 Pade approximant (SIAM J. Matrix Anal. Appl. 31, 2009), taken
over a whole stack at once: every step is elementwise or per matrix, and
each matrix gets its own power of 2, so a matrix's bits never depend on
its place in the stack. The Sylvester solver uses the dense Kronecker
linearization, chosen for exactness of the residual contract over a Schur
factorization.

The exponential and the Sylvester solver work on whole stacks ``(..., n, n)``
in one call, and the Simpson integrator hands its integrand every node at
once, so callers that evaluate many points need no per-point Python loop.
The Sylvester solver sees two right-hand sides per transformation triple,
in one call: the origin parts from which S0 and S(x, t) are built, so its
n^2 x n^2 system is built and solved once per triple, never node by node.
``expm_steps`` tabulates e^{km} on equally spaced k from about 2 sqrt(count)
exponentials: a base of small steps e^{km} and one of large strides e^{jbm},
applied to a right factor as steps first, then all strides in one product,
so each entry carries the rounding of a fixed number of products; a stack
of generators takes one exponential call.
``lu_factor`` LU-factors every matrix of a stack once, with its
determinant and smallest pivot, and ``lu_solve`` solves stacked right sides
with those factors, as often as a caller has right sides; their loops run
over pivot steps and fixed-size chunks of the stack, never over matrices.
``stack_matmul`` multiplies two stacks of small matrices pairwise by
multiply-adds with the stack axes last, one numpy call per row of the
product and term of the inner index.
``frobenius_norms`` takes the norm of every matrix of a stack held matrix
axes first, finite wherever the matrix is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .errors import (
    InvalidRange,
    NoConvergence,
    NonSquare,
    Overflow,
    SpectralClash,
)

# Largest magnitude of the real or imaginary part of an entry that
# as_cmatrix accepts: products of two such entries, summed over any order
# the runner accepts, and the sums of squares of norms stay in double range.
ENTRY_LIMIT = 1e100

# e^M entries can leave double range beyond this 1-norm; accuracy is
# guaranteed (backward error <= 1e-12) for norms up to 50.
EXPM_NORM_LIMIT = 700.0

# Relative spectral-gap threshold below which the Sylvester map is treated
# as numerically singular.
SPECTRAL_CLASH_FACTOR = 1e-8

# Matrices per chunk of lu_factor and lu_solve: enough that every numpy
# call of a pivot step runs over a long vector of matrices, few enough that
# the chunk stays in cache at the orders met here (n <= 8). On the level-1
# stacks of the benchmark grids, 2048 beat 1024 at every n (6.6 against
# 7.4 ms at n = 1, 142 against 158 ms at n = 8, median of 7) and 4096 lost
# at n = 8 (161 ms), for the factoring and solve in one pass that preceded
# the split. Every chunk from 256 to 65536 gives bit-identical fields.
_FACTOR_CHUNK = 2048

# Coefficients b_k of the degree-13 Pade approximant to e^x, divided by b_0
# so that the constant terms are exactly 1.
_B13 = [
    b / 64764752532480000
    for b in (
        64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
        129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
        40840800, 960960, 16380, 182, 1,
    )
]
# Rows: the four polynomials in (I, A^2, A^4, A^6) from which the Pade
# numerator and denominator are V + U and V - U, with U = A (A^6 P0 + P2)
# and V = A^6 P1 + P3.
_PADE13 = np.array(
    [
        [0.0, _B13[9], _B13[11], _B13[13]],
        [0.0, _B13[8], _B13[10], _B13[12]],
        [_B13[1], _B13[3], _B13[5], _B13[7]],
        [_B13[0], _B13[2], _B13[4], _B13[6]],
    ],
    dtype=np.complex128,
)
# The approximant is applied unscaled to a matrix of 1-norm at most
# Higham's theta_13, where its backward error is bounded by the unit
# roundoff (SIAM J. Matrix Anal. Appl. 26, 2005). A larger matrix is scaled
# until eta = min(max(d6, d8), max(d8, d10)), d_k = ||A^k||_1^(1/k), is at
# most Al-Mohy and Higham's theta_13; eta <= ||A||_1.
_NORM_THETA13 = 5.371920351148152
_ETA_THETA13 = 4.25
# Al-Mohy and Higham's ell(A, 13) adds squarings until
# alpha = || |A|^27 ||_1 / (||A||_1 c_13) is at most the unit roundoff u.
# alpha <= ||A||_1^26 / c_13, so ell is 0 for ||A||_1 <= (u c_13)^(1/26).
_C13 = 113250775606021113483283660800000000.0
_UNIT_ROUNDOFF = 2.0**-53
_ELL_FREE_NORM = (_UNIT_ROUNDOFF * _C13) ** (1.0 / 26)


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array within ENTRY_LIMIT.

    Every datum matrix (A, theta1, theta2, S0) enters through here. Raises
    ``ValueError`` if the input is not 2-D or contains non-finite entries,
    and ``Overflow`` if a real or imaginary part exceeds ENTRY_LIMIT in
    magnitude.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    worst = max(np.max(np.abs(a.real), initial=0.0), np.max(np.abs(a.imag), initial=0.0))
    if worst > ENTRY_LIMIT:
        raise Overflow(
            f"{name} has an entry part of magnitude {worst:.3e}, beyond the "
            f"operating range {ENTRY_LIMIT:g}"
        )
    return a


def _square(m, name: str) -> np.ndarray:
    a = as_cmatrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name} must be square, got shape {a.shape}")
    return a


def _square_stack(m, name: str) -> np.ndarray:
    """``m`` as a complex128 stack of square matrices, shape ``(..., n, n)``;
    raises ValueError for fewer than two axes and NonSquare otherwise."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"{name} operand must have at least two axes, got shape {a.shape}")
    if a.shape[-1] != a.shape[-2]:
        raise NonSquare(f"{name} operand must be square, got shape {a.shape}")
    return a


def expm(m) -> np.ndarray:
    """Matrix exponential ``e^m`` of one matrix or of each matrix in a stack.

    Each matrix is scaled by its own power of 2 and its degree-13 Pade
    approximant squared back (Al-Mohy and Higham); the whole stack goes
    through each step at once. 1 x 1 and diagonal matrices are ``np.exp``
    of their entries, and triangular ones keep exact exponentials on the
    diagonal and first off-diagonal through the squarings.

    Parameters
    ----------
    m
        Square complex matrix, or a stack of them with shape ``(..., n, n)``.

    Returns
    -------
    numpy.ndarray
        ``e^m`` with the shape of ``m``, exact up to rounding on diagonal and
        nilpotent inputs; relative backward error at most 1e-12 for
        ``||m||_1 <= 50``. A stack gives, bit for bit, the matrices a loop
        over its slices would.

    Raises
    ------
    ValueError
        If ``m`` has fewer than two axes or non-finite entries.
    NonSquare
        If the matrices of ``m`` are not square.
    Overflow
        If ``||m||_1`` of any matrix exceeds the documented operating range
        (700), where entries of the result can leave double range.
    """
    a = _square_stack(m, "expm")
    if a.size == 0:
        return a.copy()
    n = a.shape[-1]
    colsum = np.abs(a) if n == 1 else np.abs(a).sum(axis=-2)
    worst = float(colsum.max())
    # a NaN or an infinity anywhere makes its matrix's norm non-finite
    if not math.isfinite(worst):
        raise ValueError("expm operand has non-finite entries")
    _check_range(worst, "m")
    if n == 1:
        return np.exp(a)
    norm = colsum.max(axis=-1).reshape(-1) if worst > _NORM_THETA13 else None
    return _expm_stack(a.reshape(-1, n, n), norm).reshape(a.shape)


def _check_range(worst: float, name: str) -> None:
    """Raise Overflow when ``worst``, the largest 1-norm of a stack, is
    beyond the expm operating range."""
    if worst > EXPM_NORM_LIMIT:
        raise Overflow(
            f"||{name}||_1 = {worst:.3e} exceeds expm operating range {EXPM_NORM_LIMIT:g}"
        )


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the entries below the diagonal, then of
    those above it, and the n x n identity."""
    lower = np.tril_indices(n, -1)
    arrays = np.concatenate(lower), np.concatenate(lower[::-1]), np.eye(n)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _expm_stack(a: np.ndarray, norm) -> np.ndarray:
    """e^a for a ``(count, n, n)`` stack with n >= 2. ``norm`` holds each
    matrix's 1-norm, or is None when none exceeds Higham's theta_13.

    A diagonal matrix is the exponential of its diagonal; the others take
    the Pade route, where triangular ones keep their exact diagonal.
    """
    # no zero entry: no matrix is diagonal or triangular
    if np.count_nonzero(a) == a.size:
        return _pade13(a, norm, None)
    count, n = a.shape[:2]
    rows, cols, _ = _layout(n)
    # (count, 2): any entry below, any entry above the diagonal
    sides = (a[:, rows, cols] != 0).reshape(count, 2, -1).any(axis=2)
    full = sides.any(axis=1)
    out = np.zeros_like(a)
    diagonal = np.flatnonzero(~full)[:, None]
    at = np.arange(n)
    out[diagonal, at, at] = np.exp(a[diagonal, at, at])
    if full.any():
        out[full] = _pade13(a[full], None if norm is None else norm[full], sides[full])
    return out


def _pade13(a: np.ndarray, norm, sides) -> np.ndarray:
    """Scaling and squaring with the degree-13 Pade approximant over a
    ``(count, n, n)`` stack of matrices that are not diagonal.

    ``norm`` is as in ``_expm_stack``; ``sides`` flags, per matrix, entries
    below and above the diagonal, or is None when every matrix has both.
    """
    count, n = a.shape[:2]
    # powers[k] is the (count, n, n) stack of a^(2k)
    powers = np.empty((4, count, n, n), dtype=np.complex128)
    powers[0] = _layout(n)[2]
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    s = None
    scaled = a
    if norm is not None:
        s = np.zeros(count, dtype=np.int64)
        big = norm > _NORM_THETA13
        s[big] = _squarings(a[big], norm[big], powers[2, big], powers[3, big])
        if s.any():
            # powers of 2 scale exactly: these are the powers of 2^-s a
            scaled = a * np.ldexp(1.0, -s)[:, None, None]
            powers *= np.ldexp(1.0, -np.arange(0, 8, 2)[:, None] * s)[..., None, None]
        else:
            s = None
    p = _PADE13 @ powers.reshape(4, count, n * n).transpose(1, 0, 2)
    p = p.reshape(count, 4, n, n)
    high = powers[3, :, None] @ p[:, :2]
    high += p[:, 2:]
    u = scaled @ high[:, 0]
    v = high[:, 1]
    denominator = v - u
    v += u
    x = np.linalg.solve(denominator, v)
    upper = lower = None
    if sides is not None:
        upper = sides[:, 1] & ~sides[:, 0]
        lower = sides[:, 0] & ~sides[:, 1]
    if s is not None:
        _square_back(x, a, s, upper, lower)
    if sides is not None:
        # exact zeros of positive sign off the triangle
        x[upper] = np.triu(x[upper])
        x[lower] = np.tril(x[lower])
    return x


def _squarings(a: np.ndarray, norm: np.ndarray, a4: np.ndarray, a6: np.ndarray) -> np.ndarray:
    """Al-Mohy and Higham's number of squarings for each matrix of ``a``:
    from d_k = ||a^k||_1^(1/k) (k = 6, 8, 10), plus their ell for matrices
    far from normal."""
    d = np.stack([a6, a4 @ a4, a4 @ a6], axis=1)
    d = np.abs(d).sum(axis=-2).max(axis=-1) ** [1 / 6, 1 / 8, 1 / 10]
    eta = np.minimum(np.maximum(d[:, 0], d[:, 1]), np.maximum(d[:, 1], d[:, 2]))
    # s = ceil(log2(eta / theta_13)) from the binary exponent, so that
    # eta = 0 (a nilpotent matrix) needs no logarithm
    mantissa, exponent = np.frexp(eta / _ETA_THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    scaled = np.ldexp(norm, -s)
    far = scaled > _ELL_FREE_NORM
    if far.any():
        p = np.abs(a[far]) * np.ldexp(1.0, -s[far])[:, None, None]
        p3 = p @ p @ p
        p24 = p3 @ p3
        p24 = p24 @ p24
        p24 = p24 @ p24
        alpha = (p24 @ p3).sum(axis=-2).max(axis=-1) / (scaled[far] * _C13)
        ell = np.ceil(np.log2(np.maximum(alpha / _UNIT_ROUNDOFF, 1.0)) / 26)
        s[far] += ell.astype(np.int64)
    return s


def _square_back(x: np.ndarray, a: np.ndarray, s: np.ndarray, upper, lower) -> None:
    """Square each matrix of ``x``, the Pade approximant of ``2^-s a``, ``s``
    times in place.

    ``upper`` and ``lower`` flag the upper and lower triangular matrices,
    or are None when there are none. On those the diagonal is set to
    e^{2^-i a_kk} before the squarings and after the one that leaves i to
    go, and the first off-diagonal from its 2 x 2 blocks, as in Al-Mohy and
    Higham's Code Fragment 2.1, so the rounding of the approximant does not
    grow there.
    """
    n = a.shape[-1]
    at = np.arange(n)
    fix = np.zeros(0, dtype=np.intp)
    if upper is not None:
        fix = np.flatnonzero((upper | lower) & (s > 0))
    if fix.size:
        # the first off-diagonal, above or below the diagonal
        rows = np.where(upper[fix, None], at[:-1], at[1:])
        cols = np.where(upper[fix, None], at[1:], at[:-1])
        diag = a[fix[:, None], at, at]
        off = a[fix[:, None], rows, cols]
        x[fix[:, None], at, at] = np.exp(diag * np.ldexp(1.0, -s[fix])[:, None])
    for k in range(1, int(s.max()) + 1):
        act = np.flatnonzero(s >= k)
        y = x[act]
        x[act] = y @ y
        now = np.flatnonzero(s[fix] >= k)
        if now.size:
            at_now = fix[now, None]
            scale = np.ldexp(1.0, k - s[fix[now]])[:, None]
            d = diag[now] * scale
            x[at_now, at, at] = np.exp(d)
            x[at_now, rows[now], cols[now]] = off[now] * scale * _exp_divided_difference(d)


def _exp_divided_difference(d: np.ndarray) -> np.ndarray:
    """(e^{d_{k+1}} - e^{d_k}) / (d_{k+1} - d_k) along the last axis, e^{d_k}
    where the two are equal, as e^{mean} sinh(delta) / delta with
    delta = (d_{k+1} - d_k) / 2, free of the difference's cancellation
    (Higham, Functions of Matrices, (10.42))."""
    delta = 0.5 * (d[..., 1:] - d[..., :-1])
    ratio = np.divide(np.sinh(delta), delta, out=np.ones_like(delta), where=delta != 0)
    return np.exp(0.5 * (d[..., 1:] + d[..., :-1])) * ratio


@dataclass(frozen=True)
class StepTable:
    """The table of e^{k m} for k = 0 .. count - 1, held as its b steps
    e^{k m} (k < b) and its strides e^{j b m} (j b <= count - 1): entry
    j b + k is strides[j] @ steps[k]. ``apply`` multiplies every entry by
    a right factor without forming the entries."""

    steps: np.ndarray
    strides: np.ndarray
    count: int

    def apply(self, right) -> np.ndarray:
        """The ``(count, n, w)`` stack of ``e^{k m} @ right`` for an
        ``(n, w)`` right factor.

        The steps are applied first, as one ``(b n, n) @ (n, w)`` product,
        and the strides then take them side by side in one
        ``(S n, n) @ (n, b w)`` product: entry ``j b + k`` is
        ``strides[j] @ (steps[k] @ right)``, the rounding of two products
        whatever k. ``apply(np.eye(n))`` gives the entries themselves.
        """
        b, n = self.steps.shape[:2]
        near = (self.steps.reshape(-1, n) @ right).reshape(b, n, -1)
        w = near.shape[-1]
        # columns k w + c hold steps[k] @ right
        far = self.strides.reshape(-1, n) @ near.transpose(1, 0, 2).reshape(n, -1)
        return far.reshape(-1, n, b, w).transpose(0, 2, 1, 3).reshape(-1, n, w)[: self.count]


def expm_steps(m, count: int) -> List[StepTable]:
    """The tables of ``e^{k m}`` for ``k = 0 .. count - 1``, one for each
    generator of ``m``, from one ``expm`` call.

    With stride ``b = isqrt(count - 1) + 1``, the call takes, for every
    generator at once, the small steps ``e^{k m}`` (``k < b``) and the
    strides ``e^{j b m}`` (``j b <= count - 1``), and entry ``j b + k`` of a
    table is ``e^{j b m} e^{k m}`` (see ``StepTable``). That is about
    ``2 sqrt(count)`` exponentials per generator in place of ``count``, and
    each entry carries the rounding of a fixed number of products, so the
    error does not grow with k.

    Parameters
    ----------
    m
        Square complex matrix, or a stack of them with shape ``(..., n, n)``.
    count
        Number of entries per table.

    Returns
    -------
    list of StepTable
        One table per matrix of ``m``, in the order of
        ``m.reshape(-1, n, n)``.

    Raises
    ------
    ValueError
        If ``m`` has fewer than two axes or non-finite entries.
    NonSquare
        If the matrices of ``m`` are not square.
    InvalidRange
        If ``count < 1``.
    Overflow
        If an entry part of ``m`` exceeds ENTRY_LIMIT, or if
        ``||(count - 1) m||_1`` of a generator, the largest exponent its
        table stands for, exceeds the ``expm`` operating range (700);
        ``expm`` itself only sees the smaller strides.
    """
    a = _square_stack(m, "expm_steps")
    n = a.shape[-1]
    # the generators' rows side by side: one finiteness and range check
    as_cmatrix(a.reshape(-1, n), "expm_steps operand")
    if count < 1:
        raise InvalidRange(f"count must be positive, got {count}")
    last = count - 1
    _check_range(float(np.abs(last * a).sum(axis=-2).max()), "(count - 1) m")
    b = math.isqrt(last) + 1
    powers = np.concatenate([np.arange(b), b * np.arange(1, last // b + 1)])
    tables = expm(powers[:, None, None] * a.reshape(-1, 1, n, n))
    return [
        StepTable(table[:b], np.concatenate([table[:1], table[b:]]), count)
        for table in tables
    ]


def clash_threshold(a, b) -> float:
    """Spectral margin at or below which the Sylvester map X -> a X + X b
    counts as singular: ``SPECTRAL_CLASH_FACTOR (||a|| + ||b||)``."""
    return float(SPECTRAL_CLASH_FACTOR * (np.linalg.norm(a) + np.linalg.norm(b)))


def spectral_margin(a, b) -> float:
    """Smallest ``|lambda_i(a) + mu_j(b)|`` over all eigenvalue pairs. When
    b is exactly a*, its spectrum is taken as the conjugate of a's."""
    a = _square(a, "a")
    b = _square(b, "b")
    la = eigenvalues(a)
    lb = la.conj() if np.array_equal(b, a.conj().T) else eigenvalues(b)
    return float(np.min(np.abs(la[:, None] + lb[None, :])))


def _sylvester_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec is column-stacking: vec(aX) = (I (x) a) vec(X), vec(Xb) = (b^T (x) I) vec(X)
    n = a.shape[0]
    eye = np.eye(n)
    return np.kron(eye, a) + np.kron(b.T, eye)


def sylvester_solver(a, b) -> Callable[[np.ndarray], np.ndarray]:
    """Build the Kronecker matrix of X -> a X + X b once and return a
    solver for many C.

    The returned callable takes one C or a stack ``(..., n, n)`` of them and
    returns X of the same shape, from one ``np.linalg.solve`` of the
    n^2 x n^2 system with the stack's blocks as its columns. Away from the
    clash threshold, ``||aX + Xb - C|| <= 1e-11 (||a|| ||X|| + ||X|| ||b||
    + ||C||)``, and X is Hermitian up to rounding when b = a* and C = C*.
    Raises SpectralClash if ``min |lambda_i(a) + mu_j(b)|`` is at most
    ``1e-8 (||a|| + ||b||)``, zero operands included, and NonSquare on
    non-square or mismatched operands.
    """
    a = _square(a, "a")
    b = _square(b, "b")
    n = a.shape[0]
    if b.shape[0] != n:
        raise NonSquare(f"a and b must have equal orders, got {a.shape} and {b.shape}")
    margin = spectral_margin(a, b)
    threshold = clash_threshold(a, b)
    if margin <= threshold:
        raise SpectralClash(
            f"spectral margin {margin:.3e} at or below threshold "
            f"{threshold:.3e}; spectra of a and -b overlap"
        )
    operator = _sylvester_operator(a, b)

    def solve_many(c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=np.complex128)
        lead = c.shape[:-2]
        if c.shape[-2:] != (n, n):
            raise NonSquare(f"right-hand side blocks must be {n}x{n}, got {c.shape[-2:]}")
        # column-stacked vec of each block, blocks along the last axis
        flat = c.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n).T
        sol = np.linalg.solve(operator, flat)
        out = sol.T.reshape(-1, n, n).transpose(0, 2, 1)
        return out.reshape(*lead, n, n)

    return solve_many


@dataclass(frozen=True)
class LUFactors:
    """LU factors of every matrix of an ``(..., n, n)`` stack, from
    ``lu_factor``; ``lu_solve`` solves with them.

    ``shape`` is the stack's, and ``det`` and ``pivot`` have its leading
    shape: the determinant, the product of the pivots times the sign of
    the row exchanges, and the smallest pivot modulus (0 for a zero pivot),
    which is at least the smallest singular value over n. ``chunks`` holds,
    per chunk of ``_FACTOR_CHUNK`` matrices, ``(lu, swaps, singular)``: lu,
    shape ``(n, n, count)`` with the chunk axis last, holds U on and above
    the diagonal, a zero pivot read as 1, and below it each step's
    multipliers in the rows they were formed in; ``swaps[j]`` is the offset
    from row j of the row exchanged with it at step j, and ``singular``
    marks the matrices with a zero pivot.
    """

    shape: tuple
    det: np.ndarray
    pivot: np.ndarray
    chunks: tuple = field(repr=False)


def lu_factor(s) -> LUFactors:
    """LU factors of every matrix of a stack of square complex matrices,
    shape ``(..., n, n)``, by elimination with partial pivoting on
    ``|Re| + |Im|`` (LAPACK's ``izamax`` rule, first row on ties).

    The stack is taken in chunks of ``_FACTOR_CHUNK`` matrices, each held
    with the matrix axis last, so each step of the elimination is a few
    elementwise numpy calls on whole rows of the chunk. At step j only
    columns j.. are exchanged, through flat indices since the exchanges
    differ per matrix, so each multiplier stays in the row it was formed
    in, where lu_solve's forward steps read it. A matrix with a zero pivot
    gives det and pivot 0, with no exception and no warning.

    Raises ValueError if ``s`` has fewer than two axes or a non-finite
    entry, and NonSquare if its matrices are not square.
    """
    s = _square_stack(s, "lu_factor")
    n = s.shape[-1]
    stack = s.reshape(-1, n, n)
    det = np.ones(stack.shape[0], dtype=np.complex128)
    smallest = np.full(det.size, np.inf)
    chunks = []
    for lo in range(0, det.size, _FACTOR_CHUNK):
        a = stack[lo:lo + _FACTOR_CHUNK].transpose(1, 2, 0).copy()
        # checked per chunk, so the check needs no mask the size of the stack
        if not np.isfinite(a).all():
            raise ValueError("lu_factor operand has non-finite entries")
        count = a.shape[-1]
        flat = a.reshape(-1)
        # flat offset of entry (0, c) of matrix i: c * count + i
        row0 = np.arange(n)[:, None] * count + np.arange(count)
        swaps = np.empty((n, count), dtype=np.intp)
        singular = np.zeros(count, dtype=bool)
        d, least = det[lo:lo + count], smallest[lo:lo + count]
        for j in range(n):
            col = a[j:, j]
            p = swaps[j] = np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
            swap = p != 0
            if swap.any():
                at = (j + p) * (n * count) + row0[j:]
                row = flat[at]
                flat[at] = a[j, j:]
                a[j, j:] = row
                np.negative(d, out=d, where=swap)
            pivot = a[j, j]
            d *= pivot
            np.minimum(least, np.abs(pivot), out=least)
            # a zero pivot has a zero column below it: dividing by 1 leaves
            # the rows as they are, as LAPACK does, and det stays 0
            zero = pivot == 0
            singular |= zero
            pivot[zero] = 1.0
            a[j + 1:, j] /= pivot
            a[j + 1:, j + 1:] -= a[j + 1:, j, None] * a[j, None, j + 1:]
        chunks.append((a, swaps, singular))
    lead = s.shape[:-2]
    return LUFactors(s.shape, det.reshape(lead), smallest.reshape(lead), tuple(chunks))


def lu_solve(factors: LUFactors, b) -> np.ndarray:
    """``X = s^{-1} b`` for every matrix s of the stack ``factors`` holds.

    ``b`` has shape ``(..., n, k)`` with the stack's leading axes, and
    ``X``, of its shape, is a view of an array with the stack axes last.
    Chunk by chunk, the row exchanges and multipliers of each step are
    applied in the order lu_factor formed them, then U is solved back, one
    numpy call per step over whole rows of the chunk; each column of b
    takes the same operations whatever the others, so solving columns
    apart or together gives the same bytes. A matrix with a zero pivot
    gives an all-NaN X.

    Raises ValueError if ``b`` does not match the stack or has a
    non-finite entry.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim < 2 or b.shape[:-1] != factors.shape[:-1]:
        raise ValueError(f"right sides {b.shape} do not match matrices {factors.shape}")
    n, k = b.shape[-2:]
    stack = b.reshape(-1, n, k)
    out = np.empty((n, k, stack.shape[0]), dtype=np.complex128)
    for lo, (lu, swaps, singular) in zip(range(0, out.shape[-1], _FACTOR_CHUNK), factors.chunks):
        count = lu.shape[-1]
        x = stack[lo:lo + count].transpose(1, 2, 0).copy()
        if not np.isfinite(x).all():
            raise ValueError("lu_solve right sides have non-finite entries")
        flat = x.reshape(-1)
        row0 = np.arange(k)[:, None] * count + np.arange(count)
        for j in range(n):
            if swaps[j].any():
                at = (j + swaps[j]) * (k * count) + row0
                row = flat[at]
                flat[at] = x[j]
                x[j] = row
            x[j + 1:] -= lu[j + 1:, j, None] * x[j, None]
        for j in range(n - 1, -1, -1):
            x[j] -= (lu[j, j + 1:, None] * x[j + 1:]).sum(axis=0)
            x[j] /= lu[j, j]
        x[..., singular] = complex(np.nan, np.nan)
        out[..., lo:lo + count] = x
    return np.moveaxis(out, -1, 0).reshape(b.shape)


def stack_matmul(a, b) -> np.ndarray:
    """``a @ b`` for every pair of matrices of two stacks of small matrices.

    The matrix axes are moved in front of the stack axes, and each row of
    the product is built by one multiply-add over whole rows of the stacks
    per step of the inner index. At the orders met here numpy's batched
    ``@`` spends more on its call per matrix than on the arithmetic, and a
    row at a time keeps the temporaries small.

    Parameters
    ----------
    a, b
        Stacks of shapes ``(..., p, q)`` and ``(..., q, r)`` whose leading
        axes broadcast.

    Returns
    -------
    numpy.ndarray
        The products, shape ``(..., p, r)``: a view of an array with the
        stack axes last. Each entry sums its q terms in index order.

    Raises
    ------
    ValueError
        If an operand has fewer than two axes or the inner orders differ.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot multiply stacks of shapes {a.shape} and {b.shape}")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.moveaxis(np.broadcast_to(a, lead + a.shape[-2:]), (-2, -1), (0, 1))
    b = np.moveaxis(np.broadcast_to(b, lead + b.shape[-2:]), (-2, -1), (0, 1))
    out = np.empty((a.shape[0], b.shape[1]) + lead, dtype=np.result_type(a, b))
    for i, row in enumerate(out):
        np.multiply(a[i, 0, None], b[0], out=row)
        for j in range(1, b.shape[0]):
            row += a[i, j, None] * b[j]
    return np.moveaxis(out, (0, 1), (-2, -1))


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of every matrix of an (r, c, ...) stack held matrix
    axes first, shape stack.shape[2:].

    The squares of the real and imaginary parts are summed over the r c
    entries, one multiply-add per entry over the whole row of matrices.
    They overflow only beyond 1e154, where hypot of the entries' moduli
    takes over, so a huge matrix gets its finite norm, not inf. No
    floating-point warning is raised.
    """
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    flat = stack.reshape(stack.shape[0] * stack.shape[1], -1)
    parts = flat.view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.einsum("ik,ik->k", parts, parts)
        norms = np.sqrt(squares[0::2] + squares[1::2])
        huge = np.isinf(norms)
        if huge.any():
            norms[huge] = np.hypot.reduce(np.abs(flat[:, huge]), axis=0)
    return norms.reshape(stack.shape[2:])


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a square complex matrix, multiplicities included.

    Backed by the implicitly-shifted QR iteration; each returned value
    satisfies ``||m v - lambda v|| <= 1e-10 ||m||`` for some unit vector v.
    Raises NoConvergence if the iteration fails.
    """
    a = _square(m, "eigenvalues operand")
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


def integrate_matrix(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, steps: int
) -> np.ndarray:
    """Composite-Simpson integral of a matrix-valued function over [lo, hi].

    Parameters
    ----------
    f
        Called once with the ``(N + 1,)`` array of Simpson nodes
        ``lo + h * arange(N + 1)``, ``h = (hi - lo) / N``; returns the
        ``(N + 1, r, c)`` stack of the integrand's values at those nodes.
    lo, hi
        Finite bounds. ``hi < lo`` integrates with orientation (the result
        is the signed integral).
    steps
        Positive panel count N; rounded up to the next even integer. The
        error decays like ``steps**-4`` for smooth integrands.

    Raises
    ------
    InvalidRange
        On non-finite bounds, a non-positive step count, or a sample stack
        that is not ``(N + 1, r, c)``.
    ValueError
        If a sample is not finite.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidRange(f"bounds must be finite, got [{lo!r}, {hi!r}]")
    if steps < 1:
        raise InvalidRange(f"steps must be positive, got {steps}")
    n = int(steps)
    n += n % 2
    h = (hi - lo) / n
    samples = np.asarray(f(lo + h * np.arange(n + 1)), dtype=np.complex128)
    if samples.ndim != 3 or samples.shape[0] != n + 1:
        raise InvalidRange(
            f"integrand must return {n + 1} matrices, one per node, got shape {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("integrand value has non-finite entries")
    if hi == lo:
        return np.zeros(samples.shape[1:], dtype=np.complex128)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, samples, axes=1)
