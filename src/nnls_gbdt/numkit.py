"""Dense complex linear algebra for small matrices.

All routines operate on plain ``complex128`` numpy arrays and are sized for
the matrix orders this package actually meets (n <= 16, blocks <= 4). The
matrix exponential uses scaling-and-squaring with a degree-13 rational
kernel; the Sylvester solver uses the dense Kronecker linearization, chosen
for exactness of the residual contract over a Schur factorization.

The exponential and the Sylvester solver work on whole stacks ``(..., n, n)``
in one call, and the Simpson integrator hands its integrand every node at
once, so callers that evaluate many points need no per-point Python loop.
The Sylvester solver sees only a few right-hand sides per transformation
triple: S0 and the two origin parts from which S(x, t) is propagated, so
its n^2 x n^2 factorisation is never applied node by node.
``expm_steps`` tabulates e^{km} on equally spaced k from about 2 sqrt(count)
exponentials: a base of small steps e^{km} and one of large strides e^{jbm},
multiplied pairwise, so each entry is one product of two exponentials.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    InvalidRange,
    NoConvergence,
    NonSquare,
    Overflow,
    SpectralClash,
)

# e^M entries can leave double range beyond this 1-norm; accuracy is
# guaranteed (backward error <= 1e-12) for norms up to 50.
EXPM_NORM_LIMIT = 700.0

# Relative spectral-gap threshold below which the Sylvester map is treated
# as numerically singular.
SPECTRAL_CLASH_FACTOR = 1e-8


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array.

    Raises ``ValueError`` if the input is not 2-D or contains non-finite
    entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _square(m, name: str) -> np.ndarray:
    a = as_cmatrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name} must be square, got shape {a.shape}")
    return a


def expm(m) -> np.ndarray:
    """Matrix exponential ``e^m`` of one matrix or of each matrix in a stack.

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
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expm operand must have at least two axes, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm operand has non-finite entries")
    if a.shape[-1] != a.shape[-2]:
        raise NonSquare(f"expm operand must be square, got shape {a.shape}")
    if a.size == 0:
        return a.copy()
    _check_range(a, "m")
    return scipy.linalg.expm(a)


def _check_range(a: np.ndarray, name: str) -> None:
    """Raise Overflow when the worst matrix of the stack ``a`` has a
    column-sum 1-norm beyond the expm operating range."""
    norm1 = float(np.abs(a).sum(axis=-2).max())
    if norm1 > EXPM_NORM_LIMIT:
        raise Overflow(
            f"||{name}||_1 = {norm1:.3e} exceeds expm operating range {EXPM_NORM_LIMIT:g}"
        )


def expm_steps(m, count: int) -> np.ndarray:
    """The ``(count, n, n)`` table of ``e^{k m}`` for ``k = 0 .. count - 1``.

    With stride ``b = isqrt(count - 1) + 1``, one ``expm`` call takes the
    small steps ``e^{k m}`` (``k < b``) and the strides ``e^{j b m}``
    (``j b <= count - 1``); entry ``j b + k`` is the product
    ``e^{j b m} e^{k m}``. That is about ``2 sqrt(count)`` exponentials in
    place of ``count``, and each entry carries the rounding of one product
    of two exponentials, so the error does not grow with k.

    Raises
    ------
    ValueError
        If ``m`` is not 2-D or has non-finite entries.
    NonSquare
        If ``m`` is not square.
    InvalidRange
        If ``count < 1``.
    Overflow
        If ``||(count - 1) m||_1``, the largest exponent the table stands
        for, exceeds the ``expm`` operating range (700); ``expm`` itself
        only sees the smaller strides.
    """
    a = _square(m, "expm_steps operand")
    if count < 1:
        raise InvalidRange(f"count must be positive, got {count}")
    last = count - 1
    _check_range(last * a, "(count - 1) m")
    b = math.isqrt(last) + 1
    powers = np.concatenate([np.arange(b), b * np.arange(1, last // b + 1)])
    table = expm(powers[:, None, None] * a)
    steps = table[:b]
    strides = np.concatenate([table[:1], table[b:]])
    products = strides[:, None] @ steps[None, :]
    return products.reshape(len(strides) * b, *a.shape)[:count]


def spectral_margin(a, b) -> float:
    """Smallest ``|lambda_i(a) + mu_j(b)|`` over all eigenvalue pairs."""
    a = _square(a, "a")
    b = _square(b, "b")
    la = eigenvalues(a)
    lb = eigenvalues(b)
    return float(np.min(np.abs(la[:, None] + lb[None, :])))


def _sylvester_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec is column-stacking: vec(aX) = (I (x) a) vec(X), vec(Xb) = (b^T (x) I) vec(X)
    n = a.shape[0]
    eye = np.eye(n)
    return np.kron(eye, a) + np.kron(b.T, eye)


def sylvester_solver(a, b) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the map X -> a X + X b once and return a solver for many C.

    The returned callable accepts a stack of right-hand sides with shape
    ``(..., n, n)`` and returns solutions of the same shape. Raises
    SpectralClash if the spectra of ``a`` and ``-b`` are not numerically
    disjoint (margin below 1e-8 * (||a|| + ||b||)).
    """
    a = _square(a, "a")
    b = _square(b, "b")
    n = a.shape[0]
    if b.shape[0] != n:
        raise NonSquare(f"a and b must have equal orders, got {a.shape} and {b.shape}")
    margin = spectral_margin(a, b)
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    if margin < SPECTRAL_CLASH_FACTOR * scale:
        raise SpectralClash(
            f"spectral margin {margin:.3e} below threshold "
            f"{SPECTRAL_CLASH_FACTOR * scale:.3e}; spectra of a and -b overlap"
        )
    lu, piv = scipy.linalg.lu_factor(_sylvester_operator(a, b))

    def solve_many(c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=np.complex128)
        lead = c.shape[:-2]
        if c.shape[-2:] != (n, n):
            raise NonSquare(f"right-hand side blocks must be {n}x{n}, got {c.shape[-2:]}")
        # column-stacked vec of each block, blocks along the last axis
        flat = c.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n).T
        sol = scipy.linalg.lu_solve((lu, piv), flat)
        out = sol.T.reshape(-1, n, n).transpose(0, 2, 1)
        return out.reshape(*lead, n, n)

    return solve_many


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``a X + X b = c`` for square complex matrices of equal order.

    Uses the dense Kronecker linearization (n^2 unknowns). The residual
    satisfies ``||aX + Xb - c|| <= 1e-11 (||a|| ||X|| + ||X|| ||b|| + ||c||)``
    away from the clash threshold, and X is Hermitian whenever ``b = a*``
    and ``c = c*``.

    Raises
    ------
    SpectralClash
        If ``min |lambda_i(a) + mu_j(b)|`` is below
        ``1e-8 * (||a|| + ||b||)``.
    NonSquare
        On non-square or mismatched operands.
    """
    c = _square(c, "c")
    solver = sylvester_solver(a, b)
    return solver(c)


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
