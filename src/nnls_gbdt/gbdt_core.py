"""Backlund-Darboux construction of nonlocal NLS solutions from a matrix triple.

The nonlocal matrix NLS equation

    i u_t(x, t) - u_xx(x, t) + 2 sigma u(x, t) u(-x, t)* u(x, t) = 0

(sigma = -1 focusing, sigma = +1 defocusing) admits explicit solutions built
from a triple {A, S(0,0), (theta1, theta2)} subject to the coupling identity

    A S(0,0) + S(0,0) A* = theta1 theta1* + (-1)^kappa theta2 theta2*,

with kappa = (1 - sigma) / 2. Propagating the generating matrix

    Pi(x, t) = [E(x, t) theta1,  E(-x, -t) theta2],  E(x, t) = e^{i(xA - 2tA^2)},

defines S(x, t) by A S(x, t) + S(x, t) A* = Pi(x, t) j^kappa Pi(-x, t)*.
Every factor of Pi is a function of A and commutes with it, so with
L(X) = A X + X A* and Sigma_k = L^{-1}(theta_k theta_k*), solved once per
triple,

    S(x, t) = E(x, t) Sigma1 E(-x, t)* + (-1)^kappa E(-x, -t) Sigma2 E(x, -t)*,

and no Sylvester solve is needed at any point (x, t). That yields

    u(x, t) = -2i theta1* e^{i(xA* + 2t(A*)^2)} S(x, t)^{-1}
              e^{-i(xA - 2tA^2)} theta2,

which solves the equation away from the zeros of det S(x, t). Since
E(x, t)^{-1} = E(-x, -t), S also factors as S = E(x, t) M E(-x, t)* with

    M(x, t) = Sigma1 + (-1)^kappa F Sigma2 G*,
    F = E(-2x, -2t),  G = E(2x, -2t),

so u = -2i theta1* M^{-1} F theta2, det S = det M e^{2ix Re tr A}
e^{4t Im tr A^2}, A M + M A* = theta1 theta1* + (-1)^kappa (F theta2)
(G theta2)*, and M(-x, t) = M(x, t)*. Grids are evaluated in this form,
one sandwich per node; the pointwise route keeps S, as the independent
evidence the grid is tested against. This module builds triples, evaluates
Pi, S, u, the transferred potential blocks, the Darboux matrix, and the
wave function, pointwise and on grids.

A grid level has one route, solution_field: it runs the step (K, M with
the mask's threshold, one LU per node, then u) on mirror-closed tiles of
x rows, hands each tile to the checks that read M, K or the factors, and
keeps only u, det S and the singular mask. Every product in
the step has a fixed shape per x row or per node, so any tiling gives
identical bytes.

It constructs, raising where a construction cannot go on (SpectralClash,
the DET_FLOOR rule behind DegenerateS and SingularPoint, SpectralPole,
Overflow) and masking grid nodes where the smallest LU pivot of M is at
most SINGULAR_PIVOT_FACTOR times ||Sigma1|| + ||M - Sigma1||; the verdicts
on a triple and on what is built from it are verify's. spectral_samples
builds the Darboux pair, the wave function and xi at a stack of points
(x, t) for one z, with one exponential call, one propagation of S and
one solve per factor for the whole stack; spectral_sample is its one-point
case, bit for bit, and every pointwise consumer builds from one or the
other. One check stays here: only
darboux_at asserts the pair's two facts (DarbouxMismatch), because the
benchmark's pointwise Darboux operation is gated on that exception;
verify.darboux_residual reports the same residuals without raising.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import numkit
from .errors import (
    AsymmetricGrid,
    DarbouxMismatch,
    DegenerateS,
    DimensionMismatch,
    InvalidRange,
    Overflow,
    RangeExceeded,
    SingularPoint,
    SpectralClash,
    SpectralPole,
)

# Fraction of ||Sigma1|| + ||M - Sigma1|| (Frobenius) at or under which the
# smallest LU pivot of M(x, t) flags a grid node singular.
SINGULAR_PIVOT_FACTOR = 1e-8

# Floor of relative_det at or under which S0, or S at a single point, is
# singular.
DET_FLOOR = 1e-12

# Bound on the relative residuals of w_A w_B = I and of the reduction that
# darboux_at asserts.
DARBOUX_TOL = 1e-9


# x and -x: a point's quadruple of exponentials is taken at (x, t), (-x, t)
_SIGNS = np.array([1.0, -1.0])


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


@functools.lru_cache(maxsize=None)
def _eye(k: int) -> np.ndarray:
    """Read-only k x k complex identity."""
    eye = np.eye(k, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def relative_det(s: np.ndarray) -> float:
    """|det s| / max(1, ||s||)^n, the determinant of s scaled by
    1 / max(1, ||s||): that matrix has norm at most 1, so its determinant
    is at most 1 and neither it nor the power can overflow."""
    return float(abs(np.linalg.det(s / max(1.0, float(np.linalg.norm(s))))))


def _solve_origin_parts(solver, theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Read-only stack of Sigma1 and Sigma2: one call of the Sylvester solver
    on the gram stack theta_k theta_k*, symmetrized to be exactly Hermitian.

    Raises Overflow when an entry part of either is not finite or exceeds
    numkit.ENTRY_LIMIT, as for a tiny A against large theta blocks; the
    solve runs with floating-point warnings off, so none escapes first.
    """
    with np.errstate(all="ignore"):
        parts = solver(np.stack([theta1 @ _h(theta1), theta2 @ _h(theta2)]))
        parts = 0.5 * (parts + _h(parts))
        # np.maximum and np.max keep a NaN, which fails the comparison below
        worst = np.max(np.maximum(np.abs(parts.real), np.abs(parts.imag)))
    if not worst <= numkit.ENTRY_LIMIT:
        raise Overflow(
            f"the origin parts Sigma1, Sigma2 have an entry part of magnitude "
            f"{worst:.3e}, beyond the operating range {numkit.ENTRY_LIMIT:g}"
        )
    parts.flags.writeable = False
    return parts


def coupling_term(kappa: int, p1, p2, q1, q2) -> np.ndarray:
    """p1 q1* + (-1)^kappa p2 q2*, broadcast over leading axes.

    With p = Pi(x, t) and q = Pi(-x, t) split into their m1 and m2 column
    blocks this is Pi(x, t) j^kappa Pi(-x, t)*, the right side of the
    coupling identity; with p = q = (theta1, theta2) it is its value at the
    origin. The second product is added into the first in place, so a
    stack costs two products' memory.
    """
    out = p1 @ _h(q1)
    if kappa == 1:
        out -= p2 @ _h(q2)
    else:
        out += p2 @ _h(q2)
    return out


@dataclass(frozen=True)
class GbdtTriple:
    """Input data {A, S0, theta1, theta2} for one transformation, plus sigma.

    sigma is -1 (focusing) or +1 (defocusing); kappa, the block sizes and j
    are derived. Construction checks shapes only; numerical admissibility is
    the job of verify.validate_triple.

    The Sylvester solver of A X + X A* = C, the eigenvalues of A, the
    origin parts of S, j and j^kappa are cached on the instance
    (complete_triple fills the solver and the origin parts; the rest are
    computed on first use), so A and the theta blocks must not be mutated
    in place after construction.
    """

    sigma: int
    A: np.ndarray
    S0: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma!r}")
        object.__setattr__(self, "A", numkit.as_cmatrix(self.A, "A"))
        object.__setattr__(self, "S0", numkit.as_cmatrix(self.S0, "S0"))
        object.__setattr__(self, "theta1", numkit.as_cmatrix(self.theta1, "theta1"))
        object.__setattr__(self, "theta2", numkit.as_cmatrix(self.theta2, "theta2"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.S0.shape != (n, n):
            raise DimensionMismatch(f"S0 must be {n}x{n}, got {self.S0.shape}")
        if self.theta1.shape[0] != n or self.theta2.shape[0] != n:
            raise DimensionMismatch(
                f"theta blocks must have {n} rows, got {self.theta1.shape} and {self.theta2.shape}"
            )
        if self.theta1.shape[1] < 1 or self.theta2.shape[1] < 1:
            raise DimensionMismatch("theta blocks must have at least one column")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m1(self) -> int:
        return self.theta1.shape[1]

    @property
    def m2(self) -> int:
        return self.theta2.shape[1]

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    @property
    def kappa(self) -> int:
        return (1 - self.sigma) // 2

    @functools.cached_property
    def j(self) -> np.ndarray:
        """Read-only signature matrix diag(I_m1, -I_m2)."""
        j = np.diag(np.concatenate([np.ones(self.m1), -np.ones(self.m2)])).astype(np.complex128)
        j.flags.writeable = False
        return j

    @functools.cached_property
    def jk(self) -> np.ndarray:
        """Read-only j^kappa: identity for the defocusing branch, j for the
        focusing one."""
        if self.kappa == 1:
            return self.j
        jk = np.eye(self.m, dtype=np.complex128)
        jk.flags.writeable = False
        return jk

    def coupling_rhs(self) -> np.ndarray:
        """theta1 theta1* + (-1)^kappa theta2 theta2*."""
        return coupling_term(self.kappa, self.theta1, self.theta2, self.theta1, self.theta2)

    @functools.cached_property
    def sylvester(self):
        """Solver of A X + X A* = C for stacks of C, built once.

        Raises SpectralClash when the spectra of A and -A* meet; the failure
        is not cached, so every call raises again.
        """
        return numkit.sylvester_solver(self.A, _h(self.A))

    @functools.cached_property
    def origin_parts(self) -> np.ndarray:
        """Read-only (2, n, n) stack of Sigma1 and Sigma2, the Hermitian
        solutions of A Sigma_k + Sigma_k A* = theta_k theta_k*.

        S(x, t), and on grids M(x, t), are propagated from them.
        complete_triple caches them with S0 = Sigma1 + (-1)^kappa Sigma2; a
        triple built directly solves for them on first use. Raises
        SpectralClash like sylvester, and is then not cached either, and
        Overflow when they leave the operating range.
        """
        return _solve_origin_parts(self.sylvester, self.theta1, self.theta2)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A."""
        return numkit.eigenvalues(self.A)

    @functools.cached_property
    def A2(self) -> np.ndarray:
        """Read-only A^2, the generator of the t-flow e^{-2itA^2}."""
        a2 = self.A @ self.A
        a2.flags.writeable = False
        return a2

    @functools.cached_property
    def A_norm(self) -> float:
        """Frobenius norm of A, the scale of the spectral-pole test."""
        return float(np.linalg.norm(self.A))


def complete_triple(sigma: int, A, theta1, theta2) -> GbdtTriple:
    """Solve the coupling identity for S0 and return the completed triple.

    One Sylvester solver solves once for the origin parts; by linearity
    S0 = Sigma1 + (-1)^kappa Sigma2, exactly Hermitian and solving the
    identity by construction, so of validate_triple's entries only the
    determinant floor can stop it. The triple caches that solver and those
    parts, so no later call builds or solves again. Raises SpectralClash if
    A's spectrum meets its reflected conjugate, and DegenerateS if S0 is
    numerically singular: relative_det(S0) not above DET_FLOOR.
    """
    A = numkit.as_cmatrix(A, "A")
    theta1 = numkit.as_cmatrix(theta1, "theta1")
    theta2 = numkit.as_cmatrix(theta2, "theta2")
    solver = numkit.sylvester_solver(A, _h(A))
    parts = _solve_origin_parts(solver, theta1, theta2)
    s0 = parts[0] + (-1) ** ((1 - sigma) // 2) * parts[1]
    triple = GbdtTriple(sigma=sigma, A=A, S0=s0, theta1=theta1, theta2=theta2)
    # prefill the cached properties: cached_property reads the instance __dict__
    vars(triple).update(sylvester=solver, origin_parts=parts)
    det_rel = relative_det(s0)
    if not det_rel > DET_FLOOR:
        raise DegenerateS(
            f"|det S0| / max(1, ||S0||)^n = {det_rel:.3e} not above {DET_FLOOR:.0e}; "
            "the completed triple does not define a solution"
        )
    return triple


def _exponentials(triple: GbdtTriple, xs, ts) -> np.ndarray:
    """E(x, t) and its inverse E(-x, -t), in that order, for each pair
    (x, t) of the broadcast arrays xs and ts, from one stacked numkit.expm
    call: shape (*broadcast shape, 2, n, n)."""
    a = triple.A
    xs = np.asarray(xs, dtype=np.float64)[..., None, None]
    ts = np.asarray(ts, dtype=np.float64)[..., None, None]
    args = 1j * (xs * a - 2.0 * ts * triple.A2)
    pairs = np.stack([args, -args], axis=-3)
    return numkit.expm(pairs.reshape(-1, *a.shape)).reshape(pairs.shape)


def _pi(triple: GbdtTriple, e: np.ndarray) -> np.ndarray:
    """Pi(x, t) = [E(x, t) theta1, E(-x, -t) theta2] from the pair
    e = (E(x, t), E(-x, -t)), or from a stack of pairs (..., 2, n, n)."""
    return np.concatenate(
        [e[..., 0, :, :] @ triple.theta1, e[..., 1, :, :] @ triple.theta2], axis=-1
    )


def pi_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """Generating matrix Pi(x, t), shape (n, m1 + m2)."""
    return _pi(triple, _exponentials(triple, x, t))


def pi_via_blocks(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """Pi(x, t) through the doubled block realization.

    Uses cal_A = diag(A, -A), cal_B = diag(A^2, -A^2), the row selector
    [I I], and the block-diagonal theta stack; agrees with pi_at to 1e-11
    and serves as the cross-route check.
    """
    n = triple.n
    a2 = triple.A @ triple.A
    z = np.zeros((n, n), dtype=np.complex128)
    cal_a = np.block([[triple.A, z], [z, -triple.A]])
    cal_b = np.block([[a2, z], [z, -a2]])
    selector = np.hstack([np.eye(n), np.eye(n)]).astype(np.complex128)
    th = np.zeros((2 * n, triple.m), dtype=np.complex128)
    th[:n, : triple.m1] = triple.theta1
    th[n:, triple.m1 :] = triple.theta2
    return selector @ numkit.expm(-2j * t * cal_b) @ numkit.expm(1j * x * cal_a) @ th


def _propagated_s(triple: GbdtTriple, e: np.ndarray) -> np.ndarray:
    """S(x, t) = E(x,t) Sigma1 E(-x,t)* + (-1)^kappa E(-x,-t) Sigma2 E(x,-t)*
    from the quadruple e = ((E(x, t), E(-x, -t)), (E(-x, t), E(x, -t))),
    or from a stack of quadruples (..., 2, 2, n, n). e[..., ::-1, :, :, :]
    is the quadruple of (-x, t).

    Raises SpectralClash when the origin parts Sigma_k do not exist.
    """
    sigma1, sigma2 = triple.origin_parts
    return coupling_term(
        triple.kappa, e[..., 0, 0, :, :] @ sigma1, e[..., 0, 1, :, :] @ sigma2,
        e[..., 1, 0, :, :], e[..., 1, 1, :, :],
    )


def s_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """S(x, t), propagated from the triple's origin parts Sigma1, Sigma2.

    Four exponentials from one stacked numkit.expm call and four products;
    no Sylvester solve once the origin parts are cached. Solves
    A S + S A* = Pi(x, t) j^kappa Pi(-x, t)* and satisfies
    S(-x, t) = S(x, t)* to 1e-10. Raises SpectralClash when the spectra of
    A and -A* meet; callers should fall back to s_via_integration.
    """
    return _propagated_s(triple, _exponentials(triple, (x, -x), t))


def _outer_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left right* for stacks of n x r matrices, as the sum of the r outer
    products of their columns: one multiply-add over the whole stack per
    column, where a batched product of small matrices costs a call each."""
    right = np.conj(right)
    out = left[..., :, None, 0] * right[..., None, :, 0]
    for c in range(1, left.shape[-1]):
        out += left[..., :, None, c] * right[..., None, :, c]
    return out


def s_via_integration(triple: GbdtTriple, x: float, t: float, steps: int = 400) -> np.ndarray:
    """S(x, t) by integrating its t-rate along x=0, then its x-rate at fixed t.

    Independent of the Sylvester solve; error decays like steps**-4. This is
    the fallback route when A's spectrum is not disjoint from -A*'s. Both
    legs start at 0, so with N panels (steps rounded up to even) their
    Simpson nodes are k t/N and k x/N, and one numkit.expm_steps call
    tabulates all four exponentials the legs take at those nodes:
    g = e^{-2ikt/N A^2}, g^{-1}, f = e^{ikx/N A} and f^{-1}.

    With s = (-1)^{kappa+1} and C_k = theta_k theta_k* A* - A theta_k theta_k*
    = theta_k (A theta_k)* - (A theta_k) theta_k*, the t-rate is
    2i (g C1 g* + s g^{-1} C2 g^{-*}) = 2i (X - X*), X = (g theta1)
    (g A theta1)* + s (g^{-1} theta2)(g^{-1} A theta2)*. A and A^2 commute,
    so with p1 = e^{-2itA^2} theta1 and p2 = e^{2itA^2} theta2, read from
    the last entries of the t-leg tables, the x-rate
    i Pi(x,t) j^{kappa+1} Pi(-x,t)* is i ((f p1)(f^{-1} p1)* + s (f^{-1} p2)
    (f p2)*). Each factor is a table applied to [theta, A theta] or to
    [p1, p2] (numkit.StepTable.apply), and each rate a sum of outer
    products of their columns.

    Raises InvalidRange on a non-finite x or t and on steps < 1, before
    any exponential is taken, and Overflow when the last exponent of a leg
    leaves the expm operating range.
    """
    if not (np.isfinite(x) and np.isfinite(t)):
        raise InvalidRange(f"bounds must be finite, got x={x!r}, t={t!r}")
    if steps < 1:
        raise InvalidRange(f"steps must be positive, got {steps}")
    # integrate_matrix's panel count: steps rounded up to even
    panels = int(steps)
    panels += panels % 2
    a, a2 = triple.A, triple.A2
    theta1, theta2 = triple.theta1, triple.theta2
    m1, m2 = triple.m1, triple.m2
    sgn = (-1.0) ** (triple.kappa + 1)
    ht, hx = t / panels, x / panels
    gt, gti, fx, fxi = numkit.expm_steps(
        np.stack([-2j * ht * a2, 2j * ht * a2, 1j * hx * a, -1j * hx * a]), panels + 1
    )
    t1 = gt.apply(np.hstack([theta1, a @ theta1]))
    t2 = gti.apply(np.hstack([theta2, a @ theta2]))
    # p1 = e^{-2itA^2} theta1 and p2 = e^{2itA^2} theta2
    p = np.hstack([t1[-1, :, :m1], t2[-1, :, :m2]])
    fp, fip = fx.apply(p), fxi.apply(p)
    # X, then 2i (X - X*) in place
    t_rate = _outer_sum(
        np.concatenate([t1[..., :m1], sgn * t2[..., :m2]], axis=-1),
        np.concatenate([t1[..., m1:], t2[..., m2:]], axis=-1),
    )
    t_rate -= _h(t_rate)
    t_rate *= 2j
    x_rate = _outer_sum(
        np.concatenate([fp[..., :m1], sgn * fip[..., m1:]], axis=-1),
        np.concatenate([fip[..., :m1], fp[..., m1:]], axis=-1),
    )
    x_rate *= 1j
    leg_t = numkit.integrate_matrix(lambda _: t_rate, 0.0, t, steps)
    leg_x = numkit.integrate_matrix(lambda _: x_rate, 0.0, x, steps)
    return triple.S0 + leg_t + leg_x


def _s_points(triple: GbdtTriple, e: np.ndarray, xs, ts) -> np.ndarray:
    """S at each point (x, t) of xs and ts, propagated from the stack e of
    their quadruples, or integrated by s_via_integration point by point
    when the spectra of A and -A* meet."""
    try:
        return _propagated_s(triple, e)
    except SpectralClash:
        return np.stack([s_via_integration(triple, x, t) for x, t in zip(xs, ts)])


def _points(triple: GbdtTriple, xs, ts):
    """(S, Pi(x, t), Pi(-x, t), e) at each point (x, t) of the equal-length
    sequences xs and ts, stacked along a leading axis.

    The quadruples e of all points come from one stacked numkit.expm call,
    and S from _s_points. relative_det is taken of every S at once, and
    SingularPoint is raised for the first point, in stack order, where it
    is at most DET_FLOOR.
    """
    if len(xs) != len(ts):
        raise DimensionMismatch(f"{len(xs)} x values against {len(ts)} t values")
    x_values = np.asarray(xs, dtype=np.float64)
    e = _exponentials(
        triple, x_values[:, None] * _SIGNS, np.asarray(ts, dtype=np.float64)[:, None]
    )
    s = _s_points(triple, e, xs, ts)
    scale = np.maximum(np.linalg.norm(s, axis=(-2, -1)), 1.0)[:, None, None]
    for x, t, det_rel in zip(xs, ts, np.abs(np.linalg.det(s / scale)).tolist()):
        if det_rel <= DET_FLOOR:
            raise SingularPoint(
                x, t, det_rel,
                f"S(x, t) is singular at x={x!r}, t={t!r} "
                f"(|det S| / max(1, ||S||)^n = {det_rel:.3e})",
            )
    return s, _pi(triple, e[:, 0]), _pi(triple, e[:, 1]), e


def _xi(triple: GbdtTriple, left: np.ndarray, s_inv_p: np.ndarray) -> np.ndarray:
    """xi = i (j X0 j - X0), X0 = left s_inv_p = j^kappa Pi(-x,t)* S^{-1} Pi(x,t)."""
    x0 = left @ s_inv_p
    j = triple.j
    return 1j * (j @ x0 @ j - x0)


def u_tilde_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """The constructed solution u(x, t), shape (m1, m2): the top-right block
    of xi_tilde_at.

    Raises SingularPoint when det S(x, t) is numerically zero.
    """
    m1 = triple.m1
    return xi_tilde_at(triple, x, t)[:m1, m1:]


def xi_tilde_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """Transferred potential xi(x, t) = i (j X0 j - X0), shape (m, m).

    X0 = j^kappa Pi(-x,t)* S(x,t)^{-1} Pi(x,t). The diagonal blocks cancel
    exactly; the top-right block is u_tilde_at and the bottom-left block is
    -sigma times the conjugate transpose of u at (-x, t). darboux_at
    returns the same matrix as its sample's xi.
    """
    [s], [p], [pm], _ = _points(triple, (x,), (t,))
    return _xi(triple, triple.jk @ _h(pm), np.linalg.solve(s, p))


@dataclass(frozen=True)
class SpectralSample:
    """Darboux matrix pair, wave function and transferred potential at one
    (x, t, z); xi does not depend on z."""

    x: float
    t: float
    z: complex
    wa: np.ndarray
    wb: np.ndarray
    wave: np.ndarray
    xi: np.ndarray


def _samples(triple: GbdtTriple, xs, ts, z: complex):
    """(spectral_samples' samples, Pi(x, t), Pi(-x, t), e) at each point
    (x, t) of xs and ts, so that the mirror of darboux_gaps reuses the
    point's Pi and exponentials."""
    z = complex(z)
    a = triple.A
    eigs = triple.eigenvalues
    scale = triple.A_norm + abs(z) + 1.0
    if np.min(np.abs(eigs - z)) < 1e-9 * scale:
        raise SpectralPole(f"z = {z!r} is numerically an eigenvalue of A")
    if np.min(np.abs(eigs + np.conj(z))) < 1e-9 * scale:
        raise SpectralPole(f"-conj(z) = {-np.conj(z)!r} is numerically an eigenvalue of A")

    s, p, pm, e = _points(triple, xs, ts)
    eye_n = _eye(triple.n)
    m = triple.m

    left = triple.jk @ _h(pm)
    # S^{-1} Pi(x, t) and S^{-1} (A - zI)^{-1} Pi(x, t), from one solve
    sol = np.linalg.solve(
        s, np.concatenate([p, np.linalg.solve(a - z * eye_n, p)], axis=-1)
    )
    s_inv_p = sol[..., :m]
    wa = _eye(m) - left @ sol[..., m:]
    wb = _eye(m) - left @ np.linalg.solve(_h(a) + z * eye_n, s_inv_p)
    xi = _xi(triple, left, s_inv_p)

    # the diagonal of e^{-i(zx - 2z^2 t) j}, e^{-phase} on the m1 columns
    # and e^{phase} on the m2, per point
    phases = [1j * (z * x - 2.0 * z * z * t) for x, t in zip(xs, ts)]
    diag = np.exp(np.array([[-w] * triple.m1 + [w] * triple.m2 for w in phases]))
    wave = wa * diag[:, None, :]
    samples = [
        SpectralSample(x=x, t=t, z=z, wa=wa[k], wb=wb[k], wave=wave[k], xi=xi[k])
        for k, (x, t) in enumerate(zip(xs, ts))
    ]
    return samples, p, pm, e


def spectral_samples(triple: GbdtTriple, xs, ts, z: complex) -> List[SpectralSample]:
    """spectral_sample at each point (x, t) of the equal-length sequences
    xs and ts, for one z, built as one stack.

    The exponentials of all points come from one stacked numkit.expm call,
    S is propagated (integrated point by point on a clashing spectrum) and
    put through the determinant floor once for the stack, and each solve is
    one stacked np.linalg.solve. Every sample is, bit for bit, the one
    spectral_sample gives at its point. Raises SpectralPole as
    spectral_sample, and SingularPoint for the first point of the stack
    where S is singular.
    """
    return _samples(triple, xs, ts, z)[0]


def spectral_sample(triple: GbdtTriple, x: float, t: float, z: complex) -> SpectralSample:
    """Darboux matrix w_A, its inverse w_B, the wave function and the
    transferred potential xi at (x, t, z), constructed only: the one-point
    case of spectral_samples.

    w_A(x,t,z) = I - j^kappa Pi(-x,t)* S^{-1} (A - zI)^{-1} Pi(x,t),
    w_B(x,t,z) = I - j^kappa Pi(-x,t)* (A* + zI)^{-1} S^{-1} Pi(x,t), and
    the wave function is w_A(x,t,z) e^{-i(zx - 2z^2 t) j}. xi is
    xi_tilde_at's matrix, from the solve S^{-1} Pi(x,t) that w_B makes. One
    S is propagated (integrated on a clashing spectrum) and factored twice:
    by the determinant floor and by one solve of [Pi, (A - zI)^{-1} Pi].

    Raises SpectralPole when z (for w_A) or -conj(z) (for w_B) meets the
    spectrum of A, and SingularPoint on singular S; never DarbouxMismatch.
    """
    return _samples(triple, (x,), (t,), z)[0][0]


def darboux_gaps(
    triple: GbdtTriple, x: float, t: float, z: complex
) -> Tuple[SpectralSample, float, float]:
    """spectral_sample at (x, t, z) with the relative residuals of its two
    facts, ||w_A w_B - I|| / max(1, ||w_A|| ||w_B||) and
    ||w_B - j^kappa w_A(-x,t,-conj z)* j^kappa|| / max(1, ||w_B||).

    The mirror w_A(-x, t, -conj z) takes S(-x, t) propagated on its own from
    the point's four exponentials, swapped (integrated on a clashing
    spectrum), never S(x, t)*, so it makes no further exponential. Raises
    as spectral_sample.
    """
    [sample], [p], [pm], e = _samples(triple, (x,), (t,), z)
    eye_m = _eye(triple.m)
    jk = triple.jk
    wa, wb = sample.wa, sample.wb

    [s_m] = _s_points(triple, e[:, ::-1], (-x,), (t,))
    wa_m = eye_m - jk @ _h(p) @ np.linalg.solve(
        s_m, np.linalg.solve(triple.A + np.conj(sample.z) * _eye(triple.n), pm)
    )
    norm = np.linalg.norm
    inverse = float(norm(wa @ wb - eye_m)) / max(1.0, float(norm(wa)) * float(norm(wb)))
    reduction = float(norm(wb - jk @ _h(wa_m) @ jk)) / max(1.0, float(norm(wb)))
    return sample, inverse, reduction


def darboux_at(triple: GbdtTriple, x: float, t: float, z: complex) -> SpectralSample:
    """spectral_sample at (x, t, z), with the Darboux pair asserted.

    The pair multiplies to the identity and w_B equals
    j^kappa w_A(-x, t, -conj(z))* j^kappa. Both facts are asserted to
    DARBOUX_TOL: DarbouxMismatch is raised when either relative residual
    of darboux_gaps exceeds it. verify.darboux_residual reports the same
    residuals without raising. Two S are propagated, at x and at -x; this
    is the one assertion gbdt_core makes.

    Raises SpectralPole and SingularPoint as spectral_sample.
    """
    sample, inverse, reduction = darboux_gaps(triple, x, t, z)
    if not (inverse <= DARBOUX_TOL and reduction <= DARBOUX_TOL):
        raise DarbouxMismatch(
            f"Darboux pair at x={x!r}, t={t!r}, z={sample.z!r} fails its checks: "
            f"relative residuals {inverse:.3e} (w_A w_B = I) and {reduction:.3e} "
            f"(reduction), bound {DARBOUX_TOL:.0e}"
        )
    return sample


def wave_at(triple: GbdtTriple, x: float, t: float, z: complex) -> np.ndarray:
    """Wave function w_A(x,t,z) e^{-i(zx - 2z^2 t) j}; the trivial-seed solution
    of the transferred linear system in both variables. Built by
    spectral_sample, so the Darboux pair is not asserted."""
    return spectral_sample(triple, x, t, z).wave


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular (x, t) grid, x symmetric about 0, t containing 0.

    x symmetry must be exact in floating point (x_values reversed and negated
    reproduces x_values bit for bit) so mirror evaluation u(-x, t) can reuse
    grid samples; use Grid.build to construct nodes by integer offsets.
    """

    x_values: np.ndarray
    t_values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.x_values, dtype=np.float64)
        ts = np.asarray(self.t_values, dtype=np.float64)
        object.__setattr__(self, "x_values", xs)
        object.__setattr__(self, "t_values", ts)
        if xs.ndim != 1 or ts.ndim != 1 or xs.size < 2 or ts.size < 2:
            raise AsymmetricGrid("grid axes must be 1-D with at least two nodes")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ts) <= 0):
            raise AsymmetricGrid("grid nodes must be strictly increasing")
        for arr, name in ((xs, "x"), (ts, "t")):
            d = np.diff(arr)
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * max(1.0, abs(arr[0]))):
                raise AsymmetricGrid(f"{name}-grid spacing is not uniform")
        if not np.array_equal(xs, -xs[::-1]):
            raise AsymmetricGrid("x-grid must be exactly symmetric about 0")
        if not np.any(ts == 0.0):
            raise AsymmetricGrid("t-grid must contain 0")

    @staticmethod
    def build(x_max: float, nx: int, t_min: float, t_max: float, nt: int) -> "Grid":
        """Construct nodes by integer offsets from the origin.

        nx must be odd so x = 0 is a node; the t node nearest 0 is snapped
        to exactly 0 and must land within 1e-9 * ht of it. The operating
        range of the datum entries bounds the grid too: an extent beyond
        numkit.ENTRY_LIMIT is an Overflow, and a spacing under its inverse,
        whose square a second difference would divide by, RangeExceeded.
        """
        if nx < 2 or nx % 2 == 0:
            raise AsymmetricGrid(f"nx must be odd and >= 3, got {nx}")
        if nt < 2:
            raise AsymmetricGrid(f"nt must be >= 2, got {nt}")
        if not (x_max > 0):
            raise AsymmetricGrid(f"x_max must be positive, got {x_max}")
        if not (t_max > t_min):
            raise AsymmetricGrid(f"t range is empty: [{t_min}, {t_max}]")
        limit = numkit.ENTRY_LIMIT
        if max(x_max, abs(t_min), abs(t_max)) > limit:
            raise Overflow(f"grid extent beyond the operating range {limit:g}")
        c = (nx - 1) // 2
        hx = x_max / c
        xs = (np.arange(nx) - c) * hx
        ht = (t_max - t_min) / (nt - 1)
        if min(hx, ht) < 1.0 / limit:
            raise RangeExceeded(f"grid spacings {hx!r}, {ht!r} not both >= {1 / limit:g}")
        l0 = int(round(-t_min / ht))
        if l0 < 0 or l0 > nt - 1 or abs(t_min + l0 * ht) > 1e-9 * ht:
            raise AsymmetricGrid(
                f"t-grid [{t_min}, {t_max}] with {nt} nodes does not contain 0"
            )
        ts = (np.arange(nt) - l0) * ht
        return Grid(x_values=xs, t_values=ts)

    @property
    def nx(self) -> int:
        return self.x_values.size

    @property
    def nt(self) -> int:
        return self.t_values.size

    @property
    def hx(self) -> float:
        return float(self.x_values[1] - self.x_values[0])

    @property
    def ht(self) -> float:
        return float(self.t_values[1] - self.t_values[0])

    def halved(self) -> "Grid":
        """Grid with both spacings halved (node counts 2n-1)."""
        xs = self.x_values
        ts = self.t_values
        def refine(a):
            out = np.empty(2 * a.size - 1)
            out[0::2] = a
            out[1::2] = 0.5 * (a[:-1] + a[1:])
            return out
        return Grid(x_values=refine(xs), t_values=refine(ts))


@dataclass
class SolutionField:
    """One grid level of the constructed solution: u, shape (nx, nt, m1,
    m2) with NaN entries at masked nodes, a view of an array that holds
    the node axes last, the singular mask, and det S, taken from det M.
    These are what the CSV files and the checks that read a whole level
    (pde, oracle) need; the checks that read M, K or its factors read them
    tile by tile while solution_field builds the level."""

    grid: Grid
    u: np.ndarray
    singular_mask: np.ndarray
    detS: np.ndarray


@dataclass(frozen=True)
class FieldTile:
    """The nodes of one mirror-closed tile of x rows, as solution_field
    hands them to its tile checks.

    rows are the tile's x rows in increasing order, closed under
    k -> nx - 1 - k, so reversing any of the tile's stacks along its first
    axis gives every node's mirror (-x, t). M, shape (rows, nt, n, n), is
    the reduced matrix with S(x, t) = E M E(-x, t)*, and K, shape
    (rows, nt, n, m2), the right side e^{i(-2xA + 4tA^2)} theta2 of its
    solve; factors are M's LU factors (numkit.LUFactors), with which a
    check solves for other right sides. u and the singular mask are the
    tile's rows of the level's. The stacks are node-first views of arrays
    that hold the node axes last.
    """

    rows: np.ndarray
    M: np.ndarray
    K: np.ndarray
    factors: numkit.LUFactors
    u: np.ndarray
    singular_mask: np.ndarray


def _sandwich(left: np.ndarray, mid: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, n, nx, nt) stack, node axes last, of left[k] mid[l] right[k]*
    from stacks of nx, nt and nx matrices.

    mid[l] right[k]* for every l is one (n, n) @ (n, n nt) product per x
    row; the left factor is then one (n, n) @ (n, nt) product per x and row
    of the result, written straight into the node-last stack.
    """
    nx, n = left.shape[:2]
    nt = mid.shape[0]
    # y[k, d, c, l] = (mid[l] right[k]*)[c, d]
    y = np.conj(right) @ mid.transpose(2, 1, 0).reshape(n, n * nt)
    out = np.empty((n, n, nx, nt), dtype=np.complex128)
    np.matmul(left[:, None], y.reshape(nx, n, n, nt), out=out.transpose(2, 1, 0, 3))
    return out


def _node_first(stack: np.ndarray) -> np.ndarray:
    """(nx, nt, r, c) view of an (r, c, nx, nt) stack held node-last."""
    return np.moveaxis(stack, (0, 1), (2, 3))


# Nodes per tile of solution_field times the order n: a tile holds about
# _TILE_NODES // n nodes, in whole mirror pairs of x rows, at least one.
# Per node the LU's work grows like n^3 and a tile's stacks like n^2,
# while numpy's cost per call is fixed, so the best tile shrinks with n.
# On a 201 x 201 level (one BLAS thread, median of 15), tiles of 1024 /
# 2048 / 4096 / 8192 nodes took 20 / 14 / 12 / 12 ms at n = 2, 42 / 33 /
# 31 / 30 at n = 4 and 124 / 114 / 106 / 113 at n = 8, and at n = 1 a
# closed-form level in tiles of 4096 nodes ran 65% slower than in one
# tile; 2^15 / n nodes is 4096 at n = 8 and more below it. Every tile from
# one mirror pair to the whole grid gives identical bytes.
_TILE_NODES = 2**15


def _tables(triple: GbdtTriple, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The tables h[k] = e^{-2i x_k A} and q[l] = e^{4i t_l A^2}, the
    squares of e^{-ixA} and e^{2itA^2} from one stacked numkit.expm call of
    nx + nt matrices at the argument norms of the pointwise route.

    Raises Overflow when a squared table leaves double range: squaring
    doubles the exponents, so a table in range may square beyond it.
    """
    a = triple.A
    tables = numkit.expm(
        np.concatenate(
            [-1j * grid.x_values[:, None, None] * a, 2j * grid.t_values[:, None, None] * (a @ a)]
        )
    )
    with np.errstate(over="ignore", invalid="ignore"):
        h, q = np.split(tables @ tables, [grid.nx])
    if not (np.isfinite(h).all() and np.isfinite(q).all()):
        raise Overflow("e^{-2ixA} or e^{4itA^2} leaves double range on this grid")
    return h, q


def _right_sides(triple: GbdtTriple, h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """K[k, l] = h[k] q[l] theta2 at the nodes of the x rows of h,
    node-first: one (n, n) @ (n, m2 nt) product per x row. An entry beyond
    double range is left for numkit.lu_solve's check."""
    n, m2 = triple.n, triple.m2
    # qt[b, c, l] = (q[l] theta2)[b, c]
    qt = (q @ triple.theta2).transpose(1, 2, 0).reshape(n, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        k = (h @ qt).reshape(h.shape[0], n, m2, -1)
    return k.transpose(0, 3, 1, 2)


def _tile(
    triple: GbdtTriple, rows: np.ndarray, h: np.ndarray, mid: np.ndarray, q: np.ndarray
) -> FieldTile:
    """The tile of the x rows rows: K = h[k] q[l] theta2, M = Sigma1 +
    s h[k] mid[l] h[-k]* with the mask's threshold, one LU per node, and u.

    The mask's threshold is SINGULAR_PIVOT_FACTOR (||Sigma1|| +
    ||M - Sigma1||) per node, M - Sigma1 being the sandwich, whose norms
    numkit.frobenius_norms takes; a node is masked when the smallest pivot
    of its LU is at most its threshold.

    Raises numkit's ValueError on a non-finite M or K.
    """
    sigma1 = triple.origin_parts[0]
    k = _right_sides(triple, h[rows], q)
    with np.errstate(over="ignore", invalid="ignore"):
        m = _sandwich(h[rows], mid, h[::-1][rows])
        floor = (numkit.frobenius_norms(m) + np.linalg.norm(sigma1)) * SINGULAR_PIVOT_FACTOR
        if triple.kappa == 1:
            np.subtract(sigma1[..., None, None], m, out=m)
        else:
            m += sigma1[..., None, None]
    m = _node_first(m)

    factors = numkit.lu_factor(m)
    mask = factors.pivot <= floor
    u = _u(triple, numkit.lu_solve(factors, k), mask)
    return FieldTile(rows=rows, M=m, K=k, factors=factors, u=u, singular_mask=mask)


def _u(triple: GbdtTriple, x2: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """u = -2i theta1* X2 from the node-first solves X2, NaN at masked
    nodes: numkit.stack_matmul's multiply-adds, node by node."""
    u = numkit.stack_matmul(_h(triple.theta1), x2)
    u *= -2j
    u[mask] = complex(np.nan, np.nan)
    return u


def solution_field(
    triple: GbdtTriple, grid: Grid, checks: Sequence[Callable[[FieldTile], None]] = ()
) -> SolutionField:
    """Assemble u, det S and the singular mask on the grid, handing each
    tile of the level to every callable of checks.

    With s = (-1)^kappa, h[k] = e^{-2i x_k A} and q[l] = e^{4i t_l A^2}, S
    factors as S = E(x, t) M E(-x, t)* with

        M[k, l] = Sigma1 + s h[k] (q[l] Sigma2 q[l]*) h[-k]*,

        u = -2i theta1* M^{-1} K,   K[k, l] = h[k] q[l] theta2,

    since E commutes with A and E(x, t)^{-1} = E(-x, -t). The tables h and
    q come from one stacked numkit.expm call of nx + nt matrices. The rest
    runs on mirror-closed tiles of x rows, rows k and nx - 1 - k together,
    about _TILE_NODES / n nodes each: per tile, K is one product per
    x row, M one sandwich of matrix products per x row, and one LU per
    node (numkit.lu_factor) gives det M, its smallest pivot and, by
    numkit.lu_solve, X2 = M^{-1} K. Then

        det S = det M e^{2ix Re tr A} e^{4t Im tr A^2},

    and u = -2i theta1* X2 is numkit.stack_matmul's multiply-adds, node by
    node. A node is masked, and set to NaN in u, when the smallest pivot
    modulus of M's LU is at most SINGULAR_PIVOT_FACTOR times
    ||Sigma1|| + ||M - Sigma1|| (Frobenius, M - Sigma1 being the sandwich).
    The pivot is at least sigma_min(M) / n, so a well-conditioned node is
    never masked, and a node's flag depends on that node alone, not on how
    far the grid extends.

    Each tile, a FieldTile with its M, K and factors, goes to the checks
    and is then dropped, so no stack of the size of the level's M or K
    exists; the level keeps u, det S and the mask. Every product has a
    fixed shape per x row or per node, so any tiling gives identical
    bytes. Mirror samples at -x reuse the tables at the mirrored node,
    never a second exponential. Output is deterministic: the same triple
    and grid give bit-identical arrays on every run.

    Raises SpectralClash when A's spectrum meets -A*'s (no grid fallback),
    numkit's ValueError on a non-finite M or K, and Overflow when the
    squared tables or det S leave double range; det S is formed from det M
    once every tile is in, so a ValueError anywhere comes first.
    """
    nx, nt = grid.nx, grid.nt
    h, q = _tables(triple, grid)
    mid = q @ triple.origin_parts[1] @ _h(q)
    u = _node_first(np.empty((triple.m1, triple.m2, nx, nt), dtype=np.complex128))
    det = np.empty((nx, nt), dtype=np.complex128)
    mask = np.empty((nx, nt), dtype=bool)
    pairs = max(1, _TILE_NODES // (2 * nt * triple.n))
    half = (nx + 1) // 2
    for lo in range(0, half, pairs):
        hi = min(lo + pairs, half)
        # rows lo .. hi - 1 and their mirrors, the centre row once
        rows = np.r_[lo:hi, max(hi, nx - hi):nx - lo]
        tile = _tile(triple, rows, h, mid, q)
        u[rows], det[rows], mask[rows] = tile.u, tile.factors.det, tile.singular_mask
        for check in checks:
            check(tile)
    # det S = det E(x, t) det M conj(det E(-x, t))
    with np.errstate(over="ignore", invalid="ignore"):
        det *= np.exp(2j * np.trace(triple.A).real * grid.x_values)[:, None]
        det *= np.exp(4.0 * np.trace(triple.A2).imag * grid.t_values)
    if not np.isfinite(det).all():
        raise Overflow("det S leaves double range on this grid")
    return SolutionField(grid=grid, u=u, singular_mask=mask, detS=det)
