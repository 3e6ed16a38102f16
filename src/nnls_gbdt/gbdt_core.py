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

It constructs, raising where a construction cannot go on (SpectralClash,
the DET_FLOOR rule behind DegenerateS and SingularPoint, SpectralPole,
Overflow) and masking near-singular grid nodes; the verdicts on a triple
and on what is built from it are verify's. One check stays here:
darboux_at asserts its pair's two facts (DarbouxMismatch), because the
benchmark's pointwise Darboux operation is gated on that exception;
verify.darboux_residual reports the same residuals without raising.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import numkit
from .errors import (
    AsymmetricGrid,
    DarbouxMismatch,
    DegenerateS,
    DimensionMismatch,
    Overflow,
    RangeExceeded,
    SingularPoint,
    SpectralClash,
    SpectralPole,
)

# Grid-relative threshold under which det S is flagged singular.
SINGULAR_DET_FACTOR = 1e-8

# Floor of relative_det at or under which S0, or S at a single point, is
# singular.
DET_FLOOR = 1e-12

# Bound on the relative residuals of w_A w_B = I and of the reduction that
# darboux_at asserts.
DARBOUX_TOL = 1e-9


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


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


def _exponentials(triple: GbdtTriple, xs, t: float) -> np.ndarray:
    """E(x, t) and its inverse E(-x, -t) for each x of xs, in that order,
    from one stacked numkit.expm call: shape (2 len(xs), n, n)."""
    a = triple.A
    a2 = a @ a
    args = [1j * (x * a - 2.0 * t * a2) for x in xs]
    return numkit.expm(np.stack([m for arg in args for m in (arg, -arg)]))


def _pi(triple: GbdtTriple, e: np.ndarray, e_inv: np.ndarray) -> np.ndarray:
    """Pi(x, t) = [E(x, t) theta1, E(-x, -t) theta2] from E(x, t) and its
    inverse."""
    return np.hstack([e @ triple.theta1, e_inv @ triple.theta2])


def pi_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """Generating matrix Pi(x, t), shape (n, m1 + m2)."""
    return _pi(triple, *_exponentials(triple, (x,), t))


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
    from e = (E(x, t), E(-x, -t), E(-x, t), E(x, -t)).

    Raises SpectralClash when the origin parts Sigma_k do not exist.
    """
    sigma1, sigma2 = triple.origin_parts
    return coupling_term(triple.kappa, e[0] @ sigma1, e[1] @ sigma2, e[2], e[3])


def s_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """S(x, t), propagated from the triple's origin parts Sigma1, Sigma2.

    Four exponentials from one stacked numkit.expm call and four products;
    no Sylvester solve once the origin parts are cached. Solves
    A S + S A* = Pi(x, t) j^kappa Pi(-x, t)* and satisfies
    S(-x, t) = S(x, t)* to 1e-10. Raises SpectralClash when the spectra of
    A and -A* meet; callers should fall back to s_via_integration.
    """
    return _propagated_s(triple, _exponentials(triple, (x, -x), t))


def s_via_integration(triple: GbdtTriple, x: float, t: float, steps: int = 400) -> np.ndarray:
    """S(x, t) by integrating its t-rate along x=0, then its x-rate at fixed t.

    Independent of the Sylvester solve; error decays like steps**-4. This is
    the fallback route when A's spectrum is not disjoint from -A*'s. Both
    legs start at 0, so their Simpson nodes are k h, and each leg's
    exponentials come as numkit.expm_steps tables of the node spacing h.

    With s = (-1)^{kappa+1} and C_k = theta_k theta_k* A* - A theta_k theta_k*,
    the t-rate is 2i (g C1 g* + s g^{-1} C2 g^{-*}), g = e^{-2itA^2}. A and
    A^2 commute, so with p1 = e^{-2itA^2} theta1, p2 = e^{2itA^2} theta2 and
    f = e^{ixA} the x-rate i Pi(x,t) j^{kappa+1} Pi(-x,t)* is
    i (f p1 p1* f^{-*} + s f^{-1} p2 p2* f*).
    """
    a = triple.A
    a2 = a @ a
    ah = _h(a)
    g1 = triple.theta1 @ _h(triple.theta1)
    g2 = triple.theta2 @ _h(triple.theta2)
    sgn = (-1.0) ** (triple.kappa + 1)

    def t_rate(r: np.ndarray) -> np.ndarray:
        h = r[1] - r[0]
        gt = numkit.expm_steps(-2j * h * a2, r.size)
        gti = numkit.expm_steps(2j * h * a2, r.size)
        return 2j * (gt @ (g1 @ ah - a @ g1) @ _h(gt) + sgn * gti @ (g2 @ ah - a @ g2) @ _h(gti))

    def x_rate(r: np.ndarray) -> np.ndarray:
        h = r[1] - r[0]
        fx = numkit.expm_steps(1j * h * a, r.size)
        fxi = numkit.expm_steps(-1j * h * a, r.size)
        p1 = numkit.expm(-2j * t * a2) @ triple.theta1
        p2 = numkit.expm(2j * t * a2) @ triple.theta2
        return 1j * (fx @ (p1 @ _h(p1)) @ _h(fxi) + sgn * fxi @ (p2 @ _h(p2)) @ _h(fx))

    leg_t = numkit.integrate_matrix(t_rate, 0.0, t, steps)
    leg_x = numkit.integrate_matrix(x_rate, 0.0, x, steps)
    return triple.S0 + leg_t + leg_x


def _point(triple: GbdtTriple, x: float, t: float):
    """(S(x, t), Pi(x, t), Pi(-x, t), e) at one point, each computed once.

    e = (E(x, t), E(-x, -t), E(-x, t), E(x, -t)) comes from one stacked
    numkit.expm call, and S is propagated from it, or integrated by
    s_via_integration when the spectra of A and -A* meet. Raises
    SingularPoint when det S(x, t) is numerically zero.
    """
    e = _exponentials(triple, (x, -x), t)
    try:
        s = _propagated_s(triple, e)
    except SpectralClash:
        s = s_via_integration(triple, x, t)
    det_rel = relative_det(s)
    if det_rel <= DET_FLOOR:
        raise SingularPoint(
            x, t, det_rel,
            f"S(x, t) is singular at x={x!r}, t={t!r} "
            f"(|det S| / max(1, ||S||)^n = {det_rel:.3e})",
        )
    return s, _pi(triple, e[0], e[1]), _pi(triple, e[2], e[3]), e


def _xi(triple: GbdtTriple, left: np.ndarray, s_inv_p: np.ndarray) -> np.ndarray:
    """xi = i (j X0 j - X0), X0 = left s_inv_p = j^kappa Pi(-x,t)* S^{-1} Pi(x,t)."""
    x0 = left @ s_inv_p
    j = triple.j
    return 1j * (j @ x0 @ j - x0)


def u_tilde_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """The constructed solution u(x, t), shape (m1, m2).

    Raises SingularPoint when det S(x, t) is numerically zero.
    """
    s, p, pm, _ = _point(triple, x, t)
    m1 = triple.m1
    return -2j * _h(pm[:, :m1]) @ np.linalg.solve(s, p[:, m1:])


def xi_tilde_at(triple: GbdtTriple, x: float, t: float) -> np.ndarray:
    """Transferred potential xi(x, t) = i (j X0 j - X0), shape (m, m).

    X0 = j^kappa Pi(-x,t)* S(x,t)^{-1} Pi(x,t). The diagonal blocks cancel
    exactly; the top-right block is u_tilde_at and the bottom-left block is
    -sigma times the conjugate transpose of u at (-x, t). darboux_at
    returns the same matrix as its sample's xi.
    """
    s, p, pm, _ = _point(triple, x, t)
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


def darboux_gaps(
    triple: GbdtTriple, x: float, t: float, z: complex
) -> Tuple[SpectralSample, float, float]:
    """The sample at (x, t, z) with the relative residuals of its two facts,
    ||w_A w_B - I|| / max(1, ||w_A|| ||w_B||) and
    ||w_B - j^kappa w_A(-x,t,-conj z)* j^kappa|| / max(1, ||w_B||).

    w_A(x,t,z) = I - j^kappa Pi(-x,t)* S^{-1} (A - zI)^{-1} Pi(x,t) and
    w_B(x,t,z) = I - j^kappa Pi(-x,t)* (A* + zI)^{-1} S^{-1} Pi(x,t). xi is
    xi_tilde_at's matrix, from the solve S^{-1} Pi(x,t) that w_B makes. The
    mirror w_A(-x, t, -conj z) takes S(-x, t) propagated on its own from the
    point's four exponentials, swapped (integrated on a clashing spectrum),
    never S(x, t)*, so it makes no further exponential.

    Raises SpectralPole when z (for w_A) or -conj(z) (for w_B) meets the
    spectrum of A, and SingularPoint on singular S.
    """
    z = complex(z)
    a = triple.A
    eigs = triple.eigenvalues
    scale = float(np.linalg.norm(a)) + abs(z) + 1.0
    if np.min(np.abs(eigs - z)) < 1e-9 * scale:
        raise SpectralPole(f"z = {z!r} is numerically an eigenvalue of A")
    if np.min(np.abs(eigs + np.conj(z))) < 1e-9 * scale:
        raise SpectralPole(f"-conj(z) = {-np.conj(z)!r} is numerically an eigenvalue of A")

    s, p, pm, e = _point(triple, x, t)
    eye_n = np.eye(triple.n, dtype=np.complex128)
    eye_m = np.eye(triple.m, dtype=np.complex128)
    jk = triple.jk

    left = jk @ _h(pm)
    s_inv_p = np.linalg.solve(s, p)
    wa = eye_m - left @ np.linalg.solve(s, np.linalg.solve(a - z * eye_n, p))
    wb = eye_m - left @ np.linalg.solve(_h(a) + z * eye_n, s_inv_p)

    phase = 1j * (z * x - 2.0 * z * z * t)
    diag = np.concatenate(
        [np.full(triple.m1, np.exp(-phase)), np.full(triple.m2, np.exp(phase))]
    )
    sample = SpectralSample(
        x=x, t=t, z=z, wa=wa, wb=wb, wave=wa * diag[None, :],
        xi=_xi(triple, left, s_inv_p),
    )

    try:
        s_m = _propagated_s(triple, e[[2, 3, 0, 1]])
    except SpectralClash:
        s_m = s_via_integration(triple, -x, t)
    wa_m = eye_m - jk @ _h(p) @ np.linalg.solve(
        s_m, np.linalg.solve(a + np.conj(z) * eye_n, pm)
    )
    norm = np.linalg.norm
    inverse = float(norm(wa @ wb - eye_m)) / max(1.0, float(norm(wa)) * float(norm(wb)))
    reduction = float(norm(wb - jk @ _h(wa_m) @ jk)) / max(1.0, float(norm(wb)))
    return sample, inverse, reduction


def darboux_at(triple: GbdtTriple, x: float, t: float, z: complex) -> SpectralSample:
    """Darboux matrix w_A, its inverse w_B, the wave function and the
    transferred potential xi at (x, t, z), built by darboux_gaps.

    The pair multiplies to the identity and w_B equals
    j^kappa w_A(-x, t, -conj(z))* j^kappa. Both facts are asserted to
    DARBOUX_TOL at construction: DarbouxMismatch is raised when either
    relative residual exceeds it. verify.darboux_residual reports the same
    residuals without raising. Two S are propagated, at x and at -x.

    Raises SpectralPole and SingularPoint as darboux_gaps.
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
    of the transferred linear system in both variables."""
    return darboux_at(triple, x, t, z).wave


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
    """Grid samples of the constructed solution and its determinant data.

    u has shape (nx, nt, m1, m2) with NaN entries at masked points. M, shape
    (nx, nt, n, n), is the reduced matrix with S(x, t) = E M E(-x, t)*, and
    K, shape (nx, nt, n, m2), the right side e^{i(-2xA + 4tA^2)} theta2 of
    its solve; K(-x, t), read as K[::-1], is e^{i(2xA + 4tA^2)} theta2.
    detS is det S, taken from det M. lower, shape (nx, nt, m2, m1) with NaN
    at masked points, is the lower block -2i sigma Pi2(-x, t)* S^{-1}
    Pi1(x, t) of the transferred potential, taken from the same solve as u.
    All are kept, so verification passes never recompute exponentials or
    solves. The stacks u, M, K and lower are views of arrays that hold the
    node axes last, the layout of numkit.stack_matmul and factor_solve.
    """

    grid: Grid
    u: np.ndarray
    M: np.ndarray
    detS: np.ndarray
    singular_mask: np.ndarray
    K: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)


def _sandwich(left: np.ndarray, mid: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, n, nx, nt) stack, node axes last, of left[k] mid[l] right[k]*
    from stacks of nx, nt and nx matrices.

    mid[l] right[k]* for every pair is one (nx n, n) @ (n, n nt) product;
    the left factor is then a batched product per x and row of the result,
    written straight into the node-last stack.
    """
    nx, n = left.shape[:2]
    nt = mid.shape[0]
    # y[k, d, c, l] = (mid[l] right[k]*)[c, d]
    y = np.conj(right).reshape(nx * n, n) @ mid.transpose(2, 1, 0).reshape(n, n * nt)
    out = np.empty((n, n, nx, nt), dtype=np.complex128)
    np.matmul(left[:, None], y.reshape(nx, n, n, nt), out=out.transpose(2, 1, 0, 3))
    return out


def _node_first(stack: np.ndarray) -> np.ndarray:
    """(nx, nt, r, c) view of an (r, c, nx, nt) stack held node-last."""
    return np.moveaxis(stack, (0, 1), (2, 3))


def solution_field(triple: GbdtTriple, grid: Grid) -> SolutionField:
    """Assemble u, M and det S on the whole grid.

    With s = (-1)^kappa, h[k] = e^{-2i x_k A} and q[l] = e^{4i t_l A^2}, S
    factors as S = E(x, t) M E(-x, t)* with

        M[k, l] = Sigma1 + s h[k] (q[l] Sigma2 q[l]*) h[-k]*,

        u = -2i theta1* M^{-1} K,   K[k, l] = h[k] q[l] theta2,

    since E commutes with A and E(x, t)^{-1} = E(-x, -t). The tables h and
    q are the squares of e^{-ixA} and e^{2itA^2}, one stacked numkit.expm
    call of nx + nt matrices at the argument norms of the pointwise route.
    M is one sandwich of two large matrix products, and K one einsum. One LU
    per node gives det M and the solve: a single numkit.factor_solve of
    M X = [theta1 K] over the stack. Then

        det S = det M e^{2ix Re tr A} e^{4t Im tr A^2},

    u = -2i theta1* X2 is one matrix product over all nodes, and the lower
    block -2i sigma K(-x)* X1 is numkit.stack_matmul's multiply-adds.
    Masked nodes, where |det S| is under SINGULAR_DET_FACTOR times its
    largest value on the grid, are set to NaN in u and the lower block.

    Mirror samples at -x reuse the tables at the mirrored node, never a
    second exponential. Output is deterministic: the same triple and grid
    give bit-identical arrays on every run.

    Raises SpectralClash when A's spectrum meets -A*'s (no grid fallback),
    and Overflow when the squared tables or det S leave double range.
    """
    xs = grid.x_values
    ts = grid.t_values
    nx, nt = xs.size, ts.size
    n, m1 = triple.n, triple.m1
    a = triple.A
    a2 = a @ a
    sigma1, sigma2 = triple.origin_parts

    tables = numkit.expm(
        np.concatenate([-1j * xs[:, None, None] * a, 2j * ts[:, None, None] * a2])
    )
    # squaring doubles the exponents, so a table in range may square beyond
    # it; the checks below, and factor_solve's on M and K, catch that
    with np.errstate(over="ignore", invalid="ignore"):
        h, q = np.split(tables @ tables, [nx])
        if not (np.isfinite(h).all() and np.isfinite(q).all()):
            raise Overflow(
                "e^{-2ixA} or e^{4itA^2} leaves double range on this grid"
            )

        # M[k,l] = Sigma1 + s h[k] T[l] h[-k]*, T[l] = q[l] Sigma2 q[l]*
        m = _sandwich(h, q @ sigma2 @ _h(q), h[::-1])
        if triple.kappa == 1:
            np.subtract(sigma1[..., None, None], m, out=m)
        else:
            m += sigma1[..., None, None]

        # right sides [theta1 K], K[k,l] = h[k] q[l] theta2
        blocks = np.empty((n, triple.m, nx, nt), dtype=np.complex128)
        blocks[:, :m1] = triple.theta1[..., None, None]
        np.einsum("kab,lbc->ackl", h, q @ triple.theta2, out=blocks[:, m1:], optimize=True)
    m, blocks = _node_first(m), _node_first(blocks)
    k = blocks[..., m1:]

    det, sol = numkit.factor_solve(m, blocks)
    # det S = det E(x, t) det M conj(det E(-x, t))
    with np.errstate(over="ignore", invalid="ignore"):
        det *= np.exp(2j * np.trace(a).real * xs)[:, None]
        det *= np.exp(4.0 * np.trace(a2).imag * ts)
    if not np.isfinite(det).all():
        raise Overflow("det S leaves double range on this grid")
    det_scale = float(np.max(np.abs(det))) if det.size else 0.0
    mask = np.abs(det) < SINGULAR_DET_FACTOR * det_scale

    # u = -2i theta1* X2, one (m1, n) @ (n, m2 nodes) product
    x2 = np.moveaxis(sol[..., m1:], (2, 3), (0, 1))
    u = (np.conj(triple.theta1.T) @ x2.reshape(n, -1)).reshape(m1, *x2.shape[1:])
    u = _node_first(u)
    u *= -2j
    lower = numkit.stack_matmul(_h(k[::-1]), sol[..., :m1])
    lower *= -2j * triple.sigma
    u[mask] = lower[mask] = complex(np.nan, np.nan)

    return SolutionField(
        grid=grid, u=u, M=m, detS=det, singular_mask=mask, K=k, lower=lower,
    )
