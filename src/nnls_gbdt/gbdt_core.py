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

which solves the equation away from the zeros of det S(x, t). This module
builds triples, evaluates Pi, S, u, the transferred potential blocks, the
Darboux matrix, and the wave function, pointwise and on grids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import (
    AsymmetricGrid,
    DegenerateS,
    DimensionMismatch,
    SingularPoint,
    SpectralClash,
    SpectralPole,
    UnsupportedSeed,
)

# Grid-relative threshold under which det S is flagged singular.
SINGULAR_DET_FACTOR = 1e-8

# Pointwise det threshold mirroring the triple determinant check.
_POINT_DET_FACTOR = 1e-12


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


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
    the job of validate_triple.

    The Sylvester solver of A X + X A* = C, the eigenvalues of A and the
    origin parts of S are computed on first use and cached on the instance,
    so A and the theta blocks must not be mutated in place after
    construction.
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

    @property
    def j(self) -> np.ndarray:
        """Signature matrix diag(I_m1, -I_m2)."""
        return np.diag(np.concatenate([np.ones(self.m1), -np.ones(self.m2)])).astype(np.complex128)

    @property
    def jk(self) -> np.ndarray:
        """j^kappa: identity for the defocusing branch, j for the focusing one."""
        return self.j if self.kappa == 1 else np.eye(self.m, dtype=np.complex128)

    def coupling_rhs(self) -> np.ndarray:
        """theta1 theta1* + (-1)^kappa theta2 theta2*."""
        return coupling_term(self.kappa, self.theta1, self.theta2, self.theta1, self.theta2)

    @functools.cached_property
    def sylvester(self):
        """Solver of A X + X A* = C for stacks of C, factored once.

        Raises SpectralClash when the spectra of A and -A* meet; the failure
        is not cached, so every call raises again.
        """
        return numkit.sylvester_solver(self.A, _h(self.A))

    @functools.cached_property
    def origin_parts(self) -> np.ndarray:
        """Read-only (2, n, n) stack of Sigma1 and Sigma2, the Hermitian
        solutions of A Sigma_k + Sigma_k A* = theta_k theta_k*.

        Both come from one call of the cached solver and are symmetrized
        against rounding, as S0 is in complete_triple. S(x, t) is propagated
        from them. Raises SpectralClash like sylvester, and is then not
        cached either.
        """
        gram = np.stack([self.theta1 @ _h(self.theta1), self.theta2 @ _h(self.theta2)])
        parts = self.sylvester(gram)
        parts = 0.5 * (parts + _h(parts))
        parts.flags.writeable = False
        return parts

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A."""
        return numkit.eigenvalues(self.A)


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """Named residuals of the admissibility checks for a triple."""

    entries: tuple

    def entry(self, name: str) -> ValidationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        """True iff every entry is within tolerance.

        The spectral margin entry participates: grid assembly requires the
        Sylvester route, so a clashing spectrum fails the report as a whole.
        Pointwise evaluation still works on such data through the
        integration fallback; consult the individual entries for that.
        """
        return all(e.passed for e in self.entries)

    def as_dict(self) -> dict:
        return {
            e.name: {"value": e.value, "tolerance": e.tolerance, "passed": e.passed}
            for e in self.entries
        }


def validate_triple(candidate: GbdtTriple) -> ValidationReport:
    """Check Hermiticity of S0, invertibility, and the coupling identity.

    Also reports the spectral-disjointness margin min |lambda_i + conj(lambda_j)|
    of A, which decides whether the pointwise Sylvester route is usable.
    Raises DimensionMismatch for inconsistent shapes (checked at triple
    construction); never raises on numerical failure, which is what the
    report is for.
    """
    t = candidate
    norm_s = float(np.linalg.norm(t.S0))
    norm_a = float(np.linalg.norm(t.A))
    rhs = t.coupling_rhs()

    herm = float(np.linalg.norm(t.S0 - _h(t.S0)))
    herm_tol = 1e-12 * max(1.0, norm_s)

    det_abs = float(abs(np.linalg.det(t.S0)))
    det_tol = 1e-12 * max(1.0, norm_s) ** t.n

    ident = float(np.linalg.norm(t.A @ t.S0 + t.S0 @ _h(t.A) - rhs))
    ident_tol = 1e-10 * max(1.0, 2.0 * norm_a * norm_s + float(np.linalg.norm(rhs)))

    margin = numkit.spectral_margin(t.A, _h(t.A))
    margin_tol = numkit.SPECTRAL_CLASH_FACTOR * 2.0 * norm_a

    entries = (
        ValidationEntry("hermiticity", herm, herm_tol, herm <= herm_tol),
        ValidationEntry("determinant", det_abs, det_tol, det_abs > det_tol),
        ValidationEntry("identity", ident, ident_tol, ident <= ident_tol),
        ValidationEntry("sylvester_margin", margin, margin_tol, margin > margin_tol),
    )
    return ValidationReport(entries)


def complete_triple(sigma: int, A, theta1, theta2) -> GbdtTriple:
    """Solve the coupling identity for S0 and return the validated triple.

    S0 is Hermitian by construction (the identity's right side is Hermitian
    and the solution is symmetrized against rounding). Raises SpectralClash
    if A's spectrum meets its reflected conjugate, and DegenerateS if the
    resulting S0 is numerically singular.
    """
    A = numkit.as_cmatrix(A, "A")
    theta1 = numkit.as_cmatrix(theta1, "theta1")
    theta2 = numkit.as_cmatrix(theta2, "theta2")
    rhs = coupling_term((1 - sigma) // 2, theta1, theta2, theta1, theta2)
    s0 = numkit.solve_sylvester(A, _h(A), rhs)
    s0 = 0.5 * (s0 + _h(s0))
    triple = GbdtTriple(sigma=sigma, A=A, S0=s0, theta1=theta1, theta2=theta2)
    report = validate_triple(triple)
    det_entry = report.entry("determinant")
    if not det_entry.passed:
        raise DegenerateS(
            f"|det S0| = {det_entry.value:.3e} below threshold {det_entry.tolerance:.3e}; "
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


def s_x_rate(triple: GbdtTriple, fx: np.ndarray, fxi: np.ndarray, t: float) -> np.ndarray:
    """x-derivative of S, i Pi(x,t) j^{kappa+1} Pi(-x,t)*, at fixed t.

    fx and fxi are stacks of e^{ixA} and e^{-ixA} over the x values; the
    result is one n x n matrix per slice. A and A^2 commute, so with
    p1 = e^{-2itA^2} theta1 and p2 = e^{2itA^2} theta2 the rate is
    i (fx p1 p1* fxi* + (-1)^{kappa+1} fxi p2 p2* fx*).
    """
    a2 = triple.A @ triple.A
    p1 = numkit.expm(-2j * t * a2) @ triple.theta1
    p2 = numkit.expm(2j * t * a2) @ triple.theta2
    sgn = (-1.0) ** (triple.kappa + 1)
    return 1j * (fx @ (p1 @ _h(p1)) @ _h(fxi) + sgn * fxi @ (p2 @ _h(p2)) @ _h(fx))


def s_t_rate(triple: GbdtTriple, gt: np.ndarray, gti: np.ndarray) -> np.ndarray:
    """t-derivative of S along x = 0, the commutator form of the evolved
    coupling.

    gt and gti are stacks of e^{-2itA^2} and e^{2itA^2} over the t values;
    with C_k = theta_k theta_k* A* - A theta_k theta_k* the rate is
    2i (gt C1 gt* + (-1)^{kappa+1} gti C2 gti*).
    """
    a = triple.A
    ah = _h(a)
    g1 = triple.theta1 @ _h(triple.theta1)
    g2 = triple.theta2 @ _h(triple.theta2)
    sgn = (-1.0) ** (triple.kappa + 1)
    return 2j * (gt @ (g1 @ ah - a @ g1) @ _h(gt) + sgn * gti @ (g2 @ ah - a @ g2) @ _h(gti))


def s_via_integration(triple: GbdtTriple, x: float, t: float, steps: int = 400) -> np.ndarray:
    """S(x, t) by integrating its t-rate along x=0, then its x-rate at fixed t.

    Independent of the Sylvester solve; error decays like steps**-4. This is
    the fallback route when A's spectrum is not disjoint from -A*'s. Both
    legs start at 0, so their Simpson nodes are k h, and each leg's
    exponentials come as numkit.expm_steps tables of the node spacing h.
    """
    a = triple.A
    a2 = a @ a

    def t_rate(r: np.ndarray) -> np.ndarray:
        h = r[1] - r[0]
        return s_t_rate(
            triple, numkit.expm_steps(-2j * h * a2, r.size), numkit.expm_steps(2j * h * a2, r.size)
        )

    def x_rate(r: np.ndarray) -> np.ndarray:
        h = r[1] - r[0]
        return s_x_rate(
            triple, numkit.expm_steps(1j * h * a, r.size), numkit.expm_steps(-1j * h * a, r.size), t
        )

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
    det_abs = float(abs(np.linalg.det(s)))
    if det_abs <= _POINT_DET_FACTOR * max(1.0, float(np.linalg.norm(s))) ** s.shape[0]:
        raise SingularPoint(x, t, det_abs)
    return s, _pi(triple, e[0], e[1]), _pi(triple, e[2], e[3]), e


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
    -sigma times the conjugate transpose of u at (-x, t).
    """
    s, p, pm, _ = _point(triple, x, t)
    x0 = triple.jk @ _h(pm) @ np.linalg.solve(s, p)
    j = triple.j
    return 1j * (j @ x0 @ j - x0)


@dataclass(frozen=True)
class SpectralSample:
    """Darboux matrix pair and wave function at one (x, t, z)."""

    x: float
    t: float
    z: complex
    wa: np.ndarray
    wb: np.ndarray
    wave: np.ndarray


def darboux_at(triple: GbdtTriple, x: float, t: float, z: complex) -> SpectralSample:
    """Darboux matrix w_A, its inverse w_B, and the wave function at (x, t, z).

    w_A(x,t,z) = I - j^kappa Pi(-x,t)* S^{-1} (A - zI)^{-1} Pi(x,t) and
    w_B(x,t,z) = I - j^kappa Pi(-x,t)* (A* + zI)^{-1} S^{-1} Pi(x,t); the
    pair multiplies to the identity and w_B equals
    j^kappa w_A(-x, t, -conj(z))* j^kappa. Both facts are asserted to 1e-9
    at construction; the reduction check takes S(-x, t) from the point's
    four exponentials, swapped, so it makes no further exponential.

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
    n = triple.n
    eye_n = np.eye(n, dtype=np.complex128)
    eye_m = np.eye(triple.m, dtype=np.complex128)
    jk = triple.jk

    left = jk @ _h(pm)
    wa = eye_m - left @ np.linalg.solve(s, np.linalg.solve(a - z * eye_n, p))
    wb = eye_m - left @ np.linalg.solve(_h(a) + z * eye_n, np.linalg.solve(s, p))

    prod_res = float(np.linalg.norm(wa @ wb - eye_m))
    if prod_res > 1e-9 * max(1.0, float(np.linalg.norm(wa)) * float(np.linalg.norm(wb))):
        raise ArithmeticError(
            f"Darboux pair failed the inverse check: ||wa wb - I|| = {prod_res:.3e}"
        )

    # reduction: wB(x,t,z) equals j^kappa wA(-x,t,-conj(z))* j^kappa, with
    # S(-x,t) propagated on its own from the swapped exponentials rather
    # than taken as S*
    try:
        s_m = _propagated_s(triple, e[[2, 3, 0, 1]])
    except SpectralClash:
        s_m = s_via_integration(triple, -x, t)
    wa_m = eye_m - jk @ _h(p) @ np.linalg.solve(
        s_m, np.linalg.solve(a + np.conj(z) * eye_n, pm)
    )
    red_res = float(np.linalg.norm(wb - jk @ _h(wa_m) @ jk))
    if red_res > 1e-9 * max(1.0, float(np.linalg.norm(wb))):
        raise ArithmeticError(
            f"Darboux pair failed the reduction check: residual = {red_res:.3e}"
        )

    phase = 1j * (z * x - 2.0 * z * z * t)
    diag = np.concatenate(
        [np.full(triple.m1, np.exp(-phase)), np.full(triple.m2, np.exp(phase))]
    )
    wave = wa * diag[None, :]
    return SpectralSample(x=x, t=t, z=z, wa=wa, wb=wb, wave=wave)


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
        to exactly 0 and must land within 1e-9 * ht of it.
        """
        if nx < 2 or nx % 2 == 0:
            raise AsymmetricGrid(f"nx must be odd and >= 3, got {nx}")
        if nt < 2:
            raise AsymmetricGrid(f"nt must be >= 2, got {nt}")
        if not (x_max > 0):
            raise AsymmetricGrid(f"x_max must be positive, got {x_max}")
        if not (t_max > t_min):
            raise AsymmetricGrid(f"t range is empty: [{t_min}, {t_max}]")
        c = (nx - 1) // 2
        hx = x_max / c
        xs = (np.arange(nx) - c) * hx
        ht = (t_max - t_min) / (nt - 1)
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

    def mirror(self, k: int) -> int:
        """Index of -x for node index k."""
        return self.nx - 1 - k

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

    u has shape (nx, nt, m1, m2) with NaN entries at masked points; S has
    shape (nx, nt, n, n). pi1 and pi2, shapes (nx, nt, n, m1) and
    (nx, nt, n, m2), are the generating-matrix blocks Pi(x, t) splits into.
    lower, shape (nx, nt, m2, m1) with NaN at masked points, is the lower
    block -2i sigma Pi2(-x, t)* S(x, t)^{-1} Pi1(x, t) of the transferred
    potential, taken from the same solve as u. All three are required, so
    verification passes never recompute exponentials or solves.
    """

    grid: Grid
    u: np.ndarray
    S: np.ndarray
    detS: np.ndarray
    singular_mask: np.ndarray
    pi1: np.ndarray = field(repr=False)
    pi2: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)


def _sandwich(left: np.ndarray, mid: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(nx, nt, n, n) view of left[k] mid[l] right[k]*, from stacks of nx,
    nt and nx matrices.

    left[k] mid[l] for every pair is one (nx n, n) @ (n, nt n) product; the
    right factor is then one batched product per x.
    """
    nx, n = left.shape[:2]
    nt = mid.shape[0]
    y = left.reshape(nx * n, n) @ mid.transpose(1, 0, 2).reshape(n, nt * n)
    y = y.reshape(nx, n * nt, n) @ _h(right)
    return y.reshape(nx, n, nt, n).transpose(0, 2, 1, 3)


def solution_field(triple: GbdtTriple, grid: Grid, seed=None) -> SolutionField:
    """Assemble u, S and det S on the whole grid.

    The exponential tables e^{ixA} over the x nodes and e^{-+2itA^2} over
    the t nodes are one stacked numkit.expm call of nx + 2 nt matrices,
    bit for bit the per-node exponentials. S is propagated from the
    triple's origin parts, with no Sylvester solve per node:
    T1[l] = e^{-2it A^2} Sigma1 (.)* and T2[l] = e^{2it A^2} Sigma2 (.)*
    over the t nodes, then

        S[k, l] = fx[k] T1[l] fx[-k]* + (-1)^kappa fx[-k] T2[l] fx[k]*,

    each term from two large matrix products, the second added into the
    first in place. One LU per node gives det S and the solve: a single
    numkit.factor_solve of S X = [Pi1 Pi2] over the stack, whose X gives u
    from the Pi2 columns and the lower block from the Pi1 columns. Masked
    nodes are set to NaN in u and the lower block afterwards.

    Only the trivial (zero) seed is supported; pass nothing. Mirror samples
    at -x reuse the matrices computed at the mirrored node, never a second
    exponential. Output is deterministic: the same triple and grid give
    bit-identical arrays on every run.

    Raises SpectralClash when A's spectrum meets -A*'s (no grid fallback),
    UnsupportedSeed for a nonzero seed.
    """
    if seed is not None:
        raise UnsupportedSeed("only the trivial seed solution is supported")
    xs = grid.x_values
    ts = grid.t_values
    nx, nt = xs.size, ts.size
    m1, m2 = triple.m1, triple.m2
    a = triple.A
    a2 = a @ a
    sigma1, sigma2 = triple.origin_parts

    tables = numkit.expm(
        np.concatenate(
            [
                1j * xs[:, None, None] * a,
                -2j * ts[:, None, None] * a2,
                2j * ts[:, None, None] * a2,
            ]
        )
    )
    fx, gt, gti = np.split(tables, [nx, nx + nt])
    fx_m = fx[::-1]

    # S[k,l] = fx[k] T1[l] fx[-k]* + (-1)^kappa fx[-k] T2[l] fx[k]*
    s = np.ascontiguousarray(_sandwich(fx, gt @ sigma1 @ _h(gt), fx_m))
    second = _sandwich(fx_m, gti @ sigma2 @ _h(gti), fx)
    if triple.kappa == 1:
        s -= second
    else:
        s += second
    del second

    # Pi blocks: pi1[k,l] = e^{i(x A - 2 t A^2)} theta1, pi2 the reflected
    # factor, written side by side as the right sides [Pi1 Pi2] of the solve
    blocks = np.empty((nx, nt, triple.n, m1 + m2), dtype=np.complex128)
    pi1, pi2 = blocks[..., :m1], blocks[..., m1:]
    np.einsum("kab,lbc->klac", fx, gt @ triple.theta1, out=pi1, optimize=True)
    np.einsum("kab,lbc->klac", fx_m, gti @ triple.theta2, out=pi2, optimize=True)

    det, sol = numkit.factor_solve(s, blocks)
    det_scale = float(np.max(np.abs(det))) if det.size else 0.0
    mask = np.abs(det) < SINGULAR_DET_FACTOR * det_scale

    # u = -2i Pi1(-x)* S^{-1} Pi2 and lower = -2i sigma Pi2(-x)* S^{-1} Pi1
    u = _h(pi1[::-1]) @ sol[..., m1:]
    u *= -2j
    lower = _h(pi2[::-1]) @ sol[..., :m1]
    lower *= -2j * triple.sigma
    u[mask] = lower[mask] = complex(np.nan, np.nan)

    return SolutionField(
        grid=grid, u=u, S=s, detS=det, singular_mask=mask,
        pi1=pi1, pi2=pi2, lower=lower,
    )
