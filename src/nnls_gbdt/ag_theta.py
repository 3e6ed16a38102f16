"""Theta functions and the genus-one stationary reduction.

The stationary form of the nonlocal equation is reached from a first-order
system with two free real constants through the twisted substitution

    v1(x) = u(x) e^{i e0 x},      v2(x) = s conj(u(-x)) e^{-i e0 x},

where the sign s equals sigma: the defocusing branch carries the nonlinear
term -i u^2 conj(u(-x)) and s = +1, the focusing branch +i u^2 conj(u(-x))
and s = -1.  Genus-one solutions of the first-order system are quotients of
translated theta functions along a line in the Jacobian; this module
evaluates them, measures how far theta data are from the reality
constraints that make the reduction consistent, and computes the two
periods entering those quotients when all four branch points are real.
The verdicts on those measures, and the stationary residuals of both
equations, are verify's.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AsymmetricGrid,
    BadTau,
    DegenerateCurve,
    DimensionMismatch,
    InvalidParams,
    QuadratureFailure,
    RangeExceeded,
    ThetaZero,
)

#: Relative tolerance used when classifying branch points.
CLASSIFY_TOL = 1e-10

#: Absolute floor under which a theta denominator counts as a zero.
THETA_DENOM_FLOOR = 1e-12

#: Exponent bound beyond which theta terms overflow double precision.
THETA_EXP_LIMIT = 700.0

#: Series terms per side beyond which theta refuses to evaluate; its
#: documented range (Im tau >= 0.05, |Im z| <= 5 Im tau) needs about 23.
THETA_TERM_LIMIT = 10_000


def theta(z: complex, tau: complex) -> complex:
    """Third theta function with characteristic zero.

    The series sum_m exp(2 pi i m z + pi i m^2 tau) converges for
    Im(tau) > 0; terms are added symmetrically in m after shifting Re(z)
    by an integer, which keeps the sum short, and Re(tau) by an even
    integer (math.remainder, exact, so |Re(tau)| <= 1 keeps its bits);
    neither shift changes the value.  Relative accuracy is about 1e-13 for
    Im(tau) >= 0.05 and |Im(z)| <= 5 Im(tau), degrading to absolute
    accuracy near the zeros of theta.  Raises BadTau for Im(tau) <= 0 and
    RangeExceeded when z or tau is not finite, the peak term would overflow
    or the series would need more than THETA_TERM_LIMIT terms per side.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise BadTau(f"Im(tau) must be positive, got tau={tau!r}")
    z = complex(z)
    if not (cmath.isfinite(z) and cmath.isfinite(tau)):
        raise RangeExceeded(f"theta arguments z={z!r}, tau={tau!r} are not finite")
    z = complex(z.real - round(z.real), z.imag)
    tau = complex(math.remainder(tau.real, 2.0), tau.imag)
    b = tau.imag
    y = abs(z.imag)
    if math.pi * y * y / b > THETA_EXP_LIMIT:
        raise RangeExceeded(
            f"theta series peak exceeds double range for z={z!r}, tau={tau!r}"
        )
    # infinite when Im(tau) or Im(z) is near the top of double range
    span = (y + math.sqrt(y * y + b * math.log(1e16) / math.pi)) / b
    if not span + 2 <= THETA_TERM_LIMIT:
        raise RangeExceeded(
            f"theta series needs {span + 2:.3e} > {THETA_TERM_LIMIT} terms for tau={tau!r}"
        )
    cutoff = int(math.ceil(span)) + 2
    total = complex(1.0)
    for m in range(1, cutoff + 1):
        quad = 1j * math.pi * m * m * tau
        plus = cmath.exp(2j * math.pi * m * z + quad)
        minus = cmath.exp(-2j * math.pi * m * z + quad)
        total += plus + minus
        if m >= 2 and abs(plus) + abs(minus) < 1e-15 * abs(total):
            break
    return total


@dataclass(frozen=True)
class BranchData:
    """Four branch points with their reality-structure label.

    ``case_label`` is "i" for four distinct reals, "ii" for two non-real
    conjugate pairs, "iii" for two distinct reals plus one non-real
    conjugate pair, and "unsupported" otherwise.  Points are stored in the
    canonical order of the case: reals ascending, conjugate pairs adjacent
    with the upper-half-plane member first.
    """

    E: Tuple[complex, complex, complex, complex]
    case_label: str

    def __post_init__(self) -> None:
        if len(self.E) != 4:
            raise InvalidParams(f"need exactly 4 branch points, got {len(self.E)}")
        object.__setattr__(self, "E", tuple(complex(e) for e in self.E))
        if self.case_label not in ("i", "ii", "iii", "unsupported"):
            raise InvalidParams(f"unknown case label {self.case_label!r}")


def _conjugate_pairs(
    points: List[complex], tol: float
) -> Optional[List[Tuple[complex, complex]]]:
    """Greedy matching of points into conjugate pairs, or None."""
    upper = sorted(
        (p for p in points if p.imag > 0), key=lambda p: (p.real, p.imag)
    )
    lower = list(p for p in points if p.imag < 0)
    if len(upper) * 2 != len(points):
        return None
    pairs = []
    for p in upper:
        match = next((q for q in lower if abs(q - p.conjugate()) <= tol), None)
        if match is None:
            return None
        lower.remove(match)
        pairs.append((p, match))
    return pairs


def classify_branch_points(points: Iterable[complex]) -> BranchData:
    """Sort four branch points into one of the supported reality cases."""
    pts = [complex(p) for p in points]
    if len(pts) != 4:
        raise InvalidParams(f"need exactly 4 branch points, got {len(pts)}")
    scale = max(1.0, max(abs(p) for p in pts))
    tol = CLASSIFY_TOL * scale

    for i in range(4):
        for k in range(i + 1, 4):
            if abs(pts[i] - pts[k]) <= tol:
                return BranchData(E=tuple(pts), case_label="unsupported")

    real = sorted((p for p in pts if abs(p.imag) <= tol), key=lambda p: p.real)
    nonreal = [p for p in pts if abs(p.imag) > tol]

    if len(real) == 4:
        return BranchData(E=tuple(real), case_label="i")
    if len(real) == 0:
        pairs = _conjugate_pairs(nonreal, tol)
        if pairs is not None and len(pairs) == 2:
            ordered = pairs[0] + pairs[1]
            return BranchData(E=tuple(ordered), case_label="ii")
    if len(real) == 2:
        pairs = _conjugate_pairs(nonreal, tol)
        if pairs is not None and len(pairs) == 1:
            ordered = tuple(real) + pairs[0]
            return BranchData(E=ordered, case_label="iii")
    return BranchData(E=tuple(pts), case_label="unsupported")


@dataclass(frozen=True)
class AknsConstants:
    """The two integration constants of the stationary first-order system."""

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))


@dataclass(frozen=True)
class NnlsConstants:
    """Constants of the stationary nonlocal equation and its sign branch."""

    c1_tilde: float
    c2_tilde: float
    sigma: int

    def __post_init__(self) -> None:
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma!r}")
        object.__setattr__(self, "c1_tilde", float(self.c1_tilde))
        object.__setattr__(self, "c2_tilde", float(self.c2_tilde))


def akns_constants(branch: BranchData) -> AknsConstants:
    """Integration constants determined by the four branch points.

    c1 is minus half the first power sum; c2 combines the second
    elementary symmetric function with c1 squared.
    """
    e = branch.E
    e1 = sum(e)
    e2 = sum(e[m] * e[n] for m in range(4) for n in range(m + 1, 4))
    c1 = -e1 / 2.0
    c2 = -(c1 * c1) / 8.0 + e2 / 2.0
    return AknsConstants(c1=c1, c2=c2)


@dataclass(frozen=True)
class ThetaParams:
    """Data of a genus-one quotient solution.

    ``omega0_sq`` is optional; when given, the product C1 C2 must equal
    4 / omega0_sq, which is the normalization tying the amplitudes to the
    leading coefficient of the second-kind differential. A target or a
    product beyond double range matches nothing.
    """

    tau: complex
    A_theta: complex
    B_theta: complex
    Delta: complex
    e0: float
    C1: complex
    C2: complex
    chi: int
    omega0_sq: Optional[complex] = None

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        if not tau.imag > 0:
            raise BadTau(f"Im(tau) must be positive, got tau={tau!r}")
        object.__setattr__(self, "tau", tau)
        if self.chi not in (0, 1):
            raise InvalidParams(f"chi must be 0 or 1, got {self.chi!r}")
        for name in ("A_theta", "B_theta", "Delta", "C1", "C2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        object.__setattr__(self, "e0", float(self.e0))
        if self.omega0_sq is not None:
            omega0_sq = complex(self.omega0_sq)
            if omega0_sq == 0:
                raise InvalidParams("omega0_sq cannot be zero")
            object.__setattr__(self, "omega0_sq", omega0_sq)
            product = self.C1 * self.C2
            target = 4.0 / omega0_sq
            try:  # abs raises OverflowError on a modulus beyond double range
                gap, scale = abs(product - target), abs(target)
            except OverflowError:
                gap = scale = math.inf
            if not (math.isfinite(scale) and gap <= 1e-10 * max(1.0, scale)):
                raise InvalidParams(
                    f"C1*C2 = {product!r} does not match 4/omega0_sq = {target!r}"
                )


def lemma61_forward(
    x_values: Sequence[float],
    u_samples: Sequence[complex],
    e0: float,
    sign: int,
    constants: NnlsConstants,
) -> Tuple[np.ndarray, np.ndarray, AknsConstants]:
    """Twisted substitution from the nonlocal equation to the system pair.

    Returns (v1, v2) sampled on the same symmetric grid, along with the
    system constants induced by the twist.  ``sign`` is the sign in front
    of conj(u(-x)); passing sign = constants.sigma realizes the pairing
    under which the substitution maps solutions to solutions, but either
    sign is accepted so both can be probed.
    """
    if sign not in (-1, 1):
        raise InvalidParams(f"sign must be -1 or +1, got {sign!r}")
    x = np.asarray(x_values, dtype=np.float64)
    u = np.asarray(u_samples, dtype=np.complex128)
    if x.ndim != 1 or u.shape != x.shape:
        raise DimensionMismatch(
            f"x_values and u_samples must be matching 1-D arrays, "
            f"got shapes {x.shape} and {u.shape}"
        )
    if not np.array_equal(x, -x[::-1]):
        raise AsymmetricGrid("x_values must satisfy x[k] = -x[-1-k] exactly")
    e0 = float(e0)
    twist = np.exp(1j * e0 * x)
    v1 = u * twist
    v2 = sign * np.conj(u[::-1]) / twist
    c1 = constants.c1_tilde - e0
    c2 = constants.c2_tilde - e0 * e0 / 4.0 - e0 * c1 / 2.0
    return v1, v2, AknsConstants(c1=c1, c2=c2)


def v_from_theta(p: ThetaParams, x: float) -> Tuple[complex, complex]:
    """Evaluate the theta-quotient pair at one point of the line.

    Raises ThetaZero when the common denominator theta(A + B x) vanishes,
    which happens exactly on the translates of the half-period
    1/2 + tau/2.
    """
    x = float(x)
    w = p.A_theta + p.B_theta * x
    denom = theta(w, p.tau)
    if abs(denom) < THETA_DENOM_FLOOR:
        raise ThetaZero(
            f"theta denominator vanishes at x={x!r} (|theta| = {abs(denom):.3e})"
        )
    twist = cmath.exp(1j * p.e0 * x)
    v1 = p.C1 * theta(w - p.Delta, p.tau) / denom * twist
    v2 = p.C2 * theta(w + p.Delta, p.tau) / denom / twist
    return v1, v2


#: Sample abscissas for the ratio-independence probe below.
_RATIO_SAMPLES = np.linspace(-1.5, 1.5, 16)


def check_nnls_constraints(p: ThetaParams) -> Tuple[float, float, float]:
    """Deviations of theta data from the reality constraints that make the
    theta quotients a reduction pair, in the order delta_re, a_im,
    ratio_independence; verify.constraints_report decides on them.

    delta_re is the distance of Re(Delta) from the half-integer lattice
    selected by chi, a_im that of Im(A) from the half-period lattice
    selected by chi, both taken by math.remainder, which is exact and
    cannot overflow. ratio_independence is the spread over x of the cross
    ratio of translated theta values; a theta evaluation failing inside
    that probe, or a spread beyond double range, makes it infinite instead
    of raising.
    """
    half = p.chi / 2.0
    delta_dev = abs(math.remainder(p.Delta.real - half, 1.0))
    im_tau = p.tau.imag
    a_dev = abs(math.remainder(p.A_theta.imag - half * im_tau, im_tau))
    try:
        samples = []
        for x in _RATIO_SAMPLES:
            w = p.A_theta + p.B_theta * float(x)
            wc = p.A_theta.conjugate() + p.B_theta * float(x)
            numer = theta(w, p.tau) * theta(wc - p.Delta.conjugate(), p.tau)
            denom = theta(w + p.Delta, p.tau) * theta(wc, p.tau)
            if abs(denom) < THETA_DENOM_FLOOR:
                raise ThetaZero("ratio denominator vanished during probe")
            samples.append(numer / denom)
        ratio_dev = max(abs(s - samples[0]) for s in samples)
    except (ThetaZero, RangeExceeded, OverflowError):
        ratio_dev = float("inf")
    return float(delta_dev), float(a_dev), float(ratio_dev)


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because every
    caller shares them; n only takes _gauss_adaptive's six orders."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_adaptive(f, lo: float, hi: float) -> float:
    """Gauss-Legendre quadrature doubled until two refinements agree."""
    previous = None
    for n in (32, 64, 128, 256, 512, 1024):
        nodes, weights = _gauss_rule(n)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        value = float(half * np.sum(weights * f(mid + half * nodes)))
        if previous is not None and abs(value - previous) <= 1e-13 * (
            1.0 + abs(value)
        ):
            return value
        previous = value
    raise QuadratureFailure(
        f"period integral failed to converge on [{lo}, {hi}]"
    )


def periods_case_i(branch: BranchData) -> Tuple[complex, complex]:
    """Modular parameter and connection shift for four real branch points.

    The cycle integrals are taken over [E1, E2] and [E0, E1] after an
    affine change mapping the outer points to -1 and 1; both the modular
    parameter and the shift are invariant under that change.  The shift is
    returned as its real representative, obtained from the integral of the
    normalized holomorphic differential between the two points above
    infinity, whose path crosses the cut beyond the largest branch point.
    """
    if branch.case_label != "i":
        raise InvalidParams(
            f"periods require four real branch points, got case "
            f"{branch.case_label!r}"
        )
    e = sorted(p.real for p in branch.E)
    scale = max(1.0, max(abs(p) for p in e))
    if min(e[k + 1] - e[k] for k in range(3)) <= CLASSIFY_TOL * scale:
        raise DegenerateCurve(f"branch points too close: {e}")

    center = 0.5 * (e[0] + e[3])
    span = 0.5 * (e[3] - e[0])
    f0, f1, f2, f3 = [(v - center) / span for v in e]

    def cycle_a(s: np.ndarray) -> np.ndarray:
        z = 0.5 * (f1 + f2) + 0.5 * (f2 - f1) * np.sin(s)
        return 1.0 / np.sqrt((z - f0) * (f3 - z))

    def cycle_b(s: np.ndarray) -> np.ndarray:
        z = 0.5 * (f0 + f1) + 0.5 * (f1 - f0) * np.sin(s)
        return 1.0 / np.sqrt((f2 - z) * (f3 - z))

    def tail_near(w: np.ndarray) -> np.ndarray:
        z = f3 + w * w
        return 2.0 / np.sqrt((z - f0) * (z - f1) * (z - f2))

    def tail_far(v: np.ndarray) -> np.ndarray:
        prod = (1.0 - f0 * v) * (1.0 - f1 * v) * (1.0 - f2 * v) * (1.0 - f3 * v)
        return 1.0 / np.sqrt(prod)

    half_pi = 0.5 * math.pi
    i_a = _gauss_adaptive(cycle_a, -half_pi, half_pi)
    i_b = _gauss_adaptive(cycle_b, -half_pi, half_pi)
    breakpoint_z = 3.0
    i_inf = _gauss_adaptive(
        tail_near, 0.0, math.sqrt(breakpoint_z - f3)
    ) + _gauss_adaptive(tail_far, 0.0, 1.0 / breakpoint_z)

    tau = 1j * (i_b / i_a)
    delta = complex(i_inf / i_a)
    return tau, delta
