"""Closed-form reference solutions evaluated independently of the solver.

Each family below is an explicit formula for a small transformation datum:
a single eigenvalue with scalar columns, a 2x2 Jordan block, and a single
eigenvalue with a wide first column block.  Each formula is written out
once, in elementwise numpy arithmetic on the complex scalars of the datum:
no matrix exponentials, no Sylvester solves, and nothing imported from
``gbdt_core`` or ``numkit``, so that agreement with the solver pipeline is
evidence rather than tautology.

The evaluators broadcast over ``x`` and ``t``.  At a scalar point
``ex1_u``, ``ex2_u`` and ``ex3_u`` return the value and raise SingularPoint
on the singular set.  On array input they raise nothing and return
``(values, singular)``: the values on the broadcast grid, nan where the
boolean ``singular`` mask is set.  A node is singular when its rescaled
denominator satisfies ``|denom| <= DENOMINATOR_FLOOR * modulus``.

Conventions shared by all three families: ``kappa`` is 0 in the defocusing
case (sigma = +1) and 1 in the focusing case (sigma = -1), and the
eigenvalue ``a`` must satisfy a + conj(a) != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidParams, SingularPoint

#: A coordinate: a float for one point, or a numpy array of grid values.
Coord = Union[float, np.ndarray]

# Relative threshold under which a closed-form denominator counts as zero.
DENOMINATOR_FLOOR = 1e-12


def _check_kappa(kappa: int) -> None:
    if kappa not in (0, 1):
        raise InvalidParams(f"kappa must be 0 or 1, got {kappa!r}")


def _check_eigenvalue(a: complex) -> None:
    if a + a.conjugate() == 0:
        raise InvalidParams(f"eigenvalue a={a!r} has a + conj(a) = 0")


@dataclass(frozen=True)
class Example1Params:
    """Scalar datum: eigenvalue ``a`` and nonzero columns ``theta1, theta2``."""

    a: complex
    theta1: complex
    theta2: complex
    kappa: int

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        for name in ("a", "theta1", "theta2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        _check_eigenvalue(self.a)
        if self.theta1 == 0 or self.theta2 == 0:
            raise InvalidParams("theta1 and theta2 must both be nonzero")

    def datum(self):
        """(sigma, A, theta1, theta2) of the family, as nested lists."""
        return 1 - 2 * self.kappa, [[self.a]], [[self.theta1]], [[self.theta2]]


@dataclass(frozen=True)
class Example2Params:
    """Jordan-block datum: A = a*I + N with N the 2x2 nilpotent shift.

    The columns are (0, b)^T and (0, c)^T.  Either of ``b, c`` may vanish
    on its own; both at once would make every denominator identically zero.
    """

    a: complex
    b: complex
    c: complex
    kappa: int

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        _check_eigenvalue(self.a)
        if self.b == 0 and self.c == 0:
            raise InvalidParams("b and c cannot both be zero")

    def datum(self):
        """(sigma, A, theta1, theta2) of the family, as nested lists."""
        a = self.a
        return 1 - 2 * self.kappa, [[a, 1.0], [0.0, a]], [[0.0], [self.b]], [[0.0], [self.c]]


@dataclass(frozen=True)
class Example3Params:
    """Rectangular datum: scalar eigenvalue with a 1x2 block (b1, b2) and c."""

    a: complex
    b1: complex
    b2: complex
    c: complex
    kappa: int

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        for name in ("a", "b1", "b2", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        _check_eigenvalue(self.a)
        if self.b1 == 0 and self.b2 == 0 and self.c == 0:
            raise InvalidParams("b1, b2 and c cannot all be zero")

    def datum(self):
        """(sigma, A, theta1, theta2) of the family, as nested lists."""
        return 1 - 2 * self.kappa, [[self.a]], [[self.b1, self.b2]], [[self.c]]


def _phase(a: complex, x: Coord, t: Coord):
    """Exponent phi with e^{i phi} carrying the x and t dependence of S."""
    return (a + a.conjugate()) * x - 2.0 * (a * a - a.conjugate() ** 2) * t


def _sign(kappa: int) -> float:
    return -1.0 if kappa == 1 else 1.0


def _is_point(x: Coord, t: Coord) -> bool:
    return np.ndim(x) == 0 and np.ndim(t) == 0


def _finish(
    x: Coord,
    t: Coord,
    values: np.ndarray,
    singular: np.ndarray,
    det_abs: Callable[[], float],
):
    """Scalar contract at a point, (values, singular) on a grid.

    At a point the value is returned, or SingularPoint raised with
    ``det_abs()``.  On a grid, values at singular nodes become nan.
    """
    if _is_point(x, t):
        if singular:
            raise SingularPoint(x, t, float(det_abs()))
        return complex(values) if values.ndim == 0 else values
    trailing = (1,) * (values.ndim - singular.ndim)
    flagged = singular.reshape(singular.shape + trailing)
    return np.where(flagged, np.nan, values), singular


def ex1_S(p: Example1Params, x: Coord, t: Coord):
    """Closed form of the 1x1 identity solution S(x, t)."""
    a = p.a
    phi = _phase(a, x, t)
    with np.errstate(all="ignore"):
        s = (
            np.exp(1j * phi) * abs(p.theta1) ** 2
            + _sign(p.kappa) * np.exp(-1j * phi) * abs(p.theta2) ** 2
        ) / (a + a.conjugate())
    return complex(s) if _is_point(x, t) else s


def ex1_u(p: Example1Params, x: Coord, t: Coord):
    """Closed form of the constructed solution for the scalar datum.

    At a point, raises SingularPoint when it sits on the singular set of S,
    detected through the rescaled denominator.
    """
    a = p.a
    two_re = a + a.conjugate()
    with np.errstate(all="ignore"):
        wave = np.exp(-2j * _phase(a, x, t))
        modulus = abs(p.theta1) ** 2 + np.abs(wave) * abs(p.theta2) ** 2
        denom = abs(p.theta1) ** 2 + _sign(p.kappa) * wave * abs(p.theta2) ** 2
        singular = np.abs(denom) <= DENOMINATOR_FLOOR * modulus
        numer = (
            -2j
            * two_re
            * np.exp(-2j * a * (x - 2.0 * a * t))
            * p.theta1.conjugate()
            * p.theta2
        )
        values = numer / denom
    return _finish(x, t, values, singular, lambda: abs(ex1_S(p, x, t)))


def ex1_blowup_time(p: Example1Params) -> Optional[float]:
    """First-kind blow-up instant for the scalar datum, if one exists.

    The singular set is nonempty exactly when the moduli of the two
    exponential terms in S can balance; that happens at the single time
    returned here, for either kappa, and at no time when a^2 is real.
    """
    a = complex(p.a)
    im_a2 = (a * a).imag
    if im_a2 == 0.0:
        return None
    ratio = abs(p.theta1) ** 2 / abs(p.theta2) ** 2
    return float(np.log(ratio) / (-8.0 * im_a2))


def _ex2_pieces(p: Example2Params, x: Coord, t: Coord):
    """Shared exponent, weights and denominator of the Jordan-block forms."""
    a = p.a
    two_re = a + a.conjugate()
    sgn = _sign(p.kappa)
    big_p = 1j * (two_re * x + 2.0 * (a.conjugate() ** 2 - a * a) * t)
    eb = abs(p.b) ** 2 * np.exp(big_p)
    ec = abs(p.c) ** 2 * np.exp(-big_p)
    poly = (
        4.0
        * abs(p.b * p.c) ** 2
        * two_re**2
        * (x - 4.0 * a * t)
        * (x + 4.0 * a.conjugate() * t)
    )
    grow = np.exp(2.0 * big_p)
    decay = np.exp(-2.0 * big_p)
    denom = (
        abs(p.b) ** 4 * grow
        + abs(p.c) ** 4 * decay
        + 2.0 * sgn * abs(p.b * p.c) ** 2
        - sgn * poly
    )
    modulus = (
        abs(p.b) ** 4 * np.abs(grow)
        + abs(p.c) ** 4 * np.abs(decay)
        + 2.0 * abs(p.b * p.c) ** 2
        + np.abs(poly)
    )
    return a, two_re, sgn, eb, ec, denom, modulus


def ex2_detS(p: Example2Params, x: Coord, t: Coord):
    """Determinant of S for the Jordan-block datum."""
    with np.errstate(all="ignore"):
        _, two_re, _, _, _, denom, _ = _ex2_pieces(p, x, t)
        det = denom / two_re**4
    return complex(det) if _is_point(x, t) else det


def ex2_u(p: Example2Params, x: Coord, t: Coord):
    """Constructed solution for the Jordan-block datum."""
    with np.errstate(all="ignore"):
        a, two_re, sgn, eb, ec, denom, modulus = _ex2_pieces(p, x, t)
        singular = np.abs(denom) <= DENOMINATOR_FLOOR * modulus
        phase = np.exp(
            1j * ((a.conjugate() - a) * x + 2.0 * (a * a + a.conjugate() ** 2) * t)
        )
        bracket = eb * (
            8j * a * two_re * t - 2j * two_re * x + 2.0
        ) + sgn * ec * (8j * a.conjugate() * two_re * t + 2j * two_re * x + 2.0)
        values = -2j * p.b.conjugate() * p.c * two_re * phase * bracket / denom
    return _finish(
        x, t, values, singular, lambda: abs(denom) / abs(two_re) ** 4
    )


def ex3_u(p: Example3Params, x: Coord, t: Coord):
    """Constructed 2x1 solution for the rectangular datum.

    The value has shape (2, 1) at a point and (..., 2, 1) on a grid.
    """
    a = p.a
    two_re = a + a.conjugate()
    phi = _phase(a, x, t)
    with np.errstate(all="ignore"):
        wave = np.exp(-2j * phi)
        width = abs(p.b1) ** 2 + abs(p.b2) ** 2
        modulus = width + np.abs(wave) * abs(p.c) ** 2
        denom = width + _sign(p.kappa) * wave * abs(p.c) ** 2
        singular = np.abs(denom) <= DENOMINATOR_FLOOR * modulus
        front = -2j * p.c * two_re * np.exp(-2j * a * (x - 2.0 * a * t)) / denom
        values = np.stack(
            [front * p.b1.conjugate(), front * p.b2.conjugate()], axis=-1
        )[..., None]
    return _finish(
        x, t, values, singular,
        lambda: abs(np.exp(1j * phi) * denom / two_re),
    )
