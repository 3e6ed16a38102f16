"""Tests of the closed-form reference families.

The frozen values below were evaluated by hand from the displayed formulas
(scalar arithmetic only), so they pin the implementation independently of
the solver pipeline.
"""

import cmath
import math

import numpy as np
import pytest

from nnls_gbdt import oracles
from nnls_gbdt.errors import InvalidParams, SingularPoint

A_BLOWUP = 1.0 + 1.0j

# ln(|2/1|^2) / (-8 Im((1+i)^2)) evaluated by hand
T_STAR_FROZEN = -math.log(4.0) / 16.0


def test_ex1_s_trigonometric_values():
    # equal unit columns reduce S to cos or i*sin of the phase
    p0 = oracles.Example1Params(a=1.0, theta1=1.0, theta2=1.0, kappa=0)
    p1 = oracles.Example1Params(a=1.0, theta1=1.0, theta2=1.0, kappa=1)
    assert oracles.ex1_S(p0, 0.5, 0.0) == pytest.approx(math.cos(1.0))
    assert oracles.ex1_S(p1, 0.5, 0.0) == pytest.approx(1j * math.sin(1.0))


def test_ex1_u_matches_direct_formula():
    p = oracles.Example1Params(a=0.8 + 0.2j, theta1=1.5, theta2=0.7j, kappa=0)
    x, t = 0.4, -0.15
    a = p.a
    phi = (a + a.conjugate()) * x - 2.0 * (a * a - a.conjugate() ** 2) * t
    denom = abs(p.theta1) ** 2 + cmath.exp(-2j * phi) * abs(p.theta2) ** 2
    expected = (
        -2j
        * (a + a.conjugate())
        * cmath.exp(-2j * a * (x - 2.0 * a * t))
        * p.theta1.conjugate()
        * p.theta2
        / denom
    )
    assert oracles.ex1_u(p, x, t) == pytest.approx(expected, abs=1e-14)


def test_ex1_singular_set_periodicity():
    """|S| is periodic in x with half the phase period."""
    p = oracles.Example1Params(a=1.0, theta1=1.0, theta2=1.0, kappa=1)
    step = math.pi / 2.0
    for x in (0.1, 0.35, -0.8):
        assert abs(oracles.ex1_S(p, x + step, 0.0)) == pytest.approx(
            abs(oracles.ex1_S(p, x, 0.0)), abs=1e-13
        )


def test_ex1_singular_point_raised():
    p = oracles.Example1Params(a=1.0, theta1=1.0, theta2=1.0, kappa=1)
    with pytest.raises(SingularPoint):
        oracles.ex1_u(p, 0.0, 0.0)


def test_ex1_blowup_time_frozen_value():
    p = oracles.Example1Params(a=A_BLOWUP, theta1=2.0, theta2=1.0, kappa=1)
    t_star = oracles.ex1_blowup_time(p)
    assert t_star == pytest.approx(T_STAR_FROZEN, abs=1e-15)
    # at t_star the two exponential weights balance and S really vanishes
    assert abs(oracles.ex1_S(p, 0.0, t_star)) <= 1e-14


def test_ex1_blowup_absent_for_real_square():
    p = oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=1)
    assert oracles.ex1_blowup_time(p) is None


def test_ex2_frozen_origin_value():
    p = oracles.Example2Params(a=1.0, b=1.0, c=1.0, kappa=0)
    assert oracles.ex2_u(p, 0.0, 0.0) == pytest.approx(-4j, abs=1e-13)


def test_ex2_c_zero_gives_zero_solution():
    p = oracles.Example2Params(a=1.0, b=2.0, c=0.0, kappa=0)
    for x, t in ((0.0, 0.0), (0.7, 0.2), (-1.3, -0.4)):
        assert oracles.ex2_u(p, x, t) == 0


def test_ex2_dets_single_exponential_branch():
    # with b = 0 only the second exponential term survives
    p = oracles.Example2Params(a=1.0, b=0.0, c=1.5, kappa=0)
    x, t = 0.6, 0.1
    big_p = 1j * (2.0 * x + 2.0 * ((1.0) - (1.0)) * t)
    expected = abs(1.5) ** 4 * cmath.exp(-2.0 * big_p) / 16.0
    assert oracles.ex2_detS(p, x, t) == pytest.approx(expected, abs=1e-13)


def test_ex2_dets_quadratic_growth():
    """The polynomial part of det S dominates at large |x|."""
    p = oracles.Example2Params(a=1.0, b=1.0, c=1.0, kappa=0)
    assert abs(oracles.ex2_detS(p, 50.0, 0.0)) > 100.0 * abs(
        oracles.ex2_detS(p, 1.0, 0.0)
    )


def test_ex2_singular_point_raised():
    p = oracles.Example2Params(a=1.0, b=1.0, c=1.0, kappa=1)
    with pytest.raises(SingularPoint):
        oracles.ex2_u(p, 0.0, 0.0)


def test_ex3_shape_and_reduction_to_scalar_family():
    p3 = oracles.Example3Params(a=1.0, b1=1.5, b2=0.0, c=0.8, kappa=0)
    p1 = oracles.Example1Params(a=1.0, theta1=1.5, theta2=0.8, kappa=0)
    x, t = 0.3, -0.2
    out = oracles.ex3_u(p3, x, t)
    assert out.shape == (2, 1)
    assert out[0, 0] == pytest.approx(oracles.ex1_u(p1, x, t), abs=1e-14)
    assert out[1, 0] == 0


def test_ex3_component_ratio_fixed():
    # the two rows differ only by the conjugated column weights
    p = oracles.Example3Params(a=1.0, b1=2.0, b2=1.0 - 0.5j, c=1.0, kappa=1)
    out = oracles.ex3_u(p, 0.9, 0.25)
    assert out[1, 0] / out[0, 0] == pytest.approx(
        (1.0 - 0.5j).conjugate() / 2.0, abs=1e-13
    )


def test_parameter_validation():
    with pytest.raises(InvalidParams):
        oracles.Example1Params(a=1.0, theta1=1.0, theta2=1.0, kappa=2)
    with pytest.raises(InvalidParams):
        oracles.Example1Params(a=1j, theta1=1.0, theta2=1.0, kappa=0)
    with pytest.raises(InvalidParams):
        oracles.Example1Params(a=1.0, theta1=0.0, theta2=1.0, kappa=0)
    with pytest.raises(InvalidParams):
        oracles.Example2Params(a=1.0, b=0.0, c=0.0, kappa=0)
    with pytest.raises(InvalidParams):
        oracles.Example3Params(a=1.0, b1=0.0, b2=0.0, c=0.0, kappa=0)


def test_params_coerce_to_complex():
    p = oracles.Example2Params(a=1, b=2, c=1, kappa=0)
    assert isinstance(p.a, complex) and isinstance(p.c, complex)
    out = oracles.ex2_u(p, 0.1, 0.0)
    assert np.isfinite(out.real) and np.isfinite(out.imag)


def test_datum_is_plain_nested_lists():
    cases = (
        (oracles.Example1Params(a=1 + 0.5j, theta1=2.0, theta2=1.0, kappa=1), 1, 1, 1),
        (oracles.Example2Params(a=1.0, b=2.0, c=0.3, kappa=0), 2, 1, 1),
        (oracles.Example3Params(a=1.0, b1=2.0, b2=1.0, c=1.0, kappa=0), 1, 2, 1),
    )
    for p, n, m1, m2 in cases:
        sigma, a, theta1, theta2 = p.datum()
        assert sigma == 1 - 2 * p.kappa
        for block, shape in ((a, (n, n)), (theta1, (n, m1)), (theta2, (n, m2))):
            assert isinstance(block, list)
            assert all(isinstance(row, list) for row in block)
            assert np.shape(block) == shape
