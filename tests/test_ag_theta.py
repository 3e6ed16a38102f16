"""Tests of theta evaluation, branch-point handling, and the stationary reduction."""

import cmath
import math

import numpy as np
import pytest

from nnls_gbdt import ag_theta
from nnls_gbdt.errors import (
    AsymmetricGrid,
    BadTau,
    DegenerateCurve,
    DimensionMismatch,
    InvalidParams,
    RangeExceeded,
    ThetaZero,
)

# theta(0, i) evaluated from the raw series with 60 terms
THETA_AT_ORIGIN = 1.0864348112133082

# frozen period ratio for the branch points {0, 1, 2, 3}
TAU_0123 = 0.7817009613480558j


def brute_force_theta(z, tau, terms=80):
    return sum(
        cmath.exp(2j * math.pi * m * z + 1j * math.pi * m * m * tau)
        for m in range(-terms, terms + 1)
    )


def agm(a, b):
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-16 * a:
            break
    return a


def tau_from_agm(e):
    """Period ratio of the square-root curve through elliptic integrals."""
    e0, e1, e2, e3 = sorted(e)
    ksq = ((e2 - e1) * (e3 - e0)) / ((e2 - e0) * (e3 - e1))
    k = math.sqrt(ksq)
    kp = math.sqrt(1.0 - ksq)
    return 1j * agm(1.0, kp) / agm(1.0, k)


# ------------------------------------------------------------------- theta


def test_theta_frozen_origin_value():
    assert ag_theta.theta(0.0, 1j) == pytest.approx(THETA_AT_ORIGIN, abs=1e-12)


def test_theta_against_brute_force():
    rng = np.random.default_rng(70)
    tau = 0.1 + 0.8j
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = ag_theta.theta(z, tau)
        want = brute_force_theta(z, tau)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta_periodicity_and_evenness():
    tau = 0.6j
    for z in (0.3 + 0.2j, -0.45 + 0.1j):
        base = ag_theta.theta(z, tau)
        shifted = ag_theta.theta(z + 1.0, tau)
        assert abs(shifted - base) <= 1e-14 * abs(base)
        assert ag_theta.theta(-z, tau) == base


def test_theta_quasi_periodicity():
    tau = 0.7j
    for z in (0.2 + 0.1j, -0.3 - 0.25j):
        left = ag_theta.theta(z + tau, tau)
        right = cmath.exp(-1j * math.pi * tau - 2j * math.pi * z) * ag_theta.theta(
            z, tau
        )
        assert abs(left - right) <= 1e-11 * max(1.0, abs(right))


def test_theta_half_period_zero():
    tau = 0.9j
    zero = 0.5 + tau / 2.0
    assert abs(ag_theta.theta(zero, tau)) <= 1e-13


def test_theta_domain_errors():
    with pytest.raises(BadTau):
        ag_theta.theta(0.0, 1.0)
    with pytest.raises(BadTau):
        ag_theta.theta(0.0, -0.5j)
    with pytest.raises(RangeExceeded):
        ag_theta.theta(50j, 0.05j)


def test_theta_refuses_a_series_beyond_its_term_limit():
    """Im tau = 1e-300 would need about 3.4e150 terms: refused at once."""
    with pytest.raises(RangeExceeded, match="terms"):
        ag_theta.theta(0.3, 1e-300j)
    # the documented range stays far inside the limit
    ag_theta.theta(0.25j, 0.05j)


def test_theta_refuses_arguments_at_the_ends_of_double_range():
    """A non-finite z, and an Im tau whose term count overflows to an
    infinity, are range errors, not an OverflowError from int()."""
    for z in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(RangeExceeded, match="not finite"):
            ag_theta.theta(z, 0.9j)
    with pytest.raises(RangeExceeded, match="terms"):
        ag_theta.theta(0.3, 1.7976931348623157e308j)


# ------------------------------------------------------------ branch points


def test_classify_four_reals():
    out = ag_theta.classify_branch_points([3.0, -1.0, 0.5, -2.0])
    assert out.case_label == "i"
    assert out.E == (-2.0, -1.0, 0.5, 3.0)


def test_classify_two_conjugate_pairs():
    out = ag_theta.classify_branch_points([1 + 2j, 1 - 2j, -1 + 1j, -1 - 1j])
    assert out.case_label == "ii"
    assert out.E == (-1 + 1j, -1 - 1j, 1 + 2j, 1 - 2j)


def test_classify_mixed_case():
    out = ag_theta.classify_branch_points([2.0, 0.5 + 1j, -1.0, 0.5 - 1j])
    assert out.case_label == "iii"
    assert out.E == (-1.0, 2.0, 0.5 + 1j, 0.5 - 1j)


def test_classify_unsupported_configurations():
    assert ag_theta.classify_branch_points([1.0, 1.0, 2.0, 3.0]).case_label == (
        "unsupported"
    )
    assert ag_theta.classify_branch_points([0.0, 1.0, 2.0, 1j]).case_label == (
        "unsupported"
    )
    with pytest.raises(InvalidParams):
        ag_theta.classify_branch_points([1.0, 2.0, 3.0])


# ---------------------------------------------------------------- constants


def test_akns_constants_frozen_cases():
    degenerate = ag_theta.BranchData(E=(0, 0, 0, 0), case_label="unsupported")
    out = ag_theta.akns_constants(degenerate)
    assert out.c1 == 0 and out.c2 == 0

    spread = ag_theta.classify_branch_points([-2.0, -1.0, 1.0, 2.0])
    out = ag_theta.akns_constants(spread)
    assert out.c1 == pytest.approx(0.0, abs=1e-15)
    assert out.c2 == pytest.approx(-2.5, abs=1e-14)


def test_akns_constants_polynomial_oracle():
    rng = np.random.default_rng(71)
    points = rng.uniform(-3, 3, size=4) + 1j * rng.uniform(-1, 1, size=4)
    branch = ag_theta.BranchData(E=tuple(points), case_label="unsupported")
    out = ag_theta.akns_constants(branch)
    coeffs = np.poly(points)
    c1 = coeffs[1] / 2.0
    c2 = -(c1 * c1) / 8.0 + coeffs[2] / 2.0
    assert abs(out.c1 - c1) <= 1e-12 * max(1.0, abs(c1))
    assert abs(out.c2 - c2) <= 1e-12 * max(1.0, abs(c2))


def test_constants_validation():
    with pytest.raises(ValueError):
        ag_theta.NnlsConstants(c1_tilde=0.0, c2_tilde=0.0, sigma=2)
    kept = ag_theta.AknsConstants(c1=1, c2=2)
    assert isinstance(kept.c1, complex)


# ------------------------------------------------------------- substitution


def _symmetric_grid(n, h):
    return (np.arange(n) - (n - 1) // 2) * h


def test_lemma_map_plain_identity():
    x = _symmetric_grid(9, 0.25)
    u = np.exp(0.3j * x) * (1.2 + 0.4j)
    constants = ag_theta.NnlsConstants(c1_tilde=0.3, c2_tilde=-1.0, sigma=1)
    v1, v2, akns = ag_theta.lemma61_forward(x, u, 0.0, 1, constants)
    assert np.array_equal(v1, u)
    assert np.array_equal(v2, np.conj(u[::-1]))
    assert akns.c1 == pytest.approx(0.3)
    assert akns.c2 == pytest.approx(-1.0)


def test_lemma_map_twist_constants():
    x = _symmetric_grid(9, 0.25)
    u = np.ones_like(x, dtype=complex)
    constants = ag_theta.NnlsConstants(c1_tilde=0.3, c2_tilde=-1.0, sigma=1)
    _, _, akns = ag_theta.lemma61_forward(x, u, 1.0, 1, constants)
    assert akns.c1 == pytest.approx(-0.7)
    assert akns.c2 == pytest.approx(-0.9)


def test_lemma_map_input_validation():
    x = _symmetric_grid(9, 0.25)
    u = np.ones(9, dtype=complex)
    constants = ag_theta.NnlsConstants(c1_tilde=0.0, c2_tilde=0.0, sigma=1)
    with pytest.raises(InvalidParams):
        ag_theta.lemma61_forward(x, u, 0.0, 2, constants)
    with pytest.raises(DimensionMismatch):
        ag_theta.lemma61_forward(x, u[:-1], 0.0, 1, constants)
    with pytest.raises(AsymmetricGrid):
        ag_theta.lemma61_forward(x + 0.1, u, 0.0, 1, constants)


# --------------------------------------------------------- constant family


def test_constant_family_exact_both_branches():
    """u identically rho solves the stationary equation when the constant
    c2_tilde carries minus sigma times half the squared modulus."""
    rho = 0.8 * cmath.exp(0.4j)
    x = _symmetric_grid(41, 0.05)
    u = np.full(x.size, rho)
    for sigma in (1, -1):
        constants = ag_theta.NnlsConstants(
            c1_tilde=0.0, c2_tilde=-sigma * abs(rho) ** 2 / 2.0, sigma=sigma
        )
        report = ag_theta.snnls_residual(u, constants, 0.05)
        assert report.residual <= 1e-10


def test_constant_family_off_constant_fails():
    rho = 0.8
    x = _symmetric_grid(41, 0.05)
    u = np.full(x.size, rho + 0j)
    constants = ag_theta.NnlsConstants(
        c1_tilde=0.0, c2_tilde=-rho * rho / 2.0 + 0.1, sigma=1
    )
    report = ag_theta.snnls_residual(u, constants, 0.05)
    assert report.residual == pytest.approx(0.2 * rho, abs=1e-12)
    assert not report.passed


def test_constant_family_through_lemma_map():
    """The twisted image of the constant solution satisfies the system pair
    with a second-order finite-difference residual."""
    rho = 0.7 * cmath.exp(-0.2j)
    sigma = -1
    constants = ag_theta.NnlsConstants(
        c1_tilde=0.0, c2_tilde=-sigma * abs(rho) ** 2 / 2.0, sigma=sigma
    )
    residuals = []
    for h in (0.05, 0.025):
        x = _symmetric_grid(int(round(4.0 / h)) + 1, h)
        u = np.full(x.size, rho)
        v1, v2, akns = ag_theta.lemma61_forward(x, u, 1.0, sigma, constants)
        residuals.append(ag_theta.sakns_residual(v1, v2, akns, h).residual)
    order = math.log2(residuals[0] / residuals[1])
    assert 1.8 <= order <= 2.2


def test_wrong_pairing_sign_breaks_the_system():
    rho = 0.7
    sigma = -1
    constants = ag_theta.NnlsConstants(
        c1_tilde=0.0, c2_tilde=-sigma * rho * rho / 2.0, sigma=sigma
    )
    h = 0.05
    x = _symmetric_grid(81, h)
    u = np.full(x.size, rho + 0j)
    v1, v2, akns = ag_theta.lemma61_forward(x, u, 1.0, -sigma, constants)
    report = ag_theta.sakns_residual(v1, v2, akns, h)
    assert report.residual > 0.1


# ------------------------------------------------------- theta-line solutions


@pytest.fixture(scope="module")
def exponential_family():
    """Theta data on the line that degenerates to plain exponentials.

    Shifting by the full period tau turns each quotient into a single
    exponential, so every value has an elementary closed form while still
    exercising the theta machinery end to end.
    """
    branch = ag_theta.classify_branch_points([-2.0, -1.0, 1.0, 2.0])
    tau, _ = ag_theta.periods_case_i(branch)
    constants = ag_theta.akns_constants(branch)
    nu = 0.5
    amp_sq = 2.0 * (nu * nu / 4.0 - constants.c2.real)
    c1_amp = math.sqrt(amp_sq) * math.exp(-math.pi * tau.imag)
    params = ag_theta.ThetaParams(
        tau=tau,
        A_theta=0.0,
        B_theta=-1j * nu / (2.0 * math.pi),
        Delta=tau,
        e0=0.0,
        C1=c1_amp,
        C2=c1_amp,
        chi=0,
    )
    return params, nu, math.sqrt(amp_sq)


def test_exponential_family_closed_form(exponential_family):
    params, nu, alpha = exponential_family
    for x in (-1.5, -0.4, 0.0, 0.8, 1.5):
        v1, v2 = ag_theta.v_from_theta(params, x)
        assert v1 == pytest.approx(alpha * math.exp(nu * x), abs=1e-9)
        assert v2 == pytest.approx(alpha * math.exp(-nu * x), abs=1e-9)


def test_exponential_family_satisfies_both_systems(exponential_family):
    params, nu, alpha = exponential_family
    constants = ag_theta.NnlsConstants(c1_tilde=0.0, c2_tilde=-2.5, sigma=1)
    snnls_res = []
    sakns_res = []
    for h in (0.05, 0.025):
        x = _symmetric_grid(int(round(3.0 / h)) + 1, h)
        pairs = [ag_theta.v_from_theta(params, xv) for xv in x]
        v1 = np.array([p[0] for p in pairs])
        v2 = np.array([p[1] for p in pairs])
        # at e0 = 0 the solution of the nonlocal equation is v1 itself
        snnls_res.append(ag_theta.snnls_residual(v1, constants, h).residual)
        akns = ag_theta.AknsConstants(c1=0.0, c2=-2.5)
        sakns_res.append(ag_theta.sakns_residual(v1, v2, akns, h).residual)
        lemma_v1, lemma_v2, _ = ag_theta.lemma61_forward(
            x, v1, 0.0, constants.sigma, constants
        )
        assert np.allclose(lemma_v2, v2, atol=1e-9)
    assert 1.8 <= math.log2(snnls_res[0] / snnls_res[1]) <= 2.2
    assert 1.8 <= math.log2(sakns_res[0] / sakns_res[1]) <= 2.2


def test_exponential_family_passes_constraints(exponential_family):
    params, _, _ = exponential_family
    report = ag_theta.check_nnls_constraints(params)
    assert report.passed
    assert report.entry("ratio_independence").value <= 1e-10


def test_constraints_handcrafted_cases():
    passing = ag_theta.ThetaParams(
        tau=0.9j, A_theta=0.2 + 0.45j, B_theta=0.7j, Delta=0.5 + 0.3j,
        e0=0.0, C1=1.0, C2=1.0, chi=1,
    )
    assert ag_theta.check_nnls_constraints(passing).passed

    shifted = ag_theta.ThetaParams(
        tau=0.9j, A_theta=0.2 + 0.30j, B_theta=0.7j, Delta=0.5 + 0.3j,
        e0=0.0, C1=1.0, C2=1.0, chi=1,
    )
    report = ag_theta.check_nnls_constraints(shifted)
    assert not report.entry("a_im").passed
    assert not report.passed

    trivial = ag_theta.ThetaParams(
        tau=0.8j, A_theta=0.1 + 0.8j, B_theta=0.3, Delta=0.0,
        e0=0.5, C1=2.0, C2=0.5, chi=0,
    )
    assert ag_theta.check_nnls_constraints(trivial).passed


def test_v_from_theta_plain_twist():
    params = ag_theta.ThetaParams(
        tau=0.8j, A_theta=0.1, B_theta=0.0, Delta=0.0,
        e0=0.7, C1=1.5, C2=2.0, chi=0,
    )
    for x in (-0.9, 0.3, 1.2):
        v1, v2 = ag_theta.v_from_theta(params, x)
        assert v1 == pytest.approx(1.5 * cmath.exp(0.7j * x), abs=1e-12)
        assert v2 == pytest.approx(2.0 * cmath.exp(-0.7j * x), abs=1e-12)


def test_v_from_theta_product_invariant():
    # with no shift the two quotients cancel and only the amplitudes remain
    params = ag_theta.ThetaParams(
        tau=0.8j, A_theta=0.1 + 0.2j, B_theta=0.7j, Delta=0.0,
        e0=0.3, C1=1.5, C2=2.0, chi=0,
    )
    for x in (-1.0, 0.4):
        v1, v2 = ag_theta.v_from_theta(params, x)
        assert v1 * v2 == pytest.approx(3.0, abs=1e-11)


def test_v_from_theta_zero_denominator():
    tau = 0.8j
    params = ag_theta.ThetaParams(
        tau=tau, A_theta=0.5 + tau / 2.0, B_theta=0.0, Delta=0.1,
        e0=0.0, C1=1.0, C2=1.0, chi=0,
    )
    with pytest.raises(ThetaZero):
        ag_theta.v_from_theta(params, 0.3)


def test_theta_params_validation():
    with pytest.raises(BadTau):
        ag_theta.ThetaParams(
            tau=1.0, A_theta=0.0, B_theta=0.0, Delta=0.0,
            e0=0.0, C1=1.0, C2=1.0, chi=0,
        )
    with pytest.raises(InvalidParams):
        ag_theta.ThetaParams(
            tau=0.8j, A_theta=0.0, B_theta=0.0, Delta=0.0,
            e0=0.0, C1=1.0, C2=1.0, chi=2,
        )
    with pytest.raises(InvalidParams):
        ag_theta.ThetaParams(
            tau=0.8j, A_theta=0.0, B_theta=0.0, Delta=0.0,
            e0=0.0, C1=2.0, C2=1.0, chi=0, omega0_sq=1.0,
        )
    kept = ag_theta.ThetaParams(
        tau=0.8j, A_theta=0.0, B_theta=0.0, Delta=0.0,
        e0=0.0, C1=2.0, C2=1.0, chi=0, omega0_sq=2.0,
    )
    assert kept.omega0_sq == 2.0


# ----------------------------------------------------------------- periods


def test_periods_purely_imaginary_tau():
    branch = ag_theta.classify_branch_points([-2.0, -1.0, 1.0, 2.0])
    tau, delta = ag_theta.periods_case_i(branch)
    assert tau.real == 0.0
    assert tau.imag > 0.0
    assert delta.imag == 0.0


def test_periods_frozen_value():
    branch = ag_theta.classify_branch_points([0.0, 1.0, 2.0, 3.0])
    tau, _ = ag_theta.periods_case_i(branch)
    assert tau == pytest.approx(TAU_0123, abs=1e-12)


def test_periods_against_agm_oracle():
    for points in ([-2.0, -1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [-3.0, -0.5, 0.5, 4.0]):
        branch = ag_theta.classify_branch_points(points)
        tau, _ = ag_theta.periods_case_i(branch)
        assert abs(tau - tau_from_agm(points)) <= 1e-9


def test_periods_affine_invariance():
    base = [-2.0, -1.0, 1.0, 2.0]
    moved = [2.0 * e + 5.0 for e in base]
    tau0, delta0 = ag_theta.periods_case_i(ag_theta.classify_branch_points(base))
    tau1, delta1 = ag_theta.periods_case_i(ag_theta.classify_branch_points(moved))
    assert abs(tau0 - tau1) <= 1e-12
    assert abs(delta0 - delta1) <= 1e-10


def test_periods_reuse_their_gauss_legendre_rules(monkeypatch):
    calls = []
    original = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    ag_theta._gauss_rule.cache_clear()
    for points in ([-2.0, -1.0, 1.0, 2.0], [-3.0, -0.5, 0.5, 4.0]):
        ag_theta.periods_case_i(ag_theta.classify_branch_points(points))
    assert calls and len(calls) == len(set(calls))
    for n in set(calls):
        nodes, weights = ag_theta._gauss_rule(n)
        assert not nodes.flags.writeable and not weights.flags.writeable


def test_periods_input_validation():
    pair_case = ag_theta.classify_branch_points([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    with pytest.raises(InvalidParams):
        ag_theta.periods_case_i(pair_case)
    squeezed = ag_theta.BranchData(E=(0.0, 1e-13, 1.0, 2.0), case_label="i")
    with pytest.raises(DegenerateCurve):
        ag_theta.periods_case_i(squeezed)
