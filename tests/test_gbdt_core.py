"""Tests of the transformation pipeline: data, grids, fields, Darboux algebra."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from nnls_gbdt import gbdt_core, numkit, oracles, verify
from nnls_gbdt.errors import (
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
from conftest import make_random_triple


def _h(m):
    return m.conj().T


def _hs(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------- triples


def test_triple_derived_quantities(scalar_triple, jordan_triple):
    assert scalar_triple.kappa == 0
    assert np.array_equal(scalar_triple.jk, np.eye(2))
    assert jordan_triple.n == 2 and jordan_triple.m1 == 1 and jordan_triple.m2 == 1
    focusing = gbdt_core.GbdtTriple(
        sigma=-1, A=[[1.0]], S0=[[1.5]], theta1=[[2.0]], theta2=[[1.0]]
    )
    assert focusing.kappa == 1
    assert np.array_equal(focusing.j, np.diag([1.0, -1.0]))
    assert np.array_equal(focusing.jk, focusing.j)


def test_triple_shape_validation():
    with pytest.raises(ValueError):
        gbdt_core.GbdtTriple(sigma=0, A=[[1.0]], S0=[[1.0]], theta1=[[1.0]], theta2=[[1.0]])
    with pytest.raises(DimensionMismatch):
        gbdt_core.GbdtTriple(
            sigma=1, A=[[1.0]], S0=np.eye(2), theta1=[[1.0]], theta2=[[1.0]]
        )
    with pytest.raises(DimensionMismatch):
        gbdt_core.GbdtTriple(
            sigma=1, A=np.eye(2), S0=np.eye(2), theta1=[[1.0]], theta2=np.ones((2, 1))
        )


def test_complete_triple_scalar_values():
    plus = gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[1.0]])
    minus = gbdt_core.complete_triple(-1, [[1.0]], [[2.0]], [[1.0]])
    assert plus.S0[0, 0] == pytest.approx(2.5)
    assert minus.S0[0, 0] == pytest.approx(1.5)
    empty_second = gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[0.0]])
    assert empty_second.S0[0, 0] == pytest.approx(2.0)


def test_complete_triple_degenerate():
    # equal column weights under the focusing sign cancel exactly
    with pytest.raises(DegenerateS):
        gbdt_core.complete_triple(-1, [[1.0]], [[1.0]], [[1.0]])


def test_complete_triple_zero_a_is_a_spectral_clash():
    """A = 0 gives a zero margin against a zero threshold: a clash, not a
    singular Kronecker system."""
    with pytest.raises(SpectralClash):
        gbdt_core.complete_triple(1, [[0.0]], [[1.0]], [[1.0]])


def test_validate_triple_entries(scalar_triple):
    report = verify.validate_triple(scalar_triple)
    assert report.passed
    assert report.entry("sylvester_margin").passed
    names = {e.name for e in report.entries}
    assert names == {"hermiticity", "determinant", "identity", "sylvester_margin"}
    with pytest.raises(KeyError):
        report.entry("missing")


def test_validate_triple_flags_broken_data(scalar_triple):
    skewed = gbdt_core.GbdtTriple(
        sigma=1, A=scalar_triple.A, S0=[[2.5 + 1j]],
        theta1=scalar_triple.theta1, theta2=scalar_triple.theta2,
    )
    report = verify.validate_triple(skewed)
    assert not report.entry("hermiticity").passed
    assert not report.passed

    clashing = gbdt_core.GbdtTriple(
        sigma=1, A=[[1j]], S0=[[1.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    clash_report = verify.validate_triple(clashing)
    assert not clash_report.entry("sylvester_margin").passed


def test_validate_triple_takes_the_determinant_floor_without_overflow():
    """S0 = 1e100 I at n = 4: max(1, ||S0||)^4 is beyond double range, but
    the floor compares det(S0 / ||S0||) = 1/16, so the determinant entry
    passes and only the identity (S0 does not solve it) fails."""
    n = 4
    triple = gbdt_core.GbdtTriple(
        sigma=1, A=np.diag([1.0, 1.1, 1.2, 1.3]), S0=1e100 * np.eye(n),
        theta1=np.ones((n, 1)), theta2=np.ones((n, 1)),
    )
    report = verify.validate_triple(triple)
    determinant = report.entry("determinant")
    assert determinant.passed
    assert determinant.value == pytest.approx(1.0 / 16.0)
    assert determinant.tolerance == gbdt_core.DET_FLOOR
    assert not report.entry("identity").passed


def test_datum_entries_beyond_the_entry_limit_overflow():
    limit = numkit.ENTRY_LIMIT
    assert numkit.as_cmatrix([[limit, 1j * limit]])[0, 1] == 1j * limit
    for huge in (2.0 * limit, 2j * limit):
        with pytest.raises(Overflow):
            gbdt_core.GbdtTriple(
                sigma=1, A=[[1.0]], S0=[[huge]], theta1=[[1.0]], theta2=[[1.0]]
            )
        with pytest.raises(Overflow):
            gbdt_core.complete_triple(1, [[1.0]], [[huge]], [[1.0]])


# -------------------------------------------------------- generating matrix


def test_pi_at_scalar_exponentials():
    triple = gbdt_core.GbdtTriple(
        sigma=1, A=[[1j]], S0=[[1.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    out = gbdt_core.pi_at(triple, 1.0, 0.0)
    assert np.allclose(out, [[math.exp(-1.0), math.exp(1.0)]], atol=1e-14)
    # A^2 = -1 turns the time factor into a plain phase
    out_t = gbdt_core.pi_at(triple, 0.0, 0.3)
    assert np.allclose(
        out_t, [[cmath.exp(0.6j), cmath.exp(-0.6j)]], atol=1e-14
    )


def test_pi_at_jordan_closed_form(jordan_triple):
    """For a Jordan cell the exponential truncates to a linear polynomial."""
    a, b, c = 1.0, 2.0, 0.3
    x = 1.0
    out = gbdt_core.pi_at(jordan_triple, x, 0.0)
    ea = cmath.exp(1j * x * a)
    expected = np.array(
        [[1j * x * b * ea, -1j * x * c / ea], [b * ea, c / ea]]
    )
    assert np.allclose(out, expected, atol=1e-13)


def test_pi_via_blocks_agrees(scalar_triple, jordan_triple, wide_triple):
    rng = np.random.default_rng(21)
    triples = [scalar_triple, jordan_triple, wide_triple,
               make_random_triple(rng, -1, n=3)]
    for triple in triples:
        for x, t in ((0.0, 0.0), (0.8, -0.3), (-1.2, 0.4)):
            direct = gbdt_core.pi_at(triple, x, t)
            blocks = gbdt_core.pi_via_blocks(triple, x, t)
            assert np.linalg.norm(direct - blocks) <= 1e-11 * max(
                1.0, np.linalg.norm(direct)
            )


# ------------------------------------------------------------------- S(x,t)


def test_s_at_matches_scalar_closed_form(scalar_triple):
    p = oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=0)
    for x, t in ((0.5, 0.0), (-0.7, 0.2), (1.3, -0.4)):
        s = gbdt_core.s_at(scalar_triple, x, t)
        assert s[0, 0] == pytest.approx(oracles.ex1_S(p, x, t), abs=1e-12)


def test_s_at_matches_jordan_determinant(jordan_triple):
    p = oracles.Example2Params(a=1.0, b=2.0, c=0.3, kappa=0)
    for x, t in ((0.0, 0.0), (0.6, 0.15), (-0.9, -0.2)):
        det = np.linalg.det(gbdt_core.s_at(jordan_triple, x, t))
        assert det == pytest.approx(oracles.ex2_detS(p, x, t), abs=1e-10)


def test_s_at_mirror_conjugation(jordan_triple):
    for x, t in ((0.4, 0.1), (1.1, -0.25)):
        left = gbdt_core.s_at(jordan_triple, -x, t)
        right = _h(gbdt_core.s_at(jordan_triple, x, t))
        assert np.linalg.norm(left - right) <= 1e-10 * max(
            1.0, np.linalg.norm(left)
        )


def test_s_via_integration_cross_route(jordan_triple):
    for x, t in ((0.7, 0.3), (-0.5, -0.2)):
        direct = gbdt_core.s_at(jordan_triple, x, t)
        integrated = gbdt_core.s_via_integration(jordan_triple, x, t, steps=400)
        assert np.linalg.norm(direct - integrated) <= 1e-8 * max(
            1.0, np.linalg.norm(direct)
        )


def test_s_propagation_closed_form_single_block():
    """With the second column block empty, S propagates by conjugation."""
    triple = gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[0.0]])
    a = triple.A
    for x, t in ((0.9, 0.2), (-1.4, -0.3)):
        e_here = numkit.expm(1j * (x * a - 2.0 * t * a @ a))
        e_mirror = numkit.expm(1j * (-x * a - 2.0 * t * a @ a))
        expected = e_here @ triple.S0 @ _h(e_mirror)
        assert np.allclose(gbdt_core.s_at(triple, x, t), expected, atol=1e-12)


def test_unitary_change_of_basis_preserves_u():
    rng = np.random.default_rng(30)
    base = make_random_triple(rng, 1, n=2, m1=1, m2=1)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = gbdt_core.complete_triple(
        1, q @ base.A @ _h(q), q @ base.theta1, q @ base.theta2
    )
    for x, t in ((0.3, 0.1), (-0.8, -0.2)):
        u0 = gbdt_core.u_tilde_at(base, x, t)
        u1 = gbdt_core.u_tilde_at(rotated, x, t)
        assert np.linalg.norm(u0 - u1) <= 1e-10 * max(1.0, np.linalg.norm(u0))
        s1 = gbdt_core.s_at(rotated, x, t)
        s0 = gbdt_core.s_at(base, x, t)
        assert np.linalg.norm(s1 - q @ s0 @ _h(q)) <= 1e-10 * max(
            1.0, np.linalg.norm(s0)
        )


# ----------------------------------------------------------------- u and xi


def test_u_tilde_matches_all_three_families(
    scalar_triple, scalar_focusing_triple, jordan_triple, wide_triple
):
    points = ((0.3, 0.05), (-0.9, 0.2), (1.4, -0.3))
    cases = [
        (scalar_triple,
         oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=0),
         lambda p, x, t: np.array([[oracles.ex1_u(p, x, t)]])),
        (scalar_focusing_triple,
         oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=1),
         lambda p, x, t: np.array([[oracles.ex1_u(p, x, t)]])),
        (jordan_triple,
         oracles.Example2Params(a=1.0, b=2.0, c=0.3, kappa=0),
         lambda p, x, t: np.array([[oracles.ex2_u(p, x, t)]])),
        (wide_triple,
         oracles.Example3Params(a=1.0, b1=2.0, b2=1.0, c=1.0, kappa=0),
         oracles.ex3_u),
    ]
    for triple, params, evaluate in cases:
        for x, t in points:
            got = gbdt_core.u_tilde_at(triple, x, t)
            expected = evaluate(params, x, t)
            assert np.linalg.norm(got - expected) <= 1e-12 * max(
                1.0, np.linalg.norm(expected)
            )


def test_u_tilde_zero_solution():
    triple = gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[0.0]])
    assert gbdt_core.u_tilde_at(triple, 0.7, 0.2) == pytest.approx(0.0)


def test_u_tilde_singular_point():
    triple = gbdt_core.GbdtTriple(
        sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    with pytest.raises(SingularPoint):
        gbdt_core.u_tilde_at(triple, 0.0, 0.0)


def test_xi_tilde_block_structure(jordan_triple):
    """Diagonal blocks vanish; corners carry u and its reflected adjoint."""
    x, t = 0.5, 0.15
    xi = gbdt_core.xi_tilde_at(jordan_triple, x, t)
    u = gbdt_core.u_tilde_at(jordan_triple, x, t)
    u_mirror = gbdt_core.u_tilde_at(jordan_triple, -x, t)
    sigma = jordan_triple.sigma
    assert abs(xi[0, 0]) <= 1e-12 and abs(xi[1, 1]) <= 1e-12
    assert xi[0, 1] == pytest.approx(u[0, 0], abs=1e-12)
    assert xi[1, 0] == pytest.approx(-sigma * u_mirror[0, 0].conjugate(), abs=1e-12)


# ------------------------------------------------------------ Darboux algebra


def test_darboux_inverse_pair(scalar_triple, scalar_focusing_triple, jordan_triple):
    rng = np.random.default_rng(40)
    for triple in (scalar_triple, scalar_focusing_triple, jordan_triple):
        for _ in range(5):
            x = float(rng.uniform(-1.5, 1.5))
            t = float(rng.uniform(-0.3, 0.3))
            z = complex(rng.normal(), rng.normal()) + 3.0
            sample = gbdt_core.darboux_at(triple, x, t, z)
            assert np.linalg.norm(sample.wa @ sample.wb - np.eye(triple.m)) <= 1e-9


def test_darboux_reflected_conjugate_inverse(jordan_triple):
    x, t, z = 0.6, 0.2, 1.5 + 0.4j
    sample = gbdt_core.darboux_at(jordan_triple, x, t, z)
    mirror = gbdt_core.darboux_at(jordan_triple, -x, t, -z.conjugate())
    jk = jordan_triple.jk
    assert np.linalg.norm(sample.wb - jk @ _h(mirror.wa) @ jk) <= 1e-9


def test_darboux_decay_at_large_z(scalar_triple):
    for z in (100.0, 1000.0):
        sample = gbdt_core.darboux_at(scalar_triple, 0.4, 0.1, z)
        assert np.linalg.norm(sample.wa - np.eye(2)) <= 5.0 / z


def test_darboux_spectral_pole(scalar_triple):
    with pytest.raises(SpectralPole):
        gbdt_core.darboux_at(scalar_triple, 0.0, 0.0, 1.0)
    with pytest.raises(SpectralPole):
        gbdt_core.darboux_at(scalar_triple, 0.0, 0.0, -1.0)


def test_wave_approaches_plain_phase(scalar_triple):
    """Far from the spectrum the wave reduces to the bare exponential factor."""
    x, t = 0.7, 0.2
    for z in (100.0, 1000.0):
        wave = gbdt_core.wave_at(scalar_triple, x, t, z)
        phase = 1j * (z * x - 2.0 * z * z * t)
        bare = np.diag([cmath.exp(-phase), cmath.exp(phase)])
        assert np.linalg.norm(wave - bare) <= 5.0 / z


# ------------------------------------------------------ one pointwise state


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda triple: gbdt_core.darboux_at(triple, 0.4, 0.1, 2.0 + 0.5j),
        lambda triple: gbdt_core.u_tilde_at(triple, 0.4, 0.1),
        lambda triple: gbdt_core.xi_tilde_at(triple, 0.4, 0.1),
    ],
    ids=["darboux_at", "u_tilde_at", "xi_tilde_at"],
)
def test_pointwise_state_takes_four_exponentials(jordan_triple, monkeypatch, evaluate):
    """E(+-x, t) and their inverses, from one stacked call on 4 matrices;
    S, Pi(x, t) and Pi(-x, t) all come from them."""
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    evaluate(jordan_triple)
    assert calls == [(4, 2, 2)]


def test_darboux_at_propagates_s_and_its_mirror(jordan_triple, monkeypatch):
    """S(x, t) for the pair and S(-x, t), on its own, for the reduction it
    asserts; xi comes from the pair's own solve."""
    calls = []
    original = gbdt_core._propagated_s

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(gbdt_core, "_propagated_s", counting)
    sample = gbdt_core.darboux_at(jordan_triple, 0.4, 0.1, 2.0 + 0.5j)
    assert len(calls) == 2
    assert sample.xi.tobytes() == gbdt_core.xi_tilde_at(jordan_triple, 0.4, 0.1).tobytes()


def test_complete_triple_takes_two_eigvals(monkeypatch):
    """The Sylvester solver's spectral margin, of A and of A*; completion
    applies only the determinant floor and takes no further spectrum."""
    calls = []
    original = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    gbdt_core.complete_triple(1, [[1.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]], [[0.0], [0.3]])
    assert calls == [(2, 2), (2, 2)]


def test_stacked_point_exponentials_match_single_calls(jordan_triple):
    """The stacked call gives, bit for bit, what four single calls give."""
    a = jordan_triple.A
    a2 = a @ a
    x, t = 0.4, 0.1
    args = [1j * (x * a - 2.0 * t * a2), 1j * (-x * a - 2.0 * t * a2)]
    single = [numkit.expm(m) for arg in args for m in (arg, -arg)]
    stacked = gbdt_core._exponentials(jordan_triple, (x, -x), t)
    assert stacked.tobytes() == np.array(single).tobytes()


def test_s_via_integration_takes_stacked_exponentials(jordan_triple, monkeypatch):
    """Each leg: two exponential tables over its nodes, of 40 exponentials
    each at 401 nodes, and the x-leg's two single ones."""
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    gbdt_core.s_via_integration(jordan_triple, 0.7, 0.3, steps=400)
    assert len(calls) <= 8
    assert sum(np.asarray(m)[..., 0, 0].size for m in calls) <= 162


def _s_via_node_exponentials(triple, x, t, steps):
    """S(x, t) from the same two Simpson legs, with every node's
    exponentials e^{+-ixA}, e^{-+2itA^2} taken directly by numkit.expm."""
    a = triple.A
    a2 = a @ a
    g1 = triple.theta1 @ _h(triple.theta1)
    g2 = triple.theta2 @ _h(triple.theta2)
    c1 = g1 @ _h(a) - a @ g1
    c2 = g2 @ _h(a) - a @ g2
    sgn = (-1.0) ** (triple.kappa + 1)

    def stacked_h(m):
        return np.swapaxes(m, -1, -2).conj()

    def mixed(xs, ts):
        xs = np.asarray(xs, dtype=float)[..., None, None]
        ts = np.asarray(ts, dtype=float)[..., None, None]
        fx, fxi = numkit.expm(1j * xs * a), numkit.expm(-1j * xs * a)
        gt, gti = numkit.expm(-2j * ts * a2), numkit.expm(2j * ts * a2)
        return fx @ gt, fxi @ gti, stacked_h(fxi @ gt), stacked_h(fx @ gti)

    def t_rate(r):
        e_plus, e_minus, m_plus, m_minus = mixed(0.0, r)
        return 2j * (e_plus @ c1 @ m_plus + sgn * e_minus @ c2 @ m_minus)

    def x_rate(r):
        e_plus, e_minus, m_plus, m_minus = mixed(r, t)
        return 1j * (e_plus @ g1 @ m_plus + sgn * e_minus @ g2 @ m_minus)

    leg_t = numkit.integrate_matrix(t_rate, 0.0, t, steps)
    leg_x = numkit.integrate_matrix(x_rate, 0.0, x, steps)
    return triple.S0 + leg_t + leg_x


def test_s_via_integration_matches_node_exponentials(jordan_triple):
    """The exponential tables change the integrand only by rounding."""
    random4 = make_random_triple(np.random.default_rng(31), -1, n=4, m1=2, m2=1)
    for triple in (jordan_triple, random4):
        for x, t in ((0.7, 0.3), (-0.5, -0.2), (1.1, 0.0)):
            got = gbdt_core.s_via_integration(triple, x, t, steps=400)
            expected = _s_via_node_exponentials(triple, x, t, steps=400)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def _count_sylvester(monkeypatch):
    """Patch numkit.sylvester_solver to log its builds and, per call of a
    built solver, the number of right-hand sides."""
    builds, rhs = [], []
    original = numkit.sylvester_solver

    def counting_solver(a, b):
        builds.append(np.shape(a))
        solve = original(a, b)

        def counting(c):
            rhs.append(int(np.prod(np.shape(c)[:-2])))
            return solve(c)

        return counting

    monkeypatch.setattr(numkit, "sylvester_solver", counting_solver)
    return builds, rhs


def test_triple_factors_its_sylvester_map_once(monkeypatch):
    """complete_triple builds the solver and solves the origin parts; no
    later pointwise or grid call builds or solves again."""
    builds, rhs = _count_sylvester(monkeypatch)
    triple = gbdt_core.complete_triple(
        1, [[1.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]], [[0.0], [0.3]]
    )
    for k in range(20):
        gbdt_core.darboux_at(triple, 0.05 * k - 0.5, 0.1, 2.0 + 0.5j)
    for k in range(5):
        gbdt_core.s_at(triple, 0.1 * k, -0.1)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    gbdt_core.solution_field(triple, grid)
    gbdt_core.solution_field(triple, grid.halved())
    assert len(builds) == 1
    assert rhs == [2]


def _clash_triple():
    """A = i, so A's spectrum meets -A*'s and no Sylvester route exists.

    Both rates of S are constant here, which gives S(x, t) = 1 + 8t + 2ix.
    """
    return gbdt_core.GbdtTriple(
        sigma=-1, A=[[1j]], S0=[[1.0]], theta1=[[1.0]], theta2=[[1.0]]
    )


def test_s_at_raises_on_spectral_clash():
    triple = _clash_triple()
    # the failed factorisation is not cached: the second call raises too
    for _ in range(2):
        with pytest.raises(SpectralClash):
            gbdt_core.s_at(triple, 0.3, 0.1)


def test_u_tilde_falls_back_to_integration():
    triple = _clash_triple()
    x, t = 0.3, 0.1
    s = gbdt_core.s_via_integration(triple, x, t)
    assert s[0, 0] == pytest.approx(1.0 + 8.0 * t + 2j * x, abs=1e-12)
    p = gbdt_core.pi_at(triple, x, t)
    pm = gbdt_core.pi_at(triple, -x, t)
    expected = -2j * _h(pm[:, :1]) @ np.linalg.inv(s) @ p[:, 1:]
    got = gbdt_core.u_tilde_at(triple, x, t)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_darboux_at_passes_its_checks_on_spectral_clash():
    """Both samples of the pair take S from the integration fallback."""
    triple = _clash_triple()
    reports = verify.darboux_residual(triple, 0.3, 0.1, 1.0 + 0.5j)
    assert [r.name for r in reports] == ["darboux_inverse", "darboux_reduction"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["hermitian", "not-hermitian"])
def test_darboux_at_refuses_a_broken_pair(jordan_triple, entry):
    """darboux_at raises where verify.darboux_residual reports a failure:
    S propagated from a perturbed Sigma1 breaks w_A w_B = I."""
    triple = dataclasses.replace(jordan_triple)
    corrupted = jordan_triple.origin_parts.copy()
    corrupted[(0, *entry)] += 1e-3
    vars(triple)["origin_parts"] = corrupted
    inverse, reduction = verify.darboux_residual(triple, 0.4, 0.1, 2.0 + 0.5j)
    assert not inverse.passed
    with pytest.raises(DarbouxMismatch, match=re.escape(f"{inverse.residual:.3e}")):
        gbdt_core.darboux_at(triple, 0.4, 0.1, 2.0 + 0.5j)
    # the intact pair at the same point passes both
    assert all(r.passed for r in verify.darboux_residual(jordan_triple, 0.4, 0.1, 2.0 + 0.5j))
    gbdt_core.darboux_at(jordan_triple, 0.4, 0.1, 2.0 + 0.5j)


# ------------------------------------------------------------------- grids


def test_grid_build_basic():
    grid = gbdt_core.Grid.build(2.0, 5, -0.3, 0.5, 9)
    assert np.array_equal(grid.x_values, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert grid.nt == 9
    assert 0.0 in grid.t_values
    assert grid.hx == pytest.approx(1.0)


def test_grid_exact_symmetry():
    grid = gbdt_core.Grid.build(1.7, 31, -0.4, 0.4, 11)
    assert np.array_equal(grid.x_values, -grid.x_values[::-1])


def test_grid_halved_interleaves():
    grid = gbdt_core.Grid.build(1.0, 5, 0.0, 0.4, 3)
    fine = grid.halved()
    assert fine.nx == 9 and fine.nt == 5
    assert np.array_equal(fine.x_values[::2], grid.x_values)
    assert np.array_equal(fine.t_values[::2], grid.t_values)


def test_grid_rejects_bad_shapes():
    with pytest.raises(AsymmetricGrid):
        gbdt_core.Grid.build(1.0, 4, -0.1, 0.1, 5)
    with pytest.raises(AsymmetricGrid):
        gbdt_core.Grid.build(1.0, 5, 0.1, 0.5, 5)
    with pytest.raises(AsymmetricGrid):
        gbdt_core.Grid(x_values=[0.0, 1.0, 2.0], t_values=[0.0, 0.1])
    with pytest.raises(AsymmetricGrid):
        gbdt_core.Grid(x_values=[-1.0, 0.0, 1.0], t_values=[0.1, 0.2])


def test_grid_refuses_extents_and_spacings_beyond_the_operating_range():
    """Extents beyond numkit.ENTRY_LIMIT would overflow the halving's
    midpoints or the t spacing; spacings under its inverse would underflow
    the pde check's hx^2 or the snap of 0 to a node."""
    top = 1.7976931348623157e308
    with pytest.raises(Overflow):
        gbdt_core.Grid.build(2.0 * numkit.ENTRY_LIMIT, 5, -0.1, 0.1, 5)
    with pytest.raises(Overflow):
        gbdt_core.Grid.build(1.0, 5, -top, top, 5)
    with pytest.raises(RangeExceeded):
        gbdt_core.Grid.build(1e-300, 21, -0.1, 0.1, 5)
    with pytest.raises(RangeExceeded):
        gbdt_core.Grid.build(1.0, 5, -5e-324, 5e-324, 11)
    grid = gbdt_core.Grid.build(2.0 / numkit.ENTRY_LIMIT, 5, -0.1, 0.1, 5)
    assert grid.hx == 1.0 / numkit.ENTRY_LIMIT


# ------------------------------------------------------------------- fields


def test_solution_field_matches_pointwise(jordan_triple, small_grid):
    field = gbdt_core.solution_field(jordan_triple, small_grid)
    assert field.u.shape == (small_grid.nx, small_grid.nt, 1, 1)
    assert field.M.shape == (small_grid.nx, small_grid.nt, 2, 2)
    assert field.K.shape == (small_grid.nx, small_grid.nt, 2, 1)
    rng = np.random.default_rng(50)
    for _ in range(6):
        k = int(rng.integers(0, small_grid.nx))
        l = int(rng.integers(0, small_grid.nt))
        point = gbdt_core.u_tilde_at(
            jordan_triple, float(small_grid.x_values[k]), float(small_grid.t_values[l])
        )
        assert np.allclose(field.u[k, l], point, atol=1e-11)


def test_solution_field_masks_singular_column():
    """Equal focusing weights put a standing zero of det S at x = 0."""
    triple = gbdt_core.GbdtTriple(
        sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.2, 5)
    field = gbdt_core.solution_field(triple, grid)
    center = (grid.nx - 1) // 2
    assert field.singular_mask[center].all()
    assert not field.singular_mask[center + 1].any()
    assert np.isnan(field.u[center, 0, 0, 0].real)
    off_mask = field.u[~field.singular_mask]
    assert np.all(np.isfinite(off_mask))


def test_solution_field_deterministic(wide_triple, small_grid):
    first = gbdt_core.solution_field(wide_triple, small_grid)
    second = gbdt_core.solution_field(wide_triple, small_grid)
    assert np.array_equal(first.u, second.u, equal_nan=True)
    assert np.array_equal(first.M, second.M)
    assert np.array_equal(first.K, second.K)
    assert np.array_equal(first.detS, second.detS)


def test_solution_field_takes_one_stacked_exponential(monkeypatch):
    """The x table and the t table come from a single numkit.expm call on
    nx + nt matrices, not one call per node, and M from a single sandwich."""
    triple = make_random_triple(np.random.default_rng(70), 1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    calls, sandwiches = [], []
    original = numkit.expm
    original_sandwich = gbdt_core._sandwich

    def counting(m):
        calls.append(np.asarray(m).shape)
        return original(m)

    def counting_sandwich(*args):
        sandwiches.append([np.shape(arg) for arg in args])
        return original_sandwich(*args)

    monkeypatch.setattr(numkit, "expm", counting)
    monkeypatch.setattr(gbdt_core, "_sandwich", counting_sandwich)
    gbdt_core.solution_field(triple, grid)
    assert calls == [(grid.nx + grid.nt, 3, 3)]
    assert sandwiches == [[(grid.nx, 3, 3), (grid.nt, 3, 3), (grid.nx, 3, 3)]]


def test_solution_field_factors_each_node_once(monkeypatch):
    """det M and the solve come from one numkit.factor_solve call on the
    whole stack, never from np.linalg.det or np.linalg.solve on the node
    stack. numkit.expm's Pade solve on the (nx + nt, n, n) table stack
    is no node operand and may call np.linalg.solve."""
    triple = make_random_triple(np.random.default_rng(73), -1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    triple.origin_parts
    calls = []
    original = numkit.factor_solve
    original_solve = np.linalg.solve

    def counting(s, b):
        calls.append((np.shape(s), np.shape(b)))
        return original(s, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("solution_field called np.linalg")

    def solve_off_nodes(a, b):
        if np.shape(a)[:2] == (21, 11) or np.shape(b)[:2] == (21, 11):
            raise AssertionError("solution_field called np.linalg.solve on the nodes")
        return original_solve(a, b)

    monkeypatch.setattr(numkit, "factor_solve", counting)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", solve_off_nodes)
    gbdt_core.solution_field(triple, grid)
    assert calls == [((21, 11, 3, 3), (21, 11, 3, triple.m1 + triple.m2))]


def _field_from_node_tables(triple, grid):
    """(u, M, det S) by solution_field's steps, with every exponential of
    the x and t tables taken on its own.

    M comes from the same stacked sandwich as in solution_field: a loop of
    per-node products would differ from those in the last bit at n = 2 and
    3, where the BLAS kernel of the large product accumulates in another
    order. det M and the solve come from numkit.factor_solve on the whole
    stack for the same reason: its rounding at a node depends on where the
    node sits in the stack, so a per-node call is no bitwise reference.
    """
    xs, ts = grid.x_values, grid.t_values
    a = triple.A
    a2 = a @ a
    half = np.array(
        [numkit.expm(-1j * x * a) for x in xs] + [numkit.expm(2j * t * a2) for t in ts]
    )
    h, q = np.split(half @ half, [xs.size])
    sigma1, sigma2 = triple.origin_parts
    mirror = np.arange(xs.size)[::-1]
    m = gbdt_core._sandwich(h, q @ sigma2 @ _hs(q), h[mirror])
    if triple.kappa == 1:
        m = sigma1[..., None, None] - m
    else:
        m += sigma1[..., None, None]
    m = np.moveaxis(m, (0, 1), (2, 3))
    blocks = np.empty((triple.n, triple.m, xs.size, ts.size), dtype=complex)
    blocks[:, : triple.m1] = triple.theta1[..., None, None]
    np.einsum("kab,lbc->ackl", h, q @ triple.theta2, out=blocks[:, triple.m1 :], optimize=True)
    det, sol = numkit.factor_solve(m, np.moveaxis(blocks, (0, 1), (2, 3)))
    det = det * np.exp(2j * np.trace(a).real * xs)[:, None]
    det *= np.exp(4.0 * np.trace(a2).imag * ts)
    mask = np.abs(det) < gbdt_core.SINGULAR_DET_FACTOR * np.max(np.abs(det))
    x2 = np.moveaxis(sol[..., triple.m1:], (2, 3), (0, 1))
    u = (_h(triple.theta1) @ np.ascontiguousarray(x2).reshape(triple.n, -1)).reshape(
        triple.m1, *x2.shape[1:]
    )
    u = -2j * np.moveaxis(u, (0, 1), (2, 3))
    u[mask] = np.nan + 1j * np.nan
    return u, m, det


@pytest.mark.parametrize(
    "triple",
    [
        make_random_triple(np.random.default_rng(71), 1, n=2, m1=1, m2=1),
        make_random_triple(np.random.default_rng(72), -1, n=4, m1=2, m2=2),
        gbdt_core.GbdtTriple(
            sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
        ),
    ],
    ids=["n2", "n4", "masked-column"],
)
def test_solution_field_matches_node_by_node_tables(triple):
    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.3, 6)
    field = gbdt_core.solution_field(triple, grid)
    u, m, det = _field_from_node_tables(triple, grid)
    assert field.u.tobytes() == u.tobytes()
    assert field.M.tobytes() == m.tobytes()
    assert field.detS.tobytes() == det.tobytes()


def _field_by_kronecker_solves(triple, field):
    """(u, M, det S) by one Kronecker Sylvester solve of the coupling
    right side theta1 theta1* + (-1)^kappa K K(-x, t)* per node, from the
    field's own K; det S as np.linalg.det of E(x, t) M E(-x, t)*, with the
    exponentials taken node by node."""
    a = triple.A
    a2 = a @ a
    k_field = field.K
    nx, nt = field.grid.nx, field.grid.nt
    m = np.empty_like(field.M)
    det = np.empty(field.detS.shape, dtype=complex)
    u = np.full_like(field.u, np.nan)
    for k in range(nx):
        for l in range(nt):
            rhs = gbdt_core.coupling_term(
                triple.kappa, triple.theta1, k_field[k, l], triple.theta1, k_field[-1 - k, l]
            )
            m[k, l] = triple.sylvester(rhs)
            x, t = field.grid.x_values[k], field.grid.t_values[l]
            e = numkit.expm(1j * (x * a - 2.0 * t * a2))
            e_mirror = numkit.expm(1j * (-x * a - 2.0 * t * a2))
            det[k, l] = np.linalg.det(e @ m[k, l] @ _h(e_mirror))
            if not field.singular_mask[k, l]:
                sol = np.linalg.solve(m[k, l], k_field[k, l])
                u[k, l] = -2j * _h(triple.theta1) @ sol
    return u, m, det


def _relative_gap(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize(
    "triple",
    [
        *(
            make_random_triple(np.random.default_rng(80 + n), sigma, n=n)
            for n in (1, 2, 4, 8)
            for sigma in (1, -1)
        ),
        gbdt_core.GbdtTriple(
            sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
        ),
    ],
    ids=[f"n{n}s{sigma:+d}" for n in (1, 2, 4, 8) for sigma in (1, -1)]
    + ["masked-column"],
)
def test_solution_field_matches_kronecker_solve_per_node(triple):
    """The sandwiched M agrees with the per-node Kronecker solve of the
    coupling identity A M + M A* = theta1 theta1* + (-1)^kappa K K(-x)*
    within 1e-13 relative.

    u and det S carry the error of M times the condition number of M
    (|d det| <= |det| ||M^-1|| ||dM||, and likewise for M^-1 K), so their
    1e-13 is scaled by the worst cond M over the unmasked nodes.
    """
    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.3, 6)
    field = gbdt_core.solution_field(triple, grid)
    u, m, det = _field_by_kronecker_solves(triple, field)
    assert _relative_gap(field.M, m) <= 1e-13
    keep = ~field.singular_mask
    assert np.array_equal(np.isnan(field.u), np.isnan(u))
    worst_cond = float(np.max(np.linalg.cond(m[keep])))
    assert _relative_gap(field.detS[keep], det[keep]) <= 1e-13 * worst_cond
    assert _relative_gap(field.u[keep], u[keep]) <= 1e-13 * worst_cond


@pytest.mark.parametrize(
    "triple",
    [
        *(
            make_random_triple(np.random.default_rng(110 + n), sigma, n=n, m1=2, m2=1)
            for n in (1, 2, 4)
            for sigma in (1, -1)
        ),
    ],
    ids=[f"n{n}s{sigma:+d}" for n in (1, 2, 4) for sigma in (1, -1)],
)
def test_grid_m_form_matches_the_pointwise_s(triple):
    """At sampled nodes, E(x, t) M E(-x, t)* is s_at's S, propagated on its
    own from the origin parts, and the field's det S, taken from det M and
    the closed-form phase, is np.linalg.det of that S, both to 1e-12
    relative."""
    grid = gbdt_core.Grid.build(1.5, 21, -0.3, 0.4, 15)
    field = gbdt_core.solution_field(triple, grid)
    a = triple.A
    a2 = a @ a
    rng = np.random.default_rng(120)
    for k, l in zip(rng.integers(0, grid.nx, 8), rng.integers(0, grid.nt, 8)):
        x, t = float(grid.x_values[k]), float(grid.t_values[l])
        s = gbdt_core.s_at(triple, x, t)
        e = numkit.expm(1j * (x * a - 2.0 * t * a2))
        e_mirror = numkit.expm(1j * (-x * a - 2.0 * t * a2))
        assert _relative_gap(e @ field.M[k, l] @ _h(e_mirror), s) <= 1e-12
        det = np.linalg.det(s)
        assert abs(field.detS[k, l] - det) <= 1e-12 * abs(det)


@pytest.mark.parametrize("n, m1, m2", [(1, 2, 1), (2, 2, 1), (8, 2, 1), (8, 1, 3)])
def test_field_products_match_per_node_matmul(n, m1, m2):
    """u = -2i theta1* X2 and the lower block -2i sigma K(-x)* X1 equal
    per-node np.matmul of the field's own solve M X = [theta1 K] to 1e-14
    relative; factor_solve gives the same X for the same stack."""
    triple = make_random_triple(np.random.default_rng(130 + n), -1, n=n, m1=m1, m2=m2)
    grid = gbdt_core.Grid.build(1.0, 11, -0.2, 0.2, 7)
    field = gbdt_core.solution_field(triple, grid)
    theta1 = np.broadcast_to(triple.theta1, field.K.shape[:-1] + (m1,))
    _, sol = numkit.factor_solve(field.M, np.concatenate([theta1, field.K], axis=-1))
    keep = ~field.singular_mask
    u = np.empty_like(field.u)
    lower = np.empty_like(field.lower)
    for k in range(grid.nx):
        for l in range(grid.nt):
            u[k, l] = -2j * (_h(triple.theta1) @ sol[k, l, :, m1:])
            lower[k, l] = 2j * (_h(field.K[-1 - k, l]) @ sol[k, l, :, :m1])
    for got, expected in ((field.u, u), (field.lower, lower)):
        gap = np.max(np.abs(got[keep] - expected[keep]))
        assert gap <= 1e-14 * np.max(np.abs(expected[keep]))


def test_solution_field_solves_two_right_hand_sides(monkeypatch):
    """A triple built with a supplied S0 has no origin parts yet: its first
    field builds the solver and puts Sigma1 and Sigma2 through it, and
    nothing else; a second field on the same triple none."""
    completed = make_random_triple(np.random.default_rng(90), -1, n=3)
    triple = gbdt_core.GbdtTriple(
        sigma=completed.sigma, A=completed.A, S0=completed.S0,
        theta1=completed.theta1, theta2=completed.theta2,
    )
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    builds, rhs = _count_sylvester(monkeypatch)
    gbdt_core.solution_field(triple, grid)
    assert len(builds) == 1 and rhs == [2]
    gbdt_core.solution_field(triple, grid.halved())
    assert len(builds) == 1 and rhs == [2]
    assert np.array_equal(triple.origin_parts, completed.origin_parts)


def test_origin_parts_sum_to_s0():
    """complete_triple takes S0 as Sigma1 + (-1)^kappa Sigma2, bit for bit;
    both parts are Hermitian and read-only."""
    for sigma in (1, -1):
        triple = make_random_triple(np.random.default_rng(91), sigma, n=4)
        sigma1, sigma2 = triple.origin_parts
        assert np.array_equal(sigma1, _h(sigma1))
        assert np.array_equal(sigma2, _h(sigma2))
        s0 = sigma1 + (-1) ** triple.kappa * sigma2
        assert np.array_equal(s0, triple.S0)
        assert not triple.origin_parts.flags.writeable


def test_origin_parts_are_not_cached_on_spectral_clash():
    triple = _clash_triple()
    for _ in range(2):
        with pytest.raises(SpectralClash):
            triple.origin_parts
