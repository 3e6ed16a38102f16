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
    InvalidRange,
    Overflow,
    RangeExceeded,
    SingularPoint,
    SpectralClash,
    SpectralPole,
)
from conftest import field_with_stacks, make_random_triple


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


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_sylvester_margin_entry_agrees_with_the_solver(factor):
    """A = diag(d + i, 1) has the margin 2 d; just below and just above
    numkit.clash_threshold the margin entry fails exactly when the solver
    raises SpectralClash, at the same threshold."""
    base = np.diag([1j, 1.0])
    d = factor * numkit.clash_threshold(base, _h(base)) / 2.0
    a = np.diag([d + 1j, 1.0])
    triple = gbdt_core.GbdtTriple(
        sigma=1, A=a, S0=np.eye(2), theta1=np.ones((2, 1)), theta2=np.ones((2, 1)),
    )
    entry = verify.validate_triple(triple).entry("sylvester_margin")
    assert entry.value == pytest.approx(2.0 * d, rel=1e-12)
    assert entry.tolerance == numkit.clash_threshold(a, _h(a))
    try:
        numkit.sylvester_solver(a, _h(a))
        clashed = False
    except SpectralClash:
        clashed = True
    assert clashed is (factor < 1.0)
    assert entry.passed is not clashed


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


def _count_sample_work(monkeypatch):
    """Patch the propagation of S, np.linalg.det and np.linalg.solve to
    count their calls."""
    calls = {"propagated": 0, "det": 0, "solve": 0}

    def counting(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(gbdt_core, "_propagated_s", counting("propagated", gbdt_core._propagated_s))
    monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    return calls


def test_spectral_sample_propagates_s_once_and_factors_it_twice(jordan_triple, monkeypatch):
    """One propagated S, factored by the determinant floor and by one solve
    of [Pi, (A - zI)^{-1} Pi]; the other solves are numkit.expm's Pade
    solve, (A - zI)^{-1} Pi and (A* + zI)^{-1} S^{-1} Pi. darboux_at builds
    the same sample, bit for bit."""
    calls = _count_sample_work(monkeypatch)
    sample = gbdt_core.spectral_sample(jordan_triple, 0.4, 0.1, 2.0 + 0.5j)
    assert calls == {"propagated": 1, "det": 1, "solve": 4}
    _assert_same_sample(sample, gbdt_core.darboux_at(jordan_triple, 0.4, 0.1, 2.0 + 0.5j))


def test_spectral_samples_take_one_sample_s_work_for_the_stack(jordan_triple, monkeypatch):
    """Nine points cost what one does: one propagation of S for the stack,
    one determinant floor and four stacked solves."""
    calls = _count_sample_work(monkeypatch)
    xs = [0.4] + [0.1 * k for k in range(1, 9)]
    sample = gbdt_core.spectral_samples(jordan_triple, xs, [0.1] * 9, 2.0 + 0.5j)[0]
    assert calls == {"propagated": 1, "det": 1, "solve": 4}
    _assert_same_sample(sample, gbdt_core.darboux_at(jordan_triple, 0.4, 0.1, 2.0 + 0.5j))


def _assert_same_sample(sample, reference):
    for name in ("wa", "wb", "wave", "xi"):
        assert getattr(sample, name).tobytes() == getattr(reference, name).tobytes()


def _points_and_z(rng, count):
    xs = [float(v) for v in rng.uniform(-1.5, 1.5, count)]
    ts = [float(v) for v in rng.uniform(-0.4, 0.4, count)]
    z = complex(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.5), rng.uniform(-1.0, 1.0))
    return xs, ts, z


def test_spectral_samples_match_single_samples():
    """Each sample of a stack is, byte for byte, spectral_sample at its
    point, for n = 1, 2, 4, both signs and blocks m1, m2 <= 2."""
    rng = np.random.default_rng(64)
    for n in (1, 2, 4):
        for sigma in (1, -1):
            for m1 in (1, 2):
                for m2 in (1, 2):
                    triple = make_random_triple(rng, sigma, n=n, m1=m1, m2=m2)
                    xs, ts, z = _points_and_z(rng, 7)
                    stacked = gbdt_core.spectral_samples(triple, xs, ts, z)
                    assert len(stacked) == 7
                    for sample, x, t in zip(stacked, xs, ts):
                        single = gbdt_core.spectral_sample(triple, x, t, z)
                        assert (sample.x, sample.t, sample.z) == (x, t, z)
                        _assert_same_sample(sample, single)


def test_spectral_samples_raise_at_the_first_singular_point():
    """S = i sin(2x) here, singular on x = 0: the stack raises for the
    first singular point in its order, with that point's (x, t)."""
    triple = gbdt_core.GbdtTriple(
        sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    z = 2.0 + 0.5j
    for xs, ts, first in (
        ([0.3, 0.0, 0.0], [0.1, 0.2, -0.1], 1),
        ([0.0, 0.3, 0.0], [-0.1, 0.1, 0.2], 0),
    ):
        with pytest.raises(SingularPoint) as raised:
            gbdt_core.spectral_samples(triple, xs, ts, z)
        assert (raised.value.x, raised.value.t) == (xs[first], ts[first])
        assert f"x={xs[first]!r}, t={ts[first]!r}" in str(raised.value)
    with pytest.raises(DimensionMismatch):
        gbdt_core.spectral_samples(triple, [0.1, 0.2], [0.1], z)


def test_spectral_samples_raise_spectral_pole(scalar_triple):
    for z in (1.0, -1.0):
        with pytest.raises(SpectralPole):
            gbdt_core.spectral_samples(scalar_triple, [0.1, 0.2], [0.0, 0.1], z)


def test_spectral_samples_integrate_s_per_point_on_spectral_clash(monkeypatch):
    """On the clash triple every point of the stack takes S from
    s_via_integration, once each, and matches its single sample."""
    triple = _clash_triple()
    xs, ts, z = [0.3, -0.2, 0.1], [0.1, 0.05, -0.02], 1.0 + 0.5j
    calls = []
    original = gbdt_core.s_via_integration

    def integrating(triple, x, t, steps=400):
        calls.append((x, t))
        return original(triple, x, t, steps)

    monkeypatch.setattr(gbdt_core, "s_via_integration", integrating)
    stacked = gbdt_core.spectral_samples(triple, xs, ts, z)
    assert calls == list(zip(xs, ts))
    for sample, x, t in zip(stacked, xs, ts):
        _assert_same_sample(sample, gbdt_core.spectral_sample(triple, x, t, z))


def test_u_tilde_at_is_the_top_right_block_of_xi(jordan_triple):
    xi = gbdt_core.xi_tilde_at(jordan_triple, 0.4, 0.1)
    u = gbdt_core.u_tilde_at(jordan_triple, 0.4, 0.1)
    assert u.tobytes() == xi[:1, 1:].tobytes()


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


def test_complete_triple_takes_one_eigvals(monkeypatch):
    """The Sylvester solver's spectral margin takes A's spectrum and reads
    A*'s as its conjugate; completion applies only the determinant floor
    and takes no further spectrum."""
    calls = []
    original = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    gbdt_core.complete_triple(1, [[1.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]], [[0.0], [0.3]])
    assert calls == [(2, 2)]


def test_supplied_s0_used_pointwise_takes_two_eigvals(jordan_triple, monkeypatch):
    """validate_triple's margin reads the cached spectrum of A, one eigvals;
    the Sylvester solver of the origin parts takes A's and reads A*'s as
    its conjugate; the pole test of the Darboux sample reads the cache
    again."""
    triple = gbdt_core.GbdtTriple(
        sigma=jordan_triple.sigma, A=jordan_triple.A, S0=jordan_triple.S0,
        theta1=jordan_triple.theta1, theta2=jordan_triple.theta2,
    )
    calls = []
    original = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert verify.validate_triple(triple).passed
    gbdt_core.darboux_at(triple, 0.4, 0.1, 2.0 + 0.5j)
    assert calls == [(2, 2)] * 2


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
    """One numkit.expm call for both legs: the four tables e^{-+2ik(t/N)A^2}
    and e^{+-ik(x/N)A} over 401 nodes, 21 steps and 19 strides each."""
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    gbdt_core.s_via_integration(jordan_triple, 0.7, 0.3, steps=400)
    assert calls == [(4, 40, 2, 2)]


@pytest.mark.parametrize(
    "x, t, steps",
    [(math.nan, 0.3, 400), (0.7, math.inf, 400), (0.7, 0.3, 0), (0.7, 0.3, -2)],
    ids=["nan-x", "inf-t", "zero-steps", "negative-steps"],
)
def test_s_via_integration_refuses_before_any_exponential(jordan_triple, monkeypatch, x, t, steps):
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    with pytest.raises(InvalidRange):
        gbdt_core.s_via_integration(jordan_triple, x, t, steps=steps)
    assert calls == []


def test_s_via_integration_rounds_odd_steps_up(jordan_triple):
    for odd, even in ((399, 400), (1, 2), (7, 8)):
        got = gbdt_core.s_via_integration(jordan_triple, 0.7, 0.3, steps=odd)
        expected = gbdt_core.s_via_integration(jordan_triple, 0.7, 0.3, steps=even)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("x, t", [(400.0, 0.1), (0.1, 200.0)], ids=["x-leg", "t-leg"])
def test_s_via_integration_leg_beyond_expm_range_overflows(jordan_triple, monkeypatch, x, t):
    """A leg whose last exponent has 1-norm beyond 700 (||A||_1 = 2,
    ||A^2||_1 = 3) is refused before its strides are exponentiated."""
    calls = []
    monkeypatch.setattr(numkit, "expm", lambda m: calls.append(m))
    with pytest.raises(Overflow):
        gbdt_core.s_via_integration(jordan_triple, x, t)
    assert calls == []


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
    shapes = []
    field = gbdt_core.solution_field(
        jordan_triple, small_grid, [lambda tile: shapes.append((tile.M.shape, tile.K.shape))]
    )
    assert field.u.shape == (small_grid.nx, small_grid.nt, 1, 1)
    assert shapes == [((small_grid.nx, small_grid.nt, 2, 2), (small_grid.nx, small_grid.nt, 2, 1))]
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


def test_extending_the_grid_keeps_the_mask_on_shared_nodes():
    """A node's flag depends on that node alone. Wide-t example1, whose
    |det S| drifts over 11 decades in t, masks no node on t in [-3, 3] nor
    on t in [-3, 4.5]; the standing zero of det S at x = 0 stays masked on
    every t of a longer grid."""
    wide = gbdt_core.complete_triple(
        *oracles.Example1Params(a=1 + 1j, theta1=2.0, theta2=1.0, kappa=1).datum()
    )
    column = gbdt_core.GbdtTriple(
        sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    cases = [
        (wide, (2.0, 41, -3.0, 3.0, 61), (2.0, 41, -3.0, 4.5, 76), 0),
        (column, (1.0, 9, -0.2, 0.2, 5), (1.0, 9, -0.2, 0.6, 9), 5),
    ]
    for triple, short_args, long_args, masked in cases:
        short = gbdt_core.Grid.build(*short_args)
        long = gbdt_core.Grid.build(*long_args)
        assert np.array_equal(long.t_values[: short.nt], short.t_values)
        short_mask = gbdt_core.solution_field(triple, short).singular_mask
        long_mask = gbdt_core.solution_field(triple, long).singular_mask
        assert int(short_mask.sum()) == masked
        assert np.array_equal(long_mask[:, : short.nt], short_mask)


def test_solution_field_masks_no_node_of_a_huge_m():
    """|M| reaches 1.6e155 at t = -0.45, where the squares of its entries
    leave double range; the mask scale is still that node's norm, so no
    node is masked and u is finite."""
    triple = gbdt_core.complete_triple(1, [[10 * cmath.exp(0.25j * math.pi)]], [[1.0]], [[1.0]])
    field, m, _ = field_with_stacks(triple, gbdt_core.Grid.build(0.5, 5, -0.45, 0.0, 4))
    assert np.abs(m).max() > 1e155
    assert not field.singular_mask.any()
    assert np.isfinite(field.u).all()


_RANDOM_GRID = (1.0, 41, -0.25, 0.25, 21)

_SAMPLE_CASES = {
    f"n{n}": (make_random_triple(np.random.default_rng(seed), 1, n=n, m1=m1, m2=m2), _RANDOM_GRID)
    for n, m1, m2, seed in ((1, 1, 1, 90), (2, 2, 1, 90), (4, 2, 2, 90), (8, 2, 2, 92))
} | {
    "example3": (
        gbdt_core.complete_triple(
            *oracles.Example3Params(a=1.0, b1=2.0, b2=1.0, c=1.0, kappa=0).datum()
        ),
        (2.0, 41, -0.4, 0.4, 21),
    ),
    "masked-column": (
        gbdt_core.GbdtTriple(sigma=-1, A=[[1.0]], S0=[[0.0]], theta1=[[1.0]], theta2=[[1.0]]),
        (1.0, 11, -0.2, 0.2, 5),
    ),
    "huge-m": (
        gbdt_core.complete_triple(1, [[10 * cmath.exp(0.25j * math.pi)]], [[1.0]], [[1.0]]),
        (0.5, 5, -0.45, 0.0, 4),
    ),
}


def _tiled_level(triple, grid, pairs, monkeypatch):
    """solution_field's level in tiles of ``pairs`` mirror pairs of x rows
    (None: the default tile), with every tile check's report and the rows
    of each tile it handed them."""
    if pairs is not None:
        monkeypatch.setattr(gbdt_core, "_TILE_NODES", pairs * 2 * grid.nt * triple.n)
    tiles = []
    checks = [verify.TileCheck(name, triple, grid) for name in verify.TILE_CHECKS]
    field = gbdt_core.solution_field(triple, grid, [lambda tile: tiles.append(tile.rows)] + checks)
    return field, [check.report() for check in checks], tiles


@pytest.mark.parametrize("rows", [None, 1, 3, 10**6], ids=["default", "1row", "3rows", "all"])
@pytest.mark.parametrize("case", list(_SAMPLE_CASES))
def test_solution_samples_equal_solution_field_bit_for_bit(case, rows, monkeypatch):
    """Tile invariance of the one grid route: solution_field's samples (u,
    det S and the mask) and every tile check's report are the bytes of
    the level built as one tile, for the default tile, tiles of one
    mirror pair of x rows, of three pairs (which divide none of the row
    counts) and of the whole level. Each tile is mirror-closed, rows k and
    nx - 1 - k together, and the tiles cover every row once. The data
    cover n = 1, 2, 4, 8, m1 != m2 (example3), a masked column and an M
    whose squared entries leave double range, where the mask's scale is
    taken by hypot."""
    triple, grid_args = _SAMPLE_CASES[case]
    grid = gbdt_core.Grid.build(*grid_args)
    whole, whole_reports, [whole_rows] = _tiled_level(triple, grid, 10**6, monkeypatch)
    assert np.array_equal(whole_rows, np.arange(grid.nx))
    field, reports, tiles = _tiled_level(triple, grid, rows, monkeypatch)
    assert field.grid is grid
    assert field.u.shape == whole.u.shape
    for got, expected in ((field.u, whole.u), (field.detS, whole.detS)):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    assert np.array_equal(field.singular_mask, whole.singular_mask)
    assert reports == whole_reports
    # the masked column's M is 0 at x = 0, where identity reads 1 relative
    assert [report.passed for report in reports] == [case != "masked-column", True, True]
    assert field.singular_mask.any() == (case == "masked-column")
    for tile in tiles:
        assert np.array_equal(tile[::-1], grid.nx - 1 - tile)
    assert np.array_equal(np.sort(np.concatenate(tiles)), np.arange(grid.nx))
    if rows == 1:
        assert len(tiles) == (grid.nx + 1) // 2
    if case == "huge-m":
        assert np.abs(field_with_stacks(triple, grid)[1]).max() > 1e155


@pytest.mark.parametrize("rows", [1, 3, 10**6], ids=["1row", "3rows", "all"])
@pytest.mark.parametrize("case", list(_SAMPLE_CASES))
def test_grid_products_of_a_tile_equal_the_whole_level_rows(case, rows):
    """K, the sandwich and u formed for a tile of x rows are the whole
    level's rows bit for bit, since each is a product of fixed shape per x
    row or per node. Tiles of one row, of three rows (which divide none of
    the row counts) and of more rows than the level has; u from random
    solves under the field's mask."""
    triple, grid_args = _SAMPLE_CASES[case]
    grid = gbdt_core.Grid.build(*grid_args)
    h, q = gbdt_core._tables(triple, grid)
    mid = q @ triple.origin_parts[1] @ _hs(q)
    mask = gbdt_core.solution_field(triple, grid).singular_mask
    rng = np.random.default_rng(60)
    shape = (grid.nx, grid.nt, triple.n, triple.m2)
    x2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    k = gbdt_core._right_sides(triple, h, q)
    m = gbdt_core._sandwich(h, mid, h[::-1])
    u = gbdt_core._u(triple, x2, mask)

    def same(a, b):
        return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

    for lo in range(0, grid.nx, rows):
        tile = slice(lo, lo + rows)
        assert same(gbdt_core._right_sides(triple, h[tile], q), k[tile])
        assert same(gbdt_core._sandwich(h[tile], mid, h[::-1][tile]), m[:, :, tile])
        assert same(gbdt_core._u(triple, x2[tile], mask[tile]), u[tile])


@pytest.mark.parametrize("later_value_error", [False, True])
def test_solution_field_holds_an_overflow_for_a_later_value_error(
    later_value_error, monkeypatch
):
    """det S is formed from det M once every tile is factored and solved,
    so a non-finite operand in any tile raises numkit's ValueError before
    the Overflow of an earlier tile's det S, as when the level is one
    tile. One mirror pair per tile, with the first tile's det M out of
    range: solution_field raises the second tile's ValueError when its
    right sides are not finite, and else the Overflow once every tile has
    gone to the checks."""
    triple, grid_args = _SAMPLE_CASES["n2"]
    grid = gbdt_core.Grid.build(*grid_args)
    monkeypatch.setattr(gbdt_core, "_TILE_NODES", 1)
    original_right_sides, original_factor = gbdt_core._right_sides, numkit.lu_factor
    sides, calls, checked = [], [], []

    def right_sides(triple, h, q):
        sides.append(h.shape[0])
        k = original_right_sides(triple, h, q)
        return np.full_like(k, np.inf) if len(sides) == 2 and later_value_error else k

    def factor(m):
        calls.append(m.shape[0])
        factors = original_factor(m)
        if len(calls) == 1:
            return dataclasses.replace(factors, det=np.full_like(factors.det, 1e308) * 10)
        return factors

    monkeypatch.setattr(gbdt_core, "_right_sides", right_sides)
    monkeypatch.setattr(numkit, "lu_factor", factor)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError if later_value_error else Overflow):
            gbdt_core.solution_field(triple, grid, [lambda tile: checked.append(tile.rows)])
    half = (grid.nx + 1) // 2
    assert calls == ([2, 2] if later_value_error else [2] * (half - 1) + [1])
    assert len(checked) == (1 if later_value_error else half)


def test_solution_field_deterministic(wide_triple, small_grid):
    first, m_first, k_first = field_with_stacks(wide_triple, small_grid)
    second, m_second, k_second = field_with_stacks(wide_triple, small_grid)
    assert np.array_equal(first.u, second.u, equal_nan=True)
    assert np.array_equal(m_first, m_second)
    assert np.array_equal(k_first, k_second)
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
    """det M and the solve come from one numkit.lu_factor of the level's
    one tile and one numkit.lu_solve of K, never from np.linalg.det or
    np.linalg.solve on the node stack; with no reduction check, theta1 is
    never solved for. numkit.expm's Pade solve on the (nx + nt, n, n)
    table stack is no node operand and may call np.linalg.solve."""
    triple = make_random_triple(np.random.default_rng(73), -1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    triple.origin_parts
    calls = []
    original_factor, original_lu_solve = numkit.lu_factor, numkit.lu_solve
    original_solve = np.linalg.solve

    def factoring(s):
        calls.append(np.shape(s))
        return original_factor(s)

    def solving(factors, b):
        calls.append((factors.shape, np.shape(b)))
        return original_lu_solve(factors, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("solution_field called np.linalg")

    def solve_off_nodes(a, b):
        if np.shape(a)[:2] == (21, 11) or np.shape(b)[:2] == (21, 11):
            raise AssertionError("solution_field called np.linalg.solve on the nodes")
        return original_solve(a, b)

    monkeypatch.setattr(numkit, "lu_factor", factoring)
    monkeypatch.setattr(numkit, "lu_solve", solving)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", solve_off_nodes)
    verify.checked_level(triple, grid, ["identity", "mirror"])
    assert calls == [(21, 11, 3, 3), ((21, 11, 3, 3), (21, 11, 3, triple.m2))]


def _field_from_node_tables(triple, grid):
    """(u, M, det S) by solution_field's steps, with every exponential of
    the x and t tables taken on its own.

    M comes from the same stacked sandwich as in solution_field: a loop of
    per-node products would differ from those in the last bit at n = 2 and
    3, where the BLAS kernel of the large product accumulates in another
    order. det M and the solve come from numkit.lu_factor and lu_solve
    on the whole stack, the one tile of these small levels.
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
    # K[k, l] = h[k] q[l] theta2, one (n, n) @ (n, m2 nt) product per x row
    qt = (q @ triple.theta2).transpose(1, 2, 0).reshape(triple.n, -1)
    k = (h @ qt).reshape(xs.size, triple.n, triple.m2, ts.size)
    factors = numkit.lu_factor(m)
    det, pivot = factors.det, factors.pivot
    x2 = numkit.lu_solve(factors, k.transpose(0, 3, 1, 2))
    det = det * np.exp(2j * np.trace(a).real * xs)[:, None]
    det *= np.exp(4.0 * np.trace(a2).imag * ts)
    # each node against its own scale ||Sigma1|| + ||M - Sigma1||
    scale = np.linalg.norm(sigma1) + np.linalg.norm(m - sigma1, axis=(-2, -1))
    mask = pivot <= gbdt_core.SINGULAR_PIVOT_FACTOR * scale
    # u = -2i theta1* X2 by multiply-adds, node by node
    u = -2j * numkit.stack_matmul(_h(triple.theta1), x2)
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
    field, m_field, _ = field_with_stacks(triple, grid)
    u, m, det = _field_from_node_tables(triple, grid)
    assert field.u.tobytes() == u.tobytes()
    assert m_field.tobytes() == m.tobytes()
    assert field.detS.tobytes() == det.tobytes()


def _field_by_kronecker_solves(triple, field, k_field):
    """(u, M, det S) by one Kronecker Sylvester solve of the coupling
    right side theta1 theta1* + (-1)^kappa K K(-x, t)* per node, from the
    field's own K; det S as np.linalg.det of E(x, t) M E(-x, t)*, with the
    exponentials taken node by node."""
    a = triple.A
    a2 = a @ a
    nx, nt = field.grid.nx, field.grid.nt
    m = np.empty(k_field.shape[:-1] + (triple.n,), dtype=complex)
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
    field, m_field, k_field = field_with_stacks(triple, grid)
    u, m, det = _field_by_kronecker_solves(triple, field, k_field)
    assert _relative_gap(m_field, m) <= 1e-13
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
    field, m_field, _ = field_with_stacks(triple, grid)
    a = triple.A
    a2 = a @ a
    rng = np.random.default_rng(120)
    for k, l in zip(rng.integers(0, grid.nx, 8), rng.integers(0, grid.nt, 8)):
        x, t = float(grid.x_values[k]), float(grid.t_values[l])
        s = gbdt_core.s_at(triple, x, t)
        e = numkit.expm(1j * (x * a - 2.0 * t * a2))
        e_mirror = numkit.expm(1j * (-x * a - 2.0 * t * a2))
        assert _relative_gap(e @ m_field[k, l] @ _h(e_mirror), s) <= 1e-12
        det = np.linalg.det(s)
        assert abs(field.detS[k, l] - det) <= 1e-12 * abs(det)


@pytest.mark.parametrize("n, m1, m2", [(1, 2, 1), (2, 2, 1), (8, 2, 1), (8, 1, 3)])
def test_field_products_match_per_node_matmul(n, m1, m2):
    """u = -2i theta1* X2 and the reduction check's lower block
    -2i sigma K(-x)* X1 equal per-node np.matmul of the solves M X2 = K and
    M X1 = theta1 to 1e-14 relative; the factors give the same X for the
    same stack. The lower block is read through reduction_residual's gaps
    against a random u, so each gap is O(1) and not rounding noise."""
    triple = make_random_triple(np.random.default_rng(130 + n), -1, n=n, m1=m1, m2=m2)
    grid = gbdt_core.Grid.build(1.0, 11, -0.2, 0.2, 7)
    tiles = []
    field = gbdt_core.solution_field(triple, grid, [tiles.append])
    [tile] = tiles
    x1 = numkit.lu_solve(tile.factors, np.broadcast_to(triple.theta1, tile.K.shape[:-1] + (m1,)))
    x2 = numkit.lu_solve(tile.factors, tile.K)
    keep = ~field.singular_mask
    rng = np.random.default_rng(131)
    random_u = rng.normal(size=field.u.shape) + 1j * rng.normal(size=field.u.shape)
    u = np.empty_like(field.u)
    gap = np.empty(keep.shape)
    for k in range(grid.nx):
        for l in range(grid.nt):
            u[k, l] = -2j * (_h(triple.theta1) @ x2[k, l])
            lower = 2j * (_h(tile.K[-1 - k, l]) @ x1[k, l])
            gap[k, l] = np.linalg.norm(lower - _h(random_u[-1 - k, l]))
    assert np.max(np.abs(field.u[keep] - u[keep])) <= 1e-14 * np.max(np.abs(u[keep]))
    changed = dataclasses.replace(tile, u=random_u, singular_mask=np.zeros_like(keep))
    got, _ = verify.reduction_residual(triple, changed)
    assert np.max(np.abs(got - gap.ravel())) <= 1e-14 * np.max(gap)


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
