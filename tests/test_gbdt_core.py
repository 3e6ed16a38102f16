"""Tests of the transformation pipeline: data, grids, fields, Darboux algebra."""

import cmath
import math

import numpy as np
import pytest

from nnls_gbdt import gbdt_core, numkit, oracles
from nnls_gbdt.errors import (
    AsymmetricGrid,
    DegenerateS,
    DimensionMismatch,
    SingularPoint,
    SpectralClash,
    SpectralPole,
    UnsupportedSeed,
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


def test_validate_triple_entries(scalar_triple):
    report = gbdt_core.validate_triple(scalar_triple)
    assert report.passed
    assert report.entry("sylvester_margin").passed
    names = {e.name for e in report.entries}
    assert names == {"hermiticity", "determinant", "identity", "sylvester_margin"}
    with pytest.raises(KeyError):
        report.entry("missing")
    as_dict = report.as_dict()
    assert as_dict["identity"]["passed"] is True


def test_validate_triple_flags_broken_data(scalar_triple):
    skewed = gbdt_core.GbdtTriple(
        sigma=1, A=scalar_triple.A, S0=[[2.5 + 1j]],
        theta1=scalar_triple.theta1, theta2=scalar_triple.theta2,
    )
    report = gbdt_core.validate_triple(skewed)
    assert not report.entry("hermiticity").passed
    assert not report.passed

    clashing = gbdt_core.GbdtTriple(
        sigma=1, A=[[1j]], S0=[[1.0]], theta1=[[1.0]], theta2=[[1.0]]
    )
    clash_report = gbdt_core.validate_triple(clashing)
    assert not clash_report.entry("sylvester_margin").passed


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


def test_triple_factors_its_sylvester_map_once(monkeypatch):
    triple = gbdt_core.complete_triple(
        1, [[1.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]], [[0.0], [0.3]]
    )
    calls = []
    original = numkit.sylvester_solver

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(numkit, "sylvester_solver", counting)
    for k in range(20):
        gbdt_core.darboux_at(triple, 0.05 * k - 0.5, 0.1, 2.0 + 0.5j)
    for k in range(5):
        gbdt_core.s_at(triple, 0.1 * k, -0.1)
    assert len(calls) == 1


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
    triple = _clash_triple()
    sample = gbdt_core.darboux_at(triple, 0.3, 0.1, 1.0 + 0.5j)
    assert np.linalg.norm(sample.wa @ sample.wb - np.eye(2)) <= 1e-9


# ------------------------------------------------------------------- grids


def test_grid_build_basic():
    grid = gbdt_core.Grid.build(2.0, 5, -0.3, 0.5, 9)
    assert np.array_equal(grid.x_values, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert grid.nt == 9
    assert 0.0 in grid.t_values
    assert grid.hx == pytest.approx(1.0)
    assert grid.mirror(0) == 4 and grid.mirror(2) == 2


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


# ------------------------------------------------------------------- fields


def test_solution_field_matches_pointwise(jordan_triple, small_grid):
    field = gbdt_core.solution_field(jordan_triple, small_grid)
    assert field.u.shape == (small_grid.nx, small_grid.nt, 1, 1)
    assert field.S.shape == (small_grid.nx, small_grid.nt, 2, 2)
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
    assert np.array_equal(first.S, second.S)
    assert np.array_equal(first.detS, second.detS)


def test_solution_field_rejects_seed(scalar_triple, small_grid):
    with pytest.raises(UnsupportedSeed):
        gbdt_core.solution_field(scalar_triple, small_grid, seed="plane wave")


def test_solution_field_takes_one_stacked_exponential(monkeypatch):
    """The x table and both t tables come from a single numkit.expm call on
    nx + 2 nt matrices, not one call per node."""
    triple = make_random_triple(np.random.default_rng(70), 1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    calls = []
    original = numkit.expm

    def counting(m):
        calls.append(np.asarray(m).shape)
        return original(m)

    monkeypatch.setattr(numkit, "expm", counting)
    gbdt_core.solution_field(triple, grid)
    assert calls == [(grid.nx + 2 * grid.nt, 3, 3)]


def test_solution_field_factors_each_node_once(monkeypatch):
    """det S and the solve come from one numkit.factor_solve call on the
    whole stack, never from np.linalg.det or np.linalg.solve."""
    triple = make_random_triple(np.random.default_rng(73), -1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    triple.origin_parts
    calls = []
    original = numkit.factor_solve

    def counting(s, b):
        calls.append((np.shape(s), np.shape(b)))
        return original(s, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("solution_field called np.linalg")

    monkeypatch.setattr(numkit, "factor_solve", counting)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    gbdt_core.solution_field(triple, grid)
    assert calls == [((21, 11, 3, 3), (21, 11, 3, triple.m1 + triple.m2))]


def _field_from_node_tables(triple, grid):
    """(u, S, det S) by solution_field's steps, with every exponential of
    the x and t tables taken on its own.

    S is propagated from the origin parts by the same stacked products as
    in solution_field: a loop of per-node products would differ from those
    in the last bit at n = 2 and 3, where the BLAS kernel of the large
    product accumulates in another order. det S and the solve come from
    numkit.factor_solve on the whole stack for the same reason: its
    rounding at a node depends on where the node sits in the stack, so a
    per-node call is no bitwise reference.
    """
    xs, ts = grid.x_values, grid.t_values
    a = triple.A
    a2 = a @ a
    fx = np.array([numkit.expm(1j * x * a) for x in xs])
    gt = np.array([numkit.expm(-2j * t * a2) for t in ts])
    gti = np.array([numkit.expm(2j * t * a2) for t in ts])
    sigma1, sigma2 = triple.origin_parts
    mirror = np.arange(xs.size)[::-1]
    s = np.ascontiguousarray(gbdt_core._sandwich(fx, gt @ sigma1 @ _hs(gt), fx[mirror]))
    s += (-1.0) ** triple.kappa * gbdt_core._sandwich(
        fx[mirror], gti @ sigma2 @ _hs(gti), fx
    )
    pi1 = np.einsum("kab,lbc->klac", fx, gt @ triple.theta1, optimize=True)
    pi2 = np.einsum("kab,lbc->klac", fx[mirror], gti @ triple.theta2, optimize=True)
    det, sol = numkit.factor_solve(s, np.concatenate([pi1, pi2], axis=-1))
    mask = np.abs(det) < gbdt_core.SINGULAR_DET_FACTOR * np.max(np.abs(det))
    u = -2j * (_hs(pi1[mirror]) @ sol[..., triple.m1:])
    u[mask] = np.nan + 1j * np.nan
    return u, s, det


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
    u, s, det = _field_from_node_tables(triple, grid)
    assert field.u.tobytes() == u.tobytes()
    assert field.S.tobytes() == s.tobytes()
    assert field.detS.tobytes() == det.tobytes()


def _field_by_kronecker_solves(triple, field):
    """(u, S, det S) by one Kronecker Sylvester solve of the coupling
    right side per node, from the field's own Pi blocks."""
    pi1, pi2 = field.pi1, field.pi2
    nx, nt = field.grid.nx, field.grid.nt
    s = np.empty_like(field.S)
    for k in range(nx):
        for l in range(nt):
            rhs = gbdt_core.coupling_term(
                triple.kappa, pi1[k, l], pi2[k, l], pi1[-1 - k, l], pi2[-1 - k, l]
            )
            s[k, l] = triple.sylvester(rhs)
    det = np.linalg.det(s)
    u = np.full_like(field.u, np.nan)
    for k in range(nx):
        for l in range(nt):
            if not field.singular_mask[k, l]:
                sol = np.linalg.solve(s[k, l], pi2[k, l])
                u[k, l] = -2j * _h(pi1[-1 - k, l]) @ sol
    return u, s, det


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
    """The propagated S agrees with the per-node Kronecker solve of the
    coupling identity within 1e-13 relative.

    u and det S carry the error of S times the condition number of S
    (|d det| <= |det| ||S^-1|| ||dS||, and likewise for S^-1 Pi), so their
    1e-13 is scaled by the worst cond S over the unmasked nodes. At n = 8,
    where cond S reaches 1.6e4 on this grid, both routes' u and det S are
    off a 40-digit evaluation by up to 1.5e-13 and 1.7e-13 relative at
    nodes of cond S near 1.5e3.
    """
    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.3, 6)
    field = gbdt_core.solution_field(triple, grid)
    u, s, det = _field_by_kronecker_solves(triple, field)
    assert _relative_gap(field.S, s) <= 1e-13
    keep = ~field.singular_mask
    assert np.array_equal(np.isnan(field.u), np.isnan(u))
    worst_cond = float(np.max(np.linalg.cond(s[keep])))
    assert _relative_gap(field.detS[keep], det[keep]) <= 1e-13 * worst_cond
    assert _relative_gap(field.u[keep], u[keep]) <= 1e-13 * worst_cond


def test_solution_field_solves_two_right_hand_sides(monkeypatch):
    """A fresh field puts Sigma1 and Sigma2 through the triple's Sylvester
    solver, and nothing else; a second field on the same triple none."""
    triple = make_random_triple(np.random.default_rng(90), -1, n=3)
    grid = gbdt_core.Grid.build(1.0, 21, -0.2, 0.2, 11)
    rhs = []
    original = numkit.sylvester_solver

    def counting_solver(a, b):
        solve = original(a, b)

        def counting(c):
            rhs.append(int(np.prod(np.shape(c)[:-2])))
            return solve(c)

        return counting

    monkeypatch.setattr(numkit, "sylvester_solver", counting_solver)
    gbdt_core.solution_field(triple, grid)
    assert sum(rhs) == 2
    gbdt_core.solution_field(triple, grid.halved())
    assert sum(rhs) == 2


def test_origin_parts_sum_to_s0():
    """Sigma1 + (-1)^kappa Sigma2 solves the identity at the origin, so it
    is S0; both parts are Hermitian and read-only."""
    for sigma in (1, -1):
        triple = make_random_triple(np.random.default_rng(91), sigma, n=4)
        sigma1, sigma2 = triple.origin_parts
        assert np.array_equal(sigma1, _h(sigma1))
        assert np.array_equal(sigma2, _h(sigma2))
        s0 = sigma1 + (-1) ** triple.kappa * sigma2
        assert np.linalg.norm(s0 - triple.S0) <= 1e-13 * np.linalg.norm(triple.S0)
        assert not triple.origin_parts.flags.writeable


def test_origin_parts_are_not_cached_on_spectral_clash():
    triple = _clash_triple()
    for _ in range(2):
        with pytest.raises(SpectralClash):
            triple.origin_parts
