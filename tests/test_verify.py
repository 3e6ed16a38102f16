"""Tests of the residual checks: positive cases, corrupted data, convergence."""

import dataclasses
import json

import numpy as np
import pytest

from nnls_gbdt import gbdt_core, verify
from nnls_gbdt.errors import GridTooSmall
from conftest import make_random_triple


@pytest.fixture(scope="module")
def scalar_field(scalar_triple):
    grid = gbdt_core.Grid.build(1.0, 41, -0.2, 0.2, 21)
    return gbdt_core.solution_field(scalar_triple, grid)


def test_estimate_order_values():
    assert verify.estimate_order(4.0, 1.0) == pytest.approx(2.0)
    assert verify.estimate_order(8.0, 1.0) == pytest.approx(3.0)
    assert verify.estimate_order(1.0, 1.0) == 0.0
    assert verify.estimate_order(0.0, 1.0) == float("-inf")
    assert verify.estimate_order(1.0, 0.0) == float("inf")


def test_pde_residual_second_order(scalar_triple, scalar_field):
    coarse = verify.nnls_residual(scalar_field, scalar_triple.sigma)
    fine_field = gbdt_core.solution_field(
        scalar_triple, scalar_field.grid.halved()
    )
    fine = verify.nnls_residual(fine_field, scalar_triple.sigma)
    assert coarse.points_used > 0 and coarse.points_skipped == 0
    order = verify.estimate_order(coarse.residual, fine.residual)
    assert verify.ORDER_LOW <= order <= verify.ORDER_HIGH


def test_pde_residual_rejects_wrong_field(scalar_triple, scalar_field):
    """u + 0.01 on two levels: the residual stops shrinking with the grid,
    so the pde record of the ruined field fails while the clean one passes."""
    fields = [
        scalar_field,
        gbdt_core.solution_field(scalar_triple, scalar_field.grid.halved()),
    ]
    sigma = scalar_triple.sigma
    clean = verify.pde_record([verify.nnls_residual(f, sigma) for f in fields])
    assert clean["passed"]
    ruined = verify.pde_record([
        verify.nnls_residual(dataclasses.replace(f, u=f.u + 0.01), sigma)
        for f in fields
    ])
    assert not ruined["passed"]
    assert not verify.ORDER_LOW <= ruined["orders"][0] <= verify.ORDER_HIGH
    assert min(level["residual"] for level in ruined["levels"]) > verify.EXACT_FLOOR


def test_pde_level_carries_no_verdict(scalar_triple, scalar_field):
    """A pde level states its residual and counts only; its record decides."""
    level = verify.nnls_residual(scalar_field, scalar_triple.sigma)
    assert level.passed is None and level.tolerance is None
    encoded = level.to_json_dict()
    assert "passed" not in encoded and "tolerance" not in encoded
    assert encoded["residual"] == level.residual


def test_pde_residual_needs_five_nodes(scalar_triple):
    grid = gbdt_core.Grid.build(1.0, 3, -0.1, 0.1, 5)
    field = gbdt_core.solution_field(scalar_triple, grid)
    with pytest.raises(GridTooSmall):
        verify.nnls_residual(field, scalar_triple.sigma)


def test_identity_residual_tight(scalar_triple, scalar_field):
    report = verify.identity_residual(scalar_triple, scalar_field)
    assert report.passed
    assert report.residual <= 1e-12


def test_identity_residual_detects_corruption(scalar_triple, scalar_field):
    bad = dataclasses.replace(scalar_field, M=scalar_field.M + 1e-6)
    report = verify.identity_residual(scalar_triple, bad)
    assert not report.passed


def test_mirror_residual(scalar_field):
    report = verify.hermitian_mirror_residual(scalar_field)
    assert report.passed and report.residual <= 1e-12

    swapped = dataclasses.replace(scalar_field, M=scalar_field.M + 1e-6 * 1j)
    assert not verify.hermitian_mirror_residual(swapped).passed


def test_mirror_residual_is_relative_to_m():
    """A benign datum whose M reaches ~5e10: its absolute mirror deviation
    is above the tolerance, yet it is rounding, at most 1.9e-13 of |M| node
    by node, where the products h T h(-x)* that make M meet no
    cancellation."""
    triple = make_random_triple(np.random.default_rng(8), -1, n=4)
    field = gbdt_core.solution_field(
        triple, gbdt_core.Grid.build(4.0, 41, -1.0, 1.0, 21)
    )
    m = field.M
    absolute = np.linalg.norm(m[::-1] - np.conj(np.swapaxes(m, -1, -2)), axis=(-2, -1))
    assert np.max(np.abs(m)) > 1e5 and np.max(absolute) > verify.DEFAULT_IDENTITY_TOL
    report = verify.hermitian_mirror_residual(field)
    assert report.passed
    assert report.residual <= 1e-12
    assert report.points_used == field.grid.nx * field.grid.nt


def _identity_reference(triple, field):
    """Largest per-node relative residual, one small matmul per node."""
    a = triple.A
    worst = 0.0
    for k in range(field.grid.nx):
        for l in range(field.grid.nt):
            m = field.M[k, l]
            rhs = gbdt_core.coupling_term(
                triple.kappa, triple.theta1, field.K[k, l],
                triple.theta1, field.K[-1 - k, l],
            )
            lhs = a @ m + m @ a.conj().T
            scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(m) + np.linalg.norm(rhs)
            worst = max(worst, np.linalg.norm(lhs - rhs) / max(scale, 1e-300))
    return worst


#: Block sizes and sign per order n of the identity product test.
_IDENTITY_CASES = {1: (2, 1, -1), 2: (1, 2, 1), 4: (2, 2, -1), 8: (3, 1, 1)}


@pytest.mark.parametrize("n", sorted(_IDENTITY_CASES))
def test_identity_residual_matches_per_node_products(n):
    """The whole-stack products against per-node A M + M A* and
    theta1 theta1* + (-1)^kappa K K(-x)*, on random M and K so the residual
    is O(1) and not rounding noise."""
    m1, m2, sigma = _IDENTITY_CASES[n]
    rng = np.random.default_rng(40 + n)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.2, 5)
    nodes = (grid.nx, grid.nt)
    triple = gbdt_core.GbdtTriple(
        sigma=sigma, A=cnormal(n, n), S0=cnormal(n, n),
        theta1=cnormal(n, m1), theta2=cnormal(n, m2),
    )
    field = gbdt_core.SolutionField(
        grid=grid,
        u=cnormal(*nodes, m1, m2),
        M=cnormal(*nodes, n, n),
        detS=cnormal(*nodes),
        singular_mask=np.zeros(nodes, dtype=bool),
        K=cnormal(*nodes, n, m2),
        lower=cnormal(*nodes, m2, m1),
    )
    expected = _identity_reference(triple, field)
    report = verify.identity_residual(triple, field)
    assert expected > 1e-3
    assert abs(report.residual - expected) <= 1e-14 * expected


@pytest.mark.parametrize("m1, m2", [(1, 1), (2, 1), (1, 3)])
def test_pde_residual_matches_per_node_products(m1, m2):
    """The cubic u u(-x)* u by node-last multiply-adds against per-node
    np.matmul, on a random u so the residual is O(1)."""
    rng = np.random.default_rng(50 + m1 + m2)
    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.2, 7)
    nodes = (grid.nx, grid.nt)
    u = rng.normal(size=(*nodes, m1, m2)) + 1j * rng.normal(size=(*nodes, m1, m2))
    field = gbdt_core.SolutionField(
        grid=grid, u=u, M=None, detS=None,
        singular_mask=np.zeros(nodes, dtype=bool), K=None, lower=None,
    )
    hx, ht = grid.hx, grid.ht
    worst = 0.0
    for k in range(1, grid.nx - 1):
        for l in range(1, grid.nt - 1):
            cubic = u[k, l] @ np.conj(u[-1 - k, l]).T @ u[k, l]
            u_t = (u[k, l + 1] - u[k, l - 1]) / (2.0 * ht)
            u_xx = (u[k + 1, l] - 2.0 * u[k, l] + u[k - 1, l]) / hx**2
            res = 1j * u_t - u_xx + 2.0 * -1 * cubic
            worst = max(worst, float(np.max(np.abs(res))))
    report = verify.nnls_residual(field, -1)
    assert report.points_used == (grid.nx - 2) * (grid.nt - 2)
    assert abs(report.residual - worst) <= 1e-14 * worst


def test_reduction_residual_both_branches():
    rng = np.random.default_rng(61)
    grid = gbdt_core.Grid.build(1.2, 17, -0.25, 0.25, 9)
    for sigma in (1, -1):
        triple = make_random_triple(rng, sigma, n=2, m1=1, m2=2)
        field = gbdt_core.solution_field(triple, grid)
        report = verify.reduction_residual(field, sigma)
        assert report.passed
        assert report.residual <= 1e-10


def test_reduction_residual_detects_corruption(scalar_triple, scalar_field):
    """The stored lower block is checked against u itself: a perturbed
    block or the other branch's sign fails."""
    sigma = scalar_triple.sigma
    assert verify.reduction_residual(scalar_field, sigma).residual <= 1e-12
    bad = dataclasses.replace(scalar_field, lower=scalar_field.lower + 1e-6)
    assert not verify.reduction_residual(bad, sigma).passed
    assert not verify.reduction_residual(scalar_field, -sigma).passed


def test_reduction_residual_is_relative(scalar_triple, scalar_field):
    """Scaling u and the lower block together by 1e6 leaves the verdict as
    it is and the residual at rounding level."""
    sigma = scalar_triple.sigma
    scaled = dataclasses.replace(
        scalar_field, u=1e6 * scalar_field.u, lower=1e6 * scalar_field.lower
    )
    for field in (scalar_field, scaled):
        report = verify.reduction_residual(field, sigma)
        assert report.passed
        assert report.residual <= 1e-12


def test_wave_ode_residuals_converge(scalar_triple, jordan_triple):
    for triple, z in ((scalar_triple, 1.0 + 0.5j), (jordan_triple, 0.5 - 0.3j)):
        report_x, report_t = verify.wave_ode_residual(triple, 0.4, 0.1, z)
        assert report_x.hx == report_t.ht == verify.WAVE_STEP == 1e-3
        assert report_x.passed and report_t.passed
        assert 1.7 <= report_x.order <= 2.3
        assert 1.7 <= report_t.order <= 2.3


def test_wave_ode_residual_evaluates_the_centre_once(jordan_triple, monkeypatch):
    """w(x, t) and xi(x, t) once per pair: 1 + 2 * 4 Darboux samples over
    the two step sizes, which carry the potential too, and two propagated
    S per sample, S(x, t) and the S(-x, t) of the reduction darboux_at
    asserts."""
    counts = {"darboux_at": 0, "xi_tilde_at": 0, "_propagated_s": 0}
    for name in counts:
        original = getattr(gbdt_core, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gbdt_core, name, counting)
    verify.wave_ode_residual(jordan_triple, 0.4, 0.1, 0.5 - 0.3j)
    assert counts == {"darboux_at": 9, "xi_tilde_at": 0, "_propagated_s": 18}


def _hand_darboux_residuals(triple, x, t, z):
    """The inverse and reduction residuals, absolute, from two darboux_at
    samples, as test_darboux_inverse_pair, test_darboux_reflected_conjugate_inverse
    and acceptance criterion 06 compute them, with the norms they are
    relative to."""
    sample = gbdt_core.darboux_at(triple, x, t, z)
    partner = gbdt_core.darboux_at(triple, -x, t, -np.conj(z))
    jk = triple.jk
    inverse = np.linalg.norm(sample.wa @ sample.wb - np.eye(triple.m))
    mirror = np.linalg.norm(sample.wb - jk @ partner.wa.conj().T @ jk)
    return (
        (inverse, max(1.0, np.linalg.norm(sample.wa) * np.linalg.norm(sample.wb))),
        (mirror, max(1.0, np.linalg.norm(sample.wb))),
    )


def test_darboux_residual_matches_the_hand_computations(
    scalar_triple, scalar_focusing_triple, jordan_triple
):
    rng = np.random.default_rng(40)
    random4 = make_random_triple(np.random.default_rng(7), -1, n=4, m1=2, m2=1)
    for triple in (scalar_triple, scalar_focusing_triple, jordan_triple, random4):
        for _ in range(5):
            x = float(rng.uniform(-1.5, 1.5))
            t = float(rng.uniform(-0.3, 0.3))
            z = complex(rng.normal(), rng.normal()) + 3.0
            reports = verify.darboux_residual(triple, x, t, z)
            hand = _hand_darboux_residuals(triple, x, t, z)
            for report, name, (absolute, scale) in zip(
                reports, ("darboux_inverse", "darboux_reduction"), hand
            ):
                assert report.name == name
                assert report.tolerance == gbdt_core.DARBOUX_TOL == 1e-9
                assert report.passed and report.points_used == 1
                assert report.residual == pytest.approx(absolute / scale, rel=1e-12, abs=1e-300)
                assert absolute <= 1e-9


@pytest.mark.parametrize(
    "entry, inverse_fails, reduction_fails",
    [((0, 0), True, False), ((0, 1), True, True)],
    ids=["hermitian", "not-hermitian"],
)
def test_darboux_residual_fails_corrupted_origin_parts(
    jordan_triple, entry, inverse_fails, reduction_fails
):
    """S propagated from a perturbed Sigma1 no longer solves the coupling
    identity, so the pair stops being mutually inverse; when the
    perturbation is not Hermitian, S(-x, t) = S(x, t)* breaks too, and with
    it the reduction."""
    triple = dataclasses.replace(jordan_triple)
    corrupted = jordan_triple.origin_parts.copy()
    corrupted[(0, *entry)] += 1e-3
    vars(triple)["origin_parts"] = corrupted
    inverse, reduction = verify.darboux_residual(triple, 0.4, 0.1, 2.0 + 0.5j)
    assert inverse.passed is not inverse_fails
    assert reduction.passed is not reduction_fails
    assert max(inverse.residual, reduction.residual) > 1e-6


def test_residual_report_json_round_trip():
    report = verify.ResidualReport(
        name="demo", hx=0.1, ht=0.05, residual=float("inf"),
        order=None, passed=False, tolerance=0.05,
        points_used=12, points_skipped=3,
    )
    encoded = report.to_json_dict()
    assert encoded["residual"] == repr(float("inf"))
    assert encoded["order"] is None
    assert encoded["tolerance"] == 0.05
    assert encoded["points_used"] == 12
    assert encoded["points_skipped"] == 3
    assert json.loads(json.dumps(encoded)) == encoded
