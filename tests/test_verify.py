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
    assert 1.7 <= order <= 2.3


def test_pde_residual_rejects_wrong_field(scalar_triple, scalar_field):
    ruined = gbdt_core.SolutionField(
        grid=scalar_field.grid,
        u=scalar_field.u + 0.01,
        S=scalar_field.S,
        detS=scalar_field.detS,
        singular_mask=scalar_field.singular_mask,
        pi1=scalar_field.pi1,
        pi2=scalar_field.pi2,
        lower=scalar_field.lower,
    )
    report = verify.nnls_residual(ruined, scalar_triple.sigma)
    assert not report.passed
    assert report.residual > verify.DEFAULT_PDE_TOL


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
    bad = gbdt_core.SolutionField(
        grid=scalar_field.grid,
        u=scalar_field.u,
        S=scalar_field.S + 1e-6,
        detS=scalar_field.detS,
        singular_mask=scalar_field.singular_mask,
        pi1=scalar_field.pi1,
        pi2=scalar_field.pi2,
        lower=scalar_field.lower,
    )
    report = verify.identity_residual(scalar_triple, bad)
    assert not report.passed


def test_mirror_residual(scalar_field):
    report = verify.hermitian_mirror_residual(scalar_field)
    assert report.passed and report.residual <= 1e-12

    swapped = gbdt_core.SolutionField(
        grid=scalar_field.grid,
        u=scalar_field.u,
        S=scalar_field.S + 1e-6 * 1j,
        detS=scalar_field.detS,
        singular_mask=scalar_field.singular_mask,
        pi1=scalar_field.pi1,
        pi2=scalar_field.pi2,
        lower=scalar_field.lower,
    )
    assert not verify.hermitian_mirror_residual(swapped).passed


def test_mirror_residual_is_relative_to_s():
    """A benign datum whose S reaches ~1e5: its absolute mirror deviation
    (7.4e-10) is rounding, about 2e-15 of |S| node by node."""
    triple = make_random_triple(np.random.default_rng(8), -1, n=4)
    field = gbdt_core.solution_field(
        triple, gbdt_core.Grid.build(4.0, 41, -1.0, 1.0, 21)
    )
    s = field.S
    absolute = np.linalg.norm(s[::-1] - np.conj(np.swapaxes(s, -1, -2)), axis=(-2, -1))
    assert np.max(np.abs(s)) > 1e5 and np.max(absolute) > verify.DEFAULT_IDENTITY_TOL
    report = verify.hermitian_mirror_residual(field)
    assert report.passed
    assert report.residual <= 1e-13
    assert report.points_used == field.grid.nx * field.grid.nt


def _identity_reference(triple, field):
    """Largest per-node relative residual, one small matmul per node."""
    a = triple.A
    worst = 0.0
    for k in range(field.grid.nx):
        for l in range(field.grid.nt):
            s = field.S[k, l]
            rhs = gbdt_core.coupling_term(
                triple.kappa, field.pi1[k, l], field.pi2[k, l],
                field.pi1[-1 - k, l], field.pi2[-1 - k, l],
            )
            lhs = a @ s + s @ a.conj().T
            scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(s) + np.linalg.norm(rhs)
            worst = max(worst, np.linalg.norm(lhs - rhs) / max(scale, 1e-300))
    return worst


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_identity_residual_matches_per_node_products(n):
    """The whole-stack products against per-node A S + S A*, on random S so
    the residual is O(1) and not rounding noise."""
    rng = np.random.default_rng(40 + n)
    m1 = max(1, n // 2)
    m2 = max(1, n - m1)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    grid = gbdt_core.Grid.build(1.0, 9, -0.2, 0.2, 5)
    nodes = (grid.nx, grid.nt)
    triple = gbdt_core.GbdtTriple(
        sigma=-1, A=cnormal(n, n), S0=cnormal(n, n),
        theta1=cnormal(n, m1), theta2=cnormal(n, m2),
    )
    field = gbdt_core.SolutionField(
        grid=grid,
        u=cnormal(*nodes, m1, m2),
        S=cnormal(*nodes, n, n),
        detS=cnormal(*nodes),
        singular_mask=np.zeros(nodes, dtype=bool),
        pi1=cnormal(*nodes, n, m1),
        pi2=cnormal(*nodes, n, m2),
        lower=cnormal(*nodes, m2, m1),
    )
    expected = _identity_reference(triple, field)
    report = verify.identity_residual(triple, field)
    assert expected > 1e-3
    assert abs(report.residual - expected) <= 1e-14 * expected


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
        report_x, report_t = verify.wave_ode_residual(
            triple, 0.4, 0.1, z, h=1e-3
        )
        assert report_x.passed and report_t.passed
        assert 1.7 <= report_x.order <= 2.3
        assert 1.7 <= report_t.order <= 2.3


def test_wave_ode_residual_evaluates_the_centre_once(jordan_triple, monkeypatch):
    """w(x, t) and xi(x, t) once per pair: 1 + 2 * 4 Darboux and
    1 + 2 * 2 potential evaluations over the two step sizes."""
    counts = {"darboux_at": 0, "xi_tilde_at": 0}
    for name in counts:
        original = getattr(gbdt_core, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gbdt_core, name, counting)
    verify.wave_ode_residual(jordan_triple, 0.4, 0.1, 0.5 - 0.3j)
    assert counts == {"darboux_at": 9, "xi_tilde_at": 5}


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
