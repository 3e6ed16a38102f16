"""Tests of the residual checks: positive cases, corrupted data, convergence."""

import cmath
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from nnls_gbdt import gbdt_core, numkit, verify
from nnls_gbdt.errors import DarbouxMismatch, GridTooSmall
from conftest import field_with_stacks, make_random_triple


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


def _changed_report(name, triple, grid, change):
    """The report of the tile check ``name`` on the level of ``grid``, fed
    each tile as ``change`` returns it."""
    check = verify.TileCheck(name, triple, grid)
    gbdt_core.solution_field(triple, grid, [lambda tile: check(change(tile))])
    return check.report()


def test_identity_residual_tight(scalar_triple, scalar_field):
    report = verify.checked_level(scalar_triple, scalar_field.grid)[1]["identity"]
    assert report.passed
    assert report.residual <= 1e-12
    assert report.points_used == scalar_field.grid.nx * scalar_field.grid.nt


def test_identity_residual_detects_corruption(scalar_triple, scalar_field):
    """A corrupted tile M fails identity."""
    report = _changed_report(
        "identity", scalar_triple, scalar_field.grid,
        lambda tile: dataclasses.replace(tile, M=tile.M + 1e-6),
    )
    assert not report.passed


def test_mirror_residual(scalar_triple, scalar_field):
    """The mirror check passes the field and fails a corrupted tile M."""
    report = verify.checked_level(scalar_triple, scalar_field.grid)[1]["mirror"]
    assert report.passed and report.residual <= 1e-12
    swapped = _changed_report(
        "mirror", scalar_triple, scalar_field.grid,
        lambda tile: dataclasses.replace(tile, M=tile.M + 1e-6 * 1j),
    )
    assert not swapped.passed


def test_mirror_residual_is_relative_to_m():
    """A benign datum whose M reaches ~5e10: its absolute mirror deviation
    is above the tolerance, yet it is rounding, at most 1.9e-13 of |M| node
    by node, where the products h T h(-x)* that make M meet no
    cancellation."""
    triple = make_random_triple(np.random.default_rng(8), -1, n=4)
    field, m, _ = field_with_stacks(triple, gbdt_core.Grid.build(4.0, 41, -1.0, 1.0, 21))
    absolute = np.linalg.norm(m[::-1] - np.conj(np.swapaxes(m, -1, -2)), axis=(-2, -1))
    assert np.max(np.abs(m)) > 1e5 and np.max(absolute) > verify.DEFAULT_IDENTITY_TOL
    report = verify.checked_level(triple, field.grid)[1]["mirror"]
    assert report.passed
    assert report.residual <= 1e-12
    assert report.points_used == field.grid.nx * field.grid.nt


def test_identity_and_mirror_see_a_change_at_a_huge_m():
    """|M| reaches 1.6e155 at one node, where the squares of its entries
    leave double range. Multiplying M there by 1 + 1e-6 fails identity and
    mirror: the node's scale is its finite norm, not inf, which would read
    the residual as 0. Neither check warns, on the clean or the changed
    field."""
    triple = gbdt_core.complete_triple(1, [[10 * cmath.exp(0.25j * math.pi)]], [[1.0]], [[1.0]])
    grid = gbdt_core.Grid.build(0.5, 5, -0.45, 0.0, 4)
    _, m, _ = field_with_stacks(triple, grid)
    node = np.unravel_index(np.argmax(np.abs(m[..., 0, 0])), m.shape[:2])
    assert abs(m[node][0, 0]) > 1e155

    def change(tile):
        changed = tile.M.copy()
        changed[list(tile.rows).index(node[0]), node[1]] *= 1 + 1e-6
        return dataclasses.replace(tile, M=changed)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = verify.checked_level(triple, grid, ["identity", "mirror"])[1]
        assert clean["identity"].passed and clean["mirror"].passed
        identity = _changed_report("identity", triple, grid, change)
        mirror = _changed_report("mirror", triple, grid, change)
    assert not identity.passed and identity.residual > 1e-7
    assert not mirror.passed and mirror.residual > 1e-7


def _identity_reference(triple, tile):
    """Largest per-node relative residual, one small matmul per node."""
    a = triple.A
    worst = 0.0
    for k in range(tile.M.shape[0]):
        for l in range(tile.M.shape[1]):
            m = tile.M[k, l]
            rhs = gbdt_core.coupling_term(
                triple.kappa, triple.theta1, tile.K[k, l],
                triple.theta1, tile.K[-1 - k, l],
            )
            lhs = a @ m + m @ a.conj().T
            scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(m) + np.linalg.norm(rhs)
            worst = max(worst, np.linalg.norm(lhs - rhs) / max(scale, 1e-300))
    return worst


#: Block sizes and sign per order n of the identity product test.
_IDENTITY_CASES = {1: (2, 1, -1), 2: (1, 2, 1), 4: (2, 2, -1), 8: (3, 1, 1)}


@pytest.mark.parametrize("n", sorted(_IDENTITY_CASES))
def test_identity_residual_matches_per_node_products(n):
    """The whole-tile products against per-node A M + M A* and
    theta1 theta1* + (-1)^kappa K K(-x)*, on a tile of every row with
    random M and K so the residual is O(1) and not rounding noise."""
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
    m = cnormal(*nodes, n, n)
    tile = gbdt_core.FieldTile(
        rows=np.arange(grid.nx), M=m, K=cnormal(*nodes, n, m2),
        factors=numkit.lu_factor(m), u=cnormal(*nodes, m1, m2),
        singular_mask=np.zeros(nodes, dtype=bool),
    )
    expected = _identity_reference(triple, tile)
    check = verify.TileCheck("identity", triple, grid)
    check(tile)
    report = check.report()
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
        grid=grid, u=u, singular_mask=np.zeros(nodes, dtype=bool), detS=None,
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
        report = verify.checked_level(triple, grid)[1]["reduction"]
        assert report.passed
        assert report.residual <= 1e-10


def test_reduction_residual_detects_corruption(scalar_triple, scalar_field):
    """The lower block, from the tile's own solve for theta1, is checked
    against u itself: a corrupted u(-x), or a theta1 solve with corrupted
    factors, fails."""
    triple, grid = scalar_triple, scalar_field.grid
    assert verify.checked_level(triple, grid)[1]["reduction"].residual <= 1e-12
    changes = [
        lambda tile: dataclasses.replace(tile, u=tile.u + 1e-6),
        lambda tile: dataclasses.replace(tile, factors=numkit.lu_factor(tile.M + 1e-6)),
    ]
    for change in changes:
        assert not _changed_report("reduction", triple, grid, change).passed


def test_reduction_residual_is_relative(scalar_triple, scalar_field):
    """Scaling u and K, so the lower block, together by 1e6 leaves the
    verdict as it is and the residual at rounding level."""
    triple, grid = scalar_triple, scalar_field.grid
    for scale in (1.0, 1e6):
        report = _changed_report(
            "reduction", triple, grid,
            lambda tile: dataclasses.replace(tile, u=scale * tile.u, K=scale * tile.K),
        )
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
    """w(x, t) and xi(x, t) once for both step sizes: one spectral_samples
    call on 1 + 2 * 4 points, the centre first, then east, west, north and
    south at h and at h / 2. The stack takes one numkit.expm call of 36
    matrices, one propagated S and 4 solves: numkit.expm's Pade solve,
    (A - zI)^{-1} Pi, S^{-1} [Pi, (A - zI)^{-1} Pi] and
    (A* + zI)^{-1} S^{-1} Pi. No darboux_at, so no S(-x, t) for the pair's
    reduction."""
    counts = {"darboux_at": 0, "xi_tilde_at": 0, "_propagated_s": 0, "solve": 0}
    stacks, exponentials = [], []
    for name in ("darboux_at", "xi_tilde_at", "_propagated_s"):
        original = getattr(gbdt_core, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gbdt_core, name, counting)
    original_samples = gbdt_core.spectral_samples
    original_solve = np.linalg.solve
    original_expm = gbdt_core.numkit.expm

    def sampling(triple, xs, ts, z):
        stacks.append(list(zip(xs, ts)))
        return original_samples(triple, xs, ts, z)

    def solving(a, b):
        counts["solve"] += 1
        return original_solve(a, b)

    def exponentiating(m):
        exponentials.append(np.shape(m))
        return original_expm(m)

    monkeypatch.setattr(gbdt_core, "spectral_samples", sampling)
    monkeypatch.setattr(np.linalg, "solve", solving)
    monkeypatch.setattr(gbdt_core.numkit, "expm", exponentiating)
    x, t, h = 0.4, 0.1, verify.WAVE_STEP
    verify.wave_ode_residual(jordan_triple, x, t, 0.5 - 0.3j)
    assert counts == {"darboux_at": 0, "xi_tilde_at": 0, "_propagated_s": 1, "solve": 4}
    assert exponentials == [(36, 2, 2)]
    assert stacks == [[
        (x, t),
        (x + h, t), (x - h, t), (x, t + h), (x, t - h),
        (x + h / 2, t), (x - h / 2, t), (x, t + h / 2), (x, t - h / 2),
    ]]


def _wave_reports_from_single_samples(triple, x, t, z):
    """wave_ode_residual's reports from nine single spectral_sample calls,
    in the order the check evaluates them, as the check built them before
    it took one stack of samples."""
    z = complex(z)
    j = triple.j

    def residuals(h, centre):
        east = gbdt_core.spectral_sample(triple, x + h, t, z)
        west = gbdt_core.spectral_sample(triple, x - h, t, z)
        north = gbdt_core.spectral_sample(triple, x, t + h, z)
        south = gbdt_core.spectral_sample(triple, x, t - h, z)
        w0, xi = centre.wave, centre.xi
        d_w = (east.wave - west.wave) / (2.0 * h)
        res_x = float(np.max(np.abs(d_w - (-1j * z * j - j @ xi) @ w0)))
        d_w = (north.wave - south.wave) / (2.0 * h)
        xi_x = (east.xi - west.xi) / (2.0 * h)
        f = 2j * z**2 * j + 2.0 * z * (j @ xi) - 1j * (j @ xi @ xi - xi_x)
        res_t = float(np.max(np.abs(d_w - f @ w0)))
        return res_x, res_t

    h = verify.WAVE_STEP
    centre = gbdt_core.spectral_sample(triple, x, t, z)
    rx_h, rt_h = residuals(h, centre)
    rx_h2, rt_h2 = residuals(h / 2.0, centre)
    return (
        verify._at_point("wave_x", rx_h, verify.DEFAULT_PDE_TOL, hx=h,
                         order=verify.estimate_order(rx_h, rx_h2)),
        verify._at_point("wave_t", rt_h, verify.DEFAULT_PDE_TOL, ht=h,
                         order=verify.estimate_order(rt_h, rt_h2)),
    )


def test_wave_ode_residual_matches_single_samples(scalar_triple, jordan_triple):
    """The stacked samples give the reports nine single samples give, to
    the last bit, on random data of orders 1, 2 and 4 and both signs."""
    rng = np.random.default_rng(63)
    triples = [(scalar_triple, 1.0 + 0.5j), (jordan_triple, 0.5 - 0.3j)]
    for n in (1, 2, 4):
        for sigma in (1, -1):
            triple = make_random_triple(rng, sigma, n=n, m1=2, m2=1)
            triples.append((triple, complex(rng.uniform(2.0, 3.5), rng.uniform(-1.0, 1.0))))
    for triple, z in triples:
        x, t = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.3, 0.3))
        reports = verify.wave_ode_residual(triple, x, t, z)
        assert reports == _wave_reports_from_single_samples(triple, x, t, z)


def test_only_darboux_at_asserts_the_pair(jordan_triple):
    """On S propagated from a perturbed Sigma1 the pair fails: darboux_at
    raises and darboux_residual reports the failure, while the wave
    function and its check, which build the same sample, return."""
    triple = dataclasses.replace(jordan_triple)
    corrupted = jordan_triple.origin_parts.copy()
    corrupted[0, 0, 0] += 1e-3
    vars(triple)["origin_parts"] = corrupted
    x, t, z = 0.4, 0.1, 2.0 + 0.5j
    with pytest.raises(DarbouxMismatch):
        gbdt_core.darboux_at(triple, x, t, z)
    assert not all(r.passed for r in verify.darboux_residual(triple, x, t, z))
    reports = verify.wave_ode_residual(triple, x, t, z)
    assert [r.name for r in reports] == ["wave_x", "wave_t"]
    wave = gbdt_core.wave_at(triple, x, t, z)
    assert wave.tobytes() == gbdt_core.spectral_sample(triple, x, t, z).wave.tobytes()


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
