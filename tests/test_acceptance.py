"""Acceptance battery: one test per claim, one printed verdict per test.

Every test draws its data from frozen seeds, computes a residual or order
against the stated tolerance, prints a single summary line, and asserts.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_random_triple
from nnls_gbdt import ag_theta, cli, gbdt_core, numkit, oracles, verify
from nnls_gbdt.errors import DegenerateS, SpectralClash, SpectralPole
from nnls_gbdt.gbdt_core import Grid

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(number, label, ok, detail=""):
    state = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {label}: {state}{suffix}")
    assert ok, f"criterion {number:02d} {label}: {state}{suffix}"


def _h(m):
    return np.conj(m.T)


def _draw_field(rng, sigma, grid):
    """One random triple passing the admissibility screen for grid work,
    with its base-grid field and the reports of the tile checks.

    The screen rejects draws whose determinant dips too close to zero
    anywhere on the grid or whose solution peaks too high: zeros of det S
    between grid nodes would put a pole of u inside a finite-difference
    stencil and no convergence order is defined across a pole.
    """
    while True:
        try:
            triple = make_random_triple(rng, sigma)
        except (SpectralClash, DegenerateS):
            continue
        field, reports = verify.checked_level(triple, grid)
        if field.singular_mask.any():
            continue
        dets = np.abs(field.detS)
        if dets.min() < 0.2 * dets.max():
            continue
        if np.max(np.abs(field.u)) > 3.0:
            continue
        return triple, field, reports


@pytest.fixture(scope="module")
def ensemble():
    """Twenty admissible random triples per sign, with base-grid fields."""
    grid = Grid.build(x_max=2.0, nx=101, t_min=-0.5, t_max=0.5, nt=101)
    members = []
    for sigma, seed in ((1, 20240817), (-1, 20240818)):
        rng = np.random.default_rng(seed)
        members.extend(_draw_field(rng, sigma, grid) for _ in range(20))
    return grid, members


def test_criterion_01_pde_convergence(ensemble):
    grid, members = ensemble
    orders = []
    for triple, field, _ in members:
        fields = [field]
        g = grid
        for _ in range(2):
            g = g.halved()
            fields.append(gbdt_core.solution_field(triple, g))
        residuals = [
            verify.nnls_residual(f, triple.sigma).residual for f in fields
        ]
        orders.append(verify.estimate_order(residuals[0], residuals[1]))
        orders.append(verify.estimate_order(residuals[1], residuals[2]))
    ok = all(verify.ORDER_LOW <= p <= verify.ORDER_HIGH for p in orders)
    _report(
        1, "random-field pde convergence", ok,
        f"40 triples, orders {min(orders):.2f}..{max(orders):.2f}",
    )


def test_criterion_02_coupling_identity(ensemble):
    _, members = ensemble
    worst = max(
        reports["identity"].residual for _, _, reports in members
    )
    _report(2, "coupling identity on random fields", worst <= 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_03_mirror_and_reduction(ensemble):
    _, members = ensemble
    worst_mirror = max(
        reports["mirror"].residual for _, _, reports in members
    )
    worst_reduction = max(
        reports["reduction"].residual for _, _, reports in members
    )
    ok = worst_mirror <= 1e-10 and worst_reduction <= 1e-10
    _report(3, "mirror and reduction symmetries", ok,
            f"mirror {worst_mirror:.2e}, reduction {worst_reduction:.2e}")


def _closed_form_deviation(triple, oracle, grid):
    """Largest relative gap between the field and its closed form.

    The comparison is the runner's own oracle check; draws whose field has
    a masked node are skipped.
    """
    field = gbdt_core.solution_field(triple, grid)
    if field.singular_mask.any():
        return None
    return verify.oracle_residual(field, oracle).residual


def test_criterion_04_closed_forms_match_transform():
    rng = np.random.default_rng(20240819)
    grid = Grid.build(x_max=2.0, nx=41, t_min=-0.5, t_max=0.5, nt=41)

    def draw_complex(lo, hi):
        mag = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return mag * cmath.exp(1j * phase)

    def draw_a():
        re = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.3)
        return complex(re, rng.uniform(-1.0, 1.0))

    deviations = []
    for family in ("one", "two", "three"):
        done = 0
        while done < 5:
            kappa = int(rng.integers(0, 2))
            try:
                if family == "one":
                    p = oracles.Example1Params(
                        a=draw_a(), theta1=draw_complex(0.5, 2.0),
                        theta2=draw_complex(0.5, 2.0), kappa=kappa,
                    )
                elif family == "two":
                    p = oracles.Example2Params(
                        a=draw_a(), b=draw_complex(0.4, 1.5),
                        c=draw_complex(0.4, 1.5), kappa=kappa,
                    )
                else:
                    p = oracles.Example3Params(
                        a=draw_a(), b1=draw_complex(0.5, 1.5),
                        b2=draw_complex(0.5, 1.5), c=draw_complex(0.5, 1.5),
                        kappa=kappa,
                    )
                triple = gbdt_core.complete_triple(*p.datum())
            except (SpectralClash, DegenerateS):
                continue
            deviation = _closed_form_deviation(
                triple, cli.closed_form_oracle(p), grid
            )
            if deviation is None:
                continue
            deviations.append(deviation)
            done += 1
    worst = max(deviations)
    _report(4, "closed forms match the transform", worst <= 1e-9,
            f"15 draws, max relative gap {worst:.2e}")


def test_criterion_05_blowup_locations():
    params = oracles.Example1Params(a=1 + 1j, theta1=2.0, theta2=1.0, kappa=1)
    t_star = oracles.ex1_blowup_time(params)
    frozen = -math.log(4.0) / 16.0
    triple = gbdt_core.complete_triple(-1, [[params.a]], [[2.0]], [[1.0]])

    grid = Grid.build(x_max=2.0, nx=401, t_min=2.0 * t_star, t_max=0.0, nt=3)
    field = gbdt_core.solution_field(triple, grid)
    dets = np.abs(field.detS[:, 1])
    peak = float(dets.max())
    minima = [
        k
        for k in range(1, grid.nx - 1)
        if dets[k] <= dets[k - 1]
        and dets[k] <= dets[k + 1]
        and dets[k] < 1e-2 * peak
    ]

    def det_at(xx):
        return abs(np.linalg.det(gbdt_core.s_at(triple, float(xx), t_star)))

    refined = []
    for k in minima:
        x0 = float(grid.x_values[k])
        best = minimize_scalar(
            det_at, bounds=(x0 - 2 * grid.hx, x0 + 2 * grid.hx),
            method="bounded", options={"xatol": 1e-12},
        )
        refined.append((float(best.x), float(best.fun)))

    expected = [-math.pi / 2.0, 0.0, math.pi / 2.0]
    ok = (
        abs(t_star - frozen) <= 1e-12
        and len(refined) == 3
        and all(f < 1e-6 for _, f in refined)
        and all(
            abs(xr - xe) <= 1e-6
            for (xr, _), xe in zip(sorted(refined), expected)
        )
        and bool(field.singular_mask[grid.nx // 2, 1])
    )
    locations = ", ".join(f"{xr:+.6f}" for xr, _ in sorted(refined))
    _report(5, "blow-up time and singular set", ok,
            f"t* = {t_star:.6f}, zeros at x = [{locations}]")


def test_criterion_06_darboux_pair_and_wave_systems(ensemble):
    _, members = ensemble
    chosen = [members[i][0] for i in (0, 1, 2, 20, 21)]
    rng = np.random.default_rng(20240820)
    worst_inverse = 0.0
    worst_mirror = 0.0
    orders = []
    for triple in chosen:
        jk = triple.jk
        eye = np.eye(triple.m)
        samples = 0
        while samples < 50:
            x = float(rng.uniform(-2.0, 2.0))
            t = float(rng.uniform(-0.5, 0.5))
            z = complex(
                rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.5),
                rng.uniform(-1.0, 1.0),
            )
            try:
                sample = gbdt_core.darboux_at(triple, x, t, z)
                partner = gbdt_core.darboux_at(triple, -x, t, -np.conj(z))
            except SpectralPole:
                continue
            worst_inverse = max(
                worst_inverse,
                float(np.linalg.norm(sample.wa @ sample.wb - eye)),
            )
            worst_mirror = max(
                worst_mirror,
                float(np.linalg.norm(sample.wb - jk @ _h(partner.wa) @ jk)),
            )
            if samples < 3:
                rep_x, rep_t = verify.wave_ode_residual(triple, x, t, z)
                orders.extend([rep_x.order, rep_t.order])
            samples += 1
    ok = (
        worst_inverse <= 1e-9
        and worst_mirror <= 1e-9
        and all(verify.ORDER_LOW <= p <= verify.ORDER_HIGH for p in orders)
    )
    _report(
        6, "darboux inverse pair and wave systems", ok,
        f"inverse {worst_inverse:.2e}, mirror {worst_mirror:.2e}, "
        f"wave orders {min(orders):.2f}..{max(orders):.2f}",
    )


def test_criterion_07_dual_route_propagation():
    rng = np.random.default_rng(20240821)
    triples = [gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[1.0]])]
    for sigma in (1, -1):
        while True:
            try:
                candidate = make_random_triple(rng, sigma, n=2)
            except (SpectralClash, DegenerateS):
                continue
            if numkit.spectral_margin(candidate.A, np.conj(candidate.A)) > 0.1:
                triples.append(candidate)
                break
    worst = 0.0
    for triple in triples:
        for _ in range(50):
            x = float(rng.uniform(-2.0, 2.0))
            t = float(rng.uniform(-0.5, 0.5))
            closed = gbdt_core.s_at(triple, x, t)
            integrated = gbdt_core.s_via_integration(triple, x, t, steps=400)
            worst = max(worst, float(np.linalg.norm(closed - integrated)))
    _report(7, "propagation routes agree", worst <= 1e-7,
            f"150 points, max gap {worst:.2e}")


def test_criterion_08_theta_identities_and_families():
    failures = []

    frozen = 1.0864348112133082
    series = sum(
        cmath.exp(1j * math.pi * m * m * 1j) for m in range(-60, 61)
    )
    value = ag_theta.theta(0.0, 1j)
    if not (abs(value - frozen) <= 1e-9 and abs(value - series) <= 1e-12):
        failures.append("origin value")

    rng = np.random.default_rng(20240822)
    for tau in (0.6j, 0.8 + 0.7j):
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            left = ag_theta.theta(z + tau, tau)
            right = cmath.exp(
                -1j * math.pi * tau - 2j * math.pi * z
            ) * ag_theta.theta(z, tau)
            if abs(left - right) > 1e-11 * max(1.0, abs(right)):
                failures.append("quasi-periodicity")

    points = rng.uniform(-3, 3, size=4) + 1j * rng.uniform(-1, 1, size=4)
    branch = ag_theta.BranchData(E=tuple(points), case_label="unsupported")
    out = ag_theta.akns_constants(branch)
    coeffs = np.poly(points)
    c1 = coeffs[1] / 2.0
    c2 = -(c1 * c1) / 8.0 + coeffs[2] / 2.0
    if abs(out.c1 - c1) > 1e-12 or abs(out.c2 - c2) > 1e-12 * max(1.0, abs(c2)):
        failures.append("akns constants")

    rho = 0.8 * cmath.exp(0.4j)
    x = (np.arange(41) - 20) * 0.05
    u = np.full(41, rho)
    for sigma in (1, -1):
        constants = ag_theta.NnlsConstants(
            c1_tilde=0.0, c2_tilde=-sigma * abs(rho) ** 2 / 2.0, sigma=sigma
        )
        if verify.snnls_residual(u, constants, 0.05).residual > 1e-10:
            failures.append(f"constant family sigma={sigma}")
        residuals = []
        for h in (0.05, 0.025):
            xs = (np.arange(int(round(4.0 / h)) + 1)
                  - int(round(2.0 / h))) * h
            us = np.full(xs.size, rho)
            v1, v2, akns = ag_theta.lemma61_forward(xs, us, 1.0, sigma, constants)
            residuals.append(verify.sakns_residual(v1, v2, akns, h).residual)
        order = math.log2(residuals[0] / residuals[1])
        if not (verify.ORDER_LOW <= order <= verify.ORDER_HIGH):
            failures.append(f"twisted system order sigma={sigma}")

    branch = ag_theta.classify_branch_points([-2.0, -1.0, 1.0, 2.0])
    tau, _ = ag_theta.periods_case_i(branch)
    constants = ag_theta.akns_constants(branch)
    nu = 0.5
    alpha = math.sqrt(2.0 * (nu * nu / 4.0 - constants.c2.real))
    params = ag_theta.ThetaParams(
        tau=tau, A_theta=0.0, B_theta=-1j * nu / (2.0 * math.pi),
        Delta=tau, e0=0.0,
        C1=alpha * math.exp(-math.pi * tau.imag),
        C2=alpha * math.exp(-math.pi * tau.imag),
        chi=0,
    )
    report = verify.constraints_report(ag_theta.check_nnls_constraints(params))
    if not report.passed or report.entry("ratio_independence").value > 1e-8:
        failures.append("reduction constraints")
    closed_gap = max(
        abs(ag_theta.v_from_theta(params, xv)[0] - alpha * math.exp(nu * xv))
        for xv in np.linspace(-1.5, 1.5, 7)
    )
    if closed_gap > 1e-9:
        failures.append("theta-line closed form")
    snnls_res = []
    for h in (0.05, 0.025):
        xs = (np.arange(int(round(3.0 / h)) + 1) - int(round(1.5 / h))) * h
        v1 = np.array([ag_theta.v_from_theta(params, xv)[0] for xv in xs])
        nn = ag_theta.NnlsConstants(c1_tilde=0.0, c2_tilde=-2.5, sigma=1)
        snnls_res.append(verify.snnls_residual(v1, nn, h).residual)
    order = math.log2(snnls_res[0] / snnls_res[1])
    if not (verify.ORDER_LOW <= order <= verify.ORDER_HIGH):
        failures.append("theta-line equation order")

    _report(8, "theta identities and stationary families", not failures,
            "; ".join(failures) if failures else "7 groups clean")


def _agm(a, b):
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-16 * a:
            break
    return a


def test_criterion_09_periods_against_elliptic_oracle():
    gaps = []
    imag_ok = True
    for points in ([-2.0, -1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]):
        branch = ag_theta.classify_branch_points(points)
        tau, _ = ag_theta.periods_case_i(branch)
        e0, e1, e2, e3 = points
        ksq = ((e2 - e1) * (e3 - e0)) / ((e2 - e0) * (e3 - e1))
        oracle = 1j * _agm(1.0, math.sqrt(1.0 - ksq)) / _agm(1.0, math.sqrt(ksq))
        gaps.append(abs(tau - oracle))
        imag_ok = imag_ok and abs(tau.real) <= 1e-8 and tau.imag > 0
    worst = max(gaps)
    _report(9, "periods match the elliptic-integral oracle",
            worst <= 1e-9 and imag_ok, f"max gap {worst:.2e}")


def test_criterion_10_deterministic_runner(tmp_path):
    outputs = []
    for run in ("first", "second"):
        root = tmp_path / run
        scenario = cli.load_scenario(SCENARIO_DIR / "example1.json")
        code, _ = cli.run_scenario(scenario, root / "example1", refine=1)
        assert code == 0
        scenario = cli.load_scenario(SCENARIO_DIR / "theta.json")
        code, _ = cli.run_scenario(scenario, root / "theta", refine=1)
        assert code == 0
        outputs.append(
            {
                name: (root / name).read_bytes()
                for name in (
                    "example1/u.csv",
                    "example1/detS.csv",
                    "example1/report.json",
                    "theta/report.json",
                )
            }
        )
    _report(10, "runner output is deterministic", outputs[0] == outputs[1],
            "4 files byte-identical")
