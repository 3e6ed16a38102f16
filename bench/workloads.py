"""Inputs, operations and correctness gates of the benchmark workloads.

An operation is one call into the package's public interface: a
``cli.main(["run", ...])`` on a scenario file, or one pointwise call
(``darboux_at``, ``s_via_integration``, ``wave_ode_residual``,
``periods_case_i``). Each operation carries a check, run outside the timed
region, and a digest of its output bytes. A pass runs every operation of a
workload once; a run makes at least two passes so that every operation is
repeated and its digest can be compared with the first repeat.

Why each workload exists and which layer it isolates: see NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from nnls_gbdt import ag_theta, cli, gbdt_core, numkit, verify
from nnls_gbdt.errors import DegenerateS, SpectralClash

from setup_probe import triple_args

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

#: A repeat of every operation is needed for the determinism gate.
MIN_PASSES = 2

ALL_CHECKS = ["pde", "identity", "mirror", "reduction", "oracle"]

# closed-form-grid: shipped parameters and x/t ranges on a 201x101 grid.
CLOSED_FORM_NX, CLOSED_FORM_NT = 201, 101

# matrix-grid: explicit data, no oracle, --refine 0 (pde still halves once).
MATRIX_GRID = {"x_max": 1.0, "nx": 101, "t_min": -0.25, "t_max": 0.25, "nt": 101}
MATRIX_CHECKS = ["pde", "identity", "mirror", "reduction"]
MATRIX_ORDERS = (2, 4, 8)
MATRIX_BLOCKS = 2

# pointwise: per random triple, darboux_at calls, s_via_integration calls
# and wave_ode_residual calls, at points drawn as in acceptance criteria 06
# and 07.
POINT_ORDERS = (1, 2, 4)
DARBOUX_PER_TRIPLE = 20
INTEGRALS_PER_TRIPLE = 4
WAVE_PER_TRIPLE = 2
INTEGRATION_STEPS = 400
PERIOD_BRANCH_SETS = ((-2.0, -1.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0))

# Correctness bounds, taken from the acceptance criteria they mirror.
S_ROUTE_GAP = 1e-7          # criterion 07
ORDER_BAND = (1.7, 2.3)     # criteria 01 and 06
PERIOD_GAP = 1e-9           # criterion 09


@dataclass
class Op:
    """One timed call with its untimed check and output digest."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    digest: Callable[[object], str]
    nodes: int
    sizes: Dict[str, int]
    prepare: Callable[[], None] = lambda: None
    scenario: Optional[Path] = None


@dataclass
class Outcome:
    name: str
    seconds: float
    problems: List[str]
    digest: Optional[str]


@dataclass
class Workload:
    """The operations of one pass, and the random triples behind pointwise
    calls (the set-up probe completes them)."""

    ops: List[Op]
    triples: List[dict] = field(default_factory=list)


# ---------------------------------------------------------------- checks


def check_scenario(out_dir: Path, exit_code, files, checks, levels) -> List[str]:
    """Problems with one scenario run: exit code, outputs, report verdicts.

    ``checks`` are the names the scenario requested, in order; ``levels`` is
    the expected number of grid levels, or None for theta data.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = [name for name in files if not (out_dir / name).is_file()]
    if missing:
        problems.append(f"missing outputs {missing}")
    if "report.json" in missing:
        return problems
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"unreadable report.json: {exc}"]
    if report.get("exit_code") != 0 or report.get("passed") is not True:
        problems.append("report.json does not record a pass")
    records = report.get("checks") or []
    if [r.get("name") for r in records] != list(checks):
        problems.append(f"report.json does not list the requested checks {list(checks)}")
    failed = [r.get("name") for r in records if r.get("passed") is not True]
    if failed:
        problems.append(f"failed checks {failed}")
    if levels is not None and report.get("grid", {}).get("levels") != levels:
        problems.append(f"expected {levels} grid levels in report.json")
    return problems


def digest_files(out_dir: Path, files) -> str:
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode())
        try:
            h.update((out_dir / name).read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_finite(*arrays) -> List[str]:
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else ["non-finite result"]


def check_orders(reports) -> List[str]:
    low, high = ORDER_BAND
    return [
        f"{r.name} order {r.order:.3f} outside [{low}, {high}]"
        for r in reports
        if not (r.order is not None and low <= r.order <= high)
    ]


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean, iterated to rounding level."""
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-16 * a:
            break
    return a


def period_oracle(points) -> complex:
    """Modular parameter of four real branch points, K(k')/K(k) by AGM."""
    e0, e1, e2, e3 = sorted(points)
    ksq = ((e2 - e1) * (e3 - e0)) / ((e2 - e0) * (e3 - e1))
    return 1j * agm(1.0, math.sqrt(1.0 - ksq)) / agm(1.0, math.sqrt(ksq))


def check_period(points, result) -> List[str]:
    tau, _ = result
    problems = []
    gap = abs(tau - period_oracle(points))
    if not gap <= PERIOD_GAP:
        problems.append(f"tau differs from the AGM oracle by {gap:.3e}")
    if not (abs(tau.real) <= 1e-8 and tau.imag > 0):
        problems.append(f"tau {tau!r} is not on the positive imaginary axis")
    return problems


# ----------------------------------------------------------- operations


def _level_nodes(nx: int, nt: int, levels: int) -> int:
    total = 0
    for _ in range(levels):
        total += nx * nt
        nx, nt = 2 * nx - 1, 2 * nt - 1
    return total


def scenario_op(name: str, document: dict, work_dir: Path, refine: int) -> Op:
    """``cli.main run`` on one scenario document written under work_dir."""
    folder = work_dir / name
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / "scenario.json"
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    out = folder / "out"
    argv = ["run", str(path), "--out", str(out), "--refine", str(refine)]

    args = triple_args(document["kind"], document["parameters"])
    grid = document.get("grid")
    checks = document["checks"]
    if args is None:
        files = ("report.json",)
        levels = None
        nodes = 0
        sizes = {}
    else:
        files = ("u.csv", "detS.csv", "report.json")
        # the pde check always compares against at least one halved grid
        levels = 1 + max(refine, 1 if "pde" in checks else 0)
        nodes = _level_nodes(grid["nx"], grid["nt"], levels)
        triple = gbdt_core.complete_triple(*args)
        sizes = {
            "n": triple.n, "m1": triple.m1, "m2": triple.m2,
            "nx": grid["nx"], "nt": grid["nt"], "levels": levels,
        }

    return Op(
        name=name,
        call=lambda: cli.main(argv),
        check=lambda code: check_scenario(out, code, files, checks, levels),
        digest=lambda code: digest_files(out, files),
        nodes=nodes,
        sizes=sizes,
        prepare=lambda: shutil.rmtree(out, ignore_errors=True),
        scenario=path,
    )


def _triple_sizes(triple) -> Dict[str, int]:
    return {"n": triple.n, "m1": triple.m1, "m2": triple.m2}


def darboux_op(name, triple, x, t, z) -> Op:
    return Op(
        name=name,
        call=lambda: gbdt_core.darboux_at(triple, x, t, z),
        check=lambda s: check_finite(s.wa, s.wb, s.wave),
        digest=lambda s: digest_arrays(s.wa, s.wb, s.wave),
        nodes=1,
        sizes=_triple_sizes(triple),
    )


def integral_op(name, triple, x, t) -> Op:
    def check(s):
        gap = float(np.linalg.norm(s - gbdt_core.s_at(triple, x, t)))
        return [] if gap <= S_ROUTE_GAP else [f"s_via_integration off s_at by {gap:.3e}"]

    return Op(
        name=name,
        call=lambda: gbdt_core.s_via_integration(triple, x, t, steps=INTEGRATION_STEPS),
        check=check,
        digest=digest_arrays,
        nodes=1,
        sizes=_triple_sizes(triple),
    )


def wave_op(name, triple, x, t, z) -> Op:
    return Op(
        name=name,
        call=lambda: verify.wave_ode_residual(triple, x, t, z),
        check=check_orders,
        digest=lambda reports: digest_arrays(
            np.array([[r.residual, r.order] for r in reports])
        ),
        nodes=1,
        sizes=_triple_sizes(triple),
    )


def period_op(name, points) -> Op:
    return Op(
        name=name,
        call=lambda: ag_theta.periods_case_i(ag_theta.classify_branch_points(points)),
        check=lambda result: check_period(points, result),
        digest=lambda result: digest_arrays(np.array(result)),
        nodes=0,
        sizes={},
    )


# -------------------------------------------------------------- inputs


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _cjson(matrix) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def _gbdt_params(triple) -> dict:
    return {
        "sigma": triple.sigma,
        "A": _cjson(triple.A),
        "theta1": _cjson(triple.theta1),
        "theta2": _cjson(triple.theta2),
    }


def _screened(triple, grid, det_ratio, u_max) -> bool:
    """No masked node, |det S| never below det_ratio of its peak, |u| <= u_max."""
    field = gbdt_core.solution_field(triple, grid)
    if field.singular_mask.any():
        return False
    dets = np.abs(field.detS)
    return dets.min() >= det_ratio * dets.max() and np.max(np.abs(field.u)) <= u_max


def draw_matrix_triple(rng, n: int, sigma: int):
    """A = 0.6 I + 0.35 G / sqrt(n), G standard complex Gaussian, m1 = m2 = 2.

    Screened on a 21x21 copy of the matrix-grid ranges so that no pole of
    u falls inside a finite-difference stencil.
    """
    screen = gbdt_core.Grid.build(
        MATRIX_GRID["x_max"], 21, MATRIX_GRID["t_min"], MATRIX_GRID["t_max"], 21
    )
    while True:
        g = _complex_normal(rng, (n, n)) / math.sqrt(2.0)
        a = 0.6 * np.eye(n) + 0.35 * g / math.sqrt(n)
        theta1 = _complex_normal(rng, (n, MATRIX_BLOCKS))
        theta2 = 0.3 * _complex_normal(rng, (n, MATRIX_BLOCKS))
        try:
            triple = gbdt_core.complete_triple(sigma, a, theta1, theta2)
        except (SpectralClash, DegenerateS):
            continue
        if _screened(triple, screen, 0.05, 5.0):
            return triple


def draw_point_triple(rng, n: int, sigma: int):
    """Random datum as in the test suite's make_random_triple, m1 = m2 = 1.

    Kept only with a spectral margin above 0.1 (criterion 07) and a smooth
    field over the sampled (x, t) box (criterion 06's ensemble screen).
    """
    screen = gbdt_core.Grid.build(2.0, 21, -0.5, 0.5, 21)
    while True:
        a = 0.35 * _complex_normal(rng, (n, n)) + 0.45 * np.eye(n)
        theta1 = _complex_normal(rng, (n, 1))
        theta2 = 0.3 * _complex_normal(rng, (n, 1))
        try:
            triple = gbdt_core.complete_triple(sigma, a, theta1, theta2)
        except (SpectralClash, DegenerateS):
            continue
        if numkit.spectral_margin(triple.A, triple.A.conj().T) <= 0.1:
            continue
        if _screened(triple, screen, 0.2, 3.0):
            return triple


def _point(rng):
    return float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.5, 0.5))


def _spectral_point(rng):
    z = complex(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.5), rng.uniform(-1.0, 1.0))
    return _point(rng) + (z,)


def _shipped(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))


def closed_form_grid(rng, work_dir: Path) -> Workload:
    """The three closed-form families with their shipped parameters.

    The seed only orders the operations; the data are the shipped ones.
    """
    ops = []
    for name in ("example1", "example2", "example3"):
        document = _shipped(name)
        document["grid"].update(nx=CLOSED_FORM_NX, nt=CLOSED_FORM_NT)
        document["checks"] = list(ALL_CHECKS)
        ops.append(scenario_op(name, document, work_dir, refine=1))
    return Workload(ops=ops)


def matrix_grid(rng, work_dir: Path) -> Workload:
    """The shipped gbdt datum plus seeded data at n = 2, 4, 8 and both signs."""
    documents = {"gbdt": _shipped("gbdt")["parameters"]}
    for n in MATRIX_ORDERS:
        for sigma in (1, -1):
            triple = draw_matrix_triple(rng, n, sigma)
            documents[f"n{n}s{sigma:+d}"] = _gbdt_params(triple)
    ops = [
        scenario_op(
            name,
            {"kind": "gbdt", "parameters": params, "grid": dict(MATRIX_GRID),
             "checks": list(MATRIX_CHECKS)},
            work_dir,
            refine=0,
        )
        for name, params in documents.items()
    ]
    return Workload(ops=ops)


def pointwise(rng, work_dir: Path) -> Workload:
    """Pointwise calls on seeded triples, the period computation, theta.json."""
    ops = []
    triples = []
    for n in POINT_ORDERS:
        for sigma in (1, -1):
            triple = draw_point_triple(rng, n, sigma)
            triples.append(_gbdt_params(triple))
            tag = f"n{n}s{sigma:+d}"
            points = [_spectral_point(rng) for _ in range(DARBOUX_PER_TRIPLE)]
            for k, (x, t, z) in enumerate(points):
                ops.append(darboux_op(f"{tag}.darboux.{k:02d}", triple, x, t, z))
            for k, (x, t, z) in enumerate(points[:WAVE_PER_TRIPLE]):
                ops.append(wave_op(f"{tag}.wave_ode.{k}", triple, x, t, z))
            for k in range(INTEGRALS_PER_TRIPLE):
                x, t = _point(rng)
                ops.append(integral_op(f"{tag}.s_integral.{k}", triple, x, t))
    for k, points in enumerate(PERIOD_BRANCH_SETS):
        ops.append(period_op(f"periods.{k}", points))
    ops.append(scenario_op("theta", _shipped("theta"), work_dir, refine=1))
    return Workload(ops=ops, triples=triples)


BUILDERS = {
    "closed-form-grid": closed_form_grid,
    "matrix-grid": matrix_grid,
    "pointwise": pointwise,
}


# -------------------------------------------------------------- running


def run_pass(ops: List[Op], order, check: bool = True) -> List[Outcome]:
    """Run every operation once in ``order``; only the call itself is timed.

    With ``check`` false the check is skipped and only the digest taken, so
    a traced pass makes no untraced library calls of its own.
    """
    outcomes = []
    for index in order:
        op = ops[index]
        op.prepare()
        start = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append(
                Outcome(op.name, time.perf_counter() - start,
                        [f"{type(exc).__name__}: {exc}"], None)
            )
            continue
        seconds = time.perf_counter() - start
        try:
            problems = op.check(value) if check else []
            digest = op.digest(value)
        except Exception as exc:  # a check that cannot run is a failed check
            problems, digest = [f"check raised {type(exc).__name__}: {exc}"], None
        outcomes.append(Outcome(op.name, seconds, problems, digest))
    return outcomes


def gate_digests(outcomes: List[Outcome], reference: Dict[str, str]) -> None:
    """Fail every outcome whose digest differs from the first repeat's."""
    for outcome in outcomes:
        if outcome.digest is None:
            continue
        first = reference.setdefault(outcome.name, outcome.digest)
        if outcome.digest != first:
            outcome.problems.append("output bytes differ from the first repeat")


def run_passes(ops, order, seconds, reference, check=True, passes=None):
    """Exactly ``passes`` passes when given; otherwise whole passes while the
    next one is expected to end within ``seconds``, and at least two."""
    done = []
    start = time.perf_counter()
    while True:
        outcomes = run_pass(ops, order, check)
        gate_digests(outcomes, reference)
        done.append(outcomes)
        if passes is not None:
            if len(done) >= passes:
                return done
            continue
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_PASSES and elapsed * (len(done) + 1) / len(done) > seconds:
            return done
