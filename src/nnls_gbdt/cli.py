"""Scenario runner: construct a solution, write it out, check it.

A scenario file names a construction (an explicit transformation datum,
one of the closed-form families, or theta-quotient data), an evaluation
grid, and a list of checks.  The runner writes the field to CSV, every
check outcome to a JSON report, and communicates the overall outcome
through the exit code:

    0  all requested checks passed
    1  at least one check failed
    2  the construction data failed validation
    3  the scenario itself is malformed (schema, grid, or range errors)

Outputs are deterministic: running the same scenario twice produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import jsonschema
import numpy as np

from . import ag_theta, gbdt_core, oracles, verify
from .errors import DegenerateS, NnlsGbdtError, RangeExceeded, SchemaError
from .gbdt_core import GbdtTriple, Grid, SolutionField

#: Checks each scenario kind supports, in their default running order.
KIND_CHECKS = {
    "gbdt": ("pde", "identity", "mirror", "reduction"),
    "example1": ("pde", "identity", "mirror", "reduction", "oracle"),
    "example2": ("pde", "identity", "mirror", "reduction", "oracle"),
    "example3": ("pde", "identity", "mirror", "reduction", "oracle"),
    "theta": ("constraints",),
}

#: Relative tolerance of the oracle comparison.
ORACLE_TOL = 1e-9

#: Convergence-order band accepted by the pde check.
ORDER_LOW = 1.7
ORDER_HIGH = 2.3

#: Residual size under which the pde check passes without an order estimate.
EXACT_FLOOR = 1e-9

#: Largest work of one run: the n^4 entries of the Kronecker factor of the
#: Sylvester map, plus grid nodes summed over every level the run builds,
#: times n^2 for the n x n matrices each node carries. A run's peak memory
#: grows by about 90 bytes per unit at n >= 4 and 160 at n = 1, so the
#: budget holds a run below about 1.4 GB.
NODE_BUDGET = 2**23


def _load_schema() -> dict:
    resource = importlib.resources.files("nnls_gbdt").joinpath(
        "data/scenario.schema.json"
    )
    with resource.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def load_scenario(path: Path) -> dict:
    """Read and structurally validate one scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise SchemaError(f"scenario {path} is not valid JSON: {exc}") from exc

    validator = jsonschema.Draft202012Validator(_load_schema())
    errors = sorted(validator.iter_errors(document), key=str)
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "(root)"
        raise SchemaError(f"scenario {path} invalid at {where}: {first.message}")

    kind = document["kind"]
    for check in document.get("checks", []):
        if check not in KIND_CHECKS[kind]:
            raise SchemaError(
                f"check {check!r} is not available for kind {kind!r}"
            )
    return document


def _cnum(value) -> complex:
    return complex(value[0], value[1])


def _cmatrix(value) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in value],
        dtype=np.complex128,
    )


#: Grid oracle: (x, t) arrays to the closed-form u, shaped (..., m1, m2),
#: and the boolean mask of nodes where the closed form is singular.
OracleFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]

ClosedFormParams = Union[
    oracles.Example1Params, oracles.Example2Params, oracles.Example3Params
]

#: Parameter class of each closed-form kind.
CLOSED_FORMS = {
    "example1": oracles.Example1Params,
    "example2": oracles.Example2Params,
    "example3": oracles.Example3Params,
}


def _as_matrix(
    result: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar-family values on a grid as 1x1 matrices per node."""
    values, singular = result
    return values[..., None, None], singular


def closed_form_oracle(p: ClosedFormParams) -> OracleFn:
    """Grid oracle of the closed-form family that ``p`` parametrises.

    The module attributes ``oracles.ex*_u`` are looked up at call time.
    """
    if isinstance(p, oracles.Example1Params):
        return lambda x, t: _as_matrix(oracles.ex1_u(p, x, t))
    if isinstance(p, oracles.Example2Params):
        return lambda x, t: _as_matrix(oracles.ex2_u(p, x, t))
    return lambda x, t: oracles.ex3_u(p, x, t)


def _parse_construction(
    kind: str, params: dict
) -> Tuple[tuple, Optional[np.ndarray], Optional[OracleFn]]:
    """Datum (sigma, A, theta1, theta2), supplied S0 or None, and matching
    closed-form evaluator for non-theta kinds.

    Only parses: nothing is solved or factored, so the size of A can be
    checked against the node budget first.
    """
    if kind == "gbdt":
        datum = (
            int(params["sigma"]), _cmatrix(params["A"]),
            _cmatrix(params["theta1"]), _cmatrix(params["theta2"]),
        )
        s0 = _cmatrix(params["S0"]) if "S0" in params else None
        return datum, s0, None

    family = CLOSED_FORMS.get(kind)
    if family is None:
        raise SchemaError(f"unknown construction kind {kind!r}")
    values = {
        f.name: int(params[f.name]) if f.name == "kappa" else _cnum(params[f.name])
        for f in dataclasses.fields(family)
    }
    p = family(**values)
    return p.datum(), None, closed_form_oracle(p)


def _build_triple(datum: tuple, s0: Optional[np.ndarray]) -> GbdtTriple:
    """Complete the datum, or validate it with the supplied S0."""
    if s0 is None:
        return gbdt_core.complete_triple(*datum)
    sigma, a, theta1, theta2 = datum
    triple = GbdtTriple(sigma=sigma, A=a, S0=s0, theta1=theta1, theta2=theta2)
    report = gbdt_core.validate_triple(triple)
    if not report.passed:
        failed = [e.name for e in report.entries if not e.passed]
        raise DegenerateS(f"supplied triple failed validation: {', '.join(failed)}")
    return triple


def _write_csv(
    path: Path, header: List[str], grid: Grid, values: np.ndarray
) -> None:
    """``header``, then one row per grid node in x-major order: x, t and the
    node's entries ``values[i, l]`` of the ``(nx, nt, k)`` array.

    Every number is written with %.17g so floats round-trip exactly. Each
    x and each t is formatted once per axis, and the rows are streamed to
    the file one x block of nt rows at a time, each block by a single %.
    """
    nt, k = values.shape[1:]
    row = ",%s," + ",".join(["%.17g"] * k) + "\n"
    cells = np.empty((nt, k + 1), dtype=object)
    cells[:, 0] = ["%.17g" % t for t in grid.t_values.tolist()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for x, block in zip(grid.x_values.tolist(), values):
            cells[:, 1:] = block
            block_format = ("%.17g" % x + row) * nt
            handle.write(block_format % tuple(cells.ravel().tolist()))


def write_u_csv(path: Path, field: SolutionField) -> None:
    """Field entries in x-major order, one row per grid point."""
    nx, nt, m1, m2 = field.u.shape
    header = ["x", "t"]
    for i in range(m1):
        for k in range(m2):
            header += [f"re_{i + 1}_{k + 1}", f"im_{i + 1}_{k + 1}"]
    # complex entries read as float pairs give re, im in header order
    entries = np.ascontiguousarray(field.u).reshape(nx, nt, m1 * m2)
    _write_csv(path, header, field.grid, entries.view(np.float64))


def write_dets_csv(path: Path, field: SolutionField) -> None:
    """Determinant of S with the singular flag, in x-major order."""
    det = field.detS
    values = np.stack(
        [det.real, det.imag, field.singular_mask.astype(np.float64)], axis=-1
    )
    _write_csv(path, ["x", "t", "re", "im", "singular"], field.grid, values)


def _oracle_report(
    field: SolutionField, oracle: OracleFn
) -> verify.ResidualReport:
    """Largest relative deviation of the field from its closed form.

    Nodes masked in the field or singular in the closed form are skipped.
    The comparison scale at each node is the largest oracle entry there,
    floored at a small fraction of its maximum over the nodes used so that
    zeros of the solution do not inflate the relative error.
    """
    grid = field.grid
    x, t = np.meshgrid(grid.x_values, grid.t_values, indexing="ij")
    expected, singular = oracle(x, t)
    used = ~(field.singular_mask | singular)
    points_used = int(np.count_nonzero(used))
    if points_used == 0:
        residual = float("inf")
    else:
        expected = expected[used]
        scale = np.max(np.abs(expected), axis=(-2, -1))
        diff = np.max(np.abs(field.u[used] - expected), axis=(-2, -1))
        residual = verify.floored_relative(diff, scale)
    return verify.ResidualReport(
        name="oracle",
        hx=grid.hx,
        ht=grid.ht,
        residual=residual,
        order=None,
        passed=bool(residual <= ORACLE_TOL),
        tolerance=ORACLE_TOL,
        points_used=points_used,
        points_skipped=used.size - points_used,
    )


def _pde_record(reports: List[verify.ResidualReport]) -> dict:
    """Join per-level pde reports into one record with a verdict.

    Passes when every successive halving shows second order, or when the
    residuals are already at rounding level so no order is measurable.
    """
    residuals = [r.residual for r in reports]
    orders = [
        estimate
        for estimate in (
            verify.estimate_order(residuals[i], residuals[i + 1])
            for i in range(len(residuals) - 1)
        )
    ]
    all_tiny = all(r <= EXACT_FLOOR for r in residuals)
    orders_ok = bool(orders) and all(
        ORDER_LOW <= order <= ORDER_HIGH for order in orders
    )
    passed = all_tiny or orders_ok
    return {
        "name": "pde",
        "levels": [r.to_json_dict() for r in reports],
        "orders": [
            order if np.isfinite(order) else repr(order) for order in orders
        ],
        "passed": passed,
    }


def _plain_record(name: str, reports: List[verify.ResidualReport]) -> dict:
    return {
        "name": name,
        "levels": [r.to_json_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }


def _check_node_budget(nx: int, nt: int, levels: int, n: int) -> None:
    """Raise RangeExceeded when a run's work exceeds NODE_BUDGET.

    The work is the n^4 entries of the Kronecker factor of the Sylvester
    map, plus the nodes of every grid level times n^2. Level 0 is the
    nx x nt grid, each further level its halving. Nothing is allocated
    here, so an oversized scenario fails before any factor or stack is.
    """
    work = n**4
    level_nx, level_nt = nx, nt
    for _ in range(levels):
        work += level_nx * level_nt * n * n
        if work > NODE_BUDGET:
            raise RangeExceeded(
                f"{levels} grid level(s) from {nx} x {nt} nodes at n = {n} "
                f"exceed the node budget of {NODE_BUDGET} (n^4 + nodes x n^2)"
            )
        level_nx, level_nt = 2 * level_nx - 1, 2 * level_nt - 1


def run_scenario(scenario: dict, out_dir: Path, refine: int) -> Tuple[int, dict]:
    """Execute one validated scenario and return (exit code, report)."""
    kind = scenario["kind"]
    requested = list(scenario.get("checks", KIND_CHECKS[kind]))

    if kind == "theta":
        return _run_theta(scenario, out_dir, requested)

    datum, s0, oracle = _parse_construction(kind, scenario["parameters"])
    g = scenario["grid"]
    deepest = max(refine, 1 if "pde" in requested else 0)
    _check_node_budget(int(g["nx"]), int(g["nt"]), deepest + 1, len(datum[1]))
    triple = _build_triple(datum, s0)
    sigma = triple.sigma
    base = Grid.build(
        x_max=float(g["x_max"]), nx=int(g["nx"]),
        t_min=float(g["t_min"]), t_max=float(g["t_max"]), nt=int(g["nt"]),
    )

    grids = [base]
    for _ in range(deepest):
        grids.append(grids[-1].halved())
    fields = [gbdt_core.solution_field(triple, grid) for grid in grids]
    shallow = fields[: refine + 1]

    records = []
    for check in requested:
        if check == "pde":
            reports = [verify.nnls_residual(f, sigma) for f in fields]
            records.append(_pde_record(reports))
        elif check == "identity":
            reports = [verify.identity_residual(triple, f) for f in shallow]
            records.append(_plain_record("identity", reports))
        elif check == "mirror":
            reports = [verify.hermitian_mirror_residual(f) for f in shallow]
            records.append(_plain_record("mirror", reports))
        elif check == "reduction":
            reports = [verify.reduction_residual(f, sigma) for f in shallow]
            records.append(_plain_record("reduction", reports))
        elif check == "oracle":
            reports = [_oracle_report(f, oracle) for f in shallow]
            records.append(_plain_record("oracle", reports))

    passed = all(record["passed"] for record in records)
    exit_code = 0 if passed else 1
    report = {
        "kind": kind,
        "grid": {
            "x_max": float(g["x_max"]), "nx": int(g["nx"]),
            "t_min": float(g["t_min"]), "t_max": float(g["t_max"]),
            "nt": int(g["nt"]), "levels": len(grids),
        },
        "checks": records,
        "passed": passed,
        "exit_code": exit_code,
        "outputs": {"u_csv": "u.csv", "dets_csv": "detS.csv"},
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    write_u_csv(out_dir / "u.csv", fields[0])
    write_dets_csv(out_dir / "detS.csv", fields[0])
    _write_report(out_dir, report)
    return exit_code, report


def _run_theta(
    scenario: dict, out_dir: Path, requested: List[str]
) -> Tuple[int, dict]:
    p = scenario["parameters"]
    params = ag_theta.ThetaParams(
        tau=_cnum(p["tau"]),
        A_theta=_cnum(p["A_theta"]),
        B_theta=_cnum(p["B_theta"]),
        Delta=_cnum(p["Delta"]),
        e0=float(p["e0"]),
        C1=_cnum(p["C1"]),
        C2=_cnum(p["C2"]),
        chi=int(p["chi"]),
        omega0_sq=_cnum(p["omega0_sq"]) if "omega0_sq" in p else None,
    )
    records = []
    for check in requested:
        if check == "constraints":
            report = ag_theta.check_nnls_constraints(params)
            records.append(
                {
                    "name": "constraints",
                    "entries": [
                        {
                            "name": entry.name,
                            "value": float(entry.value)
                            if np.isfinite(entry.value)
                            else repr(float(entry.value)),
                            "tolerance": entry.tolerance,
                            "passed": entry.passed,
                        }
                        for entry in report.entries
                    ],
                    "passed": report.passed,
                }
            )
    passed = all(record["passed"] for record in records)
    exit_code = 0 if passed else 1
    report = {
        "kind": "theta",
        "checks": records,
        "passed": passed,
        "exit_code": exit_code,
        "outputs": {},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, report)
    return exit_code, report


def _write_report(out_dir: Path, report: dict) -> None:
    with open(out_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_error_report(out_dir: Path, exc: Exception, exit_code: int) -> None:
    report = {
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "passed": False,
        "exit_code": exit_code,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(out_dir, report)
    except OSError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nnls-gbdt",
        description="Construct and verify solutions of the nonlocal NLS equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute a scenario file")
    runner.add_argument("scenario", type=Path, help="path to a scenario JSON file")
    runner.add_argument(
        "--out", type=Path, default=Path("."),
        help="directory for u.csv, detS.csv and report.json (default: .)",
    )
    runner.add_argument(
        "--refine", type=int, default=1, metavar="K",
        help="number of grid halvings for convergence estimates (default: 1)",
    )
    args = parser.parse_args(argv)

    try:
        if args.refine < 0:
            raise SchemaError(f"--refine must be nonnegative, got {args.refine}")
        scenario = load_scenario(args.scenario)
        exit_code, report = run_scenario(scenario, args.out, args.refine)
    except (NnlsGbdtError, ValueError) as exc:
        code = exc.exit_code if isinstance(exc, NnlsGbdtError) else 2
        print(f"error: {exc}")
        _write_error_report(args.out, exc, code)
        return code

    for record in report["checks"]:
        state = "pass" if record["passed"] else "FAIL"
        print(f"{record['name']}: {state}")
    print("result:", "pass" if exit_code == 0 else "FAIL")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
