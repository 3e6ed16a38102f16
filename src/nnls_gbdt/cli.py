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

Every tolerance, verdict and check record comes from ``verify``, the
theta constraints' included: ``ag_theta`` measures their deviations and
``verify.constraints_report`` judges them. The runner parses, dispatches,
and writes the CSV files and the report.
Outputs are deterministic: running the same scenario twice produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
from pathlib import Path
from typing import List, Optional, Tuple, Union

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

#: Largest work of one run: the n^4 entries of the Kronecker matrix of the
#: Sylvester map, plus grid nodes summed over every level the run builds,
#: times (n + 2 m1)(n + 2 m2) / 8. A node carries the n x n matrix M and its
#: factors, the n x (m1 + m2) right sides and solves, and the m1 x m2
#: blocks of u, the lower block, the pde check and the CSV row; its memory
#: grows by 16 to 22 bytes per unit of (n + 2 m1)(n + 2 m2) from n = 1 to 8
#: and m1, m2 = 1 to 8, so a run stays under about 1.5 GB.
NODE_BUDGET = 2**23


def _load_schema() -> dict:
    resource = importlib.resources.files("nnls_gbdt").joinpath(
        "data/scenario.schema.json"
    )
    with resource.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _finite(parse):
    """json hook reading a number literal with ``parse``, refusing it unless
    it is a finite double: NaN, the infinities, which Python's json would
    read, and literals beyond double range such as 1e400."""

    def hook(literal: str):
        value = parse(literal)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond double range
            finite = False
        if not finite:
            shown = literal if len(literal) <= 40 else literal[:40] + "..."
            raise ValueError(f"non-finite number {shown} is not allowed")
        return value

    return hook


def load_scenario(path: Path) -> dict:
    """Read and structurally validate one scenario file, every number of
    which must be a finite double."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(
                handle, parse_constant=_finite(float),
                parse_float=_finite(float), parse_int=_finite(int),
            )
    except OSError as exc:
        raise SchemaError(f"cannot read scenario {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8, or a number refused above
        raise SchemaError(
            f"scenario {path} is not a JSON document of finite numbers: {exc}"
        ) from exc

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


ClosedFormParams = Union[
    oracles.Example1Params, oracles.Example2Params, oracles.Example3Params
]

#: Parameter class of each closed-form kind.
CLOSED_FORMS = {
    "example1": oracles.Example1Params,
    "example2": oracles.Example2Params,
    "example3": oracles.Example3Params,
}


def closed_form_oracle(p: ClosedFormParams) -> verify.OracleFn:
    """Grid oracle of the closed-form family that ``p`` parametrises.

    The module attributes ``oracles.ex*_u`` are looked up at call time.
    """
    if isinstance(p, oracles.Example1Params):
        return lambda x, t: oracles.ex1_u(p, x, t)
    if isinstance(p, oracles.Example2Params):
        return lambda x, t: oracles.ex2_u(p, x, t)
    return lambda x, t: oracles.ex3_u(p, x, t)


def _parse_construction(
    kind: str, params: dict
) -> Tuple[tuple, Optional[np.ndarray], Optional[verify.OracleFn]]:
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
    report = verify.validate_triple(triple)
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


def _check_node_budget(
    nx: int, nt: int, levels: int, n: int, m1: int, m2: int
) -> None:
    """Raise RangeExceeded when a run's work exceeds NODE_BUDGET.

    The work is the n^4 entries of the Kronecker matrix of the Sylvester
    map, plus the nodes of every grid level times (n + 2 m1)(n + 2 m2) / 8.
    Level 0 is the nx x nt grid, each further level its halving. Nothing is
    allocated here, so an oversized scenario fails before any matrix or
    stack is.
    """
    work = n**4
    eighths = (n + 2 * m1) * (n + 2 * m2)
    level_nx, level_nt = nx, nt
    for _ in range(levels):
        # integers throughout: a grid of any size compares without overflow
        work += level_nx * level_nt * eighths // 8
        if work > NODE_BUDGET:
            raise RangeExceeded(
                f"{levels} grid level(s) from {nx} x {nt} nodes at n = {n}, "
                f"m1 = {m1}, m2 = {m2} exceed the node budget of {NODE_BUDGET} "
                "(n^4 + nodes x (n + 2 m1)(n + 2 m2) / 8)"
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
    _, a, theta1, theta2 = datum
    _check_node_budget(
        int(g["nx"]), int(g["nt"]), deepest + 1, len(a),
        np.shape(theta1)[1], np.shape(theta2)[1],
    )
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
            levels = [verify.nnls_residual(f, sigma) for f in fields]
            records.append(verify.pde_record(levels))
            continue
        if check == "identity":
            levels = [verify.identity_residual(triple, f) for f in shallow]
        elif check == "mirror":
            levels = [verify.hermitian_mirror_residual(f) for f in shallow]
        elif check == "reduction":
            levels = [verify.reduction_residual(f, sigma) for f in shallow]
        elif check == "oracle":
            levels = [verify.oracle_residual(f, oracle) for f in shallow]
        records.append(verify.level_record(check, levels))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_u_csv(out_dir / "u.csv", fields[0])
    write_dets_csv(out_dir / "detS.csv", fields[0])
    head = {
        "kind": kind,
        "grid": {
            "x_max": float(g["x_max"]), "nx": int(g["nx"]),
            "t_min": float(g["t_min"]), "t_max": float(g["t_max"]),
            "nt": int(g["nt"]), "levels": len(grids),
        },
    }
    outputs = {"u_csv": "u.csv", "dets_csv": "detS.csv"}
    return _finish_report(out_dir, head, records, outputs)


def _run_theta(
    scenario: dict, out_dir: Path, requested: List[str]
) -> Tuple[int, dict]:
    parse = {"e0": float, "chi": int}
    params = ag_theta.ThetaParams(**{
        name: parse.get(name, _cnum)(value)
        for name, value in scenario["parameters"].items()
    })
    records = []
    for check in requested:
        if check == "constraints":
            deviations = ag_theta.check_nnls_constraints(params)
            report = verify.constraints_report(deviations)
            records.append(verify.constraints_record(report))
    return _finish_report(out_dir, {"kind": "theta"}, records, {})


def _finish_report(
    out_dir: Path, head: dict, records: List[dict], outputs: dict
) -> Tuple[int, dict]:
    """Write report.json from ``head``, the check records and the output
    names, and return the exit code with the report: 0 when every record
    passed, else 1."""
    passed = all(record["passed"] for record in records)
    exit_code = 0 if passed else 1
    report = {
        **head,
        "checks": records,
        "passed": passed,
        "exit_code": exit_code,
        "outputs": outputs,
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
