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
byte-identical files. Every number in the CSV files is the exact bytes of
``"%.17g" % v``, formatted in numpy one block of rows at a time, with
Python's own ``%`` as the exact route for the values whose rounding the
numpy arithmetic cannot certify.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
#: times (n + 2 m1)(n + 2 m2) / 8. A node's n x n matrix M, its factors and
#: the n x (m1 + m2) right sides and solves live only while its tile does;
#: a level keeps the m1 x m2 block of u, det S and the mask, which the pde
#: check and the CSV rows read. With the pde level at --refine 0 and the
#: four gbdt checks, memory grows by 6 to 201 bytes per unit of this work
#: from n = 1 to 8 and m1, m2 = 1 to 8 (ru_maxrss, 51^2 to 201^2; most at
#: n = 1, where u and the pde check's copies of it dominate), so a run
#: stays under about 1.6 GB.
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


#: Values the CSV writers format per block. A block's temporaries take
#: about 430 bytes a value, so the writers hold under 4 MB whatever the
#: grid; of 2^11 to 2^15 values, 2^13 wrote the benchmark's fields fastest.
_CSV_BLOCK_VALUES = 2**13

#: Dekker's splitting constant 2^27 + 1: it cuts a double into two halves
#: of at most 26 significant bits, whose products are exact.
_SPLIT = 134217729.0

#: Words of the %.17g slots: little-endian, so byte j of a slot is bits
#: 8j..8j+7 of its word j // 8 on every host.
_WORD = np.dtype("<u8")

#: Strings of the values the slot layout writes whole, in layout-column
#: order after the 2 * 22 * 17 columns of the finite nonzero values.
_SPECIAL_TEXT = (b"0", b"-0", b"inf", b"-inf", b"nan")
_SPECIAL_COLUMN = 2 * 22 * 17


def _pow10_parts() -> Tuple[np.ndarray, ...]:
    """10^k for -300 <= k <= 300 as ``hi + lo`` doubles, ``hi`` the rounded
    power and ``lo`` the rounded remainder, with ``hi`` also split into
    Dekker halves: arrays (hi, hi_head, hi_tail, lo) indexed by k + 300."""
    hi, lo = [], []
    for k in range(-300, 301):
        head = float(f"1e{k}")
        num, den = head.as_integer_ratio()
        # 10^k - num/den over a common denominator, rounded once
        if k >= 0:
            lo.append((10**k * den - num) / den)
        else:
            lo.append((den - num * 10**-k) / (den * 10**-k))
        hi.append(head)
    hi = np.array(hi)
    scaled = hi * _SPLIT
    hi_head = scaled - (scaled - hi)
    return hi, hi_head, hi - hi_head, np.array(lo)


def _notation(x: int) -> int:
    """Layout notation of decimal exponent x: x + 4 for the fixed range
    -4 <= x < 17, 21 for exponential."""
    return x + 4 if -4 <= x < 17 else 21


def _slot_layout() -> np.ndarray:
    """Layout of the 24-byte slot body, one column per (sign, notation,
    index of the last nonzero digit), then one per ``_SPECIAL_TEXT``.

    Each column holds ten words: three of constant bytes (sign, the
    ``0.000`` of x < 0, the point), three masking the digit string shifted
    right by the lead's length, three masking it shifted one byte further
    (the digits after the point), and the shift in bits.
    """
    columns = []
    for negative in range(2):
        for notation in range(22):
            for last in range(17):
                lead = b"-" if negative else b""
                if notation == 21:
                    point, keep = 1, last
                elif notation >= 4:
                    # the integer digits stay, zeros or not
                    point, keep = notation - 3, max(last, notation - 4)
                else:
                    lead += b"0." + b"0" * (3 - notation)
                    point, keep = 18, last
                m = len(lead)
                const, before, after = bytearray(24), bytearray(24), bytearray(24)
                const[:m] = lead
                whole = min(point, keep + 1)
                before[m:m + whole] = b"\xff" * whole
                if keep >= point:
                    const[m + point] = ord(".")
                    after[m + point + 1:m + keep + 2] = b"\xff" * (keep + 1 - point)
                columns.append(bytes(const + before + after) + (8 * m).to_bytes(8, "little"))
    columns += [text.ljust(80, b"\0") for text in _SPECIAL_TEXT]
    layout = np.frombuffer(b"".join(columns), _WORD).reshape(len(columns), 10)
    return np.ascontiguousarray(layout.T)


@functools.lru_cache(maxsize=None)
def _g17_tables() -> tuple:
    """The %.17g kernel's read-only tables, built on first use: the powers
    of ten, the four ASCII digits of 0..9999 as one word each, the number
    of trailing zero digits of those four, the slot layout, the first
    layout column of each (sign, x) with x from -330 to 330, and the last
    word of each x's slot: ``e±XX`` (``e±XXX``) for an exponential x, then
    the separator in byte 7."""
    group = np.arange(10000)
    digits = np.stack(
        [group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1
    )
    quad = (digits + ord("0")).astype(np.uint8).view("<u4").ravel().astype(_WORD)
    zeros = np.zeros(10000, dtype=np.intp)
    for place in range(4):
        zeros += np.all(digits[:, 3 - place:] == 0, axis=1)
    exponents = range(-330, 331)
    first = np.array(
        [(negative * 22 + _notation(x)) * 17 for negative in range(2) for x in exponents]
    )
    exponent = np.frombuffer(
        b"".join(
            (b"e%+03d" % x if _notation(x) == 21 else b"").ljust(7, b"\0") + b","
            for x in exponents
        ),
        _WORD,
    )
    tables = _pow10_parts() + (quad, zeros, _slot_layout(), first, exponent)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a: np.ndarray, k: np.ndarray, tables: tuple):
    """``a * 10^(k - 300)`` as an unevaluated sum ``p + e``: Dekker's exact
    product of a with the power's head, plus a times its tail. For a
    result below 1e17 the sum is off by less than 1e-14."""
    hi, hi_head, hi_tail, lo = (np.take(t, k) for t in tables[:4])
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    e = a_head * hi_head
    e -= p
    e += a_head * hi_tail
    e += a_tail * hi_head
    e += a_tail * hi_tail
    e += a * lo
    return p, e


def _off_decade(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Where floor(p + e) lies outside [10^16, 10^17)."""
    return (p > 1e17) | ((p == 1e17) & (e >= 0)) | (p < 1e16) | ((p == 1e16) & (e < 0))


def _format_g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for every double of a 1-D array, as rows of a uint8
    array: each row one slot of 24 or 32 bytes, the text padded with NUL
    bytes anywhere and a ``,`` in its last byte.

    The 17 significant digits are those of N = round(|v| 10^(16 - x)) in
    [10^16, 10^17): x comes from ``log10``, corrected by one where N falls
    outside, and the product is a double-double from a table of 10^k as
    hi + lo. N's two halves of 9 and 8 digits are split into digit groups
    in float arithmetic, and the %g layout (fixed for -4 <= x < 17, else
    ``d.ddde±XX``, trailing zeros and a bare point dropped) comes from
    word masks per (sign, x, last nonzero digit). ±0, ±inf and nan have
    layout columns of their own. Python's own %.17g writes, one at a time,
    each value the arithmetic cannot certify: |v| outside [1e-280, 1e280],
    a fraction of |v| 10^(16 - x) within 1e-9 of a half, or an x still
    off after the correction.
    """
    tables = _g17_tables()
    quad, zeros, layout, first, exponent = tables[4:]
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, 316 - x, tables)
    off = np.flatnonzero(_off_decade(p, e))
    if off.size:
        x[off] += np.where(p[off] > 1e16, 1, -1)
        p[off], e[off] = _scaled(a[off], 316 - x[off], tables)
        fast[off[_off_decade(p[off], e[off])]] = False
    # N = round(p + e), with p an integer above 2^53 and |e| below 32:
    # N = head 10^8 + tail, head of 9 digits and tail of 8
    whole = np.floor(e)
    e -= whole
    fast &= np.abs(e - 0.5) >= 1e-9
    whole += e > 0.5
    head = np.floor(p / 1e8)
    tail = p - head * 1e8
    tail += whole
    fix = np.flatnonzero((tail < 0) | (tail >= 1e8))
    step = np.where(tail[fix] < 0, -1.0, 1.0)
    head[fix] += step
    tail[fix] -= step * 1e8
    carry = np.flatnonzero(head >= 1e9)
    head[carry] = 1e8
    x[carry] += 1
    # the lead digit, then four groups of four digits
    lead = np.floor(head / 1e8)
    eights = np.stack([head - lead * 1e8, tail])
    fours = np.floor(eights / 1e4)
    eights -= fours * 1e4
    groups = np.stack([fours[0], eights[0], fours[1], eights[1]]).astype(np.intp)
    last = 16 - np.take(zeros, groups[3])
    for j in (2, 1, 0):
        idx = np.flatnonzero(last == 4 * j + 4)
        last[idx] -= np.take(zeros, groups[j, idx])
    # the digit string: lead digit in byte 0, the four groups in bytes 1..16
    w = np.take(quad, groups)
    d0 = lead.astype(_WORD)
    d0 += ord("0")
    d0 |= w[0] << 8
    d0 |= w[1] << 40
    d1 = w[1] >> 24
    d1 |= w[2] << 8
    d1 |= w[3] << 40
    d2 = w[3] >> 24
    column = np.take(first, np.signbit(v) * 661 + x + 330) + last
    finite = np.isfinite(v)
    nonzero = v != 0
    special = np.flatnonzero(~(finite & nonzero))
    if special.size:
        s = v[special]
        column[special] = _SPECIAL_COLUMN + np.where(
            np.isnan(s), 4, np.where(np.isinf(s), 2, 0) + np.signbit(s)
        )
    exact = np.flatnonzero(finite & nonzero & ~fast)
    words = 3 + bool(exact.size or np.any(fast & ((x < -4) | (x > 16))))
    const, before, after = (
        [np.take(layout[3 * part + j], column) for j in range(3)] for part in range(3)
    )
    # the digit string shifted right by the lead, then one byte further
    shift = np.take(layout[9], column)
    back = 63 - shift
    s0 = d0 << shift
    s1 = d1 << shift
    s1 |= (d0 >> 1) >> back
    s2 = d2 << shift
    s2 |= (d1 >> 1) >> back
    t0 = s0 << 8
    t1 = s1 << 8
    t1 |= s0 >> 56
    t2 = s2 << 8
    t2 |= s1 >> 56
    out = np.empty((n, words), dtype=_WORD)
    for j, (s_j, t_j) in enumerate(((s0, t0), (s1, t1), (s2, t2))):
        s_j &= before[j]
        t_j &= after[j]
        s_j |= t_j
        s_j |= const[j]
        out[:, j] = s_j
    if words == 4:
        out[:, 3] = np.take(exponent, x + 330)
    else:
        out[:, 2] |= np.uint64(ord(",")) << np.uint64(56)
    slots = out.view(np.uint8)
    for i in exact.tolist():
        text = b"%.17g" % v[i]
        slots[i, :-1] = 0
        slots[i, : len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _write_csv(
    path: Path, header: List[str], grid: Grid, columns: List[np.ndarray]
) -> None:
    """``header``, then one row per grid node in x-major order: x, t and the
    node's entry of each ``(nx, nt)`` array of ``columns``.

    Every number is written as the exact bytes of ``"%.17g" % v``, so
    floats round-trip exactly. The numbers are formatted in numpy by
    ``_format_g17``, each x and each t once per axis, and the rows are
    streamed to the file one block of rows, about ``_CSV_BLOCK_VALUES``
    entries, at a time; a block may end inside an x row. Each block takes
    its entries straight from the columns, which are read as flat views
    (the two node axes of a field's stacks merge), so the writer's memory
    is bounded by the block's whatever the grid.
    """
    nx, nt = np.shape(columns[0])
    x_slots = _format_g17(grid.x_values)
    t_slots = _format_g17(grid.t_values)
    flat = [np.reshape(column, nx * nt) for column in columns]
    rows = max(1, _CSV_BLOCK_VALUES // len(flat))
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, nx * nt, rows):
            node = np.arange(start, min(start + rows, nx * nt))
            values = np.stack([column[start:start + node.size] for column in flat], axis=1)
            entries = _format_g17(values.ravel())
            block = np.concatenate(
                [
                    np.take(x_slots, node // nt, axis=0),
                    np.take(t_slots, node % nt, axis=0),
                    entries.reshape(node.size, -1),
                ],
                axis=1,
            )
            block[:, -1] = ord("\n")
            handle.write(block.tobytes().translate(None, b"\0"))


def write_u_csv(path: Path, field: SolutionField) -> None:
    """Field entries in x-major order, one row per grid point."""
    m1, m2 = field.u.shape[2:]
    header = ["x", "t"]
    columns = []
    for i in range(m1):
        for k in range(m2):
            header += [f"re_{i + 1}_{k + 1}", f"im_{i + 1}_{k + 1}"]
            entry = field.u[:, :, i, k]
            columns += [entry.real, entry.imag]
    _write_csv(path, header, field.grid, columns)


def write_dets_csv(path: Path, field: SolutionField) -> None:
    """Determinant of S with the singular flag, in x-major order."""
    det = field.detS
    columns = [det.real, det.imag, field.singular_mask]
    _write_csv(path, ["x", "t", "re", "im", "singular"], field.grid, columns)


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
    """Execute one validated scenario and return (exit code, report).

    Every level is built by ``gbdt_core.solution_field`` in mirror-closed
    tiles of x rows. The grid and its first ``refine`` halvings are built
    with the requested ``verify.TILE_CHECKS`` (identity, mirror,
    reduction), which read each tile's M, K and factors as it is built;
    each level keeps only u, det S and the singular mask, which pde and
    oracle read, and the CSV files are written from the first. When
    ``pde`` is requested at ``refine`` 0 it still needs one halving, built
    the same way with no tile checks.
    """
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
    base = Grid.build(
        x_max=float(g["x_max"]), nx=int(g["nx"]),
        t_min=float(g["t_min"]), t_max=float(g["t_max"]), nt=int(g["nt"]),
    )

    grids = [base]
    for _ in range(deepest):
        grids.append(grids[-1].halved())
    tile_checks = [name for name in requested if name in verify.TILE_CHECKS]
    # a level past refine is the pde check's alone
    fields, tile_reports = zip(*(
        verify.checked_level(triple, grid, tile_checks if k <= refine else ())
        for k, grid in enumerate(grids)
    ))

    records = []
    for check in requested:
        if check == "pde":
            levels = [verify.nnls_residual(f, triple.sigma) for f in fields]
            records.append(verify.pde_record(levels))
            continue
        if check == "oracle":
            levels = [verify.oracle_residual(f, oracle) for f in fields[: refine + 1]]
        else:
            levels = [reports[check] for reports in tile_reports[: refine + 1]]
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
