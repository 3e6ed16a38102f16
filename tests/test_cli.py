"""End-to-end tests of the scenario runner and its file outputs."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnls_gbdt import cli, errors, gbdt_core, numkit, oracles, verify
from conftest import make_random_triple

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))


def write_scenario(tmp_path, document, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def small_example1(**overrides):
    document = {
        "kind": "example1",
        "parameters": {
            "a": [1.0, 0.0],
            "theta1": [2.0, 0.0],
            "theta2": [1.0, 0.0],
            "kappa": 0,
        },
        "grid": {"x_max": 1.0, "nx": 21, "t_min": -0.2, "t_max": 0.2, "nt": 11},
        "checks": ["identity", "mirror", "reduction", "oracle"],
    }
    document.update(overrides)
    return document


# ---------------------------------------------------------- passing runs


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_pass(name, tmp_path):
    code = cli.main(
        ["run", str(SCENARIO_DIR / name), "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["exit_code"] == 0


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_levels_agree_with_their_record(name, tmp_path):
    """No level of a passing check record reads as failed. The pde record's
    verdict is its order band or its exact floor, which it states; its
    levels carry no verdict or tolerance of their own."""
    code = cli.main(
        ["run", str(SCENARIO_DIR / name), "--out", str(tmp_path), "--refine", "1"]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for record in report["checks"]:
        if record["passed"]:
            assert all(level.get("passed", True) for level in record.get("levels", []))
        if record["name"] == "pde":
            assert record["order_band"] == [verify.ORDER_LOW, verify.ORDER_HIGH]
            assert record["exact_floor"] == verify.EXACT_FLOOR
            for level in record["levels"]:
                assert "passed" not in level and "tolerance" not in level


@pytest.mark.parametrize("refine", [0, 1])
def test_matrix_scenario_passes(refine, tmp_path):
    """The shipped n = 4, m1 = m2 = 2, sigma = -1 datum runs a matrix field
    through every gbdt check and writes all four entries of u per node."""
    code = cli.main([
        "run", str(SCENARIO_DIR / "gbdt_matrix.json"), "--out", str(tmp_path),
        "--refine", str(refine),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [record["name"] for record in report["checks"]] == list(cli.KIND_CHECKS["gbdt"])
    assert report["grid"]["levels"] == 2
    header = (tmp_path / "u.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 2 + 2 * 2 * 2


@pytest.mark.parametrize("name", [name for name in SHIPPED if name != "theta.json"])
def test_refine_0_and_1_agree_on_the_outputs_and_the_pde_record(name, tmp_path):
    """The pde check's halving is built with no tile checks at --refine 0
    and with identity, mirror and reduction at --refine 1, by the one
    route gbdt_core.solution_field; the CSV files and the pde record come
    out the same bytes."""
    scenario = cli.load_scenario(SCENARIO_DIR / name)
    pde = []
    for refine in (0, 1):
        _, report = cli.run_scenario(scenario, tmp_path / str(refine), refine)
        pde.append([record for record in report["checks"] if record["name"] == "pde"])
    assert len(pde[0]) == 1 and pde[0] == pde[1]
    for file in ("u.csv", "detS.csv"):
        assert (tmp_path / "0" / file).read_bytes() == (tmp_path / "1" / file).read_bytes()


def _matrix_grid_scenario():
    """Seeded n = 8, m1 = m2 = 2 datum on 101 x 101 with the four gbdt
    checks."""
    rng = np.random.default_rng(80)
    n = 8

    def cnormal(*shape):
        value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return [[[float(v.real), float(v.imag)] for v in row] for row in value]

    a = np.array(cnormal(n, n)) * 0.35 / math.sqrt(n)
    a[..., 0] += 0.6 * np.eye(n)
    return {
        "kind": "gbdt",
        "parameters": {
            "sigma": -1, "A": a.tolist(), "theta1": cnormal(n, 2),
            "theta2": (0.3 * np.array(cnormal(n, 2))).tolist(),
        },
        "grid": {"x_max": 1.0, "nx": 101, "t_min": -0.25, "t_max": 0.25, "nt": 101},
        "checks": list(cli.KIND_CHECKS["gbdt"]),
    }


def _traced_peak(scenario, out, refine):
    """(exit code, report, tracemalloc peak) of run_scenario."""
    tracemalloc.start()
    try:
        code, report = cli.run_scenario(scenario, out, refine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, report, peak


def test_pde_level_at_refine_0_holds_no_stack_of_matrices(tmp_path):
    """n = 8, m1 = m2 = 2 on 101 x 101 at --refine 0 with the four gbdt
    checks: every level is built in tiles of x rows and keeps u, det S and
    the mask, and the run's tracemalloc peak stays under 80 MB. Built
    whole, with M, K, det S and the lower block, the 201 x 201 pde level
    alone peaked at 113.5 MB."""
    code, report, peak = _traced_peak(_matrix_grid_scenario(), tmp_path, 0)
    assert code == 0 and report["grid"]["levels"] == 2
    assert peak < 80 * 2**20


def test_refine_1_peaks_under_the_whole_level_refine_0_peak(tmp_path):
    """The same run at --refine 1 checks identity, mirror and reduction on
    both levels from their tiles, so no level keeps M, K or the lower
    block: its tracemalloc peak (about 28 MB) stays under the 48.8 MB that
    --refine 0 peaked at when the checked level was built whole, and far
    under the 199.6 MB of --refine 1 then."""
    code, report, peak = _traced_peak(_matrix_grid_scenario(), tmp_path, 1)
    assert code == 0 and report["grid"]["levels"] == 2
    assert all(record["passed"] for record in report["checks"])
    assert peak < 48.8 * 2**20


def test_report_structure(tmp_path):
    scenario = write_scenario(tmp_path, small_example1())
    code = cli.main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "example1"
    assert [c["name"] for c in report["checks"]] == [
        "identity", "mirror", "reduction", "oracle",
    ]
    assert report["grid"]["nx"] == 21
    assert report["outputs"] == {"u_csv": "u.csv", "dets_csv": "detS.csv"}
    assert (tmp_path / "u.csv").exists()
    assert (tmp_path / "detS.csv").exists()


# ------------------------------------------------------------ exit code 2


def test_degenerate_construction_exits_2(tmp_path):
    document = small_example1(
        parameters={
            "a": [1.0, 0.0],
            "theta1": [1.0, 0.0],
            "theta2": [1.0, 0.0],
            "kappa": 1,
        }
    )
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 2
    assert report["passed"] is False
    assert report["error"]["type"] == "DegenerateS"


# ------------------------------------------------------------ exit code 3


def test_bad_tau_exits_3(tmp_path):
    document = {
        "kind": "theta",
        "parameters": {
            "tau": [0.9, -0.1],
            "A_theta": [0.2, 0.45],
            "B_theta": [0.0, 0.7],
            "Delta": [0.5, 0.3],
            "e0": 0.0,
            "C1": [1.0, 0.0],
            "C2": [1.0, 0.0],
            "chi": 1,
        },
        "checks": ["constraints"],
    }
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "BadTau"


def _error_report(out):
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["exit_code"] == 3
    return report["error"]


def test_unknown_kind_exits_3(tmp_path):
    scenario = write_scenario(tmp_path, small_example1(kind="example9"))
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 3
    assert _error_report(out)["type"] == "SchemaError"


def test_invalid_utf8_exits_3(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(b'{"kind": "\xff"}')
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 3
    assert _error_report(out)["type"] == "SchemaError"


@pytest.mark.parametrize(
    "document",
    [
        {
            "kind": "theta",
            "parameters": {
                "tau": [math.nan, 0.9], "A_theta": [0.2, 0.45], "B_theta": [0.0, 0.7],
                "Delta": [0.5, 0.3], "e0": 0.0, "C1": [1.0, 0.0], "C2": [1.0, 0.0],
                "chi": 1,
            },
            "checks": ["constraints"],
        },
        small_example1(
            grid={"x_max": 1.0, "nx": 21, "t_min": -math.inf, "t_max": 0.2, "nt": 11}
        ),
        small_example1(
            grid={"x_max": math.inf, "nx": 21, "t_min": -0.2, "t_max": 0.2, "nt": 11}
        ),
    ],
    ids=["tau-nan", "t_min-minus-infinity", "x_max-infinity"],
)
def test_non_finite_json_numbers_exit_3(tmp_path, document):
    """json writes and reads NaN and Infinity; the scenario loader refuses
    them before any of them reaches a computation."""
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 3
    error = _error_report(out)
    assert error["type"] == "SchemaError"
    assert "non-finite number" in error["message"]


REFUSED_DIR = Path(__file__).resolve().parent / "data" / "refused"


@pytest.mark.parametrize(
    "name", sorted(p.name for p in REFUSED_DIR.glob("*.json"))
)
def test_refused_scenarios(name, tmp_path):
    """Each file is named exit<code>-<error type>-<what>.json; CI's runtime
    job runs the same files without the test extra. Among them are number
    literals that are valid JSON but no finite double (1e400, 401 digits),
    which the loader refuses before any float conversion or matrix."""
    code, error_type = name.split("-")[:2]
    out = tmp_path / "out"
    assert cli.main(["run", str(REFUSED_DIR / name), "--out", str(out)]) == int(code[4:])
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == int(code[4:]) and report["passed"] is False
    assert report["error"]["type"] == error_type


def test_even_nx_exits_3(tmp_path):
    document = small_example1()
    document["grid"]["nx"] = 20
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 3


def test_t_range_without_zero_exits_3(tmp_path):
    document = small_example1()
    document["grid"]["t_min"] = 0.1
    document["grid"]["t_max"] = 0.5
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 3


def test_unsupported_check_exits_3(tmp_path):
    document = {
        "kind": "theta",
        "parameters": {
            "tau": [0.9, 0.0],
            "A_theta": [0.0, 0.0],
            "B_theta": [0.0, 0.0],
            "Delta": [0.0, 0.0],
            "e0": 0.0,
            "C1": [1.0, 0.0],
            "C2": [1.0, 0.0],
            "chi": 0,
        },
        "checks": ["pde"],
    }
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 3


def test_negative_refine_exits_3(tmp_path):
    scenario = write_scenario(tmp_path, small_example1())
    out = tmp_path / "out"
    code = cli.main(["run", str(scenario), "--out", str(out), "--refine", "-1"])
    assert code == 3
    error = _error_report(out)
    assert error["type"] == "SchemaError"
    assert "--refine" in error["message"]


# ------------------------------------------------------------ exit code 1


def test_failing_constraints_exit_1(tmp_path):
    document = {
        "kind": "theta",
        "parameters": {
            "tau": [0.0, 0.9],
            "A_theta": [0.2, 0.30],
            "B_theta": [0.0, 0.7],
            "Delta": [0.5, 0.3],
            "e0": 0.0,
            "C1": [1.0, 0.0],
            "C2": [1.0, 0.0],
            "chi": 1,
        },
        "checks": ["constraints"],
    }
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    entries = {e["name"]: e for e in report["checks"][0]["entries"]}
    assert entries["a_im"]["passed"] is False
    assert entries["delta_re"]["passed"] is True


def test_theta_beyond_the_term_limit_exits_1_with_report(tmp_path):
    """Im tau = 1e-300 with a real line in the Jacobian reaches the series
    term limit, not the overflow bound: the probe fails and the run still
    ends with its report."""
    document = {
        "kind": "theta",
        "parameters": {
            "tau": [0.0, 1e-300],
            "A_theta": [0.2, 0.0],
            "B_theta": [0.7, 0.0],
            "Delta": [0.5, 0.0],
            "e0": 0.0,
            "C1": [1.0, 0.0],
            "C2": [1.0, 0.0],
            "chi": 1,
        },
        "checks": ["constraints"],
    }
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    entries = {e["name"]: e for e in report["checks"][0]["entries"]}
    assert entries["ratio_independence"]["passed"] is False


@pytest.mark.parametrize("parameters, code", [
    ({"tau": [0.0, 5e-324]}, 1),
    ({"tau": [0.0, 1e-300], "A_theta": [0.0, 1e10]}, 1),
    ({"tau": [1e308, 0.9]}, 0),
])
def test_theta_at_the_ends_of_double_range_ends_with_a_verdict(
    parameters, code, tmp_path
):
    """theta.json with a tiny Im tau, where offset / Im tau overflows, fails
    its ratio probe with a report; with Re tau = 1e308, an even integer
    plus 0, it is the shipped scenario and passes with the same report."""
    document = json.loads((SCENARIO_DIR / "theta.json").read_text())
    document["parameters"].update(parameters)
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == code
    report = json.loads((out / "report.json").read_text())
    entries = {e["name"]: e for e in report["checks"][0]["entries"]}
    assert entries["ratio_independence"]["passed"] is (code == 0)
    if code == 0:
        shipped = tmp_path / "shipped"
        cli.main(["run", str(SCENARIO_DIR / "theta.json"), "--out", str(shipped)])
        assert report == json.loads((shipped / "report.json").read_text())


# ----------------------------------------------------------- file formats


def test_u_csv_scalar_layout_and_round_trip(tmp_path):
    scenario = write_scenario(tmp_path, small_example1(checks=["oracle"]))
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "u.csv").read_text().strip().split("\n")
    assert lines[0] == "x,t,re_1_1,im_1_1"
    assert len(lines) == 1 + 21 * 11

    params = oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=0)
    for line in lines[1:]:
        x_s, t_s, re_s, im_s = line.split(",")
        expected = oracles.ex1_u(params, float(x_s), float(t_s))
        got = complex(float(re_s), float(im_s))
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_u_csv_matrix_layout(tmp_path):
    document = {
        "kind": "example3",
        "parameters": {
            "a": [1.0, 0.0],
            "b1": [2.0, 0.0],
            "b2": [1.0, -0.5],
            "c": [1.0, 0.0],
            "kappa": 0,
        },
        "grid": {"x_max": 1.0, "nx": 11, "t_min": -0.1, "t_max": 0.1, "nt": 5},
        "checks": ["oracle"],
    }
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "u.csv").read_text().strip().split("\n")
    assert lines[0] == "x,t,re_1_1,im_1_1,re_2_1,im_2_1"
    assert len(lines) == 1 + 11 * 5


def test_dets_csv_marks_singular_nodes(tmp_path):
    """A datum whose S vanishes on the grid must flag those nodes instead
    of failing, and the flagged field entries must be written as nan."""
    params = oracles.Example1Params(
        a=1.0 + 1.0j, theta1=2.0, theta2=1.0, kappa=1
    )
    t_star = oracles.ex1_blowup_time(params)
    assert t_star is not None
    document = {
        "kind": "example1",
        "parameters": {
            "a": [1.0, 1.0],
            "theta1": [2.0, 0.0],
            "theta2": [1.0, 0.0],
            "kappa": 1,
        },
        "grid": {
            "x_max": 2.0,
            "nx": 41,
            "t_min": 2.0 * t_star,
            "t_max": 0.0,
            "nt": 3,
        },
        "checks": ["identity", "mirror", "reduction"],
    }
    scenario = write_scenario(tmp_path, document)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0

    singular_keys = set()
    for line in (tmp_path / "detS.csv").read_text().strip().split("\n")[1:]:
        x_s, t_s, _, _, flag = line.split(",")
        if flag == "1":
            singular_keys.add((x_s, t_s))
    assert singular_keys
    assert any(float(x_s) == 0.0 for x_s, _ in singular_keys)

    nan_keys = set()
    for line in (tmp_path / "u.csv").read_text().strip().split("\n")[1:]:
        parts = line.split(",")
        if "nan" in parts[2:]:
            nan_keys.add((parts[0], parts[1]))
    assert nan_keys == singular_keys


def _rowwise_csv(path, header, columns):
    """Reference writer: x-major node columns, one %-format per row."""
    fmt = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    )
    rows = zip(*(c.tolist() for c in columns))
    lines = [",".join(header)] + [fmt % row for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_csv_writers_match_rowwise_bytes(tmp_path):
    """m1 = m2 = 2, masked nan nodes, -0.0 and magnitudes near 1e-300 and
    1e300: the streamed writers give the row-wise writer's bytes."""
    triple = make_random_triple(np.random.default_rng(90), -1, n=4, m1=2, m2=2)
    # x and t nodes that need all 17 digits
    grid = gbdt_core.Grid.build(0.7, 9, -0.2, 0.3, 6)
    field = gbdt_core.solution_field(triple, grid)
    mask = field.singular_mask.copy()
    mask[4, 2] = mask[0, 5] = True
    u = field.u.copy()
    u[mask] = complex(math.nan, math.nan)
    u[1, 1, 0, 0] = complex(-0.0, 1e-300)
    u[2, 3, 1, 1] = complex(1e300, -0.0)
    u[3, 0, 0, 1] = complex(-1e-300, -1.7976931348623157e308)
    det = field.detS.copy()
    det[1, 1] = complex(-0.0, 1e300)
    det[2, 2] = complex(5e-324, -0.0)
    edited = dataclasses.replace(field, u=u, detS=det, singular_mask=mask)
    cli.write_u_csv(tmp_path / "u.csv", edited)
    cli.write_dets_csv(tmp_path / "detS.csv", edited)

    nodes = [np.repeat(grid.x_values, grid.nt), np.tile(grid.t_values, grid.nx)]
    header, columns = ["x", "t"], list(nodes)
    for i in range(2):
        for k in range(2):
            entry = u[:, :, i, k].ravel()
            header += [f"re_{i + 1}_{k + 1}", f"im_{i + 1}_{k + 1}"]
            columns += [entry.real, entry.imag]
    _rowwise_csv(tmp_path / "u_ref.csv", header, columns)
    _rowwise_csv(
        tmp_path / "detS_ref.csv",
        ["x", "t", "re", "im", "singular"],
        nodes + [det.ravel().real, det.ravel().imag, mask.ravel().astype(np.int64)],
    )
    written = {}
    for name in ("u", "detS"):
        written[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert written[name] == (tmp_path / f"{name}_ref.csv").read_bytes()
    assert b",nan," in written["u"] and b"e-300," in written["u"]
    for text in (b",-0,", b"e+300,", b"e-324,", b",1\n"):
        assert text in written["detS"]


def _percent_csv(path, header, grid, values):
    """Reference writer, the runner's before it formatted in numpy: every
    number by Python's %.17g, one % over each x block of nt rows."""
    nt, k = values.shape[1:]
    row = ",%s," + ",".join(["%.17g"] * k) + "\n"
    cells = np.empty((nt, k + 1), dtype=object)
    cells[:, 0] = ["%.17g" % t for t in grid.t_values.tolist()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for x, block in zip(grid.x_values.tolist(), values):
            cells[:, 1:] = block
            handle.write((("%.17g" % x + row) * nt) % tuple(cells.ravel().tolist()))


def _assert_percent_bytes(tmp_path, doubles, nx, nt, k):
    """cli._write_csv writes the reference's bytes for a grid whose x, t
    and entries are the doubles, in that order."""
    doubles = np.asarray(doubles, dtype=np.float64)
    grid = types.SimpleNamespace(x_values=doubles[:nx], t_values=doubles[nx:nx + nt])
    values = doubles[nx + nt:].reshape(nx, nt, k)
    header = ["x", "t"] + [f"v{l}" for l in range(k)]
    cli._write_csv(tmp_path / "written.csv", header, grid, list(np.moveaxis(values, -1, 0)))
    _percent_csv(tmp_path / "reference.csv", header, grid, values)
    written = (tmp_path / "written.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    return written


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_write_csv_gives_percent_bytes_for_raw_bit_patterns(data, tmp_path):
    nx, nt, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    size = nx + nt + nx * nt * k
    words = data.draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size)
    )
    doubles = np.array(words, dtype=np.uint64).view(np.float64)
    _assert_percent_bytes(tmp_path, doubles, nx, nt, k)


def test_write_csv_gives_percent_bytes_for_uniform_bit_patterns(tmp_path):
    """21,005 doubles drawn uniformly over all 2^64 patterns: every exponent,
    subnormals, nan payloads and both infinities."""
    words = np.random.default_rng(22).integers(0, 2**64, size=21_005, dtype=np.uint64)
    _assert_percent_bytes(tmp_path, words.view(np.float64), 5, 1000, 4)


def test_write_csv_gives_percent_bytes_at_the_edges_of_the_format(tmp_path):
    """Signed zeros and infinities, nan with sign and payload, the ends of
    double range, 10^k and its neighbours, three-digit exponents, and the
    fixed/exponential boundaries at 1e-5, 1e16 and 1e17."""
    nan_words = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0xFFF00000DEADBEEF, 0x7FFFFFFFFFFFFFFF]
    doubles = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e100, -1e-100, 1.5e-250, 2.5e299,
               1e280, 1e-280, 1e-300, 1e300, 0.1, 0.5, 123.5, 1e22, 1e23]
    doubles += list(np.array(nan_words, dtype=np.uint64).view(np.float64))
    centres = [10.0**k for k in range(-30, 31)] + [1e-5, 1e-4, 1e16, 1e17, 1e280, 1e-280]
    for centre in centres:
        doubles += [centre, np.nextafter(centre, 0.0), np.nextafter(centre, math.inf)]
    doubles += [-d for d in doubles]
    doubles = np.array(doubles)
    # one node at x = t = 0, every double an entry of it
    written = _assert_percent_bytes(
        tmp_path, np.concatenate([[0.0, 0.0], doubles]), 1, 1, doubles.size
    )
    for text in (b",-0,", b",nan,", b",-inf,", b",4.9406564584124654e-324,",
                 b",10000000000000000,", b",1e+17,", b",1.0000000000000001e-05,",
                 b",0.0001,", b",1e+100,"):
        assert text in written


def test_write_csv_takes_the_exact_route_for_ties_and_extremes(tmp_path):
    """1 + 2^-17 = 1.00000762939453125 lies exactly halfway between two
    17-digit decimals, so the numpy path must hand it to Python's %.17g,
    which rounds it to even; so must the values outside [1e-280, 1e280]."""
    tie = 1.0 + 2.0**-17
    scaled = Fraction(tie) * 10**16
    assert scaled - math.floor(scaled) == Fraction(1, 2)
    doubles = [tie, -tie, 3 * tie, 1e-300, -1e300, 1e-290, 5e-324, 1e305]
    written = _assert_percent_bytes(tmp_path, [0.0, 0.0] + doubles, 1, 1, len(doubles))
    assert b",1.0000076293945312," in written


def test_csv_writers_write_a_fully_masked_column(tmp_path):
    """Every node at one t masked: 4,004 nan in u.csv and 1,001 singular
    flags in detS.csv, the reference's bytes."""
    triple = make_random_triple(np.random.default_rng(23), 1, n=2, m1=2, m2=1)
    grid = gbdt_core.Grid.build(1.0, 1001, -0.1, 0.1, 5)
    field = gbdt_core.solution_field(triple, grid)
    u, mask = field.u.copy(), field.singular_mask.copy()
    u[:, 3] = complex(math.nan, math.nan)
    mask[:, 3] = True
    edited = dataclasses.replace(field, u=u, singular_mask=mask)
    cli.write_u_csv(tmp_path / "u.csv", edited)
    cli.write_dets_csv(tmp_path / "detS.csv", edited)
    entries = np.ascontiguousarray(u).reshape(1001, 5, 2).view(np.float64)
    dets = np.stack([field.detS.real, field.detS.imag, mask.astype(np.float64)], axis=-1)
    written = {}
    for name, values in (("u", entries), ("detS", dets)):
        written[name] = (tmp_path / f"{name}.csv").read_bytes()
        header = written[name].split(b"\n", 1)[0].decode().split(",")
        _percent_csv(tmp_path / f"{name}_ref.csv", header, grid, values)
        assert written[name] == (tmp_path / f"{name}_ref.csv").read_bytes()
    assert written["u"].count(b",nan,nan,nan,nan\n") == 1001


@pytest.mark.parametrize("block_values", [None, 1, 7])
def test_write_csv_streams_blocks_that_split_x_rows(tmp_path, monkeypatch, block_values):
    """37,023 values over more than two blocks of the default size, each
    block ending inside an x row, or one value or seven per block: the
    whole file is the reference's."""
    if block_values is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_VALUES", block_values)
    nx, nt, k = (41, 301, 3) if block_values is None else (5, 7, 3)
    assert block_values is not None or nx * nt * k > 2 * cli._CSV_BLOCK_VALUES
    assert max(1, cli._CSV_BLOCK_VALUES // k) % nt != 0
    rng = np.random.default_rng(24)
    size = nx + nt + nx * nt * k
    doubles = rng.normal(size=size) * 10.0 ** rng.integers(-12, 20, size=size)
    _assert_percent_bytes(tmp_path, doubles, nx, nt, k)


def test_write_u_csv_memory_is_bounded_by_its_blocks(tmp_path):
    """A 401 x 401 scalar field: the writer's peak stays under 16 MB, where
    formatting the 321,602 values at once would take about 100 MB."""
    grid = gbdt_core.Grid.build(1.0, 401, -0.5, 0.5, 401)
    rng = np.random.default_rng(25)
    u = (rng.normal(size=(401, 401, 1, 1)) + 1j * rng.normal(size=(401, 401, 1, 1)))
    field = types.SimpleNamespace(grid=grid, u=u)
    tracemalloc.start()
    try:
        cli.write_u_csv(tmp_path / "u.csv", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("writer", ["write_u_csv", "write_dets_csv"])
def test_csv_writers_copy_no_whole_stack_of_a_matrix_field(tmp_path, writer):
    """A 401 x 401 field at n = 2, m1 = m2 = 2, whose u is held node-last:
    each block's entries come straight from the field's arrays, so each
    writer peaks under 6 MB. A copy of u alone is 9.8 MB, and an
    (nx, nt, 3) stack of det S and the flags 3.7 MB."""
    triple = make_random_triple(np.random.default_rng(26), 1, n=2, m1=2, m2=2)
    field = gbdt_core.solution_field(triple, gbdt_core.Grid.build(1.0, 401, -0.5, 0.5, 401))
    assert not field.u.flags.c_contiguous
    tracemalloc.start()
    try:
        getattr(cli, writer)(tmp_path / "out.csv", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_outputs_are_deterministic(tmp_path):
    scenario = write_scenario(tmp_path, small_example1())
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = subprocess.run(
            [
                sys.executable, "-m", "nnls_gbdt",
                "run", str(scenario), "--out", str(out),
            ],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "result: pass" in result.stdout
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("u.csv", "detS.csv", "report.json")
            }
        )
    assert outputs[0] == outputs[1]


# ----------------------------------------------------- error exit codes


_SCIPY_MODULES = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    "print(loaded)\n"
    "assert not loaded, loaded\n"
)


@pytest.mark.parametrize("name", [None] + SHIPPED)
def test_runtime_loads_no_scipy(name, tmp_path):
    """Neither importing the runner (name None) nor a run of a shipped
    scenario loads a scipy module, in a fresh interpreter."""
    code = "import nnls_gbdt.cli\n"
    if name is not None:
        scenario, out = str(SCENARIO_DIR / name), str(tmp_path)
        code = (
            "from nnls_gbdt import cli\n"
            f"assert cli.main(['run', {scenario!r}, '--out', {out!r}]) == 0\n"
        )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + _SCIPY_MODULES],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_overflow_exits_3_with_error_report(tmp_path):
    """An x-range beyond the exponential's operating range is a range error."""
    document = small_example1()
    document["grid"]["x_max"] = 800.0
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 3
    assert report["passed"] is False
    assert report["error"]["type"] == "Overflow"


def _cdiag(values):
    n = len(values)
    return [
        [[complex(values[i]).real, complex(values[i]).imag] if i == j else [0.0, 0.0]
         for j in range(n)]
        for i in range(n)
    ]


def _gbdt_probe(diagonal, theta1, s0_diagonal=None, grid=None):
    n = len(diagonal)
    parameters = {
        "sigma": 1,
        "A": _cdiag(diagonal),
        "theta1": [[[theta1, 0.0]] for _ in range(n)],
        "theta2": [[[1.0, 0.0]] for _ in range(n)],
    }
    if s0_diagonal is not None:
        parameters["S0"] = _cdiag([s0_diagonal] * n)
    return {
        "kind": "gbdt",
        "parameters": parameters,
        "grid": {
            "x_max": 1.0, "nx": 21, "t_min": -0.2, "t_max": 0.2, "nt": 11,
            **(grid or {}),
        },
    }


MAGNITUDE_PROBES = {
    "example1-a-1e300": (
        small_example1(parameters={
            "a": [1e300, 0.0], "theta1": [2.0, 0.0], "theta2": [1.0, 0.0],
            "kappa": 0,
        }),
        errors.Overflow,
    ),
    "gbdt-n1-theta1-1e160": (_gbdt_probe([1.0], 1e160), errors.Overflow),
    "gbdt-n2-S0-1e200": (_gbdt_probe([1.0, 1.1], 1.0, 1e200), errors.Overflow),
    # a tiny A against a large theta1: Sigma1 = theta1 theta1* / (2 A) is
    # 5e309, beyond double range
    "gbdt-n1-A-1e-300": (_gbdt_probe([1e-300], 1e5), errors.Overflow),
    # A = 1 + i: det S grows like e^{8t}, e^{800} at t = 100
    "gbdt-n1-detS-e800": (
        _gbdt_probe([1.0 + 1.0j], 2.0, grid={"t_min": -1.0, "t_max": 100.0, "nt": 102}),
        errors.Overflow,
    ),
    # A = 1 + i: e^{-2ixA} reaches e^{800} at x = 400
    "gbdt-n1-x-400": (
        _gbdt_probe([1.0 + 1.0j], 2.0, grid={"x_max": 400.0}), errors.Overflow,
    ),
    # within the entry range: the determinant floor must not overflow, and
    # the identity A S0 + S0 A* = theta theta* fails
    "gbdt-n4-S0-1e100": (
        _gbdt_probe([1.0, 1.1, 1.2, 1.3], 1.0, 1e100), errors.DegenerateS,
    ),
}


@pytest.mark.parametrize("name", sorted(MAGNITUDE_PROBES))
def test_huge_data_end_with_an_error_report(name, tmp_path):
    """Data whose products or norms would leave double range stop with the
    error report and its exit code, never with a traceback, while every
    RuntimeWarning is an error."""
    document, expected = MAGNITUDE_PROBES[name]
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"
    code = cli.main(["run", str(scenario), "--out", str(out), "--refine", "0"])
    assert code == expected.exit_code
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == code and report["passed"] is False
    assert report["error"]["type"] == expected.__name__


def test_node_budget_exits_3_before_allocating(tmp_path, monkeypatch):
    """A 1e9 x 11 grid is refused from its sizes alone: no grid is built,
    no field assembled, and the error report names RangeExceeded."""
    document = small_example1()
    document["grid"]["nx"] = 1000000001
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"

    def refuse(*args, **kwargs):
        raise AssertionError("allocation past the node budget")

    monkeypatch.setattr(gbdt_core.Grid, "build", staticmethod(refuse))
    monkeypatch.setattr(gbdt_core, "solution_field", refuse)
    tracemalloc.start()
    try:
        code = cli.main(["run", str(scenario), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 16 * 2**20
    error = _error_report(out)
    assert error["type"] == "RangeExceeded"
    assert "node budget" in error["message"]


def test_node_budget_counts_the_kronecker_factor(tmp_path, monkeypatch):
    """A 100 x 100 A on a 5 x 5 grid is refused for its n^4 = 10^8
    Kronecker entries before the triple is completed: no Sylvester map is
    factored, and nothing the size of that factor (1.6 GB) is allocated."""
    n = 100
    rng = np.random.default_rng(3)
    a = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    column = rng.normal(size=(n, 1))

    def cjson(matrix):
        return [[[float(v), 0.0] for v in row] for row in matrix]

    document = {
        "kind": "gbdt",
        "parameters": {
            "sigma": 1, "A": cjson(a),
            "theta1": cjson(column), "theta2": cjson(0.3 * column),
        },
        "grid": {"x_max": 1.0, "nx": 5, "t_min": -0.1, "t_max": 0.1, "nt": 5},
        "checks": ["identity"],
    }
    scenario = write_scenario(tmp_path, document)
    out = tmp_path / "out"

    def refuse(*args, **kwargs):
        raise AssertionError("Sylvester map factored past the node budget")

    monkeypatch.setattr(numkit, "sylvester_solver", refuse)
    tracemalloc.start()
    try:
        code = cli.main(["run", str(scenario), "--out", str(out), "--refine", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 16 * 2**20
    error = _error_report(out)
    assert error["type"] == "RangeExceeded"
    assert "at n = 100" in error["message"]


@pytest.mark.parametrize(
    "nx, nt, levels, n, m1, m2",
    [(101, 101, 2, 8, 2, 2), (201, 101, 2, 2, 1, 1), (401, 201, 2, 2, 1, 1)],
    ids=["matrix-grid", "closed-form-grid", "example2-401"],
)
def test_node_budget_admits_benchmark_sizes(nx, nt, levels, n, m1, m2):
    cli._check_node_budget(nx, nt, levels, n, m1, m2)


def test_node_budget_counts_every_level():
    """201 x 201 at n = m1 = m2 = 8 fits on its own but not with its
    halving."""
    cli._check_node_budget(201, 201, 1, 8, 8, 8)
    with pytest.raises(errors.RangeExceeded, match="from 201 x 201 nodes"):
        cli._check_node_budget(201, 201, 2, 8, 8, 8)
    with pytest.raises(errors.RangeExceeded):
        cli._check_node_budget(3, 3, 40, 1, 1, 1)


def test_node_budget_weighs_the_theta_blocks():
    """1025 x 1025 with one halving is 5.25 M nodes: within the budget at
    n = m1 = m2 = 1 (weight 9/8), over it once either block is wider, and
    at n = 2 (weight 2); the same nodes at n = 8 with m1 = m2 = 2 weigh 18,
    so 201 x 201 with its halving (201,202 nodes) fits there."""
    cli._check_node_budget(1025, 1025, 2, 1, 1, 1)
    for n, m1, m2 in ((1, 2, 1), (1, 1, 4), (2, 1, 1)):
        with pytest.raises(errors.RangeExceeded, match=f"m1 = {m1}, m2 = {m2} exceed"):
            cli._check_node_budget(1025, 1025, 2, n, m1, m2)
    cli._check_node_budget(201, 201, 2, 8, 2, 2)
    with pytest.raises(errors.RangeExceeded, match="\\(n \\+ 2 m1\\)\\(n \\+ 2 m2\\) / 8"):
        cli._check_node_budget(401, 401, 2, 8, 2, 2)
    # a node count beyond double range is refused, not an OverflowError
    with pytest.raises(errors.RangeExceeded):
        cli._check_node_budget(10**200 + 1, 10**200, 1, 1, 1, 1)


def test_every_error_class_names_its_exit_code():
    classes = errors.NnlsGbdtError.__subclasses__()
    for cls in classes:
        assert "exit_code" in vars(cls), cls.__name__
        assert cls.exit_code in (2, 3), cls.__name__
    assert errors.Overflow.exit_code == 3
    assert errors.SchemaError.exit_code == 3
    assert errors.DegenerateS.exit_code == 2


# ------------------------------------------------------------ oracle check


def _shipped_field(name):
    scenario = cli.load_scenario(SCENARIO_DIR / name)
    datum, s0, oracle = cli._parse_construction(
        scenario["kind"], scenario["parameters"]
    )
    triple = cli._build_triple(datum, s0)
    g = scenario["grid"]
    grid = gbdt_core.Grid.build(
        x_max=g["x_max"], nx=g["nx"], t_min=g["t_min"], t_max=g["t_max"],
        nt=g["nt"],
    )
    return gbdt_core.solution_field(triple, grid), oracle


def test_oracle_report_fails_one_perturbed_node():
    field, oracle = _shipped_field("example2.json")
    clean = verify.oracle_residual(field, oracle)
    assert clean.passed
    k, l = field.grid.nx // 3, field.grid.nt // 4
    assert not field.singular_mask[k, l]
    field.u[k, l] *= 1.0 + 1e-8
    perturbed = verify.oracle_residual(field, oracle)
    assert not perturbed.passed
    assert perturbed.residual > verify.ORACLE_TOL
    assert perturbed.points_used == clean.points_used


def test_oracle_report_counts_every_node_on_blowup_grid():
    params = oracles.Example1Params(
        a=1.0 + 1.0j, theta1=2.0, theta2=1.0, kappa=1
    )
    t_star = oracles.ex1_blowup_time(params)
    triple = gbdt_core.complete_triple(
        -1, [[params.a]], [[params.theta1]], [[params.theta2]]
    )
    grid = gbdt_core.Grid.build(
        x_max=2.0, nx=41, t_min=2.0 * t_star, t_max=0.0, nt=3
    )
    field = gbdt_core.solution_field(triple, grid)
    report = verify.oracle_residual(field, cli.closed_form_oracle(params))
    assert report.passed
    assert report.points_used + report.points_skipped == grid.nx * grid.nt
    assert report.points_skipped > 0
