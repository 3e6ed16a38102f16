"""Tests of the benchmark's own gates and span recorder.

Run from the repository root: python3 -m pytest bench -q
"""

import json

import pytest

import spans
import workloads
from nnls_gbdt import gbdt_core, numkit


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_calls(tracer, clock):
    def inner():
        clock.now += 5.0

    def outer(inner):
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()

    return tracer.wrap("outer", outer), tracer.wrap("inner", inner)


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer, inner = _nested_calls(tracer, clock)
    outer(inner)
    assert tracer.stats["outer"].total_s == 13.0
    assert tracer.stats["outer"].self_s == 3.0
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == tracer.stats["inner"].total_s == 10.0
    records = tracer.span_records()
    assert [r["name"] for r in records] == ["outer", "inner", "inner"]
    assert records[0]["parent"] is None
    assert records[1]["parent"] == records[2]["parent"] == 0


def test_aggregated_name_keeps_totals_without_spans(monkeypatch):
    monkeypatch.setattr(spans, "AGGREGATED", frozenset({"inner"}))
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer, inner = _nested_calls(tracer, clock)
    outer(inner)
    assert [r["name"] for r in tracer.span_records()] == ["outer"]
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].total_s == 10.0
    assert tracer.stats["outer"].self_s == 3.0


def test_raising_call_is_counted_and_its_time_kept():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def fails():
        clock.now += 4.0
        raise ValueError("boom")

    traced = tracer.wrap("fails", fails)
    with pytest.raises(ValueError):
        traced()
    assert tracer.stats["fails"].errors == 1
    assert tracer.stats["fails"].total_s == 4.0


def test_instrumented_counts_layers_and_restores_attributes():
    original = numkit.sylvester_solver
    tracer = spans.Tracer()
    grid = gbdt_core.Grid.build(1.0, 5, -0.1, 0.1, 3)
    with spans.instrumented(tracer):
        triple = gbdt_core.complete_triple(1, [[1.0]], [[2.0]], [[1.0]])
        gbdt_core.solution_field(triple, grid)
    assert numkit.sylvester_solver is original
    assert tracer.stats["gbdt_core.complete_triple"].calls == 1
    assert tracer.stats["numkit.sylvester_solver"].calls == 2
    assert tracer.counters["numkit.sylvester_solve.rhs"] == 1 + 15
    assert tracer.counters["gbdt_core.solution_field.nodes"] == 15
    assert tracer.stats["numkit.expm"].calls == 5 + 2 * 3


def _scenario_output(tmp_path, checks_passed=True, with_u=True):
    out = tmp_path / "out"
    out.mkdir()
    if with_u:
        (out / "u.csv").write_text("x,t\n")
    (out / "detS.csv").write_text("x,t,re,im,singular\n")
    report = {
        "checks": [{"name": "pde", "passed": True},
                   {"name": "identity", "passed": checks_passed}],
        "passed": checks_passed,
        "exit_code": 0 if checks_passed else 1,
        "grid": {"levels": 2},
    }
    (out / "report.json").write_text(json.dumps(report))
    return out


def _op(name, call, out=None, check=None, digest=None):
    files = ("u.csv", "detS.csv", "report.json")
    return workloads.Op(
        name=name,
        call=call,
        check=check or (
            lambda code: workloads.check_scenario(out, code, files, ("pde", "identity"), 2)
        ),
        digest=digest or (lambda code: workloads.digest_files(out, files)),
        nodes=1,
        sizes={},
    )


def test_intact_scenario_result_passes(tmp_path):
    out = _scenario_output(tmp_path)
    (outcome,) = workloads.run_pass([_op("good", lambda: 0, out)], [0])
    assert outcome.problems == []


@pytest.mark.parametrize(
    "exit_code, checks_passed, with_u",
    [(1, True, True), (0, False, True), (0, True, False)],
    ids=["exit-code", "failed-check", "missing-u-csv"],
)
def test_corrupted_scenario_result_counts_as_failed(tmp_path, exit_code, checks_passed, with_u):
    out = _scenario_output(tmp_path, checks_passed, with_u)
    (outcome,) = workloads.run_pass([_op("bad", lambda: exit_code, out)], [0])
    assert outcome.problems


def test_raising_operation_counts_as_failed():
    def call():
        raise ArithmeticError("Darboux pair failed the inverse check")

    op = _op("raises", call, check=lambda v: [], digest=lambda v: "")
    (outcome,) = workloads.run_pass([op], [0])
    assert outcome.problems == ["ArithmeticError: Darboux pair failed the inverse check"]


def test_wrong_pointwise_result_counts_as_failed():
    op = workloads.period_op("periods", (-2.0, -1.0, 1.0, 2.0))
    tau, delta = op.call()
    assert op.check((tau, delta)) == []
    assert op.check((tau + 1e-6j, delta))


def test_digest_mismatch_counts_as_failed():
    calls = []

    def call():
        calls.append(None)
        return len(calls)

    op = _op("drifts", call, check=lambda v: [], digest=str)
    reference = {}
    done = workloads.run_passes([op], [0], seconds=0.0, reference=reference, passes=2)
    first, second = done[0][0], done[1][0]
    assert first.problems == []
    assert second.problems == ["output bytes differ from the first repeat"]
