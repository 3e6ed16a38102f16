"""Benchmark of nnls-gbdt: time to a verified field and to a verified pointwise object.

Run from the repository root:

    python3 bench/run.py --workload closed-form-grid --seed 1 --seconds 30 --trace 0

Workloads: closed-form-grid, matrix-grid, pointwise (see bench/NOTES.md).
The seed makes the inputs. Operations run in whole passes while the next
pass is expected to end within ``--seconds`` seconds, and at least twice
each. Every operation is checked outside the timed region and its output
bytes are compared with its first repeat; a failed operation makes the run
exit 1. Latencies are each operation's median over its repeats.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones. With ``--trace 1`` the same passes run a
second time with spans recorded around the package's public functions,
and the metrics are the per-layer ones, per pass, plus trace.overhead_s,
the traced minus the untraced wall time per pass.

A results file with provenance, per-operation sizes and latencies goes to
``.bench_work/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("closed-form-grid", "matrix-grid", "pointwise")

#: Matrices here are at most 8x8, where BLAS threads add only noise.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds(manifest: Path) -> list:
    """Wall times of fresh processes doing the set-up every run pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(manifest)],
            check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return times


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": dict(blas, threads=BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, passes, setup, failed, attempted) -> dict:
    """End-to-end metrics from each operation's median latency over its
    repeats, which the passes spread over the whole run."""
    repeats = {}
    for outcomes in passes:
        for o in outcomes:
            repeats.setdefault(o.name, []).append(o.seconds)
    latencies = [statistics.median(seconds) for seconds in repeats.values()]
    busy = sum(latencies)
    latencies_ms = [1000.0 * seconds for seconds in latencies]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "nodes_per_s": metric(sum(op.nodes for op in ops) / busy, "1/s"),
        "evals_per_s": metric(len(ops) / busy, "1/s"),
        "eval_ms_p50": metric(percentile(latencies_ms, 50), "ms"),
        "eval_ms_p90": metric(percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "passed_frac": metric(1.0 - failed / attempted, "frac"),
    }


def per_layer(tracer, passes, untraced_s, traced_s) -> dict:
    """Per-pass figures of the traced run, named after the traced layers.

    ``untraced_s`` and ``traced_s`` are the timed wall seconds per pass
    without and with tracing.
    """
    stats = tracer.stats
    counters = tracer.counters
    oracles = [stats[name] for name in ("oracles.ex1_u", "oracles.ex2_u", "oracles.ex3_u")]
    nodes = counters["gbdt_core.solution_field.nodes"]
    masked = counters["gbdt_core.masked_nodes"]
    values = {
        "numkit.expm.calls": (stats["numkit.expm"].calls, "count"),
        "numkit.expm.self_s": (stats["numkit.expm"].self_s, "s"),
        "numkit.sylvester_solver.calls": (stats["numkit.sylvester_solver"].calls, "count"),
        "numkit.sylvester_solver.self_s": (stats["numkit.sylvester_solver"].self_s, "s"),
        "numkit.sylvester_solve.rhs": (counters["numkit.sylvester_solve.rhs"], "count"),
        "numkit.sylvester_solve.self_s": (stats["numkit.sylvester_solve"].self_s, "s"),
        "numkit.integrate_matrix.self_s": (stats["numkit.integrate_matrix"].self_s, "s"),
        "gbdt_core.solution_field.nodes": (nodes, "count"),
        "gbdt_core.solution_field.self_s": (stats["gbdt_core.solution_field"].self_s, "s"),
        "gbdt_core.masked_nodes": (masked, "count"),
        "gbdt_core.complete_triple.self_s": (stats["gbdt_core.complete_triple"].self_s, "s"),
        "gbdt_core.s_via_integration.total_s": (
            stats["gbdt_core.s_via_integration"].total_s, "s"),
        "gbdt_core.darboux_at.total_s": (stats["gbdt_core.darboux_at"].total_s, "s"),
        "gbdt_core.s_at.total_s": (stats["gbdt_core.s_at"].total_s, "s"),
        "oracles.calls": (sum(s.calls for s in oracles), "count"),
        "oracles.self_s": (sum(s.self_s for s in oracles), "s"),
        "oracles.singular": (sum(s.errors for s in oracles), "count"),
        "verify.pde.self_s": (stats["verify.pde"].self_s, "s"),
        "verify.identity.self_s": (stats["verify.identity"].self_s, "s"),
        "verify.mirror.self_s": (stats["verify.mirror"].self_s, "s"),
        "verify.reduction.self_s": (stats["verify.reduction"].self_s, "s"),
        "verify.wave_ode.total_s": (stats["verify.wave_ode"].total_s, "s"),
        "cli.run_scenario.self_s": (stats["cli.run_scenario"].self_s, "s"),
        "cli.write_u_csv.self_s": (stats["cli.write_u_csv"].self_s, "s"),
        "cli.write_dets_csv.self_s": (stats["cli.write_dets_csv"].self_s, "s"),
        "cli.bytes_written": (counters["cli.bytes_written"], "bytes"),
        "cli.load_scenario.self_s": (stats["cli.load_scenario"].self_s, "s"),
        "ag_theta.theta.calls": (stats["ag_theta.theta"].calls, "count"),
        "ag_theta.periods_case_i.total_s": (stats["ag_theta.periods_case_i"].total_s, "s"),
        "ag_theta.check_nnls_constraints.total_s": (
            stats["ag_theta.check_nnls_constraints"].total_s, "s"),
    }
    out = {name: metric(value / passes, unit) for name, (value, unit) in values.items()}
    # 1.0 when no grid was built: nothing was masked
    out["gbdt_core.kept_frac"] = metric(1.0 - masked / nodes if nodes else 1.0, "frac")
    out["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    out["trace.untraced_wall_s"] = metric(untraced_s, "s")
    out["trace.self_sum_s"] = metric(
        sum(stat.self_s for stat in stats.values()) / passes, "s"
    )
    return out


def write_results(args, ops, passes, outcomes, reference, setup, metrics, tracer):
    """Results file with provenance and per-operation figures; spans if traced."""
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    by_name = {}
    for o in outcomes:
        by_name.setdefault(o.name, []).append(o)
    failed = sum(1 for o in outcomes if o.problems)
    results = {
        "provenance": provenance(args),
        "passes": len(passes),
        "setup_s": setup,
        "metrics": metrics,
        "failed_frac": failed / len(outcomes),
        "operations": [
            {
                "name": op.name,
                "sizes": op.sizes,
                "nodes": op.nodes,
                "seconds": [o.seconds for o in by_name[op.name]],
                "digest": reference.get(op.name),
                "problems": sorted({p for o in by_name[op.name] for p in o.problems}),
            }
            for op in ops
        ],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    if tracer is not None:
        spans_file = results_dir / f"{stem}-spans.json"
        spans_file.write_text(
            json.dumps({
                "aggregates": {name: vars(stat) for name, stat in tracer.stats.items()},
                "counters": dict(tracer.counters),
                "spans": tracer.span_records(),
            }),
            encoding="utf-8",
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nnls_gbdt").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: no package sources under {ROOT}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    # imported only now so that the BLAS thread limit applies
    import numpy as np

    import spans
    import workloads

    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    workload = workloads.BUILDERS[args.workload](rng, work)
    ops = workload.ops
    order = [int(i) for i in rng.permutation(len(ops))]

    setup = []
    if not args.trace:
        manifest = work / "setup.json"
        manifest.write_text(
            json.dumps({
                "scenarios": [str(op.scenario) for op in ops if op.scenario],
                "triples": workload.triples,
            }),
            encoding="utf-8",
        )
        setup = setup_seconds(manifest)

    reference = {}
    tracer = None
    traced = []
    # a traced run gives half its time to the untraced passes it repeats
    window = args.seconds / 2 if args.trace else args.seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        passes = workloads.run_passes(ops, order, window, reference)
        if args.trace:
            tracer = spans.Tracer()
            with spans.instrumented(tracer):
                traced = workloads.run_passes(
                    ops, order, window, reference, check=False, passes=len(passes)
                )

    outcomes = [o for done in passes + traced for o in done]
    failures = [o for o in outcomes if o.problems]
    if args.trace:
        untraced_s = sum(o.seconds for done in passes for o in done) / len(passes)
        traced_s = sum(o.seconds for done in traced for o in done) / len(traced)
        metrics = per_layer(tracer, len(traced), untraced_s, traced_s)
    else:
        metrics = end_to_end(ops, passes, setup, len(failures), len(outcomes))
    write_results(args, ops, passes, outcomes, reference, setup, metrics, tracer)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{len(passes)} untraced passes, BLAS threads {BLAS_THREADS}; "
          f"latencies are each operation's median over its repeats")
    for failure in failures:
        print(f"FAILED {failure.name}: {'; '.join(failure.problems)}")
    print(f"failed_frac {len(failures) / len(outcomes):.6g} "
          f"({len(failures)} of {len(outcomes)})")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
