"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent): the interval one call to a traced
public function covered, and the recorded span that was open when it
started. Every traced name also keeps aggregates: calls, total time, self
time (total minus the part of the interval its traced children cover) and
calls that raised. Names called more than about 10^4 times per pass keep
the aggregates only, which keeps the cost per call to two clock reads and
a few additions.

``instrumented`` swaps the wrappers in for public module attributes of the
package and restores the originals on exit. The package looks those
attributes up at call time (``numkit.expm(...)``, ``gbdt_core.s_at(...)``
and module globals such as ``cli.write_u_csv``), so every internal call is
seen without changing a file of the package.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass

#: Names that keep aggregates only: the scalar oracles run once per grid
#: node, expm several times per pointwise S, theta once per series probe.
AGGREGATED = frozenset(
    {"oracles.ex1_u", "oracles.ex2_u", "oracles.ex3_u", "numkit.expm", "ag_theta.theta"}
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Records spans and per-name aggregates of the wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(float)
        self.spans = []
        # each frame is [time covered by traced children, id of its span]
        self._stack = [[0.0, None]]

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` timed under ``name``.

        ``on_return(tracer, args, result)`` runs after the span closes and
        its return value replaces the result; it is how counters are kept.
        """
        stat = self.stats[name]
        clock = self.clock
        stack = self._stack
        spans = self.spans
        keep_spans = name not in AGGREGATED

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                parent[0] += duration
                if keep_spans:
                    spans[span_id] = (name, start, end, parent[1])
            if on_return is not None:
                result = on_return(self, args, result)
            return result

        return traced

    def span_records(self):
        """Recorded spans as dictionaries, parents by index into this list."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _count_nodes(tracer, args, field):
    nodes = field.u.shape[0] * field.u.shape[1]
    masked = int(field.singular_mask.sum())
    tracer.counters["gbdt_core.solution_field.nodes"] += nodes
    tracer.counters["gbdt_core.masked_nodes"] += masked
    return field


def _count_bytes(tracer, args, result):
    tracer.counters["cli.bytes_written"] += os.path.getsize(args[0])
    return result


def _count_rhs(tracer, args, result):
    tracer.counters["numkit.sylvester_solve.rhs"] += math.prod(args[0].shape[:-2])
    return result


def _wrap_solver(tracer, args, solver):
    return tracer.wrap("numkit.sylvester_solve", solver, _count_rhs)


#: (module of nnls_gbdt, attribute, span name, counter hook) per traced entry point.
TRACED = (
    ("numkit", "expm", "numkit.expm", None),
    ("numkit", "sylvester_solver", "numkit.sylvester_solver", _wrap_solver),
    ("numkit", "integrate_matrix", "numkit.integrate_matrix", None),
    ("gbdt_core", "complete_triple", "gbdt_core.complete_triple", None),
    ("gbdt_core", "solution_field", "gbdt_core.solution_field", _count_nodes),
    ("gbdt_core", "s_at", "gbdt_core.s_at", None),
    ("gbdt_core", "s_via_integration", "gbdt_core.s_via_integration", None),
    ("gbdt_core", "darboux_at", "gbdt_core.darboux_at", None),
    ("oracles", "ex1_u", "oracles.ex1_u", None),
    ("oracles", "ex2_u", "oracles.ex2_u", None),
    ("oracles", "ex3_u", "oracles.ex3_u", None),
    ("verify", "nnls_residual", "verify.pde", None),
    ("verify", "identity_residual", "verify.identity", None),
    ("verify", "hermitian_mirror_residual", "verify.mirror", None),
    ("verify", "reduction_residual", "verify.reduction", None),
    ("verify", "wave_ode_residual", "verify.wave_ode", None),
    ("ag_theta", "theta", "ag_theta.theta", None),
    ("ag_theta", "periods_case_i", "ag_theta.periods_case_i", None),
    ("ag_theta", "check_nnls_constraints", "ag_theta.check_nnls_constraints", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("cli", "write_u_csv", "cli.write_u_csv", _count_bytes),
    ("cli", "write_dets_csv", "cli.write_dets_csv", _count_bytes),
)


@contextlib.contextmanager
def instrumented(tracer):
    """Swap traced wrappers in for the TRACED attributes of the package.

    The original attributes are restored on exit.
    """
    saved = []
    try:
        for module_name, attr, name, hook in TRACED:
            module = importlib.import_module(f"nnls_gbdt.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
