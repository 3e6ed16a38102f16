"""The package attributes the benchmark's span tracer wraps must exist.

``bench/spans.py`` swaps wrappers in for the attributes its ``TRACED``
table names; a renamed or deleted attribute would otherwise surface only
when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_attribute_exists_and_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, attr, _, _ in spans.TRACED:
        module = importlib.import_module(f"nnls_gbdt.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
