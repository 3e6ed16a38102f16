"""The package attributes the benchmark uses must exist.

``bench/spans.py`` swaps wrappers in for the attributes its ``TRACED``
table names, and the workloads, the set-up probe and the driver call the
package's modules by attribute; a renamed or deleted attribute would
otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
CALLERS = ("workloads.py", "setup_probe.py", "run.py")
MODULES = ("gbdt_core", "verify", "numkit", "ag_theta", "cli")


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


def _module_attributes(path: Path) -> set:
    """(module, attribute) for every ``module.attribute`` in the file whose
    module is one of MODULES, read from its syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }


def test_every_package_name_the_benchmark_uses_resolves():
    used = set().union(*(_module_attributes(BENCH / name) for name in CALLERS))
    # a scan that found nothing would pass without checking anything
    assert {module for module, _ in used} >= {"gbdt_core", "verify", "cli"}
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in used
        if not hasattr(importlib.import_module(f"nnls_gbdt.{module}"), attr)
    )
    assert missing == []
