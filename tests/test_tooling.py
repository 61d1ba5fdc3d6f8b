"""Guards for the tooling around the library."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _trace_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


def test_benchmark_trace_targets_resolve():
    # the benchmark wraps these attributes by name, so a rename in maf breaks its trace
    targets = _trace_targets()
    assert targets
    missing = [(m, a) for m, a, _ in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []
