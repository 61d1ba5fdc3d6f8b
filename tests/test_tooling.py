"""Guards for the tooling around the library."""

import ast
import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("attr", sorted({a for m, a, _ in _trace_targets() if m == "maf.cli"}))
def test_cli_runs_through_the_traced_names(capsys, monkeypatch, attr):
    # a runner that bound the function before the tracer wrapped it would go unseen
    import maf.cli

    calls = []
    real = getattr(maf.cli, attr)

    def spy(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(maf.cli, attr, spy)
    command = "highdim" if attr == "constant_field_test" else "report"
    assert maf.cli.main([command, "--config", "landau"]) == 0
    capsys.readouterr()
    assert calls
