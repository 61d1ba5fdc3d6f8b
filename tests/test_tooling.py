"""Guards for the tooling around the library."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_literal(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} list in perfbench/tracing.py")


def test_benchmark_trace_targets_resolve():
    # the benchmark wraps these attributes by name, so a rename in maf breaks its trace
    targets = _tracing_literal("TARGETS")
    assert targets
    missing = [(m, a) for m, a, _ in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []


@pytest.mark.parametrize(
    "attr", sorted({a for m, a, _ in _tracing_literal("TARGETS") if m == "maf.cli"})
)
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


COUNTED_ARGUMENTS = {
    "maf.spectral.project_on_nodes": {"Z"},
    "maf.automorphy.rdq_check": {"gamma", "max_word_len"},
    **{f"maf.magnetics.{f}": {"grid"} for f in _tracing_literal("PER_POINT")},
}


@pytest.mark.parametrize("target", sorted(COUNTED_ARGUMENTS))
def test_trace_counters_bind_by_name(target):
    # the benchmark's span counters read these arguments of the wrapped call by name
    module, attr = target.rsplit(".", 1)
    fn = getattr(importlib.import_module(module), attr)
    assert COUNTED_ARGUMENTS[target] <= set(inspect.signature(fn).parameters)
