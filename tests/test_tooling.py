"""Guards for the tooling around the library."""

import ast
import importlib
import inspect
import json
import textwrap
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize(
    "config", ["landau", "conjugate", "alteration", str(TRACING.parent / "p6.json")],
    ids=["landau", "conjugate", "alteration", "p6"],
)
def test_report_takes_no_stencil(capsys, monkeypatch, config):
    # maf report differentiates, and every field it differentiates carries its exact jet
    import maf.cli
    import maf.magnetics

    fields = []
    real = maf.magnetics.jet
    monkeypatch.setattr(maf.magnetics, "jet", lambda f, z: fields.append(f) or real(f, z))
    assert maf.cli.main(["report", "--config", config]) == 0
    capsys.readouterr()
    assert fields and all(f.jet is not None for f in fields)


def test_src_defines_no_stencil_and_reads_no_fd_step():
    # a field is differentiated by its exact jet only; the finite-difference stencil is the
    # tests' oracle (tests/oracles.py), and no module or bundled config takes a step
    import maf

    package = Path(maf.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        names = [n.name for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        assert [n for n in names if "stencil" in n.lower() or "wirtinger" in n.lower()] == [], path.name
        assert "fd_step" not in source and "FD_STEP" not in source, path.name
    assert [p.name for p in sorted(package.glob("configs/*.json")) if "fd_step" in p.read_text()] == []


def test_src_takes_no_laguerre_scale():
    # K_k has one Laguerre argument, B |z - w|^2: no function takes a scale for it.  The
    # parameters (ast.arg nodes) are read, not the text, since the name select_laguerre_scale stays
    import maf

    for path in sorted(Path(maf.__file__).parent.glob("*.py")):
        params = [n.arg for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.arg)]
        assert "laguerre_scale" not in params, path.name


def _taken_as_gs(arguments):
    return len(arguments["gs"][0])


# each group check's traced entry points, how many elements its one call takes, and how many a
# call's arguments hold: elements gs = (a, b), or the lift's chi table entries idx
RUNNER_ENTRY_POINTS = {
    "invariance": ([("maf.magnetics", "invariance_residual")], lambda sys_: 3, _taken_as_gs),
    "lift": (
        [("maf.magnetics", "chi_tau_hat_spread"), ("maf.magnetics", "lifting_residual")],
        lambda sys_: len(sys_.gamma.generators),
        lambda arguments: len(arguments["idx"]),
    ),
    "kernel": ([("maf.spectral", "kernel_invariance_residual")], lambda sys_: 5, _taken_as_gs),
}


@pytest.mark.parametrize("check", sorted(RUNNER_ENTRY_POINTS))
def test_group_checks_make_one_traced_call_per_report(capsys, monkeypatch, check):
    # one call takes all the report's elements; the benchmark counts its points by ``grid``
    import maf.cli

    entry_points, n_elements, taken = RUNNER_ENTRY_POINTS[check]
    traced = {(m, a) for m, a, _ in _tracing_literal("TARGETS")}
    per_point = set(_tracing_literal("PER_POINT"))
    calls = {}
    for module_name, attr in entry_points:
        assert (module_name, attr) in traced
        module = importlib.import_module(module_name)
        real = getattr(module, attr)

        def spy(*args, _real=real, _attr=attr, **kwargs):
            calls.setdefault(_attr, []).append(inspect.signature(_real).bind(*args, **kwargs).arguments)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    for config in ("landau", "alteration"):
        calls.clear()
        assert maf.cli.main(["report", "--config", config]) == 0
        capsys.readouterr()
        sys_ = maf.cli.build_system(maf.cli._resolve_config(config))
        assert sorted(calls) == sorted(attr for _, attr in entry_points)
        for attr, seen in calls.items():
            assert len(seen) == 1
            assert taken(seen[0]) == n_elements(sys_)
            if attr in per_point:
                assert isinstance(seen[0]["grid"], maf.cli.Grid)


def test_lift_reads_its_entries_without_a_probe(capsys, monkeypatch, fresh_groups):
    # the runner passes the generators' chi table entries, and the lift checks read chi, g.0,
    # g^{-1}.0 and rho(g)^{-1}.0 by entry index, so nothing in the command looks an element up
    # in the word closure
    import maf.cli
    import maf.groups

    probes, per_call = [], []
    real_lookup_all = maf.groups.WordClosure.lookup_all
    monkeypatch.setattr(
        maf.groups.WordClosure, "lookup_all", lambda self, a, b: probes.append(len(a)) or real_lookup_all(self, a, b)
    )
    entry_points, _, _ = RUNNER_ENTRY_POINTS["lift"]
    for module_name, attr in entry_points:
        module = importlib.import_module(module_name)

        def spy(*args, _real=getattr(module, attr), **kwargs):
            before = len(probes)
            try:
                return _real(*args, **kwargs)
            finally:
                per_call.append(probes[before:])

        monkeypatch.setattr(module, attr, spy)
    for config in ("landau", "conjugate", "alteration", str(TRACING.parent / "p6.json")):
        per_call.clear()
        assert maf.cli.main(["lift", "--config", config]) == 0
        capsys.readouterr()
        assert per_call == [[], []] and probes == []


@pytest.mark.parametrize("k", [0, 2])
def test_kernel_makes_three_kernel_calls(capsys, monkeypatch, k):
    # the Hermitian pairs (z, w) and (w, z) in one stacked call, kernel_invariance's (z, w)
    # and (gz, gw) in another, and the level-0 diagonal in its own
    import maf.cli
    import maf.spectral

    shapes = []
    real = maf.spectral.kernel
    monkeypatch.setattr(maf.spectral, "kernel", lambda sys_, k, z, *a: shapes.append(np.shape(z)) or real(sys_, k, z, *a))
    for config in ("landau", "conjugate", "alteration", str(TRACING.parent / "p6.json")):
        shapes.clear()
        assert maf.cli.main(["kernel", "--config", config, "--k", str(k)]) == 0
        capsys.readouterr()
        assert shapes == [(2, 8), (), (6, 8)]


def test_highdim_makes_one_constant_field_test_call(capsys, monkeypatch):
    # every case of the block in one call, on one stack of maps
    import maf.cli

    calls = []
    real = maf.cli.constant_field_test
    monkeypatch.setattr(maf.cli, "constant_field_test", lambda taus, *a: calls.append(len(taus)) or real(taus, *a))
    for config in ("landau", "conjugate", "alteration"):
        calls.clear()
        assert maf.cli.main(["highdim", "--config", config]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3
        assert calls == [3]


def test_word_closure_is_exact_and_has_no_entry_loop():
    # the closure keys exact (j, m, n) triples: no floored float cells, no hash of them
    # and no one-element lookup to fall back on; a level is whole-array operations,
    # and its one loop runs over the levels
    import maf.groups

    source = inspect.getsource(maf.groups)
    assert [word for word in ("np.floor", "_hash", "np.uint64", "def lookup(") if word in source] == []
    levels = ast.parse(textwrap.dedent(inspect.getsource(maf.groups.WordClosure.levels)))
    loops = [node for node in ast.walk(levels) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert [type(node) for node in loops] == [ast.While]
