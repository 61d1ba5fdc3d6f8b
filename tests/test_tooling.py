"""Guards for the tooling around the library."""

import ast
import importlib
import inspect
import json
import re
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


def test_a_field_is_its_jet():
    # a ScalarField holds one callable, its exact jet, and its value is the jet's first part:
    # no src/maf module builds one with a second, value-only formula
    import dataclasses

    import maf
    from maf.fields import ScalarField

    assert [f.name for f in dataclasses.fields(ScalarField)] == ["jet"]
    built = []
    for path in sorted(Path(maf.__file__).parent.glob("*.py")):
        calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        built += [(path.name, n.lineno, len(n.args) + len(n.keywords)) for n in calls
                  if getattr(n.func, "id", getattr(n.func, "attr", None)) == "ScalarField"]
    assert built and [site for site in built if site[2] > 1] == []


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
    import maf.config

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
        sys_ = maf.cli.build_system(maf.config.load_bundled(config))
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
def test_kernel_makes_one_kernel_call(capsys, monkeypatch, k):
    # kernel_invariance's (z, w) and (gz, gw) rows, the Hermitian pairs' (w, z) and a row of the
    # level-k diagonal in one stacked call, in the kernel command and in a report; and one
    # lifted factor in a report, which both lift checks read
    import maf.cli
    import maf.magnetics
    import maf.spectral

    shapes, factors = [], []
    real, real_factor = maf.spectral.kernel, maf.magnetics._lifted_factor
    monkeypatch.setattr(maf.spectral, "kernel", lambda sys_, k, z, *a: shapes.append(np.shape(z)) or real(sys_, k, z, *a))
    monkeypatch.setattr(maf.magnetics, "_lifted_factor", lambda *a: factors.append(a) or real_factor(*a))
    for config in ("landau", "conjugate", "alteration", str(TRACING.parent / "p6.json")):
        for command in ("kernel", "report"):
            shapes.clear(), factors.clear()
            assert maf.cli.main([command, "--config", config, "--k", str(k)]) == 0
            capsys.readouterr()
            assert shapes == [(8, 8)]
            assert len(factors) == (command == "report")


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


@pytest.mark.parametrize("config, length", [("landau", 6), ("alteration", 3), (str(TRACING.parent / "p6.json"), 4)],
                         ids=["landau", "alteration", "p6"])
def test_rdq_sweeps_its_pairs_in_one_contraction_and_one_sine(monkeypatch, fresh_groups, config, length):
    # the n x n phase mismatches come from one einsum (rank 4, or 6 when mu != 0) and go through
    # one sine, whether the character table is built in the call or kept from before; the report's
    # mean is a pairwise sum, with no cumsum
    import maf.automorphy
    import maf.reports
    from maf.config import build_system, load_bundled, load_config

    sys_ = build_system(load_config(config) if config.endswith(".json") else load_bundled(config))
    shapes = {"einsum": [], "sin": [], "cumsum": []}  # the shape of each call's result
    for name, seen in shapes.items():
        real = getattr(np, name)
        spy = lambda *a, _real=real, _seen=seen, **k: _seen.append(np.shape(r := _real(*a, **k))) or r
        monkeypatch.setattr(np, name, spy)
    for _ in range(2):
        for seen in shapes.values():
            seen.clear()
        maf.automorphy.rdq_check(sys_.nu, sys_.mu, sys_.rho, sys_.gamma, sys_.chi, max_word_len=length)
        n = sys_.gamma.closure.size(length)
        assert shapes["einsum"] == [(n, n)] and shapes["sin"].count((n, n)) == 1
        assert shapes["cumsum"] == []
    for fn in (maf.reports.from_residuals, maf.reports.from_element_residuals):
        assert "cumsum" not in inspect.getsource(fn)


# what stays in src/maf with no caller there or in perfbench/, and why
UNCALLED = {
    "magnetics.representation": "T_g f itself: the array form of the functional equation is to call it, "
                                "and the tests pin its exact jet against the finite-difference oracle",
    "automorphy.CharacterTable.indices": "how a caller holding elements finds the chi table entries that "
                                         "the lift checks take",
}


def test_src_defines_nothing_uncalled():
    # every module-level function and class of src/maf, and every public method, is read by
    # src/maf (the export table of its __init__ aside) or named in perfbench/: a scalar twin
    # of an array path, a wrapper that only forwards, or an option that only tests set
    # belongs in tests/oracles.py
    import maf

    defined, used = [], set()
    for path in sorted(Path(maf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.append((f"{path.stem}.{node.name}", node.name))
                methods = node.body if isinstance(node, ast.ClassDef) else []
                defined += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in methods
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            if path.stem != "__init__":
                read = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load)]
                names = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in read}
                used |= names - {getattr(node, "name", None)}  # a recursive call is no caller
    for path in sorted(TRACING.parent.glob("*.py")):
        used |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    assert [key for key, name in defined if name not in used and key not in UNCALLED] == []
    assert [key for key in UNCALLED if key not in dict(defined)] == []
