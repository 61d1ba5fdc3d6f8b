"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the library's test suite (the file name does not match
``test_*.py``) because the smoke runs take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maf.automorphy import CharacterTable, PseudoCharacter, rdq_check  # noqa: E402
from maf.config import build_system, load_bundled, load_config  # noqa: E402
from maf.groups import GroupElement, compose, enumerate_words, inverse  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    listed = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _report_texts(out) -> list[str]:
    runs = out if isinstance(out, list) else [out["report"]]
    return [text for _, _, text in runs]


@pytest.mark.parametrize("name", ["verify", "closure"])
def test_same_seed_same_reports(name):
    texts = [_report_texts(next(workloads.WORKLOADS[name].ops(7)).execute()) for _ in range(2)]
    assert all(texts[0]) and texts[0] == texts[1]


def test_gate_flags_corrupted_reports():
    runs = next(workloads.verify_ops(5)).execute()
    assert workloads.cli_problems(runs) == []

    def corrupt(edit):
        label, code, text = runs[0]
        reports = json.loads(text)
        edit(reports)
        return workloads.cli_problems([(label, code, json.dumps(reports))] + runs[1:])

    def nan_mean(reports):
        reports[-1]["mean_residual"] = float("nan")

    def flip_to_fail(reports):
        reports[0]["pass"] = False

    def pass_over_tol(reports):
        reports[0]["max_residual"] = 10 * reports[0]["tol"] + 1.0

    for edit in (nan_mean, flip_to_fail, pass_over_tol):
        assert len(corrupt(edit)) == 1, edit.__name__
    assert workloads.cli_problems([(runs[0][0], 1, runs[0][2])])


def test_gate_flags_negative_control_that_passes():
    out = next(workloads.closure_ops(5)).execute()
    assert workloads.closure_problems(out) == []
    assert out["rdq_unquantized"]["max_residual"] >= workloads.NEGATIVE_MIN_RESIDUAL
    out["rdq_unquantized"] = out["rdq_quantized"]
    assert workloads.closure_problems(out)


def test_gate_flags_scaled_projection():
    ops = workloads.projector_ops(5)
    first = next(ops)
    assert first.gate(first.execute()) == []
    idempotence = next(ops)
    out = idempotence.execute()
    assert idempotence.gate(out) == []
    assert idempotence.gate(1.1 * out)
    assert first.gate(np.full_like(out, np.nan))


def test_kernel_unit_is_a_landau_kernel_block():
    from types import SimpleNamespace

    from maf.spectral import kernel

    unit = speed.KernelUnit(rows=8, cols=64)
    sys_ = SimpleNamespace(B=unit.B, gauge_k=unit.GAUGE_K)
    expected = kernel(sys_, 1, unit.z, unit.w) @ unit.f
    np.testing.assert_allclose(unit.block(), expected, rtol=1e-12, atol=1e-300)
    assert unit() > 0


# ---------------------------------------------------------------------------
# exact word-closure oracle


def _systems():
    names = ["landau", "conjugate", "alteration", workloads.P6_CONFIG]
    return {
        os.path.basename(n): build_system(load_config(n) if n.endswith(".json") else load_bundled(n))
        for n in names
    }


@pytest.mark.parametrize("max_len", [1, 3, 8, 12])
def test_oracle_matches_enumerate_words(max_len):
    for name, sys_ in _systems().items():
        pairs = [(g.a, g.b) for g in sys_.gamma.generators]
        assert oracle.closure_size(pairs, max_len) == len(enumerate_words(sys_.gamma, max_len)), name


def test_oracle_matches_character_table():
    # the closures the benchmark's rdq checks build: p6 in its report, the square lattice at length 6
    p6 = _systems()["p6.json"]
    sq = _systems()["landau"]
    for sys_, length in ((p6, 8), (sq, 2 * workloads.RDQ_WORD_LEN)):
        table = CharacterTable(sys_.chi, sys_.gamma, sys_.nu, sys_.mu, sys_.rho, max_len=length)
        pairs = [(g.a, g.b) for g in sys_.gamma.generators]
        assert oracle.closure_size(pairs, length) == len(table.entries)
    assert oracle.closure_size([(g.a, g.b) for g in sq.gamma.generators], 12) == 2 * 12 * 13 + 1


def test_oracle_arithmetic_is_the_group_law():
    rng = np.random.default_rng(0)
    for q in (4, 6):
        zeta = np.exp(2j * np.pi / q)
        for _ in range(50):
            x, y = [(int(rng.integers(q)), *map(int, rng.integers(-5, 6, 2))) for _ in range(2)]

            def elem(t):
                return GroupElement(zeta ** t[0], t[1] + t[2] * zeta)

            prod = elem(oracle.multiply(x, y, q))
            ref = compose(elem(x), elem(y))
            assert abs(prod.a - ref.a) + abs(prod.b - ref.b) < 1e-9
            inv, ref_inv = elem(oracle.invert(x, q)), inverse(elem(x))
            assert abs(inv.a - ref_inv.a) + abs(inv.b - ref_inv.b) < 1e-9


def test_p6_quantization_needs_its_character():
    p6 = _systems()["p6.json"]
    assert rdq_check(p6.nu, p6.mu, p6.rho, p6.gamma, p6.chi).passed
    trivial = PseudoCharacter([1.0, 1.0])
    bad = rdq_check(p6.nu, p6.mu, p6.rho, p6.gamma, trivial)
    assert not bad.passed and bad.max_residual >= workloads.NEGATIVE_MIN_RESIDUAL


# ---------------------------------------------------------------------------
# tracing


def test_trace_spans_nest_and_count():
    tracer = tracing.Tracer()
    op = next(workloads.closure_ops(5))
    tracer.run_op(0, op.execute)
    assert tracer.nesting_errors() == []
    names = {s.name for s in tracer.spans}
    assert {"op", "automorphy.rdq_check", "config.build_system", "magnetics.lifting_residual"} <= names
    sizes = sorted(s.count for s in tracer.spans if s.name == "automorphy.rdq_check")
    assert sizes == [313, 313, 712]
    m = tracing.layer_metrics(tracer.spans, {}, [1.0], [1.0])
    assert m["groups.closure_size"][0] == 712 + 2 * 313
    assert m["config.build_system.calls"][0] == 4

    tracer.spans[-1].end = tracer.spans[0].end + 1.0
    assert tracer.nesting_errors()


def test_wrappers_are_removed_after_an_op():
    import maf.cli
    import maf.spectral

    before = (maf.cli.build_system, maf.spectral.kernel)
    tracing.Tracer().run_op(0, lambda: None)
    assert (maf.cli.build_system, maf.spectral.kernel) == before
