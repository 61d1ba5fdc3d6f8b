"""Golden reports: ``maf report`` and ``maf highdim`` (``--format json``) for the bundled systems.

The files in ``tests/golden/`` were recorded from the per-point (scalar loop)
implementation and are not regenerated: they pin every report of the array
evaluation path to the values the scalar path produced.  The exceptions:
the ``invariance`` entries, re-recorded when T_g became exact (their
residual fell from finite-difference noise, about 1e-7 at tol 1e-5, to
round-off, 1.4e-15 to 2.8e-15 at tol 1e-11); the ``highdim`` files,
re-recorded once when the ℂⁿ 2-form became a closed form and each entry's
residual became τ's equivariance defect; and the ``spectrum_rayleigh``
residuals and tol and the two ``laguerre_scale_verdict`` residuals of
``kernel_structure``, re-recorded once when the strip eigenfunctions and the
kernel got exact jets (3e-9 to 5e-9 at tol 1e-4 → 1.8e-16 to 3.0e-16 at tol
1e-12, and 1.4e-8 to 1.9e-8 → 6.9e-17 to 7.2e-17 at scale 1); and the
``rdq`` ``worst_pair`` of every file, re-recorded once when chi came to be
carried as phases: on these passing entries every pair's residual is
round-off (at most 3.5e-15), so which pair is worst is round-off's choice;
and the ``field`` and ``gauge`` entries, re-recorded once when both came to
be decided from S's coefficients: ``field_constancy`` (B's spread, 0.0 at tol
1e-8) became ``field_coefficient`` (|S(z) - S(0) - B z|, 0.0 on landau and
conjugate and 6.3e-16 on alteration, at tol 1e-12), and ``gauge_wellposed``
(sampled line integrals, 0.0 to 1.1e-15 at tol 1e-8, with ``max_im``,
``n_points`` and ``seed``) became ``gauge_coefficient`` (|S(0) - 2i
conj(gauge_k)|, 0.0 at tol 1e-12, with ``gauge_k``); and the
``kernel_structure`` metadata key ``laguerre_scale_verdict`` (a dict of the
chosen scale, its pass and the residuals at scales 1 and 2), re-recorded once
as ``eigen_residual`` when the kernel came to have one Laguerre argument: the
float eigen-equation residual of that kernel at level max(k, 1), 7.2e-17 to
2.2e-16.  Nothing else in those entries was re-recorded.
``X.json`` is ``maf report --config X``, ``highdim_X.json`` is
``maf highdim --config X``.  ``p6.json`` is ``maf report --config
perfbench/p6.json``, recorded from the array path as it stood just before the
lift checks came to take chi table entries (the runner passing the generators'
own closure entries) and the kernel entries came to stack their sweeps: p6 is
the only system with a rotation generator in the lift, and no other file
pinned it.

Allowance.  Names, verdicts (``pass``), tolerances and every int, str and
bool value must match exactly.  Every float, ``max_residual`` and
``mean_residual`` included, may differ by ``rel 1e-9`` or ``abs 1e-12``:
no report takes a finite difference, so residuals move by round-off alone.
Batching the elements of ``lifting`` moved one ``mean_residual`` by 9.7e-18.
On ``invariance`` (tol 1e-11) the absolute allowance is over 300 times its
recorded residuals; what catches a small error in T_g there is the tol
itself, which a 1e-9 relative error in T_g's phase fails
(``test_magnetics.py``, ``test_perturbed_phase_fails``).
"""

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from maf.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = {"landau": "landau", "conjugate": "conjugate", "alteration": "alteration",
           "p6": str(Path(__file__).resolve().parents[1] / "perfbench" / "p6.json")}
FLOAT_REL, FLOAT_ABS = 1e-9, 1e-12


def _compare(got, want, path: str, errors: list[str]) -> None:
    if type(got) is not type(want):
        errors.append(f"{path}: type {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if got.keys() != want.keys():
            errors.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        else:
            for k in want:
                _compare(got[k], want[k], f"{path}.{k}", errors)
    elif isinstance(want, list):
        if len(got) != len(want):
            errors.append(f"{path}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _compare(g, w, f"{path}[{i}]", errors)
    elif isinstance(want, float):
        if not math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=FLOAT_ABS):
            errors.append(f"{path}: {got!r} != {want!r}")
    elif got != want:
        errors.append(f"{path}: {got!r} != {want!r}")


def compare_reports(got: list[dict], want: list[dict]) -> list[str]:
    """Field-by-field differences of ``got`` from ``want`` beyond the allowance."""
    if len(got) != len(want):
        return [f"{len(got)} reports != {len(want)}"]
    errors: list[str] = []
    for i, (g, w) in enumerate(zip(got, want)):
        where = f"[{i}]{w['name']}"
        for key in ("name", "pass", "tol"):
            if g.get(key) != w[key] or type(g.get(key)) is not type(w[key]):
                errors.append(f"{where}.{key}: {g.get(key)!r} != {w[key]!r}")
        if g.keys() != w.keys():
            errors.append(f"{where}: keys {sorted(g)} != {sorted(w)}")
        else:
            for key in ("max_residual", "mean_residual", "metadata"):
                _compare(g[key], w[key], f"{where}.{key}", errors)
    return errors


def _run_json(command: str, name: str) -> list[dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main([command, "--config", name, "--format", "json"]) == 0
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("name", CONFIGS)
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert compare_reports(_run_json("report", CONFIGS[name]), want) == []


@pytest.mark.parametrize("name", ["landau", "conjugate", "alteration"])
def test_highdim_matches_golden(name):
    want = json.loads((GOLDEN / f"highdim_{name}.json").read_text())
    assert compare_reports(_run_json("highdim", name), want) == []


def test_comparison_catches_changes():
    want = json.loads((GOLDEN / "alteration.json").read_text())
    inv = next(i for i, r in enumerate(want) if r["name"] == "invariance")

    def changed(edit):
        got = json.loads(json.dumps(want))
        edit(got)
        return compare_reports(got, want)

    assert changed(lambda g: None) == []
    # within the allowance
    assert changed(lambda g: g[inv].update(max_residual=g[inv]["max_residual"] + 5e-13)) == []
    # beyond it, and every exact field
    assert changed(lambda g: g[inv].update(max_residual=g[inv]["max_residual"] + 2e-12))
    assert changed(lambda g: g[inv].update(tol=1e-4))
    assert changed(lambda g: g[inv].update(name="invariance2"))
    assert changed(lambda g: g[inv].update({"pass": False}))
    assert changed(lambda g: g[inv]["metadata"].update(seed=1))
    assert changed(lambda g: g[inv]["metadata"].update(seed=0.0))
    assert changed(lambda g: g.pop())
    ga = want[inv + 1]["metadata"]["B"]  # intertwining
    assert changed(lambda g: g[inv + 1]["metadata"].update(B=ga * (1 + 5e-10))) == []
    assert changed(lambda g: g[inv + 1]["metadata"].update(B=ga * (1 + 1e-8)))
    kern = next(i for i, r in enumerate(want) if r["name"] == "kernel_structure")
    eigen = want[kern]["metadata"]["eigen_residual"]

    def move_eigen_residual(delta):
        return lambda g: g[kern]["metadata"].update(eigen_residual=eigen + delta)

    assert changed(move_eigen_residual(5e-13)) == []
    assert changed(move_eigen_residual(2e-12))
    spec = next(i for i, r in enumerate(want) if r["name"] == "spectrum_rayleigh")
    assert changed(lambda g: g[spec].update(mean_residual=g[spec]["mean_residual"] + 5e-13)) == []
    assert changed(lambda g: g[spec].update(mean_residual=g[spec]["mean_residual"] + 2e-12))


def test_comparison_of_highdim_floats():
    # the highdim entries are closed forms: every float is held to rel 1e-9 / abs 1e-12
    want = json.loads((GOLDEN / "highdim_alteration.json").read_text())

    def changed(edit):
        got = json.loads(json.dumps(want))
        edit(got[2]["metadata"])  # rotation45
        return compare_reports(got, want)

    def move_coefficient(a, b, delta):
        def edit(m):
            m["two_form"][a][b][0] += delta

        return edit

    def move_decoupling(key, factor):
        return lambda m: m["coordinate_decoupling"].update({key: m["coordinate_decoupling"][key] * factor})

    assert changed(lambda m: None) == []
    # [0][1] is 0, [0][2] is nu + mu = 1.5 (U*U = I)
    assert changed(move_coefficient(0, 1, 5e-13)) == []
    assert changed(move_coefficient(0, 1, 2e-12))
    assert changed(move_coefficient(0, 2, 1e-10)) == []
    assert changed(move_coefficient(0, 2, 1e-8))
    assert changed(move_decoupling("max_B", 1 + 1e-10)) == []
    assert changed(move_decoupling("max_B", 1 + 1e-8))
    assert changed(lambda m: m["coordinate_decoupling"]["F_values"].update({"0,0": -0.5 * (1 + 1e-8)}))
    assert changed(lambda m: m["coordinate_decoupling"].update(decoupled=True))
    assert changed(lambda m: m.update(rho="identity"))


def test_one_evaluation_path():
    """Fields take arrays of points, so no module wraps a scalar function in np.vectorize."""
    import maf

    src = Path(maf.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if "vectorize" in p.read_text()]
    assert users == []
