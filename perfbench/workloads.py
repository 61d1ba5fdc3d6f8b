"""The benchmark's workloads and the correctness gate on every op.

An op is an ``Op(execute, gate)``: ``execute`` does the timed work and
returns its output, ``gate`` returns the list of problems it finds in that
output (empty when the op is correct).  A workload turns a seed into an
endless stream of ops; every per-op seed, bump centre and input comes from
that seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
P6_CONFIG = os.path.join(HERE, "p6.json")

BUNDLED = ["landau", "conjugate", "alteration"]
RDQ_WORD_LEN = 6
NEGATIVE_MIN_RESIDUAL = 0.1
PROJECTOR_NODES = 64
PROJECTOR_TAIL = 1e-8
PROJECTOR_RADIUS = 2.0  # judge away from the truncation edge
PROJECTOR_TOL = 1e-3
PROJECTOR_CASES = [(name, k) for name in ("landau", "alteration") for k in (0, 1, 2)]


@dataclass
class Op:
    execute: Callable[[], object]
    gate: Callable[[object], list[str]]


# ---------------------------------------------------------------------------
# gate


def report_problems(label: str, reports: list[dict]) -> list[str]:
    """Problems in a list of report dicts that must all pass.

    The verdict is recomputed from the residual and the tolerance rather than
    read from ``pass``, and both residual summaries must be finite.
    """
    if not reports:
        return [f"{label}: no reports"]
    out = []
    for r in reports:
        name = f"{label}/{r['name']}"
        mx, mean, tol = r["max_residual"], r["mean_residual"], r["tol"]
        if not (math.isfinite(mx) and math.isfinite(mean)):
            out.append(f"{name}: non-finite residual (max {mx}, mean {mean})")
        elif not (r["pass"] is True and mx <= tol):
            out.append(f"{name}: fails (pass={r['pass']}, max {mx:.3e}, tol {tol:.1e})")
    return out


def negative_problems(label: str, report: dict) -> list[str]:
    """A negative control must fail, by a residual of at least 0.1."""
    mx, mean = report["max_residual"], report["mean_residual"]
    if not (math.isfinite(mx) and math.isfinite(mean)):
        return [f"{label}: non-finite residual (max {mx}, mean {mean})"]
    if report["pass"] is not False or mx < NEGATIVE_MIN_RESIDUAL:
        return [f"{label}: negative control did not fail (pass={report['pass']}, max {mx:.3e})"]
    return []


def cli_problems(runs: list[tuple[str, int, str]]) -> list[str]:
    """Problems in (label, exit code, stdout) triples from ``maf.cli.main``."""
    out = []
    for label, code, text in runs:
        if code != 0:
            out.append(f"{label}: exit code {code}")
        try:
            reports = json.loads(text)
        except ValueError:
            out.append(f"{label}: output is not JSON")
            continue
        out.extend(report_problems(label, reports))
    return out


def run_cli(argv: list[str]) -> tuple[str, int, str]:
    from maf import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return " ".join(argv[:3]), code, buf.getvalue()


# Each op is executed and gated before its stream advances, so the closures
# below may read the stream's loop variables.


def _op_seeds(seed: int) -> Iterator[int]:
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# verify: what users run


def verify_round(op_seed: int) -> list[tuple[str, int, str]]:
    runs = []
    for name in BUNDLED:
        for cmd in ("report", "highdim"):
            runs.append(run_cli([cmd, "--config", name, "--seed", str(op_seed)]))
    return runs


def verify_ops(seed: int) -> Iterator[Op]:
    for op_seed in _op_seeds(seed):
        yield Op(lambda: verify_round(op_seed), cli_problems)


# ---------------------------------------------------------------------------
# closure: word closure of the p6 group and the square lattice


def square_lattice():
    from maf.config import build_system, load_bundled

    return build_system(load_bundled("landau"))


def closure_op(op_seed: int, lattice) -> dict:
    from maf import automorphy

    rdq = [
        automorphy.rdq_check(nu, 0.0, lattice.rho, lattice.gamma, lattice.chi, max_word_len=RDQ_WORD_LEN)
        for nu in (math.pi, 1.0)
    ]
    return {
        "report": run_cli(["report", "--config", P6_CONFIG, "--seed", str(op_seed)]),
        "rdq_quantized": rdq[0].to_dict(),
        "rdq_unquantized": rdq[1].to_dict(),
    }


def closure_problems(out: dict) -> list[str]:
    return (
        cli_problems([out["report"]])
        + report_problems("rdq nu=pi", [out["rdq_quantized"]])
        + negative_problems("rdq nu=1", out["rdq_unquantized"])
    )


def closure_ops(seed: int) -> Iterator[Op]:
    lattice = square_lattice()
    for op_seed in _op_seeds(seed):
        yield Op(lambda: closure_op(op_seed, lattice), closure_problems)


# ---------------------------------------------------------------------------
# projector: dense Landau eigenprojection on the quadrature nodes


@dataclass
class Plane:
    """A system with the Gauss-Legendre nodes of its truncated plane."""

    system: object
    Z: np.ndarray
    Wt: np.ndarray
    central: np.ndarray


def make_plane(name: str) -> Plane:
    from maf import spectral
    from maf.config import build_system, load_bundled
    from maf.fields import quad2d_nodes

    sys_ = build_system(load_bundled(name))
    R = spectral.truncation_radius(sys_.B, tail=PROJECTOR_TAIL)
    Z, Wt = quad2d_nodes((-R, R, -R, R), PROJECTOR_NODES)
    return Plane(sys_, Z, Wt, np.abs(Z) < PROJECTOR_RADIUS)


def first_projection_problems(out, f, plane: Plane) -> list[str]:
    """P_k f is finite, nonzero where it is judged, and no larger than f."""
    if not np.all(np.isfinite(out)):
        return ["P_k f: non-finite values"]
    if not np.abs(out[plane.central]).max() > 0:
        return ["P_k f: vanishes on |z| < 2"]
    norm_f = np.sum(np.abs(f) ** 2 * plane.Wt)
    norm_p = np.sum(np.abs(out) ** 2 * plane.Wt)
    if not norm_p <= norm_f * (1 + PROJECTOR_TOL):
        return [f"P_k f: norm grew by {norm_p / norm_f:.4f}"]
    return []


def relative_problems(label: str, residual, pk, plane: Plane) -> list[str]:
    """max |residual| / max |P_k f| on |z| < 2 must be at most 1e-3."""
    if not np.all(np.isfinite(residual)):
        return [f"{label}: non-finite values"]
    rel = np.abs(residual[plane.central]).max() / np.abs(pk[plane.central]).max()
    return [] if rel <= PROJECTOR_TOL else [f"{label}: relative residual {rel:.3e}"]


def projector_ops(seed: int) -> Iterator[Op]:
    """Triples P_k f, P_k P_k f, P_{k+1} P_k f, cycling over system and level."""
    from maf import spectral

    planes = {name: make_plane(name) for name, _ in PROJECTOR_CASES}
    rng = np.random.default_rng(seed)
    for name, k in itertools.cycle(PROJECTOR_CASES):
        plane = planes[name]
        sys_, Z, Wt = plane.system, plane.Z, plane.Wt
        centre = complex(*rng.uniform(-0.5, 0.5, 2))
        f = np.exp(-np.abs(Z - centre) ** 2)
        held = {}

        def first():
            held["pk"] = spectral.project_on_nodes(sys_, k, f, Z, Wt)
            return held["pk"]

        yield Op(first, lambda out: first_projection_problems(out, f, plane))
        if "pk" not in held:
            continue  # the first projection raised and was counted as failed
        pk = held["pk"]
        yield Op(
            lambda: spectral.project_on_nodes(sys_, k, pk, Z, Wt),
            lambda out: relative_problems(f"P_{k} P_{k} f", out - pk, pk, plane),
        )
        yield Op(
            lambda: spectral.project_on_nodes(sys_, k + 1, pk, Z, Wt),
            lambda out: relative_problems(f"P_{k + 1} P_{k} f", out, pk, plane),
        )


@dataclass
class Workload:
    ops: Callable[[int], Iterator[Op]]
    configs: list[str]  # systems built by the set-up measurement
    tail_pct: int  # percentile reported as op_tail_ms
    speed: Callable[[], Speed]  # scales op timings to reference speed


WORKLOADS = {
    "verify": Workload(verify_ops, BUNDLED, 75, Speed),
    "closure": Workload(closure_ops, [P6_CONFIG, "landau"], 66, Speed),
    "projector": Workload(projector_ops, ["landau", "alteration"], 50, Speed.kernel),
}
