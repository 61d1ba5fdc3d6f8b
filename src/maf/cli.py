"""Command-line entry point: run verification checks against a system config."""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import magnetics, spectral
from .automorphy import PseudoCharacter, rdq_check
from .config import ConfigError, SystemConfig, build_system, load_bundled, load_config
from .equivariant import check_equivariance, homomorphism_report
from .fields import Grid, polyexp_field
from .groups import GroupElement, random_ab
from .highdim import EquivariantMapN, constant_field_test
from .magnetics import MagneticSystem
from .reports import CheckReport, emit, from_residuals

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3  # a computation broke down (a strip field that vanishes)


def _join_signed_pairs(argv: list[str]) -> list[str]:
    """``--z -1,0`` as ``--z=-1,0``: argparse takes a lone ``-1,0`` for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--z", "--w", "--g", "--grid") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_complex(s: str) -> complex:
    re_s, im_s = s.split(",")
    return complex(float(re_s), float(im_s))


def _parse_grid(s: str) -> dict:
    vals = s.split(",")
    if len(vals) != 6:
        raise ValueError("grid spec must be xmin,xmax,nx,ymin,ymax,ny")
    keys = ("xmin", "xmax", "nx", "ymin", "ymax", "ny")
    return {k: int(v) if k in ("nx", "ny") else float(v) for k, v in zip(keys, vals)}


def _resolve_config(path: str) -> SystemConfig:
    if os.path.exists(path):
        return load_config(path)
    return load_bundled(path)


def _probe_field(sys_: MagneticSystem):
    """e^{-B|z|^2/2} with exact derivatives: the invariance and intertwining probe."""
    return polyexp_field({(0, 0): 1.0}, sys_.B / 2)


def _tol(args, default: float) -> float:
    """The ``--tol`` value when given (0 included), else the check's default."""
    return default if args.tol is None else args.tol


def _coarse(grid: Grid, n: int = 9) -> Grid:
    return Grid(grid.xmin, grid.xmax, n, grid.ymin, grid.ymax, n)


# The check runners: each takes the built system and returns its reports.

def _equivariance(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    return [check_equivariance(sys_.rho, sys_.tau, seed=cfg.seed, tol=_tol(args, 1e-9))]


def _homomorphism(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    return [homomorphism_report(sys_.rho, seed=cfg.seed, tol=_tol(args, 1e-9))]


def _rdq(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    rdq = cfg.rdq or {}
    nu = float(rdq.get("nu", cfg.nu)) if rdq else cfg.nu
    chi = PseudoCharacter.from_dict(rdq) if "values_on_generators" in rdq else sys_.chi
    return [rdq_check(nu, cfg.mu, sys_.rho, sys_.gamma, chi, tol=_tol(args, 1e-10))]


def _field(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    return [magnetics.field_constancy(sys_, cfg.make_grid(), tol=_tol(args, magnetics.COEFFICIENT_TOL))]


def _gauge(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    rep = magnetics.gauge_check(sys_, tol=_tol(args, magnetics.COEFFICIENT_TOL))
    if args.z is not None:
        z = _parse_complex(args.z)
        rep.metadata["z"] = [z.real, z.imag]
        rep.metadata["phi"] = sys_.phi(z)
    return [rep]


def _invariance(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    """The worst commutator residual over 3 random elements, or over the ``--g`` element."""
    extra = {}
    if args.g is not None:
        a_re, a_im, b_re, b_im = (float(v) for v in args.g.split(","))
        g = GroupElement(complex(a_re, a_im), complex(b_re, b_im))
        gs, extra["g"] = ([g.a], [g.b]), g.to_dict()
    else:
        gs = random_ab(np.random.default_rng(cfg.seed), 3)
    reps = magnetics.invariance_residual(sys_, gs, _probe_field(sys_), _coarse(cfg.make_grid()))
    res, tol = [r.max_residual for r in reps], _tol(args, magnetics.INVARIANCE_TOL)
    return [from_residuals("invariance", res, tol, n_elements=len(res), seed=cfg.seed, **extra)]


def _intertwining(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    grid = _coarse(cfg.make_grid())
    return [magnetics.intertwining_residual(sys_, _probe_field(sys_), grid, tol=_tol(args, 1e-5))]


def _lift(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    grid = _coarse(cfg.make_grid(), 11)
    tol = _tol(args, 1e-8)
    idx = sys_.chi_table.closure.succ[0, ::2]  # the generators' entries: e times each generator's slot
    spreads = magnetics.chi_tau_hat_spread(sys_, idx, grid, tol=tol)
    return [rep for pair in zip(spreads, magnetics.lifting_residual(sys_, idx, grid, tol=tol)) for rep in pair]


def _spectrum(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    kmax = args.kmax if args.kmax is not None else 4
    table = spectral.spectrum_table(sys_.B, kmax)
    basis = spectral.SpectralBasis(sys_.B)
    rng = np.random.default_rng(cfg.seed)
    pts = 0.8 * (rng.normal(size=12) + 1j * rng.normal(size=12))
    # the levels m = 0..min(kmax, 2) stacked in one strip eigenfunction, so one quotient call
    ms = np.arange(min(kmax, 2) + 1)
    lam = spectral.rayleigh_quotient(sys_, spectral.strip_eigenfunction(basis, sys_, ms, 0), pts)
    levels = np.array([row["lambda"] for row in table[: ms.size]])
    res = np.abs(lam - levels) / np.abs(levels)
    rep = from_residuals("spectrum_rayleigh", res, _tol(args, 1e-12), levels=table, level_index="hermite degree m")
    return [rep]


def _kernel(sys_: MagneticSystem, cfg: SystemConfig, args) -> list[CheckReport]:
    k = args.k if args.k is not None else 0
    # the eigen-equation at level max(k, 1), where L_k is not constant, so a wrong Laguerre argument fails
    eigen = spectral.select_laguerre_scale(sys_, k=max(k, 1))
    rng = np.random.default_rng(cfg.seed)
    zw = np.stack([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in "zw"])  # 8 pairs (z, w)
    K = spectral.kernel(sys_, k, zw, zw[::-1])  # at (z, w) and (w, z), stacked
    herm = np.abs(K[0] - np.conjugate(K[1]))
    diag = abs(spectral.kernel(sys_, 0, 0.3 + 0.1j, 0.3 + 0.1j) - sys_.B / np.pi)
    rep = from_residuals("kernel_structure", [*herm, diag, eigen], _tol(args, 1e-12), eigen_residual=eigen, k=k)
    pairs, gs, tol = zw.T, random_ab(rng, 5), _tol(args, 1e-8)
    reps = [rep, *spectral.kernel_invariance_residual(sys_, k, gs, pairs, tol=tol)]
    if args.z is not None and args.w is not None:
        val = spectral.kernel(sys_, k, _parse_complex(args.z), _parse_complex(args.w))
        rep.metadata["value"] = [val.real, val.imag]
    return reps


# In report order.  Runners look up this module's globals when they run, so a
# wrapper put on one (maf.cli.rdq_check, say) sees the calls of every command.
CHECKS = {
    "equivariance": _equivariance,
    "homomorphism": _homomorphism,
    "rdq": _rdq,
    "field": _field,
    "gauge": _gauge,
    "invariance": _invariance,
    "intertwining": _intertwining,
    "lift": _lift,
    "spectrum": _spectrum,
    "kernel": _kernel,
}

# Each command runs its checks, in this order, on one built system.  highdim
# runs none of them: it checks maps on ℂⁿ and builds no system.
COMMANDS = {
    "check-equivariance": ("equivariance",),
    "field": ("field",),
    "gauge": ("gauge",),
    "invariance": ("invariance",),
    "lift": ("lift",),
    "spectrum": ("spectrum",),
    "kernel": ("kernel",),
    "highdim": (),
    "rdq": ("rdq",),
    "report": tuple(CHECKS),
}


def _highdim(cfg: SystemConfig, args) -> list[CheckReport]:
    """Each case's equivariance defect in ℂⁿ, with its constant 2-form; no planar system is built."""
    block = cfg.highdim or {
        "n": 2,
        "cases": [
            {"name": "identity", "tau": {"kind": "identity"}},
            {"name": "conjugate", "tau": {"kind": "conjugate"}},
            {
                "name": "rotation45",
                "tau": {
                    "kind": "linear",
                    "U": [
                        [[0.7071067811865476, 0.0], [-0.7071067811865476, 0.0]],
                        [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                    ],
                },
            },
        ],
    }
    n, tol = block.get("n", 2), _tol(args, 1e-12)
    if type(n) is not int or n < 1:  # a float, a string or a bool is refused, not truncated
        raise ConfigError(f"highdim block: n must be an integer ≥ 1, got {n!r}")
    try:
        if not isinstance(cases := block["cases"], list) or not all(isinstance(c, dict) for c in cases):
            raise ConfigError(f"highdim block: 'cases' must be a list of objects, got {cases!r}")
        if not cases:
            raise ConfigError("highdim block needs at least one case")
        taus = [EquivariantMapN.from_dict(case["tau"], n) for case in cases]
        names = [f"highdim_{case.get('name', case['tau']['kind'])}" for case in cases]
    except KeyError as e:  # a case without "tau", a linear map without "U", no "cases" list
        raise ConfigError(f"highdim block is missing key {e.args[0]!r}") from e
    return constant_field_test(taus, cfg.nu, cfg.mu, tol, names)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``maf`` argument parser, built once per process and shared by every call."""
    p = argparse.ArgumentParser(prog="maf", description="Verify mixed automorphic magnetic systems")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="config JSON path or bundled name")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None, help="xmin,xmax,nx,ymin,ymax,ny")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--z", default=None, help="RE,IM")
    p.add_argument("--w", default=None, help="RE,IM")
    p.add_argument("--g", default=None, help="A_RE,A_IM,B_RE,B_IM")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_signed_pairs(sys.argv[1:] if argv is None else argv))
    for opt in ("tol", "kmax"):
        v = getattr(args, opt)
        if v is not None and not (math.isfinite(v) and v >= 0):
            build_parser().error(f"argument --{opt}: must be finite and >= 0, got {v}")
    try:
        cfg = _resolve_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.grid is not None:
            cfg.grid = _parse_grid(args.grid)
        if args.command == "highdim":
            reports = _highdim(cfg, args)
        else:
            sys_ = build_system(cfg)
            reports = [rep for name in COMMANDS[args.command] for rep in CHECKS[name](sys_, cfg, args)]
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    text = emit(reports, fmt=args.format, out=args.out)
    if args.out is None:
        print(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
