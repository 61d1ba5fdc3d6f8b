"""Command-line entry point: run verification checks against a system config."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import magnetics, spectral
from .automorphy import PseudoCharacter, rdq_check
from .config import ConfigError, SystemConfig, build_system, load_bundled, load_config
from .equivariant import check_equivariance, homomorphism_report
from .fields import Grid, polyexp_field
from .groups import GroupElement, random_elements
from .highdim import EquivariantMapN, constant_field_test
from .magnetics import MagneticSystem
from .reports import CheckReport, emit, from_residuals, jsonable

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3  # a computation broke down (e.g. a non-finite derivative)


def _parse_complex(s: str) -> complex:
    re_s, im_s = s.split(",")
    return complex(float(re_s), float(im_s))


def _parse_grid(s: str) -> dict:
    vals = s.split(",")
    if len(vals) != 6:
        raise ValueError("grid spec must be xmin,xmax,nx,ymin,ymax,ny")
    keys = ("xmin", "xmax", "nx", "ymin", "ymax", "ny")
    out = {}
    for k, v in zip(keys, vals):
        out[k] = int(v) if k in ("nx", "ny") else float(v)
    return out


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


# ---------------------------------------------------------------------------
# individual check runners

def check_equivariance_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    return [check_equivariance(sys_.rho, sys_.tau, seed=cfg.seed, tol=_tol(args, 1e-9))]


def field_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    return [magnetics.field_constancy(sys_, cfg.make_grid(), tol=_tol(args, 1e-8))]


def gauge_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    rep = magnetics.gauge_check(sys_, seed=cfg.seed, tol=_tol(args, 1e-8))
    if args.z is not None:
        z = _parse_complex(args.z)
        rep.metadata["z"] = [z.real, z.imag]
        rep.metadata["phi"] = sys_.phi(z)
    return [rep]


def invariance_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    grid = _coarse(cfg.make_grid())
    if args.g is not None:
        a_re, a_im, b_re, b_im = (float(v) for v in args.g.split(","))
        gs = [GroupElement(complex(a_re, a_im), complex(b_re, b_im))]
    else:
        gs = random_elements(np.random.default_rng(cfg.seed), 3)
    f = _probe_field(sys_)
    tol = _tol(args, 1e-5)
    return [magnetics.invariance_residual(sys_, g, f, grid, tol=tol) for g in gs]


def lift_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    grid = _coarse(cfg.make_grid(), 11)
    tol = _tol(args, 1e-8)
    out = []
    for g in sys_.gamma.generators:
        out.append(magnetics.chi_tau_hat_spread(sys_, g, grid, tol=tol))
        out.append(magnetics.lifting_residual(sys_, g, grid, tol=tol))
    return out


def spectrum_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    kmax = args.kmax if args.kmax is not None else 4
    table = spectral.spectrum_table(sys_.B, kmax)
    basis = spectral.SpectralBasis(sys_.B)
    rng = np.random.default_rng(cfg.seed)
    pts = 0.8 * (rng.normal(size=12) + 1j * rng.normal(size=12))
    res = []
    for m in range(min(kmax, 2) + 1):
        psi = spectral.strip_eigenfunction(basis, sys_, m, 0)
        lam = spectral.rayleigh_quotient(sys_, psi, pts)
        res.append(abs(lam - spectral.landau_level(sys_.B, m)) / abs(spectral.landau_level(sys_.B, m)))
    rep = from_residuals("spectrum_rayleigh", res, _tol(args, 1e-4), levels=table, level_index="hermite degree m")
    return [rep]


def kernel_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    k = args.k if args.k is not None else 0
    verdict = spectral.select_laguerre_scale(sys_, k=max(k, 1))
    scale = verdict["scale"]
    rng = np.random.default_rng(cfg.seed)
    zs = rng.normal(size=8) + 1j * rng.normal(size=8)
    ws = rng.normal(size=8) + 1j * rng.normal(size=8)
    herm = [
        abs(spectral.kernel(sys_, k, z, w, scale) - np.conjugate(spectral.kernel(sys_, k, w, z, scale)))
        for z, w in zip(zs, ws)
    ]
    diag = abs(spectral.kernel(sys_, 0, 0.3 + 0.1j, 0.3 + 0.1j, scale) - sys_.B / np.pi)
    rep = from_residuals(
        "kernel_structure",
        herm + [diag],
        _tol(args, 1e-12),
        laguerre_scale_verdict=verdict,
        k=k,
    )
    reps = [rep]
    gs = random_elements(rng, 5)
    pairs = list(zip(zs, ws))
    tol = _tol(args, 1e-8)
    for g in gs:
        reps.append(spectral.kernel_invariance_residual(sys_, k, g, pairs, tol=tol, laguerre_scale=scale))
    if args.z is not None and args.w is not None:
        val = spectral.kernel(sys_, k, _parse_complex(args.z), _parse_complex(args.w), scale)
        rep.metadata["value"] = [val.real, val.imag]
    return reps


def highdim_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
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
    n = int(block.get("n", 2))
    tol = _tol(args, 1e-6)
    reps = []
    for case in block["cases"]:
        tau = EquivariantMapN.from_dict(case["tau"], n)
        result = constant_field_test(tau, cfg.nu, cfg.mu, seed=cfg.seed, tol=tol)
        worst = max(
            result["per_l"]["max_A"], result["per_l"]["max_B"], result["per_l"]["F_spread"]
        )
        reps.append(
            CheckReport(
                f"highdim_{case.get('name', tau.kind)}",
                # the direct 2-form oracle is authoritative for pass/fail
                result["direct"]["spread"],
                result["direct"]["spread"],
                tol,
                {"per_l_worst": worst, "result": jsonable(result)},
            )
        )
    return reps


def rdq_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    sys_ = build_system(cfg)
    nu = cfg.nu
    chi = sys_.chi
    if cfg.rdq:
        nu = float(cfg.rdq.get("nu", nu))
        if "values_on_generators" in cfg.rdq:
            chi = PseudoCharacter.from_dict(cfg.rdq)
    return [rdq_check(nu, cfg.mu, sys_.rho, sys_.gamma, chi, tol=_tol(args, 1e-10))]


def report_cmd(cfg: SystemConfig, args) -> list[CheckReport]:
    """Run every check in declaration order."""
    sys_ = build_system(cfg)
    reports = [
        check_equivariance(sys_.rho, sys_.tau, seed=cfg.seed, tol=_tol(args, 1e-9)),
        homomorphism_report(sys_.rho, seed=cfg.seed, tol=_tol(args, 1e-9)),
        *rdq_cmd(cfg, args),
        magnetics.field_constancy(sys_, cfg.make_grid(), tol=_tol(args, 1e-8)),
        magnetics.gauge_check(sys_, seed=cfg.seed, tol=_tol(args, 1e-8)),
    ]
    grid = _coarse(cfg.make_grid())
    f = _probe_field(sys_)
    inv = [
        magnetics.invariance_residual(sys_, g, f, grid).max_residual
        for g in random_elements(np.random.default_rng(cfg.seed), 3)
    ]
    reports.append(from_residuals("invariance", inv, _tol(args, 1e-5), n_elements=3, seed=cfg.seed))
    reports.append(magnetics.intertwining_residual(sys_, f, grid, tol=_tol(args, 1e-5)))
    lift_grid = _coarse(cfg.make_grid(), 11)
    for g in sys_.gamma.generators:
        reports.append(magnetics.chi_tau_hat_spread(sys_, g, lift_grid, tol=_tol(args, 1e-8)))
        reports.append(magnetics.lifting_residual(sys_, g, lift_grid, tol=_tol(args, 1e-8)))
    reports.extend(spectrum_cmd(cfg, args))
    reports.extend(kernel_cmd(cfg, args))
    return reports


COMMANDS = {
    "check-equivariance": check_equivariance_cmd,
    "field": field_cmd,
    "gauge": gauge_cmd,
    "invariance": invariance_cmd,
    "lift": lift_cmd,
    "spectrum": spectrum_cmd,
    "kernel": kernel_cmd,
    "highdim": highdim_cmd,
    "rdq": rdq_cmd,
    "report": report_cmd,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maf", description="Verify mixed automorphic magnetic systems")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="config JSON path or bundled name")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--grid", default=None, help="xmin,xmax,nx,ymin,ymax,ny")
        sp.add_argument("--kmax", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--z", default=None, help="RE,IM")
        sp.add_argument("--w", default=None, help="RE,IM")
        sp.add_argument("--g", default=None, help="A_RE,A_IM,B_RE,B_IM")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.grid is not None:
            cfg.grid = _parse_grid(args.grid)
        env_step = os.environ.get("MAF_FD_STEP")
        if env_step:
            cfg.fd_step = float(env_step)
        reports = COMMANDS[args.command](cfg, args)
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
