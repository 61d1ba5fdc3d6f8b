"""System configuration: JSON ingestion, validation, bundled examples."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .automorphy import PseudoCharacter
from .equivariant import Endomorphism, EquivariantMap, tau_from_beta
from .fields import Grid
from .groups import DiscreteSubgroup, GroupElement
from .magnetics import MagneticSystem


class ConfigError(ValueError):
    """Invalid or inconsistent system configuration."""


@dataclass
class SystemConfig:
    nu: float
    mu: float
    rho: dict
    tau: dict
    gamma: dict
    chi: dict
    grid: dict = field(default_factory=dict)
    seed: int = 0
    rdq: Optional[dict] = None
    highdim: Optional[dict] = None
    name: str = ""

    def __post_init__(self):
        if unknown := sorted(set(self.grid) - Grid.__dataclass_fields__.keys()):
            raise ConfigError(f"unknown grid key {', '.join(map(repr, unknown))}: a grid has xmin, xmax, nx, ymin, ymax, ny")

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        try:
            return cls(
                nu=float(d["nu"]),
                mu=float(d["mu"]),
                rho=d["rho"],
                tau=d["tau"],
                gamma=d["gamma"],
                chi=d["chi"],
                grid=d.get("grid", {}),
                seed=int(d.get("seed", 0)),
                rdq=d.get("rdq"),
                highdim=d.get("highdim"),
                name=d.get("name", ""),
            )
        except ConfigError:
            raise
        except KeyError as e:
            raise ConfigError(f"missing required config key: {e.args[0]}") from e
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed config value: {e}") from e

    def make_grid(self) -> Grid:
        return Grid.from_dict(self.grid)


def read_config(path: str) -> str:
    """The text of the config file at ``path``."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def read_bundled(name: str) -> str:
    """The text of one of the packaged example systems, ``configs/<name>.json`` beside this module."""
    try:
        with open(os.path.join(os.path.dirname(__file__), "configs", f"{name}.json"), encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as e:
        raise ConfigError(f"no bundled config named {name!r}") from e


def parse_config(text: str, source: str) -> SystemConfig:
    """The SystemConfig of a config's text; ``source`` names it in the diagnostic."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {source} is not valid JSON: {e}") from e
    return SystemConfig.from_dict(data)


def load_config(path: str) -> SystemConfig:
    return parse_config(read_config(path), path)


def load_bundled(name: str) -> SystemConfig:
    """Load one of the packaged example systems by name."""
    return parse_config(read_bundled(name), name)


def _make_tau(rho: Endomorphism, desc: dict) -> EquivariantMap:
    kind = desc.get("kind")
    if kind == "from_beta":
        return tau_from_beta(rho, complex(*desc["beta"]))
    if kind == "affine":
        return EquivariantMap(complex(*desc["p"]), complex(*desc["q"]), complex(*desc["r"]))
    raise ConfigError(f"unknown tau descriptor kind {kind!r}")


def build_system(cfg: SystemConfig) -> MagneticSystem:
    """Materialize the configured MagneticSystem, or fail with a diagnostic."""
    try:
        rho = Endomorphism.from_dict(cfg.rho)
        tau = _make_tau(rho, cfg.tau)
        gens = [GroupElement.from_dict(g) for g in cfg.gamma["generators"]]
        gamma = DiscreteSubgroup(gens, cfg.gamma.get("labels", []))
        chi = PseudoCharacter.from_dict(cfg.chi)
        return MagneticSystem(nu=cfg.nu, mu=cfg.mu, rho=rho, tau=tau, gamma=gamma, chi=chi)
    except ConfigError:
        raise
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed system description: {e}") from e
    except ValueError as e:
        raise ConfigError(f"system invariant violated: {e}") from e
