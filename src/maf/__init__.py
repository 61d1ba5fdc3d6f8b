"""Mixed automorphic magnetic systems on the plane: construction and verification.

The public names below are imported from their submodule on first use (PEP 562), so
``import maf`` loads no submodule and ``from maf.config import build_system`` loads
only what building a system runs.
"""

import importlib

_EXPORTS = {
    "automorphy": "CharacterTable PseudoCharacter UnknownGroupElementError j_factor mixed_factor "
                  "mixed_factor_nochi phase rdq_check",
    "config": "ConfigError SystemConfig build_system load_bundled load_config",
    "equivariant": "Endomorphism EquivariantMap apply_endo apply_endo_ab check_equivariance tau_from_beta xi_rho",
    "fields": "Grid ScalarField",
    "groups": "IDENTITY DiscreteSubgroup GroupElement act compose enumerate_words inverse",
    "highdim": "EquivariantMapN constant_field_test two_form",
    "magnetics": "MagneticSystem apply_landau apply_mixed_laplacian chi_tau field_constancy "
                 "intertwining_residual invariance_residual lifting_residual magnetic_field representation "
                 "w_transform",
    "reports": "CheckReport emit from_residuals",
    "spectral": "SpectralBasis hermite hermite_function kernel laguerre landau_level strip_eigenfunction",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
