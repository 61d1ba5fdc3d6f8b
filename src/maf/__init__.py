"""Mixed automorphic magnetic systems on the plane: construction and verification."""

from .automorphy import (
    CharacterTable,
    PseudoCharacter,
    UnknownGroupElementError,
    cocycle_defect,
    j_factor,
    mixed_factor,
    mixed_factor_nochi,
    phase,
    rdq_check,
)
from .config import ConfigError, SystemConfig, build_system, load_bundled, load_config
from .equivariant import (
    Endomorphism,
    EquivariantMap,
    apply_endo,
    apply_endo_ab,
    check_equivariance,
    tau_from_beta,
    xi_rho,
)
from .fields import Grid, OneForm, ScalarField, line_integral, quad2d
from .groups import (
    IDENTITY,
    DiscreteSubgroup,
    GroupElement,
    act,
    compose,
    enumerate_words,
    inverse,
    stabilizer_residual,
)
from .highdim import EquivariantMapN, constant_field_test, determinant_coeffs, two_form
from .magnetics import (
    MagneticSystem,
    apply_landau,
    apply_mixed_laplacian,
    chi_tau,
    field_constancy,
    gauge_phi,
    intertwining_residual,
    invariance_residual,
    lifting_residual,
    magnetic_field,
    potential,
    representation,
    w_transform,
)
from .reports import CheckReport, emit, from_residuals
from .spectral import (
    SpectralBasis,
    hermite,
    hermite_function,
    kernel,
    laguerre,
    landau_level,
    strip_eigenfunction,
)

__version__ = "0.1.0"
