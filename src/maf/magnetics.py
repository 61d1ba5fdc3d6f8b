"""Magnetic systems: potential, Laplacians, gauge, lifting.

A ``MagneticSystem`` bundles weights (nu, mu), an equivariant pair (rho, tau),
a discrete subgroup with a pseudo-character, and derives the constant field

    B = nu + mu (|tau_z|^2 - |tau_zbar|^2)

together with the real gauge function phi solving

    dphi/dz = -i (B zbar - conj(S)) / 2,   phi(0) = 0,

where S(z) = nu z + mu (tau d(tau bar)/dzbar - tau bar d(tau)/dzbar).  The
transform W = e^{i phi} conjugates the mixed Laplacian into the Landau
Hamiltonian with field B and carries its automorphy to a classical factor
with the corrected character chi_tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .automorphy import (
    CharacterTable,
    PseudoCharacter,
    j_factor,
    mixed_factor,
    mixed_factor_nochi,
)
from .equivariant import Endomorphism, EquivariantMap, apply_endo, check_equivariance
from .fields import (
    Grid,
    OneForm,
    ScalarField,
    flat_laplacian,
    line_integral,
    wirtinger,
)
from .groups import DiscreteSubgroup, GroupElement, act, find_word, inverse
from .reports import CheckReport, from_residuals

GAUGE_IM_TOL = 1e-9


def linear_phase_multiply(f: ScalarField, k: complex, sign: float = 1.0) -> ScalarField:
    """e^{i s phi} f for the real linear phase phi(z) = 2 Re(k z).

    Propagates analytic derivatives of f when present.
    """
    ks = sign * k

    def phase(z):
        return np.exp(2j * (ks * z).real)

    func = lambda z: phase(z) * f(z)
    d_z = d_zbar = lap = None
    if f.d_z is not None and f.d_zbar is not None:
        d_z = lambda z: phase(z) * (1j * ks * f(z) + f.d_z(z))
        d_zbar = lambda z: phase(z) * (1j * ks.conjugate() * f(z) + f.d_zbar(z))
        if f.lap is not None:
            lap = lambda z: phase(z) * (
                f.lap(z)
                + 4j * ks * f.d_zbar(z)
                + 4j * ks.conjugate() * f.d_z(z)
                - 4 * abs(ks) ** 2 * f(z)
            )
    return ScalarField(func, d_z, d_zbar, lap, fd_step=f.fd_step)


@dataclass
class MagneticSystem:
    """The bundle (nu, mu, rho, tau, Gamma, chi) with derived field and gauge."""

    nu: float
    mu: float
    rho: Endomorphism
    tau: EquivariantMap
    gamma: DiscreteSubgroup
    chi: PseudoCharacter
    fd_step: float = 1e-4
    word_len: int = 8
    check_tol: float = 1e-9

    def __post_init__(self):
        rep = check_equivariance(self.rho, self.tau, tol=self.check_tol)
        if not rep.passed:
            raise ValueError(f"(rho, tau) is not equivariant: residual {rep.max_residual:.2e}")
        for i, g in enumerate(self.gamma.generators):
            if find_word(self.gamma, apply_endo(self.rho, g)) is None:
                raise ValueError(f"rho does not preserve the subgroup: generator {i} escapes")
        if self.B <= 0:
            raise ValueError(f"derived field B={self.B} must be positive")

    # -- derived scalars -----------------------------------------------------

    @cached_property
    def B(self) -> float:
        return magnetic_field(self, 0.3 + 0.7j)

    @cached_property
    def gauge_k(self) -> Optional[complex]:
        """phi(z) = 2 Re(gauge_k z) when tau is affine; None otherwise."""
        if self.tau.affine is None:
            return None
        p, q, r = self.tau.affine
        c = self.mu * (p.conjugate() * r - q * r.conjugate())
        return 1j * c.conjugate() / 2

    @cached_property
    def chi_table(self) -> CharacterTable:
        return CharacterTable(self.chi, self.gamma, self.nu, self.mu, self.rho, self.word_len)

    # -- pointwise fields ----------------------------------------------------

    def phi(self, z: complex) -> float:
        """The gauge, by closed form when available, else by line integral."""
        if self.gauge_k is not None:
            return 2 * (self.gauge_k * z).real
        return gauge_phi(self, z)

    def factor(self, gamma_elem: GroupElement, z: complex) -> complex:
        return mixed_factor(self.nu, self.mu, self.rho, self.tau, self.chi_table, gamma_elem, z)

    def factor_nochi(self, g: GroupElement, z: complex) -> complex:
        return mixed_factor_nochi(self.nu, self.mu, self.rho, self.tau, g, z)


def S_field(sys: MagneticSystem, z: complex) -> complex:
    """S(z) = nu z + mu (tau d(tau bar)/dzbar - tau bar d(tau)/dzbar)."""
    if sys.mu == 0.0:
        return sys.nu * z
    t = sys.tau(z)
    t_z, t_zb = wirtinger(sys.tau.tau, z)
    # d(tau bar)/dzbar = conj(d tau / dz)
    return sys.nu * z + sys.mu * (t * t_z.conjugate() - t.conjugate() * t_zb)


def magnetic_field(sys: MagneticSystem, z: complex) -> float:
    """B(z) = nu + mu (|tau_z|^2 - |tau_zbar|^2); constant for equivariant tau."""
    if sys.mu == 0.0:
        return float(sys.nu)
    t_z, t_zb = wirtinger(sys.tau.tau, z)
    return float(sys.nu + sys.mu * (abs(t_z) ** 2 - abs(t_zb) ** 2))


def field_constancy(sys: MagneticSystem, grid: Grid, tol: float = 1e-8) -> CheckReport:
    vals = np.array([magnetic_field(sys, z) for z in grid.points()])
    spread = float(vals.max() - vals.min())
    return CheckReport(
        "field_constancy",
        spread,
        spread,
        tol,
        {"B": float(vals.mean()), "grid": grid.to_dict()},
    )


def potential(sys: MagneticSystem) -> OneForm:
    """theta = -(Sbar/2) dz + (S/2) dzbar."""
    return OneForm(
        coeff_dz=ScalarField(lambda z: -S_field(sys, z).conjugate() / 2, fd_step=sys.fd_step),
        coeff_dzbar=ScalarField(lambda z: S_field(sys, z) / 2, fd_step=sys.fd_step),
    )


def apply_mixed_laplacian(sys: MagneticSystem, f: ScalarField, z: complex) -> complex:
    """4 dd_bar f + 2(S df - Sbar dbar_f) - |S|^2 f + mu(tau lap(tau bar) - tau bar lap(tau)) f."""
    f_z, f_zb = wirtinger(f, z)
    S = S_field(sys, z)
    val = flat_laplacian(f, z) + 2 * (S * f_z - S.conjugate() * f_zb) - abs(S) ** 2 * f(z)
    if sys.mu != 0.0:
        lt = flat_laplacian(sys.tau.tau, z)
        if lt != 0.0:
            t = sys.tau(z)
            val += sys.mu * (t * lt.conjugate() - t.conjugate() * lt) * f(z)
    return val


def apply_landau(B: float, f: ScalarField, z: complex) -> complex:
    """Landau Hamiltonian 4 dd_bar + 2B(z d - zbar dbar) - B^2 |z|^2."""
    f_z, f_zb = wirtinger(f, z)
    return (
        flat_laplacian(f, z)
        + 2 * B * (z * f_z - z.conjugate() * f_zb)
        - B**2 * abs(z) ** 2 * f(z)
    )


def representation(sys: MagneticSystem, g: GroupElement, f: ScalarField, use_chi: bool = False) -> ScalarField:
    """[T_g f](z) = conj(J(g, z)) f(g.z).

    The default character-free variant is defined for every group element;
    ``use_chi`` restricts g to the subgroup's word closure.
    """
    if use_chi:
        chi_val = sys.chi_table.value(g)

        def func(z):
            return (chi_val * sys.factor_nochi(g, z)).conjugate() * f(act(g, z))

    else:

        def func(z):
            return sys.factor_nochi(g, z).conjugate() * f(act(g, z))

    return ScalarField(func, fd_step=f.fd_step)


def invariance_residual(
    sys: MagneticSystem, g: GroupElement, f: ScalarField, grid: Grid, tol: float = 1e-5
) -> CheckReport:
    """Commutator residual |T_g(Delta f) - Delta(T_g f)| over the grid."""
    lap_f = ScalarField(lambda z: apply_mixed_laplacian(sys, f, z), fd_step=sys.fd_step)
    t_lap = representation(sys, g, lap_f)
    t_f = representation(sys, g, f)
    res = [abs(t_lap(z) - apply_mixed_laplacian(sys, t_f, z)) for z in grid.points()]
    return from_residuals("invariance", res, tol, g=g.to_dict(), grid=grid.to_dict())


# -- gauge -------------------------------------------------------------------

def _dphi(sys: MagneticSystem) -> OneForm:
    B = sys.B

    def phi_z(z):
        return -0.5j * (B * z.conjugate() - S_field(sys, z).conjugate())

    return OneForm(
        coeff_dz=ScalarField(phi_z, fd_step=sys.fd_step),
        coeff_dzbar=ScalarField(lambda z: phi_z(z).conjugate(), fd_step=sys.fd_step),
    )


def gauge_phi(sys: MagneticSystem, z: complex, path_choice: str = "x_first") -> float:
    """phi(z) as a line integral of dphi from the origin along an L-path.

    ``path_choice`` picks the axis-parallel route: real leg first or
    imaginary leg first.  The result must come out real within 1e-9.
    """
    if path_choice == "x_first":
        path = [0.0, complex(z.real, 0.0), z]
    elif path_choice == "y_first":
        path = [0.0, complex(0.0, z.imag), z]
    else:
        raise ValueError(f"unknown path_choice {path_choice!r}")
    val = line_integral(_dphi(sys), path)
    if abs(val.imag) > GAUGE_IM_TOL:
        raise ArithmeticError(f"gauge integral has imaginary part {val.imag:.2e}")
    return float(val.real)


def gauge_path_residuals(sys: MagneticSystem, zs) -> tuple[list[float], list[float]]:
    """(|x-first - y-first| path mismatches, |Im phi| magnitudes) at the points zs."""
    mism, ims = [], []
    form = _dphi(sys)
    for z in zs:
        v1 = line_integral(form, [0.0, complex(z.real, 0.0), z])
        v2 = line_integral(form, [0.0, complex(0.0, z.imag), z])
        mism.append(abs(v1 - v2))
        ims.append(max(abs(v1.imag), abs(v2.imag)))
    return mism, ims


def gauge_loop_residuals(sys: MagneticSystem, seed: int = 0, n_loops: int = 10) -> list[float]:
    """Loop integrals of dphi around random quadrilaterals; zero iff dphi is closed."""
    rng = np.random.default_rng(seed)
    form = _dphi(sys)
    out = []
    for _ in range(n_loops):
        pts = rng.normal(size=4) + 1j * rng.normal(size=4)
        loop = list(pts) + [pts[0]]
        out.append(abs(line_integral(form, loop)))
    return out


def gauge_check(sys: MagneticSystem, seed: int = 0, n_points: int = 20, tol: float = 1e-8) -> CheckReport:
    """Path-independence, realness, and closedness of the gauge in one report."""
    rng = np.random.default_rng(seed)
    zs = 2 * (rng.normal(size=n_points) + 1j * rng.normal(size=n_points))
    mism, ims = gauge_path_residuals(sys, zs)
    loops = gauge_loop_residuals(sys, seed=seed)
    res = mism + loops
    return from_residuals(
        "gauge_wellposed",
        res,
        tol,
        max_im=max(ims),
        n_points=n_points,
        seed=seed,
    )


def w_transform(sys: MagneticSystem, f: ScalarField, sign: float = 1.0) -> ScalarField:
    """[W f](z) = e^{i phi(z)} f(z); sign=-1 gives the inverse transform."""
    if sys.gauge_k is not None:
        return linear_phase_multiply(f, sys.gauge_k, sign)
    return ScalarField(lambda z: np.exp(1j * sign * sys.phi(z)) * f(z), fd_step=f.fd_step)


def intertwining_residual(
    sys: MagneticSystem, f: ScalarField, grid: Grid, tol: float = 1e-5, B_override: float | None = None
) -> CheckReport:
    """Residual of Delta_mixed f = e^{-i phi} Delta_B (e^{i phi} f) on the grid.

    ``B_override`` perturbs the Landau field for negative controls.
    """
    B = sys.B if B_override is None else B_override
    wf = w_transform(sys, f)
    res = []
    for z in grid.points():
        lhs = apply_mixed_laplacian(sys, f, z)
        rhs = np.exp(-1j * sys.phi(z)) * apply_landau(B, wf, z)
        res.append(abs(lhs - rhs))
    return from_residuals("intertwining", res, tol, B=B, grid=grid.to_dict())


# -- lifting -----------------------------------------------------------------

def chi_tau(sys: MagneticSystem, gamma_elem: GroupElement, drop: str | None = None) -> complex:
    """Corrected character chi_tau(gamma) = chi(gamma) e^{i phi(gamma.0)} e^{-i mu Im<tau(0), rho(gamma)^{-1}.0>}.

    ``drop`` removes one correction sub-factor ("phase_at_orbit" or "inner")
    for negative-control testing.
    """
    val = sys.chi_table.value(gamma_elem)
    if drop != "phase_at_orbit":
        val *= np.exp(1j * sys.phi(act(gamma_elem, 0.0)))
    if drop != "inner":
        t0 = sys.tau(0.0)
        w = act(inverse(apply_endo(sys.rho, gamma_elem)), 0.0)
        val *= np.exp(-1j * sys.mu * (t0 * w.conjugate()).imag)
    return val


def chi_tau_hat(sys: MagneticSystem, gamma_elem: GroupElement, z: complex) -> complex:
    """The z-dependent quotient e^{i(phi(gamma.z) - phi(z))} J(gamma, z) / j^B(gamma, z)."""
    num = np.exp(1j * (sys.phi(act(gamma_elem, z)) - sys.phi(z))) * sys.factor(gamma_elem, z)
    return num / j_factor(sys.B, gamma_elem, z)


def chi_tau_hat_spread(
    sys: MagneticSystem, gamma_elem: GroupElement, grid: Grid, tol: float = 1e-8
) -> CheckReport:
    """z-independence of chi_tau_hat over the grid (max deviation from its mean)."""
    vals = np.array([chi_tau_hat(sys, gamma_elem, z) for z in grid.points()])
    center = vals.mean()
    res = np.abs(vals - center)
    return from_residuals(
        "chi_tau_hat_spread",
        res,
        tol,
        gamma=gamma_elem.to_dict(),
        value=[center.real, center.imag],
        grid=grid.to_dict(),
    )


def lifting_residual(
    sys: MagneticSystem,
    gamma_elem: GroupElement,
    grid: Grid,
    tol: float = 1e-8,
    drop: str | None = None,
) -> CheckReport:
    """Residual of e^{i(phi(gamma.z)-phi(z))} J(gamma, z) = chi_tau(gamma) j^B(gamma, z)."""
    target = chi_tau(sys, gamma_elem, drop=drop)
    chi = sys.chi_table.value(gamma_elem)  # J = chi * J0; look chi up once, not per point
    res = []
    for z in grid.points():
        J = chi * sys.factor_nochi(gamma_elem, z)
        lhs = np.exp(1j * (sys.phi(act(gamma_elem, z)) - sys.phi(z))) * J
        res.append(abs(lhs - target * j_factor(sys.B, gamma_elem, z)))
    return from_residuals(
        "lifting", res, tol, gamma=gamma_elem.to_dict(), dropped=drop, grid=grid.to_dict()
    )
