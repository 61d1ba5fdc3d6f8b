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

Every equivariant tau is affine, tau(z) = p z + q zbar + r, so the term
mu (tau lap(tau bar) - tau bar lap(tau)) of the mixed Laplacian vanishes and
phi is always 2 Re(k z), k = ``gauge_k``; ``gauge_phi`` is its line-integral
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automorphy import (
    CharacterTable,
    PseudoCharacter,
    j_factor,
    mixed_factor,
    mixed_factor_nochi,
)
from .equivariant import Endomorphism, EquivariantMap, apply_endo, check_equivariance
from .fields import Grid, OneForm, ScalarField, jet, line_integral
from .groups import DiscreteSubgroup, GroupElement, act, find_word, inverse
from .reports import CheckReport, from_residuals

GAUGE_IM_TOL = 1e-9
WORD_LEN = 8  # word length of the chi extension behind chi_table
CHECK_TOL = 1e-9  # equivariance tolerance a system must meet to be built


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

    def __post_init__(self):
        rep = check_equivariance(self.rho, self.tau, tol=CHECK_TOL)
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
        return float(magnetic_field(self, 0.3 + 0.7j))

    @cached_property
    def gauge_k(self) -> complex:
        """phi(z) = 2 Re(gauge_k z)."""
        p, q, r = self.tau.p, self.tau.q, self.tau.r
        c = self.mu * (p.conjugate() * r - q * r.conjugate())
        return 1j * c.conjugate() / 2

    @cached_property
    def chi_table(self) -> CharacterTable:
        return CharacterTable(self.chi, self.gamma, self.nu, self.mu, self.rho, WORD_LEN)

    # -- pointwise fields ----------------------------------------------------

    def phi(self, z):
        """The gauge at the points z, in closed form; ``gauge_phi`` is its line-integral oracle."""
        return 2 * (self.gauge_k * z).real

    def factor(self, gamma_elem: GroupElement, z):
        return mixed_factor(self.nu, self.mu, self.rho, self.tau, self.chi_table, gamma_elem, z)

    def factor_nochi(self, g: GroupElement, z):
        return mixed_factor_nochi(self.nu, self.mu, self.rho, self.tau, g, z)


def S_field(sys: MagneticSystem, z):
    """S(z) = nu z + mu (tau d(tau bar)/dzbar - tau bar d(tau)/dzbar)."""
    if sys.mu == 0.0:
        return sys.nu * z
    t = sys.tau(z)
    # d(tau bar)/dzbar = conj(d tau / dz) = conj(p), and d tau / dzbar = q
    return sys.nu * z + sys.mu * (t * sys.tau.p.conjugate() - t.conjugate() * sys.tau.q)


def magnetic_field(sys: MagneticSystem, z):
    """B(z) = nu + mu (|tau_z|^2 - |tau_zbar|^2) = nu + mu (|p|^2 - |q|^2) at the points z."""
    if sys.mu == 0.0:
        return np.full(np.shape(z), float(sys.nu))
    b = sys.nu + sys.mu * (np.abs(sys.tau.p) ** 2 - np.abs(sys.tau.q) ** 2)
    return np.broadcast_to(b, np.shape(z))


def field_constancy(sys: MagneticSystem, grid: Grid, tol: float = 1e-8) -> CheckReport:
    vals = magnetic_field(sys, grid.points())
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


def apply_mixed_laplacian(sys: MagneticSystem, f: ScalarField, z):
    """4 dd_bar f + 2(S df - Sbar dbar_f) - |S|^2 f (its mu-term vanishes for affine tau)."""
    fz, f_z, f_zb, lap = jet(f, z)
    S = S_field(sys, z)
    return lap + 2 * (S * f_z - S.conjugate() * f_zb) - abs(S) ** 2 * fz


def apply_landau(B: float, f: ScalarField, z):
    """Landau Hamiltonian 4 dd_bar + 2B(z d - zbar dbar) - B^2 |z|^2."""
    fz, f_z, f_zb, lap = jet(f, z)
    return lap + 2 * B * (z * f_z - z.conjugate() * f_zb) - B**2 * abs(z) ** 2 * fz


def representation(sys: MagneticSystem, g: GroupElement, f: ScalarField) -> ScalarField:
    """[T_g f](z) = conj(J0(g, z)) f(g.z), with the character-free factor J0.

    Defined for every group element, not only for the subgroup's.
    """

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
    pts = grid.points()
    res = np.abs(t_lap(pts) - apply_mixed_laplacian(sys, t_f, pts))
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


def _l_path(z, path_choice: str) -> list:
    """The axis-parallel route 0 -> z: real leg first or imaginary leg first."""
    if path_choice == "x_first":
        return [0.0, z.real + 0j, z]
    if path_choice == "y_first":
        return [0.0, 1j * z.imag, z]
    raise ValueError(f"unknown path_choice {path_choice!r}")


def gauge_phi(sys: MagneticSystem, z, path_choice: str = "x_first"):
    """phi at the points z as a line integral of dphi from the origin along an L-path.

    ``path_choice`` picks the axis-parallel route: real leg first or
    imaginary leg first.  The result must come out real within 1e-9.
    """
    val = line_integral(_dphi(sys), _l_path(np.asarray(z), path_choice))
    im = np.max(np.abs(val.imag), initial=0.0)
    if im > GAUGE_IM_TOL:
        raise ArithmeticError(f"gauge integral has imaginary part {im:.2e}")
    return val.real


def gauge_path_residuals(sys: MagneticSystem, zs) -> tuple[np.ndarray, np.ndarray]:
    """(|x-first - y-first| path mismatches, |Im phi| magnitudes) at the points zs."""
    zs = np.asarray(zs, dtype=complex)
    form = _dphi(sys)
    v1 = line_integral(form, _l_path(zs, "x_first"))
    v2 = line_integral(form, _l_path(zs, "y_first"))
    return np.abs(v1 - v2), np.maximum(np.abs(v1.imag), np.abs(v2.imag))


def gauge_loop_residuals(sys: MagneticSystem, seed: int = 0, n_loops: int = 10) -> np.ndarray:
    """Loop integrals of dphi around random quadrilaterals; zero iff dphi is closed."""
    xy = np.random.default_rng(seed).normal(size=(n_loops, 2, 4))
    corners = list((xy[:, 0] + 1j * xy[:, 1]).T)
    return np.abs(line_integral(_dphi(sys), corners + corners[:1]))


def gauge_check(sys: MagneticSystem, seed: int = 0, n_points: int = 20, tol: float = 1e-8) -> CheckReport:
    """Path-independence, realness, and closedness of the gauge in one report."""
    rng = np.random.default_rng(seed)
    zs = 2 * (rng.normal(size=n_points) + 1j * rng.normal(size=n_points))
    mism, ims = gauge_path_residuals(sys, zs)
    loops = gauge_loop_residuals(sys, seed=seed)
    return from_residuals(
        "gauge_wellposed",
        np.concatenate([mism, loops]),
        tol,
        max_im=float(ims.max()),
        n_points=n_points,
        seed=seed,
    )


def w_transform(sys: MagneticSystem, f: ScalarField, sign: float = 1.0) -> ScalarField:
    """[W f](z) = e^{i phi(z)} f(z); sign=-1 gives the inverse transform."""
    return linear_phase_multiply(f, sys.gauge_k, sign)


def intertwining_residual(
    sys: MagneticSystem, f: ScalarField, grid: Grid, tol: float = 1e-5, B_override: float | None = None
) -> CheckReport:
    """Residual of Delta_mixed f = e^{-i phi} Delta_B (e^{i phi} f) on the grid.

    ``B_override`` perturbs the Landau field for negative controls.
    """
    B = sys.B if B_override is None else B_override
    wf = w_transform(sys, f)
    pts = grid.points()
    lhs = apply_mixed_laplacian(sys, f, pts)
    rhs = np.exp(-1j * sys.phi(pts)) * apply_landau(B, wf, pts)
    res = np.abs(lhs - rhs)
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


def chi_tau_hat(sys: MagneticSystem, gamma_elem: GroupElement, z):
    """The z-dependent quotient e^{i(phi(gamma.z) - phi(z))} J(gamma, z) / j^B(gamma, z)."""
    num = np.exp(1j * (sys.phi(act(gamma_elem, z)) - sys.phi(z))) * sys.factor(gamma_elem, z)
    return num / j_factor(sys.B, gamma_elem, z)


def chi_tau_hat_spread(
    sys: MagneticSystem, gamma_elem: GroupElement, grid: Grid, tol: float = 1e-8
) -> CheckReport:
    """z-independence of chi_tau_hat over the grid (max deviation from its mean)."""
    vals = chi_tau_hat(sys, gamma_elem, grid.points())
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
    pts = grid.points()
    lhs = np.exp(1j * (sys.phi(act(gamma_elem, pts)) - sys.phi(pts))) * sys.factor(gamma_elem, pts)
    res = np.abs(lhs - target * j_factor(sys.B, gamma_elem, pts))
    return from_residuals(
        "lifting", res, tol, gamma=gamma_elem.to_dict(), dropped=drop, grid=grid.to_dict()
    )
