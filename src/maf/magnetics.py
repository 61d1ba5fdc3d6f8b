"""Magnetic systems: field, gauge, Laplacians, lifting.

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
S(z) = B z + 2i conj(k) exactly, k = ``gauge_k``: phi is always 2 Re(k z).
``field_constancy`` and ``gauge_check`` decide those two coefficients of S.

A group check takes its elements gs = (a, b), 1-d arrays, in one call and sweeps them
(axis 0) by the grid points (axis 1), one report per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automorphy import CharacterTable, PseudoCharacter, character_table
from .equivariant import Endomorphism, EquivariantMap, apply_endo_ab, equivariance_defects
from .fields import Grid, ScalarField, jet
from .groups import DiscreteSubgroup, inverse_ab
from .reports import CheckReport, element_dicts, from_element_residuals, from_residuals

WORD_LEN = 8  # word length of the chi extension behind chi_table
CHECK_TOL = 1e-9  # largest equivariance defect a system may have to be built
INVARIANCE_TOL = 1e-11  # exact T_g
COEFFICIENT_TOL = 1e-12  # S's coefficients against B and gauge_k, exact up to round-off


def phase_pullback(f: ScalarField, ks: complex, a=1.0, b=0.0, c=1.0) -> ScalarField:
    """c e^{2i Re(ks z)} f(a z + b): f pulled back by [a, b] times a linear phase, its jet by
    ``_phased_jet`` from one jet of f."""
    phase = lambda z: c * np.exp(2j * (ks * z).real)
    return ScalarField(lambda z: phase(z) * f(a * z + b), lambda z: _phased_jet(phase(z), ks, a, jet(f, a * z + b)))


def _phased_jet(p, ks: complex, a, F):
    """The jet of c e^{2i Re(ks z)} f(a z + b) from p, its phase c e^{2i Re(ks z)}, and F, f's jet at a z + b."""
    return (p * F[0], *(p * d for d in _phase_rule(ks, a, *F)))


def _phase_rule(ks: complex, a, F, F_z, F_zb, lap):
    """(d, dbar, Lap) of e^{2i Re(ks z)} f(a z + b) over its phase, from f's jet at a z + b, as
    (f o g)_z = a f_z, (f o g)_zbar = abar f_zbar and, for |a| = 1, Lap(f o g) = Lap f."""
    ksb, ab = np.conj(ks), np.conj(a)
    lap_t = lap + 4j * ks * ab * F_zb + 4j * ksb * a * F_z - 4 * abs(ks) ** 2 * F
    return 1j * ks * F + a * F_z, 1j * ksb * F + ab * F_zb, lap_t


@dataclass
class MagneticSystem:
    """The bundle (nu, mu, rho, tau, Gamma, chi) with derived field and gauge."""

    nu: float
    mu: float
    rho: Endomorphism
    tau: EquivariantMap
    gamma: DiscreteSubgroup
    chi: PseudoCharacter

    def __post_init__(self):
        for name, defect in equivariance_defects(self.rho, self.tau).items():
            if abs(defect) > CHECK_TOL:
                raise ValueError(f"(rho, tau) is not equivariant: tau's {name} is off by {abs(defect):.2e}")
        gens = self.gamma.generators
        images = apply_endo_ab(self.rho, np.array([g.a for g in gens]), np.array([g.b for g in gens]))
        if not (inside := self.gamma.contains(*images)).all():
            raise ValueError(f"rho does not preserve the subgroup: generator {inside.argmin()} escapes")
        if self.B <= 0:
            raise ValueError(f"derived field B={self.B} must be positive")

    # -- derived scalars -----------------------------------------------------

    @cached_property
    def B(self) -> float:
        """nu + mu (|tau_z|^2 - |tau_zbar|^2) = nu + mu (|p|^2 - |q|^2), constant for affine tau."""
        return float(self.nu + self.mu * (np.abs(self.tau.p) ** 2 - np.abs(self.tau.q) ** 2))

    @cached_property
    def gauge_k(self) -> complex:
        """phi(z) = 2 Re(gauge_k z)."""
        p, q, r = self.tau.p, self.tau.q, self.tau.r
        c = self.mu * (p.conjugate() * r - q * r.conjugate())
        return 1j * c.conjugate() / 2

    @cached_property
    def chi_table(self) -> CharacterTable:
        return character_table(self.chi, self.gamma, self.nu, self.mu, self.rho, WORD_LEN)

    # -- pointwise fields ----------------------------------------------------

    def phi(self, z):
        """The gauge at the points z, in closed form; ``gauge_check`` decides it from S."""
        return 2 * (self.gauge_k * z).real


def S_field(sys: MagneticSystem, z):
    """S(z) = nu z + mu (tau d(tau bar)/dzbar - tau bar d(tau)/dzbar)."""
    if sys.mu == 0.0:
        return sys.nu * z
    t = sys.tau(z)
    # d(tau bar)/dzbar = conj(d tau / dz) = conj(p), and d tau / dzbar = q
    return sys.nu * z + sys.mu * (t * sys.tau.p.conjugate() - t.conjugate() * sys.tau.q)


def magnetic_field(sys: MagneticSystem, z):
    """B(z), the constant ``sys.B``, at the points z."""
    return np.broadcast_to(sys.B, np.shape(z))


# The coefficients of S(z) = B z + 2i conj(gauge_k).  These two keep their names, and
# field_constancy its ``grid``: perfbench/tracing.py wraps both by name and counts grid.

def field_constancy(sys: MagneticSystem, grid: Grid, tol: float = COEFFICIENT_TOL) -> CheckReport:
    """S's z-coefficient against the field: |S(z) - S(0) - B(z) z| / max(1, |z|) over the grid, so a
    wrong B or a zbar term in S fails it, and the round-off of a far grid, which grows like |z|, does not."""
    z = grid.points()
    res = np.abs(S_field(sys, z) - S_field(sys, 0.0) - magnetic_field(sys, z) * z) / np.maximum(1.0, np.abs(z))
    return from_residuals("field_coefficient", res, tol, B=sys.B, grid=grid.to_dict())


def apply_mixed_laplacian(sys: MagneticSystem, f: ScalarField, z):
    """4 dd_bar f + 2(S df - Sbar dbar_f) - |S|^2 f (its mu-term vanishes for affine tau)."""
    return value_and_mixed_laplacian(sys, f, z)[1]


def value_and_mixed_laplacian(sys: MagneticSystem, f: ScalarField, z):
    """(f, its mixed Laplacian) at the points z, from one jet of f."""
    F = jet(f, z)
    return F[0], _mixed(S_field(sys, z), *F)


def _mixed(S, fz, f_z, f_zb, lap):
    """The mixed Laplacian from S and the jet (f, df, dbar_f, flat Laplacian) at the same points."""
    return lap + 2 * (S * f_z - S.conjugate() * f_zb) - abs(S) ** 2 * fz


def apply_landau(B: float, f: ScalarField, z):
    """Landau Hamiltonian 4 dd_bar + 2B(z d - zbar dbar) - B^2 |z|^2: the mixed Laplacian with S = B z."""
    return _mixed(B * np.asarray(z), *jet(f, z))


def representation(sys: MagneticSystem, a, b, f: ScalarField) -> ScalarField:
    """[T_g f](z) = conj(J0(g, z)) f(g.z) for g = [a, b], J0 the character-free factor; exact.

    T_g f = c e^{-2i Re(K z)} (f o g) (``_conj_j0``, ``phase_pullback``) carries a jet when
    f does.  a and b broadcast against the points (e.g. (G, 1) columns); any element will do.
    """
    K, c = _conj_j0(sys, a, b)
    return phase_pullback(f, -K, a, b, c)


def _conj_j0(sys: MagneticSystem, a, b):
    """(K, c) with conj J0(g, z) = c e^{-2i Re(K z)} for g = [a, b]: K = i nu wbar/2 +
    i mu (p w2bar - qbar w2)/2 and c = e^{i mu Im(r w2bar)}, w = g^{-1}.0, w2 = rho(g)^{-1}.0."""
    w, w2 = inverse_ab(a, b)[1], inverse_ab(*apply_endo_ab(sys.rho, a, b))[1]
    p, q, r = sys.tau.p, sys.tau.q, sys.tau.r
    K = 1j * sys.nu * np.conj(w) / 2 + 1j * sys.mu * (p * np.conj(w2) - np.conj(q) * w2) / 2
    return K, np.exp(1j * sys.mu * (r * np.conj(w2)).imag)


def invariance_residual(
    sys: MagneticSystem, gs, f: ScalarField, grid: Grid, tol: float = INVARIANCE_TOL
) -> list[CheckReport]:
    """Commutator residual |T_g(Delta f) - Delta(T_g f)| over the grid, per element of gs.

    Both sides come from one jet of f at g.z: T_g(Delta f) = u (Delta f)(g.z), u = conj J0(g, z),
    and Delta(T_g f) by ``representation``'s ``_phase_rule``, with u factored out of both.
    """
    a, b = (np.reshape(x, (-1, 1)) for x in gs)
    z = grid.points()
    F = jet(f, a * z + b)
    t_f = _phase_rule(-_conj_j0(sys, a, b)[0], a, *F)
    res = np.abs(_mixed(S_field(sys, a * z + b), *F) - _mixed(S_field(sys, z), F[0], *t_f))
    return from_element_residuals("invariance", res, tol, gs, grid=grid.to_dict())


def gauge_check(sys: MagneticSystem, tol: float = COEFFICIENT_TOL) -> CheckReport:
    """S's constant term against the gauge: |S(0) - 2i conj(gauge_k)|.  It vanishes iff
    phi = 2 Re(gauge_k z) solves dphi/dz = -i (B zbar - conj(S)) / 2, S's z-coefficient being B."""
    k = sys.gauge_k
    res = abs(S_field(sys, 0.0) - 2j * np.conj(k))
    return from_residuals("gauge_coefficient", [res], tol, gauge_k=[k.real, k.imag])


def w_transform(sys: MagneticSystem, f: ScalarField, sign: float = 1.0) -> ScalarField:
    """[W f](z) = e^{i phi(z)} f(z); sign=-1 gives the inverse transform."""
    return phase_pullback(f, sign * sys.gauge_k)


def intertwining_residual(
    sys: MagneticSystem, f: ScalarField, grid: Grid, tol: float = 1e-5, B_override: float | None = None
) -> CheckReport:
    """Residual of Delta_mixed f = e^{-i phi} Delta_B (e^{i phi} f) on the grid.

    Both sides come from one jet of f: W f's (``w_transform``) by ``_phased_jet``.
    ``B_override`` perturbs the Landau field for negative controls.
    """
    B = sys.B if B_override is None else B_override
    z, k = grid.points(), sys.gauge_k
    F = jet(f, z)
    rhs = np.exp(-1j * sys.phi(z)) * _mixed(B * z, *_phased_jet(np.exp(2j * (k * z).real), k, 1.0, F))
    res = np.abs(_mixed(S_field(sys, z), *F) - rhs)
    return from_residuals("intertwining", res, tol, B=B, grid=grid.to_dict())


# -- lifting -----------------------------------------------------------------

def chi_tau(sys: MagneticSystem, gs, drop: str | None = None) -> np.ndarray:
    """Corrected character chi_tau(g) = chi(g) e^{i phi(g.0)} e^{-i mu Im<tau(0), rho(g)^{-1}.0>},
    per element of gs.

    ``drop`` removes one correction sub-factor ("phase_at_orbit" or "inner")
    for negative-control testing.
    """
    return _chi_tau(sys, sys.chi_table.indices(*gs), drop)


def _chi_tau(sys: MagneticSystem, idx, drop: str | None = None) -> np.ndarray:
    """``chi_tau`` at the chi table's entries idx."""
    t = sys.chi_table
    arg = t.theta[idx] + (0.0 if drop == "phase_at_orbit" else sys.phi(t.closure.b[idx]))
    if drop != "inner" and sys.mu != 0.0:
        arg = arg - sys.mu * (sys.tau.r * np.conj(t.ru[idx])).imag  # tau(0) = r, ru = rho(g)^{-1}.0
    return np.exp(1j * arg)


def _lifted_factor(sys: MagneticSystem, idx, z):
    """(e^{i(phi(g.z) - phi(z))} J(g, z), j^B(g, z)) at the points z, per chi table entry of idx, with
    J = chi(g) e^{-i(nu Im(z ubar) + mu Im(tau(z) conj(ru)))} and j^B = e^{-iB Im(z ubar)}, u = g^{-1}.0."""
    t, idx = sys.chi_table, np.reshape(idx, (-1, 1))
    im_zu = (z * np.conj(t.u[idx])).imag
    arg = t.theta[idx] - sys.nu * im_zu + sys.phi(t.closure.a[idx] * z + t.closure.b[idx]) - sys.phi(z)
    if sys.mu != 0.0:
        arg -= sys.mu * (sys.tau(z) * np.conj(t.ru[idx])).imag
    return np.exp(1j * arg), np.exp(-1j * sys.B * im_zu)


def chi_tau_hat_spread(sys: MagneticSystem, gs, grid: Grid, tol: float = 1e-8) -> list[CheckReport]:
    """z-independence of chi_tau_hat = e^{i(phi(g.z) - phi(z))} J(g, z) / j^B(g, z) over the grid
    (max deviation from its mean), per element of gs."""
    vals = np.divide(*_lifted_factor(sys, sys.chi_table.indices(*gs), grid.points()))
    center = vals.mean(axis=1)
    res = np.abs(vals - center[:, None])
    return [
        from_residuals("chi_tau_hat_spread", r, tol, gamma=g, value=[m.real, m.imag], grid=grid.to_dict())
        for r, m, g in zip(res, center.tolist(), element_dicts(gs))
    ]


def lifting_residual(
    sys: MagneticSystem, gs, grid: Grid, tol: float = 1e-8, drop: str | None = None
) -> list[CheckReport]:
    """Residual of e^{i(phi(g.z)-phi(z))} J(g, z) = chi_tau(g) j^B(g, z), per element of gs."""
    idx = sys.chi_table.indices(*gs)
    lhs, jb = _lifted_factor(sys, idx, grid.points())
    res = np.abs(lhs - _chi_tau(sys, idx, drop)[:, None] * jb)
    return from_element_residuals("lifting", res, tol, gs, "gamma", dropped=drop, grid=grid.to_dict())
