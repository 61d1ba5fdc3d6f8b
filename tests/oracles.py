"""Oracles that the tests compare ``maf`` with, and that ``maf`` itself never runs.

The finite-difference oracle, which every exact jet is compared with, is the per-call
5-point central stencil: each shifted point is its own call of the field, so the
oracle shares no code with the jets it checks.  The 1-form exterior derivative, which
exists to take finite differences, is built on it.  A field here is any callable of an
ndarray of points (a ``ScalarField`` is one, its value the first part of its jet).  The
probe family is P(z, zbar) e^{-alpha |z|^2} with its exact jet, a richer probe than the
Gaussian (P = 1) that ``maf`` runs.  The gauge oracle integrates dphi, written
from S and B, along an L-path one node at a time.  The group-side oracles work one scalar
element at a time: the action, rho, the phase and chi of one element, the distance of two
elements, the (character-free) mixed factor and its cocycle defect, sampled on a grid,
and the functional equation it states.  The operator oracles are the Landau Hamiltonian
and the gauge transform W, and the negative controls patch a wrong field or a chi_tau
without one of its correction factors into a system.
"""

import copy
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from maf.automorphy import j_factor
from maf.equivariant import apply_endo_ab
from maf.fields import Grid, ScalarField, jet
from maf.groups import GroupElement, compose, inverse
from maf.magnetics import S_field, phase_pullback
from maf.reports import from_residuals

FD_STEP = 1e-4


def oracle_wirtinger(f, z, h=FD_STEP):
    """(df/dz, df/dzbar) at the points z by the per-call 5-point stencil: 8 calls of f."""
    fx = (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)
    ih = 1j * h
    fy = (-f(z + 2 * ih) + 8 * f(z + ih) - 8 * f(z - ih) + f(z - 2 * ih)) / (12 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def oracle_laplacian(f, z, h=FD_STEP):
    """f_xx + f_yy at the points z by the per-call 5-point stencil: 9 calls of f."""
    fz = f(z)
    fxx = (-f(z + 2 * h) + 16 * f(z + h) - 30 * fz + 16 * f(z - h) - f(z - 2 * h)) / (12 * h * h)
    ih = 1j * h
    fyy = (-f(z + 2 * ih) + 16 * f(z + ih) - 30 * fz + 16 * f(z - ih) - f(z - 2 * ih)) / (12 * h * h)
    return fxx + fyy


def oracle_jet(f, z, h=FD_STEP):
    """(f, df/dz, df/dzbar, flat Laplacian) at the points z, the derivatives by the stencil."""
    return (f(z), *oracle_wirtinger(f, z, h), oracle_laplacian(f, z, h))


def fd_field(func, h=FD_STEP) -> ScalarField:
    """func's values with the stencil's derivatives as a jet: the finite-difference twin of a
    field, which the operators that take a jet (mixed Laplacian, Landau, Rayleigh quotient) accept."""
    return ScalarField(lambda z: oracle_jet(func, z, h))


Poly2 = dict[tuple[int, int], complex]  # (i, j) -> coefficient of z^i zbar^j


def _poly_evals(ps: list[Poly2], z) -> list:
    """sum c z^i zbar^j for each P of ps, from one table of powers: z^n is z^(n-1) z (zbar^n
    likewise), and a power 0 is no factor."""
    degs = [max((ij[m] for p in ps for ij in p), default=0) for m in (0, 1)]
    zs, zbs = (list(accumulate([w] * n, np.multiply)) for w, n in zip((z, z.conjugate()), degs))
    times = lambda c, ws, n: c * ws[n - 1] if n else c
    return [sum(times(times(c, zs, i), zbs, j) for (i, j), c in p.items()) for p in ps]


def _poly_d(p: Poly2, m: int, alpha: float) -> Poly2:
    """Q with d(P e^{-alpha z zbar}) = Q e^{-alpha z zbar}, d = d/dz (m = 0) or d/dzbar (m = 1):
    Q = P_z - alpha zbar P, or P_zbar - alpha z P."""
    out: Poly2 = {}
    for (i, j), c in p.items():
        if n := (i, j)[m]:
            key = (i - 1 + m, j - m)
            out[key] = out.get(key, 0) + n * c
    for (i, j), c in p.items():
        key = (i + m, j + 1 - m)
        out[key] = out.get(key, 0) - alpha * c
    return out


def polyexp_field(coeffs: Poly2, alpha: float = 0.0) -> ScalarField:
    """P(z, zbar) * exp(-alpha |z|^2) with its exact jet, the Gaussian and the powers of z and
    zbar formed once for all four parts."""
    p = dict(coeffs)
    q_z, q_zb, q_lap = _poly_d(p, 0, alpha), _poly_d(p, 1, alpha), _poly_d(_poly_d(p, 1, alpha), 0, alpha)

    def jet_fn(z):
        g = np.exp(-alpha * (z * z.conjugate()).real)
        v, v_z, v_zb, v_lap = _poly_evals([p, q_z, q_zb, q_lap], z)
        return v * g, v_z * g, v_zb * g, 4 * v_lap * g

    return ScalarField(jet_fn)


@dataclass
class TwoForm:
    """coeff * dz ^ dzbar."""

    coeff: Callable


def exterior_derivative(coeff_dz, coeff_dzbar, h=FD_STEP) -> TwoForm:
    """d(coeff_dz dz + coeff_dzbar dzbar), the coefficient of dz ^ dzbar, by the stencil."""

    def coeff(z):
        return oracle_wirtinger(coeff_dzbar, z, h)[0] - oracle_wirtinger(coeff_dz, z, h)[1]

    return TwoForm(coeff)


def gauge_phi(sys, z, x_first=True) -> float:
    """phi(z) as the integral of dphi = 2 Re(phi_z dz), phi_z = -i (B zbar - conj S) / 2, from 0
    along the L-path with its real leg first (or its imaginary leg), 16-point Gauss-Legendre
    per leg, node by node: exact up to round-off, as S is affine."""
    z = complex(z)
    corner = complex(z.real, 0.0) if x_first else complex(0.0, z.imag)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for z0, z1 in ((0j, corner), (corner, z)):
        for t, w in zip(nodes, weights):
            p = z0 + (t + 1) / 2 * (z1 - z0)
            phi_z = -0.5j * (sys.B * p.conjugate() - np.conj(S_field(sys, p)))
            total += w * (phi_z * (z1 - z0)).real  # w / 2 per node, times the 2 of 2 Re
    return total


def act(g: GroupElement, z):
    """g.z = a z + b."""
    return g.a * z + g.b


def symmetric_generators(gamma) -> list[tuple[int, GroupElement]]:
    """The generators and their inverses, tagged with signed indices (1-based)."""
    return [pair for i, g in enumerate(gamma.generators, 1) for pair in ((i, g), (-i, inverse(g)))]


def apply_endo(rho, g: GroupElement) -> GroupElement:
    """rho(g) for one element, by the array path on one-element arrays."""
    (a,), (b,) = apply_endo_ab(rho, np.array([g.a]), np.array([g.b]))
    return GroupElement(a, b)


def phase(nu, mu, rho, g: GroupElement, gp: GroupElement) -> float:
    """Im(nu <g^{-1}.0, g'.0> + mu <rho(g^{-1}).0, rho(g').0>)."""
    u = act(inverse(g), 0.0)
    v = act(gp, 0.0)
    val = nu * (u * v.conjugate()).imag
    if mu != 0.0:
        ru = act(apply_endo(rho, inverse(g)), 0.0)
        rv = act(apply_endo(rho, gp), 0.0)
        val += mu * (ru * rv.conjugate()).imag
    return float(val)


def chi_value(table, g: GroupElement) -> complex:
    """chi(g) from a character table, one element looked up at a time."""
    return table.values[table.indices(g.a, g.b)]


def table_word(table, g: GroupElement) -> list[int]:
    """The signed generator indices of g's entry in a character table."""
    return table.closure.word(int(table.indices(g.a, g.b)))


def distance(g: GroupElement, h: GroupElement) -> float:
    return abs(g.a - h.a) + abs(g.b - h.b)


def mixed_factor_nochi(nu, mu, rho, tau, a, b, z):
    """j^nu(g, z) j^mu(rho(g), tau(z)) for g = [a, b] — the character-free part, defined for all g."""
    return j_factor(nu, a, b, z) * j_factor(mu, *apply_endo_ab(rho, a, b), tau(z))


def mixed_factor(nu, mu, rho, tau, table, g: GroupElement, z):
    """chi(g) j^nu(g, z) j^mu(rho(g), tau(z))."""
    return chi_value(table, g) * mixed_factor_nochi(nu, mu, rho, tau, g.a, g.b, z)


def functional_equation_residual(F, nu, mu, rho, tau, table, g: GroupElement, grid: Grid, tol=1e-8):
    """Residual of F(g.z) = J(g, z) F(z) over the grid."""
    pts = grid.points()
    res = np.abs(F(act(g, pts)) - mixed_factor(nu, mu, rho, tau, table, g, pts) * F(pts))
    return from_residuals("functional_equation", res, tol, gamma=g.to_dict(), grid=grid.to_dict())


def apply_landau(B, f: ScalarField, z):
    """The Landau Hamiltonian 4 dd_bar f + 2B(z df - zbar dbar_f) - B^2 |z|^2 f, from f's jet."""
    fz, f_z, f_zb, lap = jet(f, z)
    return lap + 2 * B * (z * f_z - np.conj(z) * f_zb) - B**2 * np.abs(z) ** 2 * fz


def w_transform(sys, f: ScalarField, sign=1.0) -> ScalarField:
    """[W f](z) = e^{i phi(z)} f(z); sign=-1 gives the inverse transform."""
    return phase_pullback(f, sign * sys.gauge_k)


def with_field(sys, B):
    """A copy of the system whose Landau field is B: a wrong B for the intertwining's negative control."""
    wrong = copy.copy(sys)
    wrong.B = B
    return wrong


def chi_tau_dropping(real, drop: str):
    """``magnetics.chi_tau`` (``real``) without one of its correction factors, to patch in as a
    negative control: "phase_at_orbit", e^{i phi(g.0)}, or "inner", e^{-i mu Im<tau(0), rho(g)^{-1}.0>}."""

    def chi_tau(sys, idx):
        t = sys.chi_table
        if drop == "phase_at_orbit":
            undo = -sys.phi(t.closure.b[idx])
        else:
            undo = sys.mu * (sys.tau.r * np.conj(t.ru[idx])).imag if sys.mu else 0.0
        return real(sys, idx) * np.exp(1j * undo)

    return chi_tau


def cocycle_defect(nu, mu, rho, tau, g: GroupElement, gp: GroupElement, z):
    """J0(g g', z) / (J0(g, g'.z) J0(g', z)) for the character-free factor J0.

    A z-independent unit complex; equals exp(-i phase(g, g')).
    """
    J0 = lambda h, x: mixed_factor_nochi(nu, mu, rho, tau, h.a, h.b, x)
    return J0(compose(g, gp), z) / (J0(g, act(gp, z)) * J0(gp, z))


def defect_phase_residuals(nu, mu, rho, tau, g: GroupElement, gp: GroupElement, grid: Grid) -> tuple[float, float]:
    """(z-spread of the defect, deviation of the defect from exp(-i phase))."""
    vals = cocycle_defect(nu, mu, rho, tau, g, gp, grid.points())
    spread = float(np.abs(vals - vals[0]).max())
    target = np.exp(-1j * phase(nu, mu, rho, g, gp))
    return spread, float(np.abs(vals - target).max())
