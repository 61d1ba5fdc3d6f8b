"""Oracles that the tests compare ``maf`` with, and that ``maf`` itself never runs.

The finite-difference oracle, which every exact jet is compared with, is the per-call
5-point central stencil: each shifted point is its own call of the field, so the
oracle shares no code with the jets it checks.  The 1-form exterior derivative, which
exists to take finite differences, is built on it.  A field here is any callable of an
ndarray of points (a ``ScalarField`` is one).  The gauge oracle integrates dphi, written
from S and B, along an L-path one node at a time.  The group-side oracles work one scalar
element at a time: the distance of two elements, and the cocycle defect of the
character-free factor, sampled on a grid.
"""

from dataclasses import dataclass

import numpy as np

from maf.automorphy import mixed_factor_nochi, phase
from maf.fields import Grid, ScalarField
from maf.groups import GroupElement, act, compose
from maf.magnetics import S_field

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
    """func with the stencil for its jet: the finite-difference twin of a field, which the
    operators that take a jet (mixed Laplacian, Landau, Rayleigh quotient) accept."""
    return ScalarField(func, lambda z: oracle_jet(func, z, h))


@dataclass
class TwoForm:
    """coeff * dz ^ dzbar."""

    coeff: ScalarField


def exterior_derivative(coeff_dz, coeff_dzbar, h=FD_STEP) -> TwoForm:
    """d(coeff_dz dz + coeff_dzbar dzbar), the coefficient of dz ^ dzbar, by the stencil."""

    def coeff(z):
        return oracle_wirtinger(coeff_dzbar, z, h)[0] - oracle_wirtinger(coeff_dz, z, h)[1]

    return TwoForm(ScalarField(coeff))


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


def distance(g: GroupElement, h: GroupElement) -> float:
    return abs(g.a - h.a) + abs(g.b - h.b)


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
