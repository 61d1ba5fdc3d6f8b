"""The finite-difference oracle that every exact jet in ``maf`` is compared with.

It is the per-call 5-point central stencil: each shifted point is its own call of
the field, so the oracle shares no code with the jets it checks.  The 1-form
exterior derivative, which exists to take finite differences, is built on it.
A field here is any callable of an ndarray of points (a ``ScalarField`` is one).
"""

from dataclasses import dataclass

from maf.fields import OneForm, ScalarField

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


def exterior_derivative(omega: OneForm, h=FD_STEP) -> TwoForm:
    """d(omega), the coefficient of dz ^ dzbar, by the stencil."""

    def coeff(z):
        return oracle_wirtinger(omega.coeff_dzbar, z, h)[0] - oracle_wirtinger(omega.coeff_dz, z, h)[1]

    return TwoForm(ScalarField(coeff))
