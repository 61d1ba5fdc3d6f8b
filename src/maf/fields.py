"""Scalar fields on C with Wirtinger derivatives, 1-/2-forms, and quadrature.

Conventions: d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2, and the
area pairing dz ^ dzbar = -2i dx ^ dy.  Finite differences use 5-point
central stencils with a default step of 1e-4; an FD jet (value, Wirtinger
derivatives, Laplacian) is one evaluation of the field on all 9 points of
the stencils.  Every function here takes an ndarray of points and broadcasts
over it; a scalar point is numpy's 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_FD_STEP = 1e-4

ComplexFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ScalarField:
    """A complex-valued function of z with optional analytic derivatives.

    ``d_z``/``d_zbar`` are the Wirtinger derivatives; ``lap`` is the flat
    Laplacian 4 d2/(dz dzbar).  Missing derivatives fall back to finite
    differences with step ``fd_step``.

    Each callable takes an ndarray of points and returns the values at every
    point, broadcasting elementwise; it may return a scalar instead when the
    function is constant.  A scalar point works too, as a 0-d array.  ``jet_fn``,
    when given, returns all four at once, as ``jet`` does, for a field whose
    parts share their work.
    """

    func: ComplexFn
    d_z: Optional[ComplexFn] = None
    d_zbar: Optional[ComplexFn] = None
    lap: Optional[ComplexFn] = None
    fd_step: float = DEFAULT_FD_STEP
    jet_fn: Optional[Callable[[np.ndarray], tuple]] = None

    def __call__(self, z):
        return self.func(z)


def _stencil(f: ScalarField, z):
    """f on the stencils around z from one call of ``f.func``: the arms, (2, 4, *z.shape),
    at steps 2h, h, -h, -2h along x then y; and f at z itself."""
    z = np.asarray(z)
    s = (np.array([[2, 1], [2j, 1j]]) * f.fd_step).reshape((2, 2) + (1,) * z.ndim)
    arms = np.concatenate([z + s, z - s[:, ::-1]], axis=1)
    fv = np.broadcast_to(f.func(np.concatenate([arms.reshape((8,) + z.shape), z[None]])), (9,) + z.shape)
    return fv[:8].reshape(arms.shape), fv[8]


def jet(f: ScalarField, z):
    """(f, df/dz, df/dzbar, flat Laplacian) at the points z; one stencil call supplies what f lacks."""
    if f.jet_fn is not None:
        return f.jet_fn(z)
    exact = f.d_z is not None and f.d_zbar is not None
    if exact and f.lap is not None:
        return f.func(z), f.d_z(z), f.d_zbar(z), f.lap(z)
    arms, fz = _stencil(f, z)
    if exact:
        d_z, d_zbar = f.d_z(z), f.d_zbar(z)
    else:
        fx, fy = (-arms[:, 0] + 8 * arms[:, 1] - 8 * arms[:, 2] + arms[:, 3]) / (12 * f.fd_step)
        finite = np.isfinite(fx) & np.isfinite(fy)
        if not np.all(finite):
            zs, finite = np.broadcast_arrays(z, finite)
            raise ArithmeticError(f"non-finite derivative at z={zs[~finite][0]}")
        d_z, d_zbar = 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)
    if f.lap is not None:
        return fz, d_z, d_zbar, f.lap(z)
    h = f.fd_step
    fxx, fyy = (-arms[:, 0] + 16 * arms[:, 1] - 30 * fz + 16 * arms[:, 2] - arms[:, 3]) / (12 * h * h)
    return fz, d_z, d_zbar, fxx + fyy


def wirtinger(f: ScalarField, z):
    """(df/dz, df/dzbar) at the points z, analytic when available."""
    return (f.d_z(z), f.d_zbar(z)) if f.d_z is not None and f.d_zbar is not None else jet(f, z)[1:3]


@dataclass
class OneForm:
    """w = coeff_dz dz + coeff_dzbar dzbar."""

    coeff_dz: ScalarField
    coeff_dzbar: ScalarField


@dataclass
class TwoForm:
    """coeff * dz ^ dzbar."""

    coeff: ScalarField


def exterior_derivative(omega: OneForm) -> TwoForm:
    """d(omega), coefficient of dz ^ dzbar."""

    def coeff(z):
        dzb_z, _ = wirtinger(omega.coeff_dzbar, z)
        _, dz_zb = wirtinger(omega.coeff_dz, z)
        return dzb_z - dz_zb

    return TwoForm(ScalarField(coeff, fd_step=omega.coeff_dz.fd_step))


_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def line_integral(omega: OneForm, path: list, n_sub: int = 1):
    """Integral of omega along the polyline, composite Gauss-Legendre per segment.

    The vertices may be arrays that broadcast together: the result then holds,
    point by point, the integral along the polyline through the vertices'
    entries.  Each coefficient is evaluated once, on every node of every segment.
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    # the segments on a leading axis, the nodes of each on a trailing one
    s = (np.arange(n_sub)[:, None] + (_GL_NODES + 1) / 2).ravel()
    w = np.tile(_GL_WEIGHTS / 2, n_sub)
    v = np.stack(np.broadcast_arrays(*(np.asarray(p, dtype=complex) for p in path)))
    dz_seg = np.expand_dims((v[1:] - v[:-1]) / n_sub, -1)
    z = np.expand_dims(v[:-1], -1) + s * dz_seg
    val = omega.coeff_dz(z) * dz_seg + omega.coeff_dzbar(z) * dz_seg.conjugate()
    return np.sum(w * val, axis=-1).sum(axis=0)


def quad2d(f, rect: tuple[float, float, float, float], n: int) -> complex:
    """Tensor Gauss-Legendre integral of f over [xmin,xmax]x[ymin,ymax] (dx dy)."""
    Z, W = quad2d_nodes(rect, n)
    return complex(np.sum(W * f(Z)))


def quad2d_nodes(rect: tuple[float, float, float, float], n: int):
    """Quadrature nodes Z (n x n complex) and weights W (dx dy) on the rectangle."""
    if n < 2:
        raise ValueError("n must be >= 2")
    xmin, xmax, ymin, ymax = rect
    x, wx = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (xmax - xmin) * (x + 1) + xmin
    ys = 0.5 * (ymax - ymin) * (x + 1) + ymin
    wxs = 0.5 * (xmax - xmin) * wx
    wys = 0.5 * (ymax - ymin) * wx
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return X + 1j * Y, np.outer(wxs, wys)


# ---------------------------------------------------------------------------
# Polynomial-times-Gaussian fields with exact derivatives.

Poly2 = dict[tuple[int, int], complex]  # (i, j) -> coefficient of z^i zbar^j


def _poly_eval(p: Poly2, z):
    zb = z.conjugate()
    return sum(c * z**i * zb**j for (i, j), c in p.items())


def _poly_dz(p: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i, j), c in p.items():
        if i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), 0) + i * c
    return out


def _poly_dzbar(p: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i, j), c in p.items():
        if j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), 0) + j * c
    return out


def polyexp_field(coeffs: Poly2, alpha: float = 0.0, fd_step: float = DEFAULT_FD_STEP) -> ScalarField:
    """P(z, zbar) * exp(-alpha |z|^2) with exact Wirtinger derivatives."""
    p = dict(coeffs)

    def gauss(z):
        return np.exp(-alpha * (z * z.conjugate()).real)

    # d/dz (P e^{-a z zbar}) = (P_z - a zbar P) e^{-a z zbar}, and symmetrically.
    p_z = _poly_dz(p)
    p_zb = _poly_dzbar(p)

    def dz_poly(q: Poly2) -> Poly2:
        out = dict(_poly_dz(q))
        for (i, j), c in q.items():
            key = (i, j + 1)
            out[key] = out.get(key, 0) - alpha * c
        return out

    def dzbar_poly(q: Poly2) -> Poly2:
        out = dict(_poly_dzbar(q))
        for (i, j), c in q.items():
            key = (i + 1, j)
            out[key] = out.get(key, 0) - alpha * c
        return out

    q_z = dz_poly(p)
    q_zb = dzbar_poly(p)
    q_lap = dz_poly(dzbar_poly(p))

    return ScalarField(
        func=lambda z: _poly_eval(p, z) * gauss(z),
        d_z=lambda z: _poly_eval(q_z, z) * gauss(z),
        d_zbar=lambda z: _poly_eval(q_zb, z) * gauss(z),
        lap=lambda z: 4 * _poly_eval(q_lap, z) * gauss(z),
        fd_step=fd_step,
    )


@dataclass
class Grid:
    """Rectangular sampling grid used by residual sweeps."""

    xmin: float = -2.0
    xmax: float = 2.0
    nx: int = 41
    ymin: float = -2.0
    ymax: float = 2.0
    ny: int = 41

    def __post_init__(self):
        for n in ("nx", "ny"):
            if not getattr(self, n) >= 1:
                raise ValueError(f"grid {n} must be >= 1, got {getattr(self, n)}")

    def points(self) -> np.ndarray:
        ys = np.linspace(self.ymin, self.ymax, self.ny)
        return np.add.outer(np.linspace(self.xmin, self.xmax, self.nx), 1j * ys).ravel()

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        return cls(**d)

    def to_dict(self) -> dict:
        return {
            "xmin": self.xmin, "xmax": self.xmax, "nx": self.nx,
            "ymin": self.ymin, "ymax": self.ymax, "ny": self.ny,
        }
