"""Scalar fields on C with exact jets, and quadrature nodes.

Conventions: d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2, and the
area pairing dz ^ dzbar = -2i dx ^ dy.  A field is differentiated in one way
only: its jet (value, Wirtinger derivatives, flat Laplacian) is exact, from
the field itself.  Every function here takes an ndarray of points and
broadcasts over it; a scalar point is numpy's 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ComplexFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ScalarField:
    """A complex-valued function of z, with its exact jet when it has one.

    ``func`` gives the values; ``jet``, when given, gives (f, df/dz, df/dzbar, flat
    Laplacian 4 d2/(dz dzbar)) at once.  Each callable takes an ndarray of points and
    broadcasts elementwise; it may return a scalar instead when the function is constant.
    A field without a jet can only be evaluated.
    """

    func: ComplexFn
    jet: Optional[Callable[[np.ndarray], tuple]] = None

    def __call__(self, z):
        return self.func(z)


def jet(f: ScalarField, z):
    """(f, df/dz, df/dzbar, flat Laplacian) at the points z, from f's exact jet."""
    if f.jet is None:
        raise TypeError("the field has no jet: it can only be evaluated")
    return f.jet(z)


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


def polyexp_field(coeffs: Poly2, alpha: float = 0.0) -> ScalarField:
    """P(z, zbar) * exp(-alpha |z|^2) with its exact jet."""
    p = dict(coeffs)

    def gauss(z):
        return np.exp(-alpha * (z * z.conjugate()).real)

    # d/dz (P e^{-a z zbar}) = (P_z - a zbar P) e^{-a z zbar}, and symmetrically.
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

    q_z, q_zb, q_lap = dz_poly(p), dzbar_poly(p), dz_poly(dzbar_poly(p))

    def jet_fn(z):  # the Gaussian once for all four parts
        g = gauss(z)
        return _poly_eval(p, z) * g, _poly_eval(q_z, z) * g, _poly_eval(q_zb, z) * g, 4 * _poly_eval(q_lap, z) * g

    return ScalarField(lambda z: _poly_eval(p, z) * gauss(z), jet_fn)


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
