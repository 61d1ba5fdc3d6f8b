"""Scalar fields on C with exact jets, and quadrature nodes.

Conventions: d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2, and the
area pairing dz ^ dzbar = -2i dx ^ dy.  A field is differentiated in one way
only: its jet (value, Wirtinger derivatives, flat Laplacian) is exact, from
the field itself.  Every function here takes an ndarray of points and
broadcasts over it; a scalar point is numpy's 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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
    """P(z, zbar) * exp(-alpha |z|^2) with its exact jet."""
    p = dict(coeffs)

    def gauss(z):
        return np.exp(-alpha * (z * z.conjugate()).real)

    q_z, q_zb, q_lap = _poly_d(p, 0, alpha), _poly_d(p, 1, alpha), _poly_d(_poly_d(p, 1, alpha), 0, alpha)

    def jet_fn(z):  # the Gaussian and the powers once for all four parts
        g, (v, v_z, v_zb, v_lap) = gauss(z), _poly_evals([p, q_z, q_zb, q_lap], z)
        return v * g, v_z * g, v_zb * g, 4 * v_lap * g

    return ScalarField(lambda z: _poly_evals([p], z)[0] * gauss(z), jet_fn)


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
        """The nx * ny points x + iy, x-major, read-only and shared by every equal grid."""
        return _grid_points(self.xmin, self.xmax, self.nx, self.ymin, self.ymax, self.ny)

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        return cls(**d)

    def to_dict(self) -> dict:
        return {
            "xmin": self.xmin, "xmax": self.xmax, "nx": self.nx,
            "ymin": self.ymin, "ymax": self.ymax, "ny": self.ny,
        }


@lru_cache(maxsize=16, typed=True)
def _grid_points(xmin, xmax, nx, ymin, ymax, ny) -> np.ndarray:
    pts = np.add.outer(np.linspace(xmin, xmax, nx), 1j * np.linspace(ymin, ymax, ny)).ravel()
    pts.flags.writeable = False
    return pts
