"""Scalar fields on C as their exact jets, the Gaussian probe, and quadrature nodes.

Conventions: d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2, and the
area pairing dz ^ dzbar = -2i dx ^ dy.  A field is its jet (value, Wirtinger
derivatives, flat Laplacian), exact and written once; its value is the jet's
first part.  Every function here takes an ndarray of points and broadcasts
over it; a scalar point is numpy's 0-d case.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


@dataclass
class ScalarField:
    """A complex-valued function of z, given by its exact jet.

    ``jet`` gives (f, df/dz, df/dzbar, flat Laplacian 4 d2/(dz dzbar)) at once; calling the
    field gives f, the jet's first part.  The jet takes an ndarray of points and broadcasts
    elementwise; a part may be a scalar instead when it is constant.
    """

    jet: Callable[[np.ndarray], tuple]

    def __call__(self, z):
        return self.jet(z)[0]


def jet(f: ScalarField, z):
    """(f, df/dz, df/dzbar, flat Laplacian) at the points z, from f's exact jet."""
    return f.jet(z)


def gaussian(alpha: float) -> ScalarField:
    """g = e^{-alpha |z|^2} with its exact jet: g_z = -alpha zbar g, g_zbar = -alpha z g and
    Lap g = 4(alpha^2 |z|^2 - alpha) g."""

    def jet_fn(z):
        zb = z.conjugate()
        g = np.exp(-alpha * (z * zb).real)
        return g, -alpha * zb * g, -alpha * z * g, 4 * (alpha * alpha * z * zb - alpha) * g

    return ScalarField(jet_fn)


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
        for k, v in self.to_dict().items():
            count = k in ("nx", "ny")  # a count is an int, a bound any real number; neither a bool
            if isinstance(v, bool) or not isinstance(v, numbers.Integral if count else numbers.Real):
                raise ValueError(f"grid {k} must be {'an integer' if count else 'a real number'}, got {v!r}")
            if not (v >= 1 if count else abs(v) <= sys.float_info.max):  # NaN fails, as does an int past float
                raise ValueError(f"grid {k} must be {'>= 1' if count else 'finite'}, got {v}")

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
