"""Landau spectra: special functions, strip eigenbasis, projector kernels.

The eigenvalues of the (sign-convention) Laplacian with constant field B are
the Landau levels lambda_k = -2B(2k+1).  The k-th eigenprojector has the
explicit kernel

    K_k(z, w) = (B/pi) e^{-i(phi(z)-phi(w))} e^{iB Im(z wbar)}
                e^{-(B/2)|z-w|^2} L_k(scale * B |z-w|^2)

whose Laguerre argument scale is adjudicated numerically against the
eigen-equation (``select_laguerre_scale``).

With scale 1 the kernel is the reproducing kernel of the k-th true
polyanalytic Fock space (Bargmann; Vasilevski), so it factors over the
orthonormal level-k basis of ``level_basis``:

    K_k(z, w) = sum_m psi_{k,m}(z) conj(psi_{k,m}(w)).

``project_on_nodes`` applies P_k through that factorization.  On N nodes with
x_max = B max|z|^2 it keeps the r = ceil(x_max + (8 + k) sqrt(x_max)) + k + 1
basis functions that are not negligible there, at O(N r) cost in time and
memory instead of the O(N^2) of dense kernel blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivariant import EquivariantMap
from .fields import Grid, ScalarField, quad2d_nodes, wirtinger
from .groups import GroupElement, act, inverse
from .magnetics import MagneticSystem, apply_mixed_laplacian
from .reports import CheckReport, from_residuals


def hermite(m: int, x):
    """Physicists' Hermite polynomial H_m (H_1 = 2x), by recurrence."""
    if m < 0:
        raise ValueError("Hermite degree must be nonnegative")
    h_prev = np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if m == 0:
        return h_prev
    h = 2 * np.asarray(x, dtype=float) if np.ndim(x) else 2 * x
    for j in range(1, m):
        h, h_prev = 2 * x * h - 2 * j * h_prev, h
    return h


def laguerre(k: int, x, alpha=0.0):
    """Generalized Laguerre polynomial L_k^(alpha), by recurrence in k.

    ``x`` and ``alpha`` broadcast against each other.
    """
    if k < 0:
        raise ValueError("Laguerre degree must be nonnegative")
    if k == 0:
        if np.ndim(x) or np.ndim(alpha):
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(alpha)))
        return 1.0
    l_prev = 1.0
    l = 1.0 + alpha - x
    for j in range(1, k):
        # in place: on the level basis these are r x N arrays
        nxt = (2 * j + 1 + alpha) - x
        nxt *= l
        nxt -= (j + alpha) * l_prev
        nxt /= j + 1
        l, l_prev = nxt, l
    return l


def landau_level(B: float, k: int) -> float:
    """lambda_k = -2B(2k+1)."""
    if B <= 0:
        raise ValueError("field must be positive")
    if k < 0:
        raise ValueError("level index must be nonnegative")
    return -2.0 * B * (2 * k + 1)


@dataclass
class SpectralBasis:
    """Parameters of the rank-one strip eigenbasis."""

    B: float
    alpha: float = 0.0
    m_max: int = 3
    n_max: int = 1

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("field must be positive")
        if not 0 <= self.alpha < 1:
            raise ValueError("character parameter must lie in [0, 1)")


def strip_eigenfunction(
    basis: SpectralBasis, sys: MagneticSystem, m: int, n: int
) -> ScalarField:
    """Eigenfunction of the mixed Laplacian on the rank-one strip.

    The Landau-level index is the Hermite degree m; n indexes the Fourier
    mode within the level.  The Gaussian weight e^{-(B/2)|z|^2} makes the
    function decay across the strip, and the e^{-i phi} prefactor undoes the
    lifting gauge.
    """
    B = basis.B
    a = basis.alpha
    norm = np.exp(-np.pi**2 * (n + a) ** 2 / B)
    s2b = np.sqrt(2 * B)
    harg_shift = np.sqrt(2.0 / B) * np.pi * (a + n)

    def func(z):
        zz = complex(z)
        val = (
            norm
            * np.exp(-(B / 2) * abs(zz) ** 2)
            * np.exp((B / 2) * zz**2 + 2j * np.pi * (a + n) * zz)
            * hermite(m, s2b * zz.imag + harg_shift)
        )
        return np.exp(-1j * sys.phi(zz)) * val

    return ScalarField(func, fd_step=sys.fd_step)


def rayleigh_quotient(sys: MagneticSystem, f: ScalarField, points) -> complex:
    """Discrete Rayleigh quotient sum(conj(f) Delta f) / sum(|f|^2) over points."""
    num = 0.0 + 0.0j
    den = 0.0
    for z in points:
        fz = f(z)
        num += fz.conjugate() * apply_mixed_laplacian(sys, f, z)
        den += abs(fz) ** 2
    if den == 0:
        raise ArithmeticError("field vanishes on all sample points")
    return num / den


def truncation_radius(B: float, tail: float = 1e-8) -> float:
    """Smallest R with Gaussian kernel tail e^{-B R^2 / 8} below ``tail``."""
    return float(np.sqrt(-8.0 * np.log(tail) / B))


def _phi_vec(sys: MagneticSystem, Z: np.ndarray) -> np.ndarray:
    if sys.gauge_k is not None:
        return 2 * (sys.gauge_k * Z).real
    return np.vectorize(sys.phi)(Z)


def kernel(
    sys: MagneticSystem,
    k: int,
    z,
    w,
    laguerre_scale: float = 1.0,
) -> complex:
    """Eigenprojector kernel K_k(z, w); accepts numpy arrays in z or w."""
    B = sys.B
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    d2 = np.abs(z - w) ** 2
    val = (
        (B / np.pi)
        * np.exp(-1j * (_phi_vec(sys, z) - _phi_vec(sys, w)))
        * np.exp(1j * B * (z * w.conjugate()).imag)
        * np.exp(-(B / 2) * d2)
        * laguerre(k, laguerre_scale * B * d2)
    )
    return complex(val) if val.ndim == 0 else val


def kernel_eigen_residual(
    sys: MagneticSystem, k: int, w: complex, points, laguerre_scale: float = 1.0
) -> float:
    """Relative residual of Delta_z K_k(z, w) = lambda_k K_k(z, w)."""
    f = ScalarField(lambda z: kernel(sys, k, z, w, laguerre_scale), fd_step=sys.fd_step)
    lam = landau_level(sys.B, k)
    num = max(abs(apply_mixed_laplacian(sys, f, z) - lam * f(z)) for z in points)
    scale = max(abs(lam * f(z)) for z in points)
    return num / scale


def select_laguerre_scale(sys: MagneticSystem, k: int = 1, tol: float = 1e-3) -> dict:
    """Adjudicate the Laguerre argument scale against the eigen-equation.

    Runs the z-eigen-equation residual for scales 1 and 2 and returns the
    verdict with both residuals recorded.
    """
    pts = [0.3 + 0.2j, -0.5 + 0.6j, 0.9 - 0.4j, -0.2 - 0.7j]
    w = 0.1 + 0.05j
    residuals = {s: kernel_eigen_residual(sys, k, w, pts, s) for s in (1.0, 2.0)}
    scale = min(residuals, key=residuals.get)
    return {
        "scale": scale,
        "residuals": {str(s): r for s, r in residuals.items()},
        "pass": residuals[scale] <= tol,
    }


def project(
    sys: MagneticSystem,
    k: int,
    f,
    z: complex,
    radius: float | None = None,
    n_quad: int = 64,
    laguerre_scale: float = 1.0,
) -> complex:
    """[P_k f](z) = integral of K_k(z, w) f(w) over the truncated plane."""
    R = truncation_radius(sys.B) if radius is None else radius
    W, Wt = quad2d_nodes((-R, R, -R, R), n_quad)
    fvals = f(W) if isinstance(f, np.ufunc) else np.vectorize(f)(W)
    return complex(np.sum(kernel(sys, k, z, W, laguerre_scale) * fvals * Wt))


# Above x = B|z|^2 = 1400 the start e^{-x/2} of the basis recurrence underflows.
_MAX_BASIS_X = 1400.0


def level_basis(sys: MagneticSystem, k: int, z: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the k-th Landau level on the points z, one row per function.

    Row m holds psi_{k,m}(z) = sqrt(B/pi) e^{-i phi(z)} e^{-x/2} chi_{k,m}(sqrt(B) z),
    x = B|z|^2, where with u = sqrt(B) z

        chi_{k,m}(u) = sqrt(k!/m!) u^(m-k) L_k^(m-k)(|u|^2)          (m >= k)
        chi_{k,m}(u) = sqrt(m!/k!) (-ubar)^(k-m) L_m^(k-m)(|u|^2)   (m < k).

    The rows m = 0 .. r-1 with r = ceil(x_max + (8 + k) sqrt(x_max)) + k + 1,
    x_max = B max|z|^2, are kept: for m - k beyond that, e^{-x} x^(m-k) / (m-k)!
    is a Poisson tail more than 8 + k standard deviations out on every point.  The factor
    e^{-x/2} u^a / sqrt(a!) is carried by the recurrence g_a = g_{a-1} u / sqrt(a),
    so no power or factorial is formed and nothing overflows.
    """
    z = np.asarray(z, dtype=complex).ravel()
    B = sys.B
    u = np.sqrt(B) * z
    x = B * np.abs(z) ** 2
    x_max = float(x.max(initial=0.0))
    if x_max > _MAX_BASIS_X:
        raise ValueError(
            f"points reach B|z|^2 = {x_max:.0f} > {_MAX_BASIS_X:.0f}, "
            "where the level basis underflows in float64"
        )
    n_high = int(np.ceil(x_max + (8 + k) * np.sqrt(x_max))) + 1
    psi = np.empty((k + n_high, z.size), dtype=complex)
    g0 = np.sqrt(B / np.pi) * np.exp(-1j * _phi_vec(sys, z) - x / 2)

    high = psi[k:]  # rows m = k + a
    high[0] = g0
    for a in range(1, n_high):
        np.multiply(high[a - 1], u / np.sqrt(a), out=high[a])
    a = np.arange(n_high, dtype=float)[:, None]
    binom = np.prod([(a + i) / i for i in range(1, k + 1)], axis=0)  # C(a+k, k)
    factor = laguerre(k, x, a)
    factor /= np.sqrt(binom)
    high *= factor

    for m in range(k):  # rows m < k, b = k - m
        g = g0.copy()
        for j in range(1, k - m + 1):
            g *= -u.conjugate() / np.sqrt(j)
        psi[m] = g * laguerre(m, x, float(k - m)) / np.sqrt(math.comb(k, m))
    return psi


def project_on_nodes(
    sys: MagneticSystem,
    k: int,
    fvals: np.ndarray,
    Z: np.ndarray,
    Wt: np.ndarray,
) -> np.ndarray:
    """P_k f evaluated on the quadrature nodes themselves.

    ``fvals`` are f's values on the node array Z with weights Wt; the result
    has the same shape, enabling iterated projections without re-sampling.
    With Psi the N x r matrix of the level-k basis on the nodes (the transpose
    of ``level_basis``), the quadrature sum of K_k(z, w) f(w) Wt(w) is
    Psi (Psi^* (f Wt)): O(N r) work and memory, with r about
    x_max + (8 + k) sqrt(x_max), x_max = B max|Z|^2.
    """
    psi = level_basis(sys, k, Z)
    coeffs = (psi @ (fvals * Wt).ravel().conjugate()).conjugate()
    return (coeffs @ psi).reshape(Z.shape)


@dataclass
class WeightedInnerProduct:
    """<f, g> = int f conj(g) e^{-nu|z|^2 - mu(|E tau|^2 - |Ebar tau|^2)} dx dy.

    E = z d/dz and Ebar = zbar d/dzbar, so the weight exponent collapses to
    -B |z|^2 for any pair with constant field B.
    """

    nu: float
    mu: float
    tau: EquivariantMap
    domain: tuple[float, float, float, float]

    def weight(self, z: complex) -> float:
        t_z, t_zb = wirtinger(self.tau.tau, z)
        expo = -self.nu * abs(z) ** 2 - self.mu * (abs(z * t_z) ** 2 - abs(z.conjugate() * t_zb) ** 2)
        return float(np.exp(expo))

    def __call__(self, f, g, n_quad: int = 64) -> complex:
        Z, Wt = quad2d_nodes(self.domain, n_quad)
        fv = np.vectorize(f)(Z)
        gv = np.vectorize(g)(Z)
        wv = np.vectorize(self.weight)(Z)
        return complex(np.sum(fv * gv.conjugate() * wv * Wt))


def kernel_invariance_residual(
    sys: MagneticSystem,
    k: int,
    g: GroupElement,
    pairs,
    tol: float = 1e-8,
    laguerre_scale: float = 1.0,
) -> CheckReport:
    """Residual of the covariance K(z,w) = e^{i d_gauge} e^{iB Im<z-w, g^{-1}.0>} K(gz, gw),

    with d_gauge = (phi(gz) - phi(gw)) - (phi(z) - phi(w)).
    """
    B = sys.B
    g0 = act(inverse(g), 0.0)
    res = []
    for z, w in pairs:
        lhs = kernel(sys, k, z, w, laguerre_scale)
        d_gauge = (
            sys.phi(act(g, z)) - sys.phi(act(g, w)) - (sys.phi(z) - sys.phi(w))
        )
        rhs = (
            np.exp(1j * d_gauge)
            * np.exp(1j * B * ((z - w) * np.conjugate(g0)).imag)
            * kernel(sys, k, act(g, z), act(g, w), laguerre_scale)
        )
        res.append(abs(lhs - rhs))
    return from_residuals(
        "kernel_invariance", res, tol, k=k, g=g.to_dict(), n_pairs=len(res)
    )


def spectrum_table(B: float, kmax: int) -> list[dict]:
    """Rows (k, lambda_k) for k = 0..kmax."""
    return [{"k": k, "lambda": landau_level(B, k)} for k in range(kmax + 1)]
