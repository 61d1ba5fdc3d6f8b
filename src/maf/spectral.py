"""Landau spectra: special functions, strip eigenbasis, projector kernels.

The eigenvalues of the (sign-convention) Laplacian with constant field B are
the Landau levels lambda_k = -2B(2k+1).  The k-th eigenprojector has the
explicit kernel

    K_k(z, w) = (B/pi) e^{-i(phi(z)-phi(w))} e^{iB Im(z wbar)}
                e^{-(B/2)|z-w|^2} L_k(scale * B |z-w|^2)

whose Laguerre argument scale is adjudicated numerically against the
eigen-equation (``select_laguerre_scale``).

With scale 1 the kernel factors in the Landau gauge over the level-k states
centred on the lines x = c.  With z = x + iy, w = x' + iy', the phase
u(z) = e^{-i(phi(z) + Bxy)} and psi_k the normalized Hermite function
(``hermite_function``),

    K_k(z, w) = u(z) conj(u(w)) (B/pi) sqrt(2B)
                int dc e^{2iBc(y-y')} psi_k(sqrt(2B)(x-c)) psi_k(sqrt(2B)(x'-c)).

``project_on_nodes`` applies P_k through that factorization.  On an n x n
product grid of nodes the c-integral is a trapezoid sum over P points
(``_c_grid``, exact to round-off), taken in blocks of 64 c-columns: per block,
two real-by-complex matrix products, (64 x n)(n x n) and (n x 64)(64 x n).
That is O(n^2 P) time, with P about 410-530 on the 64^2 nodes of the truncated
plane, independent of n and nearly so of k.  The dense ``kernel`` is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automorphy import j_factor
from .equivariant import EquivariantMap
from .fields import ScalarField, quad2d_nodes
from .magnetics import MagneticSystem, apply_mixed_laplacian
from .reports import CheckReport, from_element_residuals


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


def hermite_function(k: int, t):
    """Normalized Hermite function H_k(t) e^{-t^2/2} / sqrt(2^k k! sqrt(pi)).

    By the recurrence psi_{j+1} = sqrt(2/(j+1)) t psi_j - sqrt(j/(j+1)) psi_{j-1},
    which forms no power or factorial, so nothing overflows at any degree.  Where
    e^{-t^2/2} would underflow below the normal range, it is 0 (numpy's exp is slow there).
    """
    if k < 0:
        raise ValueError("Hermite degree must be nonnegative")
    t = np.asarray(t, dtype=float)
    g = np.asarray(-t * t / 2)
    g[g < math.log(np.finfo(float).tiny)] = -np.inf
    psi_prev, psi = 0.0, np.pi**-0.25 * np.exp(g)
    for j in range(k):
        psi_prev, psi = psi, math.sqrt(2 / (j + 1)) * t * psi - math.sqrt(j / (j + 1)) * psi_prev
    return psi


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
        # in place: the dense kernel passes N x N arrays
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
        val = (
            norm
            * np.exp(-(B / 2) * np.abs(z) ** 2)
            * np.exp((B / 2) * z**2 + 2j * np.pi * (a + n) * z)
            * hermite(m, s2b * np.imag(z) + harg_shift)
        )
        return np.exp(-1j * sys.phi(z)) * val

    return ScalarField(func, fd_step=sys.fd_step)


def rayleigh_quotient(sys: MagneticSystem, f: ScalarField, points) -> complex:
    """Discrete Rayleigh quotient sum(conj(f) Delta f) / sum(|f|^2) over points."""
    z = np.asarray(points, dtype=complex)
    fz = f(z)
    den = np.sum(np.abs(fz) ** 2)
    if den == 0:
        raise ArithmeticError("field vanishes on all sample points")
    return complex(np.sum(np.conjugate(fz) * apply_mixed_laplacian(sys, f, z)) / den)


def truncation_radius(B: float, tail: float = 1e-8) -> float:
    """Smallest R with Gaussian kernel tail e^{-B R^2 / 8} below ``tail``."""
    if not (B > 0 and 0 < tail < 1):
        raise ValueError(f"need field B > 0 and tail in (0, 1), got B = {B}, tail = {tail}")
    return float(np.sqrt(-8.0 * np.log(tail) / B))


def _phi(sys: MagneticSystem, z):
    """The gauge at the points z, so that anything with ``B`` and ``gauge_k``
    serves as a system for the kernel."""
    return 2 * (sys.gauge_k * z).real


def kernel(
    sys: MagneticSystem,
    k: int,
    z,
    w,
    laguerre_scale: float = 1.0,
) -> complex | np.ndarray:
    """Eigenprojector kernel K_k(z, w); a complex for scalar z and w, else an array."""
    B = sys.B
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    d2 = np.abs(z - w) ** 2
    val = (
        (B / np.pi)
        * np.exp(-1j * (_phi(sys, z) - _phi(sys, w)))
        * np.exp(1j * B * (z * w.conjugate()).imag)
        * np.exp(-(B / 2) * d2)
        * laguerre(k, laguerre_scale * B * d2)
    )
    return complex(val) if val.ndim == 0 else val


def kernel_eigen_residual(
    sys: MagneticSystem, k: int, w: complex, points, laguerre_scale: float = 1.0
) -> float:
    """Relative residual of Delta_z K_k(z, w) = lambda_k K_k(z, w)."""
    z = np.asarray(points, dtype=complex)
    f = ScalarField(lambda z: kernel(sys, k, z, w, laguerre_scale), fd_step=sys.fd_step)
    lam_f = landau_level(sys.B, k) * f(z)
    return float(np.max(np.abs(apply_mixed_laplacian(sys, f, z) - lam_f)) / np.max(np.abs(lam_f)))


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


_BLOCK = 64  # c-columns per block of project_on_nodes: on 64^2 nodes no table exceeds 64 KiB


def _c_grid(B: float, k: int, x: np.ndarray, y: np.ndarray):
    """Nodes and step of the trapezoid sum over the Landau-gauge centre c.

    The nodes cover [min x - d, max x + d], d = (sqrt(37) + 2 sqrt(k) + 1) / sqrt(B):
    beyond d of every node the factor psi_k(sqrt(2B)(x - c)) is below e^{-37} of its
    peak.  The step is 2 pi / (2B span(y) + sqrt(8B(37 + 2k)) + 2 sqrt(B)): the
    integrand oscillates at 2B(y - y'), and the transform of the product of the two
    psi_k factors is below e^{-37} past sqrt(8B(37 + 2k)), so the sum aliases nothing
    above round-off.
    """
    d = (math.sqrt(37) + 2 * math.sqrt(k) + 1) / math.sqrt(B)
    step = 2 * math.pi / (2 * B * np.ptp(y) + math.sqrt(8 * B * (37 + 2 * k)) + 2 * math.sqrt(B))
    lo, hi = x.min() - d, x.max() + d
    return lo + step * np.arange(math.ceil((hi - lo) / step) + 1), step


def project_on_nodes(
    sys: MagneticSystem,
    k: int,
    fvals: np.ndarray,
    Z: np.ndarray,
    Wt: np.ndarray,
) -> np.ndarray:
    """P_k f evaluated on the quadrature nodes themselves.

    ``fvals`` are f's values on the node array Z with weights Wt, all of one shape;
    the result has that shape too, enabling iterated projections without re-sampling.
    Z must be an axis-aligned product grid as ``quad2d_nodes`` makes it: x_i along
    axis 0, y_j along axis 1.  With the phase e^{-i(phi(z) + B x y)} and the c-grid
    of ``_c_grid``, the quadrature sum of K_k(z, w) f(w) Wt(w) is taken over blocks
    of 64 c-columns.  A block's e^{2iB y_j c} is a shared table of the first 64
    offsets times one coarse row: n (P/64 + 64) complex exponentials, not n P.  The
    real psi_k(sqrt(2B)(x_i - c)) multiplies float views of complex factors: two
    real-by-complex products, half the flops of complex ones; on 64^2 nodes they are
    small enough that OpenBLAS keeps them on one thread and the allocator reuses
    their memory.  O(n^2 P) time, the same for every level.  On an affine
    (lattice-cell) grid the same factorization holds with the gauge taken along one
    cell vector; only the axis-aligned grid is implemented.
    """
    if k < 0:
        raise ValueError("level index must be nonnegative")
    Z = np.asarray(Z, dtype=complex)
    if (bad := np.flatnonzero(~np.isfinite(Z))).size:
        raise ValueError(f"node {bad[0]} is not finite: {Z.flat[bad[0]]}")
    for name, values in (("fvals", fvals), ("Wt", Wt)):
        if np.shape(values) != Z.shape:
            raise ValueError(f"{name} has shape {np.shape(values)}, the nodes Z have shape {Z.shape}")
    if Z.ndim != 2 or np.any(Z.real != Z.real[:, :1]) or np.any(Z.imag != Z.imag[:1]):
        raise ValueError("nodes are not a product grid with x constant along axis 1 and y along axis 0")
    B = sys.B
    x, y = Z.real[:, 0], Z.imag[0]
    c, step = _c_grid(B, k, x, y)
    # With c = c[m0] + step j, e^{2iB y c[m0]} joins the phase and the rest is e^{i a j},
    # a = 2B step y.  Split a = hi + lo with hi * j exact: e^{i a j} = e^{i hi j} (1 + i lo j)
    # to 1e-16, and no argument of hundreds of radians is rounded, so every block width
    # gives the same table to round-off.
    m0 = c.size // 2
    phase = np.exp(-1j * (_phi(sys, Z) + B * Z.imag * (Z.real - 2 * c[m0])))
    a = 2 * B * step * y
    hi = a * 8193.0
    hi -= hi - a  # Veltkamp split: hi keeps 40 bits, so hi * j is exact for |j| < 8192
    turns = lambda j: np.exp(1j * np.multiply.outer(j, hi)) * (1 + 1j * np.multiply.outer(j, a - hi))
    fine = turns(np.arange(min(_BLOCK, c.size)))
    G = np.ascontiguousarray(phase.conjugate() * fvals * Wt).view(float)
    out = np.zeros((x.size, 2 * y.size))
    for m in range(0, c.size, _BLOCK):
        cb = c[m : m + _BLOCK]
        psi = hermite_function(k, math.sqrt(2 * B) * (x[:, None] - cb))
        psi[np.abs(psi) < 1e-150] = 0.0  # subnormal Gaussian tails slow the products 5x
        e = fine[: cb.size] * turns(m - m0)
        at = np.einsum("cj,cj->c", (psi.T @ G).view(complex), e.conj())
        out += psi @ (at[:, None] * e).view(float)
    return (B / np.pi) * math.sqrt(2 * B) * step * phase * out.view(complex)


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

    def weight(self, z):
        expo = -self.nu * np.abs(z) ** 2 - self.mu * (
            np.abs(z * self.tau.p) ** 2 - np.abs(np.conjugate(z) * self.tau.q) ** 2
        )
        return np.exp(expo)

    def __call__(self, f, g, n_quad: int = 64) -> complex:
        Z, Wt = quad2d_nodes(self.domain, n_quad)
        return complex(np.sum(f(Z) * np.conjugate(g(Z)) * self.weight(Z) * Wt))


def kernel_invariance_residual(
    sys: MagneticSystem,
    k: int,
    gs,
    pairs,
    tol: float = 1e-8,
    laguerre_scale: float = 1.0,
) -> list[CheckReport]:
    """Residual of the covariance K(z,w) = e^{i d_gauge} e^{iB Im<z-w, g^{-1}.0>} K(gz, gw),

    with d_gauge = (phi(gz) - phi(gw)) - (phi(z) - phi(w)), one report per element of gs = (a, b).
    """
    a, b = (np.reshape(x, (-1, 1)) for x in gs)
    z, w = np.asarray(pairs, dtype=complex).reshape(-1, 2).T
    gz, gw = a * z + b, a * w + b
    d_gauge = sys.phi(gz) - sys.phi(gw) - (sys.phi(z) - sys.phi(w))
    # e^{iB Im<z-w, g^{-1}.0>} = conj j^B(g, z - w)
    rhs = np.exp(1j * d_gauge) * np.conj(j_factor(sys.B, a, b, z - w)) * kernel(sys, k, gz, gw, laguerre_scale)
    res = np.abs(kernel(sys, k, z, w, laguerre_scale) - rhs)
    return from_element_residuals("kernel_invariance", res, tol, gs, k=k, n_pairs=res.shape[1])


def spectrum_table(B: float, kmax: int) -> list[dict]:
    """Rows (k, lambda_k) for k = 0..kmax."""
    return [{"k": k, "lambda": landau_level(B, k)} for k in range(kmax + 1)]
