"""Landau spectra: special functions, strip eigenbasis, projector kernels.

The eigenvalues of the (sign-convention) Laplacian with constant field B are
the Landau levels lambda_k = -2B(2k+1).  The k-th eigenprojector has the
explicit kernel

    K_k(z, w) = (B/pi) e^{-i(phi(z)-phi(w))} e^{iB Im(z wbar)} g(|z-w|^2),
    g(rho) = e^{-B rho/2} L_k(B rho),

written once (``_radial``, with g' and g''): the dense ``kernel`` takes g, and
the jet of ``kernel_field`` takes all three, so the eigen-equation that
``kernel_eigen_residual`` checks is the one of the kernel every entry reads.

The kernel factors in the Landau gauge over the level-k states
centred on the lines x = c.  With z = x + iy, w = x' + iy', the phase
u(z) = e^{-i(phi(z) + Bxy)} and psi_k the normalized Hermite function
(``hermite_function``),

    K_k(z, w) = u(z) conj(u(w)) (B/pi) sqrt(2B)
                int dc e^{2iBc(y-y')} psi_k(sqrt(2B)(x-c)) psi_k(sqrt(2B)(x'-c)).

``project_on_nodes`` applies P_k through that factorization.  On an n x n
product grid of nodes the c-integral is a trapezoid sum over P points
(``_c_grid``, exact to round-off), in blocks of 64 c-columns, each on the band of
rows x within the reach d of its c: two real-by-complex products per block, from a
plan of the f-independent tables (``_plan``) kept per nodes and level.  P is about
410-530 on the 64^2 nodes of the truncated plane, and the band holds 37-49% of the
n P pairs (x, c) for k <= 5.  The dense ``kernel`` is its oracle.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .automorphy import j_factor
from .fields import ScalarField
from .magnetics import MagneticSystem, phase_pullback, value_and_mixed_laplacian
from .reports import CheckReport, from_element_residuals


def _level(k) -> int:
    """k as an int: a Landau level, or the degree of its Hermite or Laguerre factor, must be a
    nonnegative integer."""
    if not hasattr(k, "__index__") or (k := operator.index(k)) < 0:
        raise ValueError(f"level index must be a nonnegative integer, got {k!r}")
    return k


def hermite(m, x):
    """Physicists' Hermite polynomial H_m (H_1 = 2x), by recurrence; an array of degrees m
    stacks the values on a leading axis, from one recurrence."""
    m = np.asarray(m)
    if np.any(m < 0):
        raise ValueError("Hermite degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    rows = [np.ones_like(x), 2 * x]
    for j in range(1, m.max(initial=0)):
        rows.append(2 * x * rows[j] - 2 * j * rows[j - 1])
    return np.stack(rows)[m]


def _hermite_jet(m, t):
    """(H_m, H_m', H_m'') at t from one recurrence, as H_m' = 2m H_{m-1} and H_m'' = 4m(m-1) H_{m-2};
    an array of degrees m stacks them on a leading axis."""
    m = np.asarray(m)
    H = hermite(np.arange(m.max() + 1), t)
    c = m.reshape(m.shape + (1,) * np.ndim(t))
    return H[m], 2 * c * H[np.maximum(m - 1, 0)], 4 * c * (c - 1) * H[np.maximum(m - 2, 0)]


def hermite_function(k: int, t):
    """Normalized Hermite function H_k(t) e^{-t^2/2} / sqrt(2^k k! sqrt(pi)).

    By the recurrence psi_{j+1} = sqrt(2/(j+1)) t psi_j - sqrt(j/(j+1)) psi_{j-1},
    which forms no power or factorial, so nothing overflows at any degree.  Where
    e^{-t^2/2} would underflow below the normal range, it is 0 (numpy's exp is slow there).
    """
    k = _level(k)
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
    if (k := _level(k)) == 0:
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


def _laguerre_jet(k: int, x):
    """(L_k, L_k', L_k'') at x, as L_k' = -L_{k-1}^(1) and L_k'' = L_{k-2}^(2) (0 below degree 0)."""
    lower = lambda j, alpha: laguerre(j, x, alpha) if j >= 0 else np.zeros_like(x)
    return laguerre(k, x), -lower(k - 1, 1.0), lower(k - 2, 2.0)


def landau_level(B: float, k: int) -> float:
    """lambda_k = -2B(2k+1)."""
    if B <= 0:
        raise ValueError("field must be positive")
    return -2.0 * B * (2 * _level(k) + 1)


@dataclass
class SpectralBasis:
    """Parameters of the rank-one strip eigenbasis."""

    B: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("field must be positive")
        if not 0 <= self.alpha < 1:
            raise ValueError("character parameter must lie in [0, 1)")


def strip_eigenfunction(basis: SpectralBasis, sys: MagneticSystem, m, n: int) -> ScalarField:
    """Eigenfunction of the mixed Laplacian on the rank-one strip, with its exact jet.

    The Landau-level index is the Hermite degree m; n indexes the Fourier
    mode within the level.  The Gaussian weight e^{-(B/2)|z|^2} makes the
    function decay across the strip, and the e^{-i phi} prefactor undoes the
    lifting gauge: f = E H_m(t), t = 2c Im z + shift, c = sqrt(2B)/2 and
    E = N exp(-i phi - (B/2)|z|^2 + (B/2) z^2 + 2 pi i (alpha + n) z).  With
    P = d log E, Q = dbar log E (dbar P = -B/2) and t_z = -t_zbar = -ic,
    f_z = E (P H - ic H'), f_zbar = E (Q H + ic H') and
    Lap f = 4E ((PQ - B/2) H + ic (P - Q) H' + c^2 H'') (``_hermite_jet``).
    An array of degrees m stacks the values on a leading axis.
    """
    B, a = basis.B, basis.alpha
    norm = np.exp(-np.pi**2 * (n + a) ** 2 / B)
    c = np.sqrt(2 * B) / 2
    shift = np.sqrt(2.0 / B) * np.pi * (a + n)
    k, lin = sys.gauge_k, 2j * np.pi * (a + n)

    def jet_fn(z):
        z = np.asarray(z, dtype=complex)
        e = norm * np.exp(-1j * sys.phi(z) - (B / 2) * np.abs(z) ** 2 + (B / 2) * z**2 + lin * z)
        h, h1, h2 = _hermite_jet(m, 2 * c * np.imag(z) + shift)
        P = B * z - (B / 2) * z.conjugate() + lin - 1j * k
        Q = -(B / 2) * z - 1j * np.conj(k)
        lap = 4 * e * ((P * Q - B / 2) * h + 1j * c * (P - Q) * h1 + c * c * h2)
        return e * h, e * (P * h - 1j * c * h1), e * (Q * h + 1j * c * h1), lap

    return ScalarField(jet_fn)


def rayleigh_quotient(sys: MagneticSystem, f: ScalarField, points) -> complex | np.ndarray:
    """Discrete Rayleigh quotient sum(conj(f) Delta f) / sum(|f|^2) over the points, from one jet.

    The sums run over the points' (last) axis, so a stacked f gives one quotient per row.
    """
    fz, lap = value_and_mixed_laplacian(sys, f, np.asarray(points, dtype=complex))
    den = np.sum(np.abs(fz) ** 2, axis=-1)
    if np.any(den == 0):
        raise ArithmeticError("field vanishes on all sample points")
    q = np.sum(np.conjugate(fz) * lap, axis=-1) / den
    return complex(q) if q.ndim == 0 else q


def truncation_radius(B: float, tail: float = 1e-8) -> float:
    """Smallest R with Gaussian kernel tail e^{-B R^2 / 8} below ``tail``."""
    if not (B > 0 and 0 < tail < 1):
        raise ValueError(f"need field B > 0 and tail in (0, 1), got B = {B}, tail = {tail}")
    return float(np.sqrt(-8.0 * np.log(tail) / B))


def _phi(sys: MagneticSystem, z):
    """The gauge at the points z, so that anything with ``B`` and ``gauge_k``
    serves as a system for the kernel."""
    return 2 * (sys.gauge_k * z).real


def _radial(B: float, k: int, rho):
    """(g, g', g'') at rho for K_k's radial factor g(rho) = e^{-B rho/2} L_k(B rho) (``_laguerre_jet``)."""
    e, (L, L1, L2) = np.exp(-(B / 2) * rho), _laguerre_jet(k, B * rho)
    return e * L, B * e * (L1 - L / 2), B * B * e * (L / 4 - L1 + L2)


def kernel(sys: MagneticSystem, k: int, z, w) -> complex | np.ndarray:
    """Eigenprojector kernel K_k(z, w); a complex for scalar z and w, else an array."""
    B, z, w = sys.B, np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    phase = np.exp(-1j * (_phi(sys, z) - _phi(sys, w))) * np.exp(1j * B * (z * w.conjugate()).imag)
    val = (B / np.pi) * phase * _radial(B, k, np.abs(z - w) ** 2)[0]
    return complex(val) if val.ndim == 0 else val


def kernel_field(sys: MagneticSystem, k: int, w: complex) -> ScalarField:
    """K_k(., w) with its exact jet: c e^{2i Re(ks z)} G(z - w) (``phase_pullback``).

    ks = -gauge_k - iB wbar/2 and c = (B/pi) e^{i phi(w)}; G(d) = g(|d|^2) is radial (``_radial``),
    so G_z = dbar g', G_zbar = d g' and Lap G = 4(g' + rho g'').
    """
    B = sys.B

    def g_jet(d):
        rho = (d * d.conjugate()).real
        g, g1, g2 = _radial(B, k, rho)
        return g, d.conjugate() * g1, d * g1, 4 * (g1 + rho * g2)

    ks, c = -sys.gauge_k - 0.5j * B * np.conj(w), (B / np.pi) * np.exp(1j * _phi(sys, w))
    return phase_pullback(ScalarField(g_jet), ks, 1.0, -w, c)


def kernel_eigen_residual(sys: MagneticSystem, k: int, w: complex, points) -> float:
    """Relative residual of Delta_z K_k(z, w) = lambda_k K_k(z, w), from the exact kernel jet."""
    K, lap = value_and_mixed_laplacian(sys, kernel_field(sys, k, w), np.asarray(points, complex))
    lam_K = landau_level(sys.B, k) * K
    return float(np.max(np.abs(lap - lam_K)) / np.max(np.abs(lam_K)))


# The name stays because perfbench/tracing.py times maf.spectral.select_laguerre_scale by name.
def select_laguerre_scale(sys: MagneticSystem, k: int = 1) -> float:
    """The eigen-equation residual of K_k at four fixed points z and w = 0.1 + 0.05i."""
    return kernel_eigen_residual(sys, k, 0.1 + 0.05j, [0.3 + 0.2j, -0.5 + 0.6j, 0.9 - 0.4j, -0.2 - 0.7j])


_BLOCK = 64  # c-columns per block of a projection plan: on 64^2 nodes no table exceeds 64 KiB


def _reach(B: float, k: int) -> float:
    """d = (sqrt(37) + 2 sqrt(k) + 1) / sqrt(B): beyond d of x, psi_k(sqrt(2B)(x - c)) is below e^{-37} of its peak."""
    return (math.sqrt(37) + 2 * math.sqrt(k) + 1) / math.sqrt(B)


def _c_grid(B: float, k: int, x: np.ndarray, y: np.ndarray):
    """Nodes and step of the trapezoid sum over the Landau-gauge centre c.

    The nodes cover [min x - d, max x + d], d = ``_reach(B, k)``.  The step is
    2 pi / (2B span(y) + sqrt(8B(37 + 2k)) + 2 sqrt(B)): the integrand oscillates at
    2B(y - y'), and the transform of the product of the two psi_k factors is below
    e^{-37} past sqrt(8B(37 + 2k)), so the sum aliases nothing above round-off.
    """
    d = _reach(B, k)
    step = 2 * math.pi / (2 * B * np.ptp(y) + math.sqrt(8 * B * (37 + 2 * k)) + 2 * math.sqrt(B))
    lo, hi = x.min() - d, x.max() + d
    return lo + step * np.arange(math.ceil((hi - lo) / step) + 1), step


@functools.lru_cache(maxsize=16)  # plans kept, the least recently used dropped first
def _plan(B: float, gauge_k: complex, k: int, xb: bytes, yb: bytes, width: int):
    """The read-only tables of ``project_on_nodes`` that do not depend on f, on the nodes x_i + i y_j.

    (order, rank, u, step, fine, blocks): the row order of ascending x and its inverse, the
    phase u = e^{-i(phi(z) + B y (x - 2 c[P // 2]))} on the c-grid c of ``_c_grid`` and its
    step, e^{2iBy step r} for r < width, and per block of ``width`` c-columns
    (i0, i1, psi, turn): the sorted rows within d = ``_reach(B, k)`` of some c in the block,
    psi_k(sqrt(2B)(x - c)) on them, 0 where |x - c| > d so that every block width sums the same
    terms, and the block's coarse row of e^{2iByc}.
    """
    x, y = np.frombuffer(xb), np.frombuffer(yb)
    c, step = _c_grid(B, k, x, y)
    order = np.argsort(x, kind="stable")
    xs, rank, P, d = x[order], np.argsort(order), c.size, _reach(B, k)
    m0 = P // 2
    u = np.exp(-1j * (2 * (gauge_k * (x[:, None] + 1j * y)).real + B * y * (x[:, None] - 2 * c[m0])))
    # With c = c[m0] + step j, e^{2iB y c[m0]} joins the phase and the rest is e^{i a j},
    # a = 2B step y.  Split a = hi + lo with hi * j exact: e^{i a j} = e^{i hi j} (1 + i lo j)
    # to 1e-16, and no argument of hundreds of radians is rounded, so every block width
    # gives the same table to round-off.
    a = 2 * B * step * y
    hi = a * 8193.0
    hi -= hi - a  # Veltkamp split: hi keeps 40 bits, so hi * j is exact for |j| < 8192
    turns = lambda j: np.exp(1j * np.multiply.outer(j, hi)) * (1 + 1j * np.multiply.outer(j, a - hi))
    fine, blocks = turns(np.arange(min(width, P))), []
    for m in range(0, P, width):
        cb = c[m : m + width]
        i0, i1 = np.searchsorted(xs, cb[0] - d), np.searchsorted(xs, cb[-1] + d, "right")
        dx = xs[i0:i1, None] - cb
        blocks.append((i0, i1, np.where(np.abs(dx) <= d, hermite_function(k, math.sqrt(2 * B) * dx), 0), turns(m - m0)))
    for table in (order, rank, u, fine, *(t for block in blocks for t in block[2:])):
        table.setflags(write=False)
    return order, rank, u, step, fine, tuple(blocks)


def project_on_nodes(sys: MagneticSystem, k: int, fvals: np.ndarray, Z: np.ndarray, Wt: np.ndarray) -> np.ndarray:
    """P_k f evaluated on the quadrature nodes themselves.

    ``fvals`` are f's values on the node array Z with weights Wt, all of one shape;
    the result has that shape too, enabling iterated projections without re-sampling.
    Z must be an axis-aligned product grid as ``quad2d_nodes`` makes it: x_i along
    axis 0, y_j along axis 1; one comparison of Z with x_i + i y_j accepts it, and only
    nodes it refuses go through the checks that name the fault.  With the phase
    e^{-i(phi(z) + B x y)} and the c-grid of ``_c_grid``, the quadrature sum of
    K_k(z, w) f(w) Wt(w) is taken over blocks of 64 c-columns, each on the band of rows
    x within d of its columns.  All but f is a plan (``_plan``), built with its c-grid
    once per B, gauge, level, nodes and block width; the last 16 are kept.  Per block,
    two real-by-complex products (psi_k is real) and one ``vecdot`` between them, small
    enough on 64^2 nodes that OpenBLAS keeps the products on one thread.  Banded
    O(n^2 P) time, about 40% of the full sum on the truncated plane, the same for every
    level.  On an affine (lattice-cell) grid the same factorization holds with the gauge
    taken along one cell vector; only the axis-aligned grid is implemented.
    """
    k = _level(k)
    Z = np.asarray(Z, dtype=complex)
    if not (
        Z.ndim == 2
        and np.shape(fvals) == Z.shape == np.shape(Wt)
        and np.isfinite(x := Z.real[:, 0]).all()
        and np.isfinite(y := Z.imag[0]).all()
        and np.array_equal(Z, x[:, None] + 1j * y)
    ):
        if (bad := np.flatnonzero(~np.isfinite(Z))).size:
            raise ValueError(f"node {bad[0]} is not finite: {Z.flat[bad[0]]}")
        for name, values in (("fvals", fvals), ("Wt", Wt)):
            if np.shape(values) != Z.shape:
                raise ValueError(f"{name} has shape {np.shape(values)}, the nodes Z have shape {Z.shape}")
        raise ValueError("nodes are not a product grid with x constant along axis 1 and y along axis 0")
    B = float(sys.B)
    order, rank, u, step, fine, blocks = _plan(B, sys.gauge_k, k, x.tobytes(), y.tobytes(), _BLOCK)
    G = (u.conjugate() * fvals * Wt)[order].view(float)
    out = np.zeros((x.size, 2 * y.size))
    for i0, i1, psi, turn in blocks:
        e = fine[: psi.shape[1]] * turn
        e *= np.vecdot(e, (psi.T @ G[i0:i1]).view(complex))[:, None]
        out[i0:i1] += psi @ e.view(float)
    return (B / np.pi) * math.sqrt(2 * B) * step * u * out.view(complex)[rank]


def covariance_rows(gs, pairs):
    """(z, w) stacked on (gz, gw), g over gs = (a, b): where ``kernel_invariance_residual`` reads K."""
    a, b = (np.reshape(x, (-1, 1)) for x in gs)
    z, w = np.asarray(pairs, dtype=complex).reshape(-1, 2).T
    return np.vstack([z, a * z + b]), np.vstack([w, a * w + b])


def kernel_invariance_residual(sys: MagneticSystem, k: int, gs, pairs, tol: float = 1e-8, K=None) -> list[CheckReport]:
    """Residual of the covariance K(z,w) = e^{i d_gauge} e^{iB Im<z-w, g^{-1}.0>} K(gz, gw),

    with d_gauge = (phi(gz) - phi(gw)) - (phi(z) - phi(w)), one report per element of gs = (a, b).
    K, if given, is K_k at ``covariance_rows(gs, pairs)``, evaluated already.
    """
    Z, W = covariance_rows(gs, pairs)
    d_gauge = sys.phi(Z[1:]) - sys.phi(W[1:]) - (sys.phi(Z[0]) - sys.phi(W[0]))
    K = kernel(sys, k, Z, W) if K is None else K
    # e^{iB Im<z-w, g^{-1}.0>} = conj j^B(g, z - w)
    a, b = (np.reshape(x, (-1, 1)) for x in gs)
    res = np.abs(K[0] - np.exp(1j * d_gauge) * np.conj(j_factor(sys.B, a, b, Z[0] - W[0])) * K[1:])
    return from_element_residuals("kernel_invariance", res, tol, gs, k=k, n_pairs=res.shape[1])


def spectrum_table(B: float, kmax: int) -> list[dict]:
    """Rows (k, lambda_k) for k = 0..kmax."""
    return [{"k": k, "lambda": landau_level(B, k)} for k in range(kmax + 1)]
