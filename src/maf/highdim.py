"""Constant-field criteria on C^n under U(n) |x C^n.

Mirrors the one-variable machinery in several variables: component
equivariance, the potential one-form in 2n coordinates, the 2x2 determinant
quantities entering the per-component constant-field criterion, and an
independent oracle that differentiates the full potential and tests the
resulting 2-form for constancy.  The two verdicts can disagree (aggregate
cancellation across components); the report carries an agreement flag rather
than hiding the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import DEFAULT_FD_STEP
from .reports import CheckReport, from_residuals

UNITARY_TOL = 1e-10


@dataclass
class GroupElementN:
    """A rigid motion z -> A z + b of C^n with unitary A."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex).ravel()
        n = self.b.size
        if self.A.shape != (n, n):
            raise ValueError("rotation block and translation sizes disagree")
        if np.abs(self.A.conj().T @ self.A - np.eye(n)).max() > UNITARY_TOL:
            raise ValueError("rotation block is not unitary")


def act_n(g: GroupElementN, z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=complex) @ g.A.T + g.b


def random_element_n(n: int, rng: np.random.Generator) -> GroupElementN:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return GroupElementN(Q, rng.normal(size=n) + 1j * rng.normal(size=n))


# ---------------------------------------------------------------------------
# Equivariant maps tau : C^n -> C^n.  A point array carries the n coordinates
# on its last axis; every function below broadcasts over the leading axes.

def _poly_component(terms: list[dict]) -> Callable[[np.ndarray], np.ndarray]:
    parsed = [
        (np.array(t["z"], dtype=int), np.array(t["zbar"], dtype=int), complex(*t["c"]))
        for t in terms
    ]

    def f(z: np.ndarray) -> np.ndarray:
        zb = np.conj(z)
        return sum(c * np.prod(z**ei, axis=-1) * np.prod(zb**ej, axis=-1) for ei, ej, c in parsed)

    return f


def _wirtinger_n(f: Callable, z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d f_m / d z_k, d f_m / d zbar_k) as arrays (..., m, k) for f : (..., n) -> (..., m).

    One 5-point stencil along the real and the imaginary axis of every
    coordinate, all shifted points evaluated in one call of ``f``.
    """
    n = z.shape[-1]
    steps = np.array([2.0, 1.0, -1.0, -2.0])[:, None, None, None]
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
    e = h * np.eye(n)
    # shifted points (..., step, axis x|y, direction k, coordinate)
    fv = f(z[..., None, None, None, :] + steps * np.stack([e, 1j * e]))
    gx, gy = np.einsum("s,...sakm->a...mk", weights, fv)
    return 0.5 * (gx - 1j * gy), 0.5 * (gx + 1j * gy)


@dataclass
class EquivariantMapN:
    """tau given by a descriptor.

    The identity, conjugate and linear kinds are ``tau(z) = U z + V zbar``
    with ``(U, V)`` = ``(I, 0)``, ``(0, I)`` and ``(U, 0)``, and their exact
    Jacobian blocks are ``(U, V)``; the polynomial kind is differentiated by
    5-point stencils with step ``fd_step``.
    """

    kind: str  # identity | conjugate | linear | polynomial
    n: int
    U: Optional[np.ndarray] = None
    components: Optional[list] = None  # polynomial term tables
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        self._fns = None
        if self.kind == "polynomial":
            if self.components is None or len(self.components) != self.n:
                raise ValueError("polynomial map needs one term table per component")
            self._fns = [_poly_component(t) for t in self.components]
            return
        if self.kind == "linear":
            self.U = np.asarray(self.U, dtype=complex)
            if self.U.shape != (self.n, self.n):
                raise ValueError("linear map needs an n x n matrix")
        eye, zero = np.eye(self.n, dtype=complex), np.zeros((self.n, self.n), dtype=complex)
        UV = {"identity": (eye, zero), "conjugate": (zero, eye), "linear": (self.U, zero)}
        if self.kind not in UV:
            raise ValueError(f"unknown map kind {self.kind!r}")
        self._UV = UV[self.kind]

    @classmethod
    def from_dict(cls, d: dict, n: int) -> "EquivariantMapN":
        kind = d["kind"]
        if kind == "linear":
            U = np.array([[complex(*e) for e in row] for row in d["U"]])
            return cls("linear", n, U=U)
        if kind == "polynomial":
            return cls("polynomial", n, components=d["components"])
        return cls(kind, n)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self._fns is not None:
            return np.stack([f(z) for f in self._fns], axis=-1)
        U, V = self._UV
        return z @ U.T + np.conj(z) @ V.T


def jacobian_blocks(tau: EquivariantMapN, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (..., n, n): P[..., l, k] = d tau_l / d z_k and Q[..., l, k] = d tau_l / d zbar_k."""
    z = np.asarray(z, dtype=complex)
    if tau._fns is not None:
        return _wirtinger_n(tau, z, tau.fd_step)
    shape = z.shape[:-1] + (tau.n, tau.n)
    return tuple(np.broadcast_to(M, shape).copy() for M in tau._UV)


def _determinants(p: np.ndarray, q: np.ndarray, i, j) -> tuple:
    """A, B, C, D from Jacobian rows p = d tau_l / dz, q = d tau_l / dzbar (last axis k).

    ``i`` and ``j`` may be index arrays; the derivatives of the conjugate
    component are d(tau bar_l)/dz_i = conj(q[i]) and d(tau bar_l)/dzbar_i = conj(p[i]).
    """
    pi, pj, qi, qj = p[..., i], p[..., j], q[..., i], q[..., j]
    A = qi.conj() * pj - qj.conj() * pi
    B = qi.conj() * qj - pj.conj() * pi
    C = pi.conj() * pj - qj.conj() * qi
    D = pi.conj() * qj - pj.conj() * qi
    return A, B, C, D


def determinant_coeffs(
    tau: EquivariantMapN, z: np.ndarray, ell: int, i: int, j: int, k: int
) -> dict:
    """The five 2x2 determinants of the constant-field criterion at the points z.

    Indices are 0-based; i < j required for the antisymmetric quantities.
    """
    if not i < j:
        raise ValueError("need i < j")
    P, Q = jacobian_blocks(tau, z)
    p, q = P[..., ell, :], Q[..., ell, :]
    A, B, C, D = _determinants(p, q, i, j)
    F = np.abs(q[..., k]) ** 2 - np.abs(p[..., k]) ** 2
    return {"A": A, "B": B, "C": C, "D": D, "F": F}


def potential_n_coeffs(
    tau: EquivariantMapN, nu: float, mu: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c_dz, c_dzbar) of theta at the points z, each of z's shape.

    theta = -1/2 sum_l { nu (zbar_l dz_l - z_l dzbar_l)
                         + mu (tau bar_l d tau_l - tau_l d tau bar_l) }.
    """
    z = np.asarray(z, dtype=complex)
    c_dz = -0.5 * nu * np.conj(z)
    c_dzb = 0.5 * nu * z
    if mu != 0.0:
        t = tau(z)[..., :, None]
        P, Q = jacobian_blocks(tau, z)
        # d tau_l / dz_k = P[l,k]; d (tau bar_l) / dz_k = conj(Q[l,k])
        c_dz = c_dz - 0.5 * mu * np.sum(np.conj(t) * P - t * np.conj(Q), axis=-2)
        c_dzb = c_dzb - 0.5 * mu * np.sum(np.conj(t) * Q - t * np.conj(P), axis=-2)
    return c_dz, c_dzb


def _two_form_matrix(tau: EquivariantMapN, nu: float, mu: float, z: np.ndarray, h: float) -> np.ndarray:
    """Antisymmetric (..., 2n, 2n) coefficient matrices of d theta at the points z.

    Basis order (dz_1..dz_n, dzbar_1..dzbar_n); entry [a, b] (a < b) is the
    coefficient of basis_a ^ basis_b.  Derivatives by 5-point stencils in the
    2n Wirtinger directions.
    """

    def coeffs(zz: np.ndarray) -> np.ndarray:
        return np.concatenate(potential_n_coeffs(tau, nu, mu, zz), axis=-1)

    d_dz, d_dzb = _wirtinger_n(coeffs, np.asarray(z, dtype=complex), h)
    J = np.concatenate([d_dz, d_dzb], axis=-1)  # J[..., b, a] = d c_b / d dir_a
    return np.swapaxes(J, -1, -2) - J  # M[a,b] = d_a c_b - d_b c_a


def equivariance_check_n(
    tau: EquivariantMapN,
    rho_kind: str,
    n_samples: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
    U: Optional[np.ndarray] = None,
) -> CheckReport:
    """Residual of tau(g.z) = alpha(g) tau(z) + beta(g) for the declared rho.

    ``rho_kind``: "identity" (alpha=A, beta=b), "conjugate" (entrywise
    conjugation of [A, b]), or "unitary_conj" (alpha = U A U*, beta = U b).
    """
    rng = np.random.default_rng(seed)
    n = tau.n
    res = []
    for _ in range(n_samples):
        g = random_element_n(n, rng)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        if rho_kind == "identity":
            alpha, beta = g.A, g.b
        elif rho_kind == "conjugate":
            alpha, beta = np.conj(g.A), np.conj(g.b)
        elif rho_kind == "unitary_conj":
            alpha, beta = U @ g.A @ U.conj().T, U @ g.b
        else:
            raise ValueError(f"unknown rho kind {rho_kind!r}")
        res.append(float(np.abs(tau(act_n(g, z)) - (alpha @ tau(z) + beta)).max()))
    return from_residuals(
        "equivariance_n", res, tol, rho=rho_kind, n=n, n_samples=n_samples, seed=seed
    )


def constant_field_test(
    tau: EquivariantMapN,
    nu: float,
    mu: float,
    n_points: int = 12,
    seed: int = 0,
    tol: float = 1e-6,
) -> dict:
    """Per-component criterion vs. direct 2-form constancy, with agreement flag.

    Per-component: max |A|, max |B| over sample points and index choices, and
    the spread of each F across points, all required below ``tol``.  Direct:
    the full 2-form d theta is assembled numerically; every coefficient must
    be constant across points within ``tol``.
    """
    rng = np.random.default_rng(seed)
    n = tau.n
    xy = rng.normal(size=(n_points, 2, n))
    pts = xy[:, 0] + 1j * xy[:, 1]

    P, Q = jacobian_blocks(tau, pts)
    A, B, _, _ = _determinants(P, Q, *np.triu_indices(n, 1))
    max_A = float(np.abs(A).max(initial=0.0))
    max_B = float(np.abs(B).max(initial=0.0))
    F = np.abs(Q) ** 2 - np.abs(P) ** 2  # F[point, l, k]
    f_spread = float(np.ptp(F, axis=0).max())
    per_l_pass = bool(max_A <= tol and max_B <= tol and f_spread <= tol)

    mats = _two_form_matrix(tau, nu, mu, pts, tau.fd_step)
    direct_spread = float(np.abs(mats - mats[0]).max())
    direct_pass = bool(direct_spread <= tol)

    return {
        "per_l": {
            "max_A": max_A,
            "max_B": max_B,
            "F_spread": f_spread,
            "F_values": {f"{l},{k}": float(v) for (l, k), v in np.ndenumerate(F.mean(axis=0))},
            "pass": per_l_pass,
        },
        "direct": {
            "spread": direct_spread,
            "coefficients": _matrix_to_json(mats[0]),
            "pass": direct_pass,
        },
        "agree": bool(per_l_pass == direct_pass),
        "nu": nu,
        "mu": mu,
        "n": n,
    }


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]
