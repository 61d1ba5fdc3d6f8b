"""Constant-field criteria on C^n under U(n) |x C^n, in closed form.

Mirrors the one-variable machinery in several variables.  Every equivariant
map it builds is ``tau(z) = U z + V zbar``, so its Jacobian blocks are the
constant matrices ``(U, V)`` and the 2-form of the potential

    theta = -1/2 sum_l { nu (zbar_l dz_l - z_l dzbar_l) + mu (tau bar_l d tau_l - tau_l d tau bar_l) }

is the constant ``d theta = -sum_l [nu dzbar_l ^ dz_l + mu d tau bar_l ^ d tau_l]``:
nothing is sampled or differentiated numerically.  What can fail is the
equivariance of tau under the rho its kind declares.  The per-component 2x2
determinants of the componentwise criterion are reported beside it; they
vanish exactly when each component of tau involves one coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ConfigError
from .reports import CheckReport

# the rho each kind of tau is equivariant under, for g = (A, b):
# (A, b), (conj A, conj b) and (U A U*, U b)
RHO = {"identity": "identity", "conjugate": "conjugate", "linear": "unitary_conj"}


@dataclass
class EquivariantMapN:
    """tau(z) = U z + V zbar given by a descriptor.

    The identity, conjugate and linear kinds have ``(U, V)`` = ``(I, 0)``,
    ``(0, I)`` and ``(U, 0)``; these are also tau's Jacobian blocks
    d tau_l / dz_k = U[l, k] and d tau_l / dzbar_k = V[l, k].
    """

    kind: str  # identity | conjugate | linear
    n: int
    U: Optional[np.ndarray] = None
    V: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in RHO:
            raise ConfigError(f"unknown map kind {self.kind!r}; supported kinds: {', '.join(RHO)}")
        eye, zero = np.eye(self.n, dtype=complex), np.zeros((self.n, self.n), dtype=complex)
        if self.kind == "linear":
            self.U = np.asarray(self.U, dtype=complex)
            if self.U.shape != (self.n, self.n):
                raise ValueError("linear map needs an n x n matrix")
        self.U, self.V = {"identity": (eye, zero), "conjugate": (zero, eye), "linear": (self.U, zero)}[self.kind]

    @classmethod
    def from_dict(cls, d: dict, n: int) -> "EquivariantMapN":
        if d["kind"] == "linear":
            return cls("linear", n, U=np.array([[complex(*e) for e in row] for row in d["U"]]))
        return cls(d["kind"], n)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """tau at the points z, the n coordinates on the last axis."""
        z = np.asarray(z, dtype=complex)
        return z @ self.U.T + np.conj(z) @ self.V.T


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


def two_form(tau: EquivariantMapN, nu: float, mu: float) -> np.ndarray:
    """The antisymmetric (2n, 2n) coefficient matrix M of d theta.

    Basis order (dz_1..dz_n, dzbar_1..dzbar_n); M[a, b] (a < b) is the
    coefficient of basis_a ^ basis_b.  With d tau_l = alpha_l . basis and
    d tau bar_l = beta_l . basis, d theta = sum_ab X[a, b] basis_a ^ basis_b
    for X = -nu E - mu sum_l beta_l alpha_l^T, E[n + l, l] = 1, and M = X - X^T.
    """
    n = tau.n
    alpha = np.hstack([tau.U, tau.V])  # rows alpha_l
    beta = np.hstack([tau.V.conj(), tau.U.conj()])  # rows beta_l
    X = -mu * (beta.T @ alpha)
    X[n:, :n] -= nu * np.eye(n)
    return X - X.T


def equivariance_defect(tau: EquivariantMapN) -> float:
    """max |W* W - I| for tau's nonzero Jacobian block W.

    tau(g.z) = rho(g).tau(z) holds for every g = (A, b) of U(n) |x C^n and
    the kind's rho (``RHO``) exactly when W is unitary: for the linear kind
    the difference is U A (U* U - I) z, and as the unitary A span all
    matrices it vanishes for all g and z only when U* U = I (or U = 0).
    """
    W = tau.V if tau.kind == "conjugate" else tau.U
    return float(np.abs(W.conj().T @ W - np.eye(tau.n)).max())


def constant_field_test(
    tau: EquivariantMapN, nu: float, mu: float, tol: float = 1e-12, name: str = "highdim"
) -> CheckReport:
    """tau's equivariance defect under its declared rho, with d theta and the
    per-component determinants in the metadata.

    d theta is constant by construction.  ``coordinate_decoupling`` holds the
    largest |A| and |B| over components and index pairs i < j, and F[l, k] =
    |V[l, k]|^2 - |U[l, k]|^2; with V = 0, B_ij = -conj(U[l, j]) U[l, i], so
    the block reads ``decoupled`` only when each component involves one
    coordinate (the 45 degree rotation is not).
    """
    n = tau.n
    i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))  # the pairs i < j
    A, B, _, _ = _determinants(tau.U, tau.V, i, j)
    max_A, max_B = (float(np.abs(x).max(initial=0.0)) for x in (A, B))
    F = np.abs(tau.V) ** 2 - np.abs(tau.U) ** 2
    defect = equivariance_defect(tau)
    return CheckReport(name, defect, defect, tol, {
        "rho": RHO[tau.kind],
        "two_form": [[[v.real, v.imag] for v in row] for row in two_form(tau, nu, mu).tolist()],
        "coordinate_decoupling": {
            "max_A": max_A,
            "max_B": max_B,
            "F_values": {f"{l},{k}": v for l, row in enumerate(F.tolist()) for k, v in enumerate(row)},
            "decoupled": max_A <= tol and max_B <= tol,
        },
        "nu": nu,
        "mu": mu,
        "n": n,
    })
