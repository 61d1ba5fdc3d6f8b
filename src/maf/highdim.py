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
from types import SimpleNamespace
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
        if not isinstance(d, dict):
            raise ConfigError(f"'tau' must be an object, got {d!r}")
        if d["kind"] != "linear":
            return cls(d["kind"], n)
        try:
            return cls("linear", n, U=np.array([[complex(*e) for e in row] for row in d["U"]]))
        except TypeError as e:  # an entry that is not a [re, im] pair
            raise ConfigError(f"linear map's 'U' must be rows of [re, im] pairs, got {d['U']!r}") from e

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


def two_form(tau, nu: float, mu: float) -> np.ndarray:
    """The antisymmetric (2n, 2n) coefficient matrix M of d theta.

    Basis order (dz_1..dz_n, dzbar_1..dzbar_n); M[a, b] (a < b) is the
    coefficient of basis_a ^ basis_b.  With d tau_l = alpha_l . basis and
    d tau bar_l = beta_l . basis, d theta = sum_ab X[a, b] basis_a ^ basis_b
    for X = -nu E - mu sum_l beta_l alpha_l^T, E[n + l, l] = 1, and M = X - X^T.
    tau's blocks U and V may stack maps of one n on leading axes, which M keeps.
    """
    n = tau.U.shape[-1]
    alpha = np.concatenate([tau.U, tau.V], axis=-1)  # rows alpha_l
    beta = np.concatenate([tau.V.conj(), tau.U.conj()], axis=-1)  # rows beta_l
    X = -mu * (beta.swapaxes(-1, -2) @ alpha)
    X[..., n:, :n] -= nu * np.eye(n)
    return X - X.swapaxes(-1, -2)


def equivariance_defect(tau) -> float | np.ndarray:
    """max |W* W - I| for tau's nonzero Jacobian block W = U + V, per map of a stack.

    tau(g.z) = rho(g).tau(z) holds for every g = (A, b) of U(n) |x C^n and
    the kind's rho (``RHO``) exactly when W is unitary: for the linear kind
    the difference is U A (U* U - I) z, and as the unitary A span all
    matrices it vanishes for all g and z only when U* U = I (or U = 0).
    """
    W = tau.U + tau.V  # the other block is 0
    return np.abs(W.conj().swapaxes(-1, -2) @ W - np.eye(W.shape[-1])).max(axis=(-2, -1))


def constant_field_test(
    taus: list[EquivariantMapN], nu: float, mu: float, tol: float = 1e-12, names: list[str] | None = None
) -> list[CheckReport]:
    """Each map's equivariance defect under its declared rho, with d theta and the
    per-component determinants in the metadata: one report per map, all from one stack.

    The maps share one n.  d theta is constant by construction.  ``coordinate_decoupling``
    holds the largest |A| and |B| over components and index pairs i < j, and F[l, k] =
    |V[l, k]|^2 - |U[l, k]|^2; with V = 0, B_ij = -conj(U[l, j]) U[l, i], so
    the block reads ``decoupled`` only when each component involves one
    coordinate (the 45 degree rotation is not).
    """
    n, names = taus[0].n, names or ["highdim"] * len(taus)
    stack = SimpleNamespace(U=np.stack([t.U for t in taus]), V=np.stack([t.V for t in taus]))  # (C, n, n)
    i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))  # the pairs i < j
    A, B, _, _ = _determinants(stack.U, stack.V, i, j)
    max_A, max_B = (np.abs(x).max(axis=(-2, -1), initial=0.0).tolist() for x in (A, B))
    F = (np.abs(stack.V) ** 2 - np.abs(stack.U) ** 2).tolist()
    columns = zip(taus, names, two_form(stack, nu, mu).tolist(), equivariance_defect(stack).tolist(), max_A, max_B, F)
    return [CheckReport(name, defect, defect, tol, {
        "rho": RHO[tau.kind],
        "two_form": [[[v.real, v.imag] for v in row] for row in M],
        "coordinate_decoupling": {
            "max_A": a,
            "max_B": b,
            "F_values": {f"{l},{k}": v for l, row in enumerate(f) for k, v in enumerate(row)},
            "decoupled": a <= tol and b <= tol,
        },
        "nu": nu,
        "mu": mu,
        "n": n,
    }) for tau, name, M, defect, a, b, f in columns]
