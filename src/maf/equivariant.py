"""Equivariant pairs (rho, tau) on the rigid-motion group.

An endomorphism rho of the group pairs with a plane map tau satisfying
tau(g.z) = rho(g).tau(z).  In the plane both are in closed form: every
continuous rho is the normal form ``Endomorphism(n, c, beta)`` and every
equivariant tau is the affine ``EquivariantMap(p, q, r)``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .groups import GroupElement, _abs, _cmul, _l1, compose_ab, random_ab
from .reports import CheckReport, from_residuals

HOM_TOL = 1e-9
FIXED_POINT_TOL = 1e-9


def _cpow(a, n: int):
    """a**n for an integer n by binary powering, rounding as scalar complex ``**``
    does for 0 <= n <= 100; for n < 0, conj(a)**-n, which is a**n on the unit circle."""
    if n < 0:
        return _cpow(np.conj(a), -n)
    r = None  # the empty product
    while n:
        if n & 1:
            r = a if r is None else _cmul(r, a)
        n >>= 1
        if n:
            a = _cmul(a, a)
    return np.ones_like(a) if r is None else r


@dataclass
class Endomorphism:
    """The endomorphism rho([a, b]) = [a^n, c b^(n) + (1 - a^n) beta] of the group.

    b^(1) = b, b^(-1) = conj(b), and c = 0 for every other n.  Every continuous
    endomorphism has this form: rho([1, b]) = [1, psi(b)] with psi additive and
    continuous, hence R-linear; rho([a, 0]) = [a^n, (1 - a^n) beta], its cocycle
    being a coboundary since U(1) is compact; and psi(ab) = a^n psi(b) leaves
    psi = c b for n = 1, psi = c conj(b) for n = -1, or psi = 0.  ``family``
    only labels reports.
    """

    n: int
    c: complex = 0
    beta: complex = 0
    family: str = "normal_form"

    def __post_init__(self):
        self.n, self.c, self.beta = int(self.n), complex(self.c), complex(self.beta)
        if self.c and self.n not in (1, -1):
            raise ValueError(f"not an endomorphism: c = {self.c} needs n = 1 or -1, got n = {self.n}")

    @classmethod
    def from_dict(cls, d: dict) -> "Endomorphism":
        """The normal form of a config's family descriptor."""
        fam = d["family"]
        if fam == "identity":
            return cls(1, 1, 0, fam)
        if fam == "conjugation":
            h = GroupElement.from_dict(d["h"])
            return cls(1, h.a, h.b, fam)
        if fam == "complex_conjugate":
            return cls(-1, 1, 0, fam)
        if fam != "separated":
            raise ValueError(f"unknown endomorphism family {fam!r}")
        # rho([a, b]) = [rho_tilde(a), tau_tilde(b)]
        rt, tt = d["rho_tilde"], d["tau_tilde"]
        if rt["kind"] == "conjugate":
            n = -1
        elif rt["kind"] == "power":
            n = int(rt["n"])
        else:
            raise ValueError(f"unknown circle-map kind {rt['kind']!r}")
        if tt["kind"] == "conjugate":
            c, needs = 1, -1
        elif tt["kind"] == "linear":
            c = tt["c"]
            c, needs = complex(*c) if isinstance(c, (list, tuple)) else complex(c), 1
        else:
            raise ValueError(f"unknown additive-map kind {tt['kind']!r}")
        if c and n != needs:
            raise ValueError(
                f"separated rho with power {n} and a nonzero {tt['kind']} map is not an endomorphism: "
                "a nonzero additive map needs power 1 if linear, -1 if conjugate"
            )
        return cls(n, c, 0, fam)


def apply_endo_ab(rho: Endomorphism, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho([a, b]) for 1-d arrays a and b of equal length, as the arrays of its a and b.

    Rounds as the normal form in scalar complex arithmetic does.
    """
    an = _cpow(a, rho.n)
    bn = b if rho.n == 1 else np.conj(b)  # c = 0 unless n = -1
    return an, _cmul(rho.c, bn) + _cmul(1 - an, rho.beta)


def homomorphism_report(
    rho: Endomorphism, n_pairs: int = 128, seed: int = 0, tol: float = HOM_TOL
) -> CheckReport:
    """Residual of rho(gh) = rho(g) rho(h) over random pairs."""
    rng = np.random.default_rng(seed)
    g, h = random_ab(rng, n_pairs), random_ab(rng, n_pairs)
    # rho at gh, g and h in one sweep, one row each
    ra, rb = (x.reshape(3, -1) for x in apply_endo_ab(rho, *map(np.concatenate, zip(compose_ab(*g, *h), g, h))))
    res = _l1(np.stack([ra[0], rb[0]], -1), np.stack(compose_ab(ra[1], rb[1], ra[2], rb[2]), -1))
    return from_residuals("endomorphism_homomorphism", res, tol, family=rho.family, n_pairs=n_pairs)


@dataclass
class EquivariantMap:
    """The plane map tau(z) = p z + q zbar + r of an equivariant pair.

    Every equivariant tau on the plane has this form: tau(z) = rho([1,z]).tau(0)
    = tau(0) + psi(z) with psi additive and continuous, hence R-linear.
    """

    p: complex
    q: complex
    r: complex

    def __post_init__(self):
        self.p, self.q, self.r = complex(self.p), complex(self.q), complex(self.r)
        for name in "pqr":
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"tau's {name} must be finite, got {getattr(self, name)}")

    def __call__(self, z):
        return self.p * z + self.q * z.conjugate() + self.r


def tau_from_beta(rho: Endomorphism, beta: complex) -> EquivariantMap:
    """The canonical compatible map z -> rho([1,z]).beta = c z^(n) + beta.

    Requires beta to be fixed by every rho([a,0]) = [a^n, (1 - a^n) rho.beta], that is
    beta = rho.beta unless n = 0 (the image is then trivial and fixes the whole plane);
    otherwise the map is not equivariant.
    """
    if rho.n and not abs(beta - rho.beta) <= FIXED_POINT_TOL:  # NaN fails too
        raise ValueError(f"beta={beta} is not a common fixed point of the rotation image")
    p, q = (rho.c, 0) if rho.n == 1 else (0, rho.c)  # c = 0 unless n = -1
    return EquivariantMap(p, q, beta)


def equivariance_defects(rho: Endomorphism, tau: EquivariantMap) -> dict[str, complex]:
    """The coefficients of b, bbar and 1 in tau(g.z) - rho(g).tau(z), g = [a, b], by the
    coefficient of tau each constrains: p - c [n = 1], q - c [n = -1] and, over 1 - a^n, r - beta.

    Those of z and zbar, p (a - a^n) and q (abar - a^n), vanish with the first two, so the
    pair is equivariant iff all three vanish; the last always does when n = 0.
    """
    n = rho.n
    return {
        "p": tau.p - (rho.c if n == 1 else 0),
        "q": tau.q - (rho.c if n == -1 else 0),
        "r": tau.r - rho.beta if n else 0j,
    }


def check_equivariance(
    rho: Endomorphism,
    tau: EquivariantMap,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Residual of tau(g.z) = rho(g).tau(z) over sampled (g, z)."""
    rng = np.random.default_rng(seed)
    a, b = random_ab(rng, n_samples)
    zs = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    # deterministic probes catch rotation-only failures at the origin
    a, b, zs = np.append(a, [1j, -1.0]), np.append(b, [0.0, 0.0]), np.append(zs, [0.0, 0.0])
    ra, rb = apply_endo_ab(rho, a, b)
    tau_gz, tau_z = _tau_at(tau, np.concatenate([_cmul(a, zs) + b, zs])).reshape(2, -1)  # one sweep
    res = _abs(tau_gz - (_cmul(ra, tau_z) + rb))
    return from_residuals(
        "equivariance", res, tol, family=rho.family, n_samples=len(zs), seed=seed
    )


def _tau_at(tau: EquivariantMap, z: np.ndarray) -> np.ndarray:
    """tau at the points z, rounding as it does at one scalar point."""
    return _cmul(tau.p, z) + _cmul(tau.q, z.conj()) + tau.r
