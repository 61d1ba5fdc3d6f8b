"""Equivariant pairs (rho, tau) on the rigid-motion group.

An endomorphism rho of the group pairs with a plane map tau satisfying
tau(g.z) = rho(g).tau(z).  Built-in families: identity, conjugation by a
fixed element h, entrywise complex conjugation, separated products of a
circle endomorphism and an additive map, and user-supplied callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import GroupElement, _abs, _cmul, _l1, compose_ab, random_ab
from .reports import CheckReport, from_residuals

HOM_TOL = 1e-9
FIXED_POINT_TOL = 1e-9


def _unit_samples(rng: np.random.Generator, n_equi: int = 64, n_rand: int = 32) -> np.ndarray:
    angles = np.concatenate(
        [2 * np.pi * np.arange(n_equi) / n_equi, rng.uniform(0, 2 * np.pi, n_rand)]
    )
    return np.exp(1j * angles)


# ---------------------------------------------------------------------------
# Separated-map descriptors: rho([a,b]) = [rho_tilde(a), tau_tilde(b)].

# They take numbers or arrays and round as scalar complex arithmetic does.

def _cpow(a, n: int):
    """a**n for an integer n by binary powering, as scalar complex ``**`` does for 0 <= n <= 100."""
    if n < 0:
        return 1 / _cpow(a, -n)
    r = np.ones_like(a)
    while n:
        if n & 1:
            r = _cmul(r, a)
        a, n = _cmul(a, a), n >> 1
    return r


def _rho_tilde_fn(desc: dict) -> Callable:
    kind = desc["kind"]
    if kind == "conjugate":
        return np.conj
    if kind == "power":
        n = int(desc["n"])
        return lambda a: _cpow(a, n)
    raise ValueError(f"unknown circle-map kind {kind!r}")


def _tau_tilde_fn(desc: dict) -> Callable:
    kind = desc["kind"]
    if kind == "conjugate":
        return np.conj
    if kind == "linear":
        c = desc["c"]
        c = complex(*c) if isinstance(c, (list, tuple)) else complex(c)
        return lambda b: _cmul(c, b)
    raise ValueError(f"unknown additive-map kind {kind!r}")


@dataclass
class Endomorphism:
    """A group endomorphism, tagged with the family it belongs to."""

    family: str  # identity | conjugation | complex_conjugate | separated | custom
    h: Optional[GroupElement] = None
    rho_tilde: Optional[dict] = None
    tau_tilde: Optional[dict] = None
    func: Optional[Callable[[GroupElement], GroupElement]] = None

    def __post_init__(self):
        if self.family == "conjugation" and self.h is None:
            raise ValueError("conjugation family needs the conjugating element h")
        if self.family == "separated" and (self.rho_tilde is None or self.tau_tilde is None):
            raise ValueError("separated family needs rho_tilde and tau_tilde descriptors")
        if self.family == "custom":
            if self.func is None:
                raise ValueError("custom family needs a callable")
            rep = homomorphism_report(self)
            if not rep.passed:
                raise ValueError(
                    f"custom map is not an endomorphism: residual {rep.max_residual:.2e}"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "Endomorphism":
        fam = d["family"]
        if fam == "conjugation":
            return cls("conjugation", h=GroupElement.from_dict(d["h"]))
        if fam == "separated":
            return cls("separated", rho_tilde=d["rho_tilde"], tau_tilde=d["tau_tilde"])
        if fam in ("identity", "complex_conjugate"):
            return cls(fam)
        raise ValueError(f"unknown endomorphism family {fam!r}")

    def to_dict(self) -> dict:
        d: dict = {"family": self.family}
        if self.family == "conjugation":
            d["h"] = self.h.to_dict()
        elif self.family == "separated":
            d["rho_tilde"] = self.rho_tilde
            d["tau_tilde"] = self.tau_tilde
        return d


def apply_endo_ab(rho: Endomorphism, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho([a, b]) for 1-d arrays a and b of equal length, as the arrays of its a and b.

    The built-in families round as scalar complex arithmetic does; the custom
    family calls ``rho.func`` once per element.
    """
    if rho.family == "identity":
        return a, b
    if rho.family == "conjugation":
        # h [a,b] h^{-1} = [a, (1-a) beta_h + b alpha_h]
        return a, _cmul(1 - a, rho.h.b) + _cmul(b, rho.h.a)
    if rho.family == "complex_conjugate":
        return np.conj(a), np.conj(b)
    if rho.family == "separated":
        return _rho_tilde_fn(rho.rho_tilde)(a), _tau_tilde_fn(rho.tau_tilde)(b)
    if rho.family == "custom":
        images = [rho.func(GroupElement(*g)) for g in zip(a.tolist(), b.tolist())]
        return np.array([g.a for g in images], complex), np.array([g.b for g in images], complex)
    raise ValueError(f"unknown endomorphism family {rho.family!r}")


def apply_endo(rho: Endomorphism, g: GroupElement) -> GroupElement:
    """Evaluate rho(g)."""
    (a,), (b,) = apply_endo_ab(rho, np.array([g.a]), np.array([g.b]))
    return GroupElement(a, b)


def homomorphism_report(
    rho: Endomorphism, n_pairs: int = 128, seed: int = 0, tol: float = HOM_TOL
) -> CheckReport:
    """Residual of rho(gh) = rho(g) rho(h) over random pairs."""
    rng = np.random.default_rng(seed)
    g, h = random_ab(rng, n_pairs), random_ab(rng, n_pairs)
    lhs = apply_endo_ab(rho, *compose_ab(*g, *h))
    rhs = compose_ab(*apply_endo_ab(rho, *g), *apply_endo_ab(rho, *h))
    res = _l1(np.stack(lhs, -1), np.stack(rhs, -1))
    return from_residuals("endomorphism_homomorphism", res, tol, family=rho.family, n_pairs=n_pairs)


@dataclass
class FixedPointSet:
    """The set of points fixed by every rho([a,0]): plane, one point, or empty."""

    kind: str  # all_of_plane | single_point | empty
    beta: Optional[complex] = None

    def contains(self, beta: complex, tol: float = FIXED_POINT_TOL) -> bool:
        if self.kind == "all_of_plane":
            return True
        if self.kind == "single_point":
            return abs(beta - self.beta) <= tol
        return False


def xi_rho(rho: Endomorphism) -> FixedPointSet:
    """Common fixed points of the image of the rotation subgroup under rho.

    Samples a over the circle; rho([a,0]) = [phi_a, psi_a] fixes beta iff
    phi_a beta + psi_a = beta.  The answer is the whole plane, one point, or
    nothing.
    """
    a = _unit_samples(np.random.default_rng(0))
    ga, gb = apply_endo_ab(rho, a, np.zeros_like(a))
    rotating = (_abs(ga - 1) > FIXED_POINT_TOL).nonzero()[0]
    if not rotating.size:
        if (_abs(gb) <= FIXED_POINT_TOL).all():
            return FixedPointSet("all_of_plane")
        return FixedPointSet("empty")
    betas = gb[rotating] / (1 - ga[rotating])
    beta = complex(gb[rotating[0]]) / (1 - complex(ga[rotating[0]]))
    if (_abs(betas[1:] - beta) > FIXED_POINT_TOL).any():
        raise ValueError("inconsistent fixed points across rotation samples")
    # the remaining (non-rotating) images must also fix beta
    if (_abs(_cmul(ga, beta) + gb - beta) > FIXED_POINT_TOL).any():
        return FixedPointSet("empty")
    return FixedPointSet("single_point", beta)


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

    def __call__(self, z):
        return self.p * z + self.q * z.conjugate() + self.r


def tau_from_beta(rho: Endomorphism, beta: complex) -> EquivariantMap:
    """The canonical compatible map z -> rho([1,z]).beta.

    Requires beta to lie in the fixed-point set of rho; outside it the
    construction is not equivariant.
    """
    if not xi_rho(rho).contains(beta):
        raise ValueError(f"beta={beta} is not a common fixed point of the rotation image")
    # rho([1, z]) = [1, psi(z)]: conjugating translations by rotations forces the
    # rotation part to be a rotation-invariant character of C, i.e. 1, and psi
    # is additive, so (being continuous) R-linear: psi(z) = p z + q zbar with
    # psi(1) = p + q and psi(i) = i (p - q).
    s1, si = apply_endo_ab(rho, np.ones(2, complex), np.array([1.0, 1j]))[1].tolist()
    return EquivariantMap((s1 - 1j * si) / 2, (s1 + 1j * si) / 2, beta)


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
    res = _abs(_tau_at(tau, _cmul(a, zs) + b) - (_cmul(ra, _tau_at(tau, zs)) + rb))
    return from_residuals(
        "equivariance", res, tol, family=rho.family, n_samples=len(zs), seed=seed
    )


def _tau_at(tau: EquivariantMap, z: np.ndarray) -> np.ndarray:
    """tau at the points z, rounding as it does at one scalar point."""
    return _cmul(tau.p, z) + _cmul(tau.q, z.conj()) + tau.r


def classify_separated(
    rho_tilde: dict, tau_tilde: dict, n_samples: int = 200, seed: int = 0, tol: float = 1e-9
) -> dict:
    """Decide which compatibility case a separated pair falls into.

    Case 1: rho_tilde is a nontrivial circle endomorphism and
    tau_tilde(ab+c) = rho_tilde(a) tau_tilde(b) + tau_tilde(c); the compatible
    map is tau = tau_tilde itself.  Case 2: rho_tilde is trivial and tau_tilde
    is equivariant-additive, tau_tilde(ab+c) = tau_tilde(b) + tau_tilde(c);
    compatible maps are tau_tilde + beta for any beta.  Otherwise: neither,
    with a violating sample reported.
    """
    rt = _rho_tilde_fn(rho_tilde)
    tt = _tau_tilde_fn(tau_tilde)
    rng = np.random.default_rng(seed)
    a_s = np.exp(1j * rng.uniform(0, 2 * np.pi, n_samples))
    b_s = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    c_s = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    # deterministic probe: a = i, b = 1, c = 0
    a_s = np.append(a_s, 1j)
    b_s = np.append(b_s, 1.0)
    c_s = np.append(c_s, 0.0)

    trivial = all(abs(rt(a) - 1) <= tol for a in a_s)
    worst = (0.0, None)
    for a, b, c in zip(a_s, b_s, c_s):
        factor = 1.0 if trivial else rt(a)
        r = abs(tt(a * b + c) - (factor * tt(b) + tt(c)))
        if r > worst[0]:
            worst = (r, (complex(a), complex(b), complex(c)))
    case = ("case_2" if trivial else "case_1") if worst[0] <= tol else "neither"
    out = {"case": case, "rho_tilde_trivial": trivial, "max_residual": worst[0]}
    if case == "neither" and worst[1] is not None:
        a, b, c = worst[1]
        out["violating_sample"] = {
            "a": [a.real, a.imag], "b": [b.real, b.imag], "c": [c.real, c.imag]
        }
    return out
