"""Equivariant pairs (rho, tau) on the rigid-motion group.

An endomorphism rho of the group pairs with a plane map tau satisfying
tau(g.z) = rho(g).tau(z).  Built-in families: identity, conjugation by a
fixed element h, entrywise complex conjugation, separated products of a
circle endomorphism and an additive map, and user-supplied callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import ScalarField
from .groups import GroupElement, act, compose, distance, random_elements
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

def _rho_tilde_fn(desc: dict) -> Callable[[complex], complex]:
    kind = desc["kind"]
    if kind == "conjugate":
        return lambda a: a.conjugate()
    if kind == "power":
        n = int(desc["n"])
        return lambda a: a**n
    raise ValueError(f"unknown circle-map kind {kind!r}")


def _tau_tilde_fn(desc: dict) -> Callable[[complex], complex]:
    kind = desc["kind"]
    if kind == "conjugate":
        return lambda b: b.conjugate()
    if kind == "linear":
        c = desc["c"]
        c = complex(*c) if isinstance(c, (list, tuple)) else complex(c)
        return lambda b: c * b
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


def apply_endo(rho: Endomorphism, g: GroupElement) -> GroupElement:
    """Evaluate rho(g)."""
    if rho.family == "identity":
        return g
    if rho.family == "conjugation":
        # h [a,b] h^{-1} = [a, (1-a) beta_h + b alpha_h]
        ah, bh = rho.h.a, rho.h.b
        return GroupElement(g.a, (1 - g.a) * bh + g.b * ah)
    if rho.family == "complex_conjugate":
        return GroupElement(g.a.conjugate(), g.b.conjugate())
    if rho.family == "separated":
        return GroupElement(_rho_tilde_fn(rho.rho_tilde)(g.a), _tau_tilde_fn(rho.tau_tilde)(g.b))
    if rho.family == "custom":
        return rho.func(g)
    raise ValueError(f"unknown endomorphism family {rho.family!r}")


def homomorphism_report(
    rho: Endomorphism, n_pairs: int = 128, seed: int = 0, tol: float = HOM_TOL
) -> CheckReport:
    """Residual of rho(gh) = rho(g) rho(h) over random pairs."""
    rng = np.random.default_rng(seed)
    # bypass the custom-family constructor check to avoid recursion
    apply_ = rho.func if rho.family == "custom" else (lambda g: apply_endo(rho, g))
    gs = random_elements(rng, n_pairs)
    hs = random_elements(rng, n_pairs)
    res = [
        distance(apply_(compose(g, h)), compose(apply_(g), apply_(h)))
        for g, h in zip(gs, hs)
    ]
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


def xi_rho(rho: Endomorphism, seed: int = 0) -> FixedPointSet:
    """Common fixed points of the image of the rotation subgroup under rho.

    Samples a over the circle; rho([a,0]) = [phi_a, psi_a] fixes beta iff
    phi_a beta + psi_a = beta.  The answer is the whole plane, one point, or
    nothing.
    """
    rng = np.random.default_rng(seed)
    images = [apply_endo(rho, GroupElement(a, 0.0)) for a in _unit_samples(rng)]
    rotating = [g for g in images if abs(g.a - 1) > FIXED_POINT_TOL]
    if not rotating:
        if all(abs(g.b) <= FIXED_POINT_TOL for g in images):
            return FixedPointSet("all_of_plane")
        return FixedPointSet("empty")
    betas = [g.b / (1 - g.a) for g in rotating]
    beta = betas[0]
    if any(abs(bt - beta) > FIXED_POINT_TOL for bt in betas[1:]):
        raise ValueError("inconsistent fixed points across rotation samples")
    # the remaining (non-rotating) images must also fix beta
    for g in images:
        if abs(act(g, beta) - beta) > FIXED_POINT_TOL:
            return FixedPointSet("empty")
    return FixedPointSet("single_point", beta)


@dataclass
class EquivariantMap:
    """The plane map tau of an equivariant pair.

    ``affine = (p, q, r)`` records tau(z) = p z + q zbar + r when tau has that
    closed form; downstream gauge and field computations exploit it.
    """

    tau: ScalarField
    provenance: dict = field(default_factory=dict)
    affine: Optional[tuple[complex, complex, complex]] = None

    def __call__(self, z: complex) -> complex:
        return self.tau(z)

    @classmethod
    def from_affine(cls, p: complex, q: complex, r: complex, provenance: dict | None = None) -> "EquivariantMap":
        p, q, r = complex(p), complex(q), complex(r)
        fld = ScalarField(
            func=lambda z: p * z + q * z.conjugate() + r,
            d_z=lambda z: p,
            d_zbar=lambda z: q,
            lap=lambda z: 0.0,
        )
        return cls(fld, provenance or {"kind": "affine"}, (p, q, r))


def tau_from_beta(rho: Endomorphism, beta: complex, seed: int = 0) -> EquivariantMap:
    """The canonical compatible map z -> rho([1,z]).beta.

    Requires beta to lie in the fixed-point set of rho; outside it the
    construction is not equivariant.
    """
    xi = xi_rho(rho, seed=seed)
    if not xi.contains(beta):
        raise ValueError(f"beta={beta} is not a common fixed point of the rotation image")
    prov = {"kind": "from_beta", "beta": [beta.real, beta.imag], "family": rho.family}
    # rho([1,z]) = [1, psi(z)] with psi linear in z (zbar) for the built-in
    # families, so tau is affine with exact derivatives.
    if rho.family == "identity":
        return EquivariantMap.from_affine(1.0, 0.0, beta, prov)
    if rho.family == "conjugation":
        return EquivariantMap.from_affine(rho.h.a, 0.0, beta, prov)
    if rho.family == "complex_conjugate":
        return EquivariantMap.from_affine(0.0, 1.0, beta, prov)
    if rho.family == "separated":
        tt = rho.tau_tilde["kind"]
        if tt == "conjugate":
            return EquivariantMap.from_affine(0.0, 1.0, beta, prov)
        c = rho.tau_tilde["c"]
        c = complex(*c) if isinstance(c, (list, tuple)) else complex(c)
        return EquivariantMap.from_affine(c, 0.0, beta, prov)
    fld = ScalarField(lambda z: act(apply_endo(rho, GroupElement(1.0, z)), beta))
    return EquivariantMap(fld, prov)


def check_equivariance(
    rho: Endomorphism,
    tau: EquivariantMap,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Residual of tau(g.z) = rho(g).tau(z) over sampled (g, z)."""
    rng = np.random.default_rng(seed)
    gs = random_elements(rng, n_samples)
    zs = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    # deterministic probes catch rotation-only failures at the origin
    gs += [GroupElement(1j, 0.0), GroupElement(-1.0, 0.0)]
    zs = np.append(zs, [0.0, 0.0])
    res = [
        abs(tau(act(g, z)) - act(apply_endo(rho, g), tau(z)))
        for g, z in zip(gs, zs)
    ]
    return from_residuals(
        "equivariance", res, tol, family=rho.family, n_samples=len(gs), seed=seed
    )


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
