"""Automorphic factors, pseudo-characters, and the cocycle machinery.

The elementary factor is j^alpha(g, z) = exp(-i alpha Im<z, g^{-1}.0>) with
the hermitian pairing <z, w> = z wbar.  The mixed factor multiplies two such
factors with a pseudo-character chi on a discrete subgroup.  chi extends from
generator values by the twisted multiplicativity

    chi(g g') = chi(g) chi(g') exp(+i phase(g, g')),

equivalently chi(g g') / (chi(g) chi(g')) is the conjugate of the cocycle
defect of the chi-free factor; well-definedness of the extension is exactly
the quantization condition checked by ``rdq_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivariant import Endomorphism, EquivariantMap, apply_endo
from .fields import Grid, ScalarField
from .groups import DiscreteSubgroup, GroupElement, WordClosure, act, compose, inverse
from .reports import CheckReport, from_residuals

MATCH_TOL = 1e-9


class UnknownGroupElementError(ValueError):
    """Raised when an element is not reachable in the subgroup's word closure."""


def j_factor(alpha: float, g: GroupElement, z: complex) -> complex:
    """exp(-i alpha Im(z * conj(g^{-1}.0)))."""
    w = act(inverse(g), 0.0)
    return np.exp(-1j * alpha * (z * w.conjugate()).imag)


def phase(nu: float, mu: float, rho: Endomorphism, g: GroupElement, gp: GroupElement) -> float:
    """Im(nu <g^{-1}.0, g'.0> + mu <rho(g^{-1}).0, rho(g').0>)."""
    u = act(inverse(g), 0.0)
    v = act(gp, 0.0)
    val = nu * (u * v.conjugate()).imag
    if mu != 0.0:
        ru = act(apply_endo(rho, inverse(g)), 0.0)
        rv = act(apply_endo(rho, gp), 0.0)
        val += mu * (ru * rv.conjugate()).imag
    return float(val)


@dataclass
class PseudoCharacter:
    """Unit-circle values on the generators of a discrete subgroup."""

    values_on_generators: list[complex]

    def __post_init__(self):
        vals = [complex(v) for v in self.values_on_generators]
        for v in vals:
            if abs(abs(v) - 1.0) > 1e-12:
                raise ValueError(f"pseudo-character value {v} is not unimodular")
        self.values_on_generators = vals

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoCharacter":
        return cls([complex(*v) for v in d["values_on_generators"]])

    def to_dict(self) -> dict:
        return {"values_on_generators": [[v.real, v.imag] for v in self.values_on_generators]}


class CharacterTable:
    """chi extended over the word closure of a subgroup, with consistency audit.

    Each edge w -> w g of the breadth-first closure carries chi along by
    twisted multiplicativity; an edge that reaches an element already in the
    table records the mismatch of the two chi values in ``inconsistency``.
    """

    def __init__(
        self,
        chi: PseudoCharacter,
        gamma: DiscreteSubgroup,
        nu: float,
        mu: float,
        rho: Endomorphism,
        max_len: int = 8,
    ):
        if len(chi.values_on_generators) != len(gamma.generators):
            raise ValueError("chi must supply one value per generator")
        self.closure = WordClosure(gamma, MATCH_TOL)
        gens = [g for _, g in self.closure.gens]
        steps = []
        for i, v in enumerate(chi.values_on_generators):
            g, ginv = gens[2 * i], gens[2 * i + 1]
            # chi(e) = 1 forces chi(g^{-1}) = conj(chi(g)) e^{-i phase(g, g^{-1})}
            steps += [v, v.conjugate() * np.exp(-1j * phase(nu, mu, rho, g, ginv))]
        self.values: list[complex] = [1.0 + 0j]
        self.inconsistency = 0.0
        for src, slot, dst, new in self.closure.edges(max_len):
            w = self.closure.elements[src]
            cval = self.values[src] * steps[slot] * np.exp(1j * phase(nu, mu, rho, w, gens[slot]))
            if new:
                self.values.append(cval)
            else:
                self.inconsistency = max(self.inconsistency, abs(cval - self.values[dst]))

    @property
    def entries(self) -> list[tuple[GroupElement, complex, list[int]]]:
        return list(zip(self.closure.elements, self.values, self.closure.words))

    def _index(self, g: GroupElement) -> int:
        hit = self.closure.lookup(g.a, g.b)
        if hit is None:
            raise UnknownGroupElementError(f"element {g} not in word closure of the subgroup")
        return hit

    def value(self, g: GroupElement) -> complex:
        return self.values[self._index(g)]

    def word(self, g: GroupElement) -> list[int]:
        return self.closure.words[self._index(g)]


def mixed_factor_nochi(
    nu: float,
    mu: float,
    rho: Endomorphism,
    tau: EquivariantMap,
    g: GroupElement,
    z: complex,
) -> complex:
    """j^nu(g, z) j^mu(rho(g), tau(z)) — the character-free part, defined for all g."""
    return j_factor(nu, g, z) * j_factor(mu, apply_endo(rho, g), tau(z))


def mixed_factor(
    nu: float,
    mu: float,
    rho: Endomorphism,
    tau: EquivariantMap,
    table: CharacterTable,
    gamma_elem: GroupElement,
    z: complex,
) -> complex:
    """chi(gamma) j^nu(gamma, z) j^mu(rho(gamma), tau(z))."""
    return table.value(gamma_elem) * mixed_factor_nochi(nu, mu, rho, tau, gamma_elem, z)


def cocycle_defect(
    nu: float,
    mu: float,
    rho: Endomorphism,
    tau: EquivariantMap,
    g: GroupElement,
    gp: GroupElement,
    z: complex,
) -> complex:
    """J0(g g', z) / (J0(g, g'.z) J0(g', z)) for the character-free factor J0.

    A z-independent unit complex; equals exp(-i phase(g, g')).
    """
    num = mixed_factor_nochi(nu, mu, rho, tau, compose(g, gp), z)
    den = mixed_factor_nochi(nu, mu, rho, tau, g, act(gp, z)) * mixed_factor_nochi(
        nu, mu, rho, tau, gp, z
    )
    return num / den


def defect_phase_residuals(
    nu: float,
    mu: float,
    rho: Endomorphism,
    tau: EquivariantMap,
    g: GroupElement,
    gp: GroupElement,
    grid: Grid,
) -> tuple[float, float]:
    """(z-spread of the defect, deviation of the defect from exp(-i phase))."""
    vals = np.array([cocycle_defect(nu, mu, rho, tau, g, gp, z) for z in grid.points()])
    spread = float(np.abs(vals - vals[0]).max())
    target = np.exp(-1j * phase(nu, mu, rho, g, gp))
    return spread, float(np.abs(vals - target).max())


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex product by the textbook formula, rounding as scalar complex arithmetic does."""
    return x.real * y.real - x.imag * y.imag + 1j * (x.real * y.imag + x.imag * y.real)


def _im_conj_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Im(u_i conj(v_j)) for all i, j, rounding as the scalar product does."""
    return u.real[:, None] * -v.imag[None, :] + u.imag[:, None] * v.real[None, :]


def rdq_check(
    nu: float,
    mu: float,
    rho: Endomorphism,
    gamma: DiscreteSubgroup,
    chi: PseudoCharacter,
    max_word_len: int = 4,
    tol: float = 1e-10,
) -> CheckReport:
    """Quantization condition: chi(g g') = chi(g) chi(g') exp(+i phase(g, g')).

    Checked over all pairs of words up to ``max_word_len`` as one array
    sweep; the report names the first worst-offending pair (row-major, left
    word outer) by signed generator indices.
    """
    table = CharacterTable(chi, gamma, nu, mu, rho, max_len=2 * max_word_len)
    closure = table.closure
    # entries are in BFS order, so the words up to max_word_len are a prefix
    n = sum(len(w) <= max_word_len for w in closure.words)
    short = closure.elements[:n]
    # the entry of g_i g_j: walk the right word's generators from g_i through
    # the closure's edges; a last column that stays put pads shorter words
    succ = np.column_stack([np.array(closure.succ), np.arange(len(closure.succ))])
    slots = np.full((n, max_word_len), -1)
    for j, word in enumerate(closure.words[:n]):
        slots[j, : len(word)] = [2 * abs(i) - 2 + (i < 0) for i in word]
    hit = np.repeat(np.arange(n)[:, None], n, axis=1)
    for step in range(max_word_len):
        hit = succ[hit, slots[:, step]]
    # phase(g_i, g_j) = nu Im(u_i conj v_j) + mu Im(ru_i conj rv_j), u = g^{-1}.0, v = g.0
    u = np.array([act(inverse(g), 0.0) for g in short])
    v = np.array([act(g, 0.0) for g in short])
    ph = nu * _im_conj_outer(u, v)
    if mu != 0.0:
        ru = np.array([act(apply_endo(rho, inverse(g)), 0.0) for g in short])
        rv = np.array([act(apply_endo(rho, g), 0.0) for g in short])
        ph += mu * _im_conj_outer(ru, rv)
    vals = np.array(table.values, dtype=complex)
    pred = _cmul(_cmul(vals[:n, None], vals[None, :n]), np.exp(1j * ph))
    diff = vals[hit] - pred
    residuals = np.hypot(diff.real, diff.imag).ravel()
    i, j = divmod(int(np.argmax(residuals)), n)
    words = closure.words
    return from_residuals(
        "rdq",
        residuals,
        tol,
        max_word_len=max_word_len,
        convention="chi(gg') = chi(g) chi(g') exp(+i*phase(g,g'))",
        extension_inconsistency=table.inconsistency,
        worst_pair={"left": words[i], "right": words[j]},
    )


def functional_equation_residual(
    F: ScalarField,
    nu: float,
    mu: float,
    rho: Endomorphism,
    tau: EquivariantMap,
    table: CharacterTable,
    gamma_elem: GroupElement,
    grid: Grid,
    tol: float = 1e-8,
) -> CheckReport:
    """Residual of F(gamma.z) = J(gamma, z) F(z) over the grid."""
    res = []
    for z in grid.points():
        J = mixed_factor(nu, mu, rho, tau, table, gamma_elem, z)
        res.append(abs(F(act(gamma_elem, z)) - J * F(z)))
    return from_residuals(
        "functional_equation", res, tol, gamma=gamma_elem.to_dict(), grid=grid.to_dict()
    )
