"""Automorphic factors, pseudo-characters, and the cocycle machinery.

The elementary factor is j^alpha(g, z) = exp(-i alpha Im<z, g^{-1}.0>) with
the hermitian pairing <z, w> = z wbar.  The mixed factor multiplies two such
factors with a pseudo-character chi on a discrete subgroup.  chi extends from
generator values by the twisted multiplicativity

    chi(g g') = chi(g) chi(g') exp(+i phase(g, g')),

equivalently chi(g g') / (chi(g) chi(g')) is the conjugate of the cocycle
defect of the chi-free factor; well-definedness of the extension is exactly
the quantization condition checked by ``rdq_check``.  chi is carried as its
phases theta = arg chi in [-pi, pi), added as reals; a mismatch Delta of two
phases is the distance |e^{i Delta} - 1| = 2 |sin(Delta / 2)| of their values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivariant import Endomorphism, apply_endo_ab
from .groups import DiscreteSubgroup, GroupElement, _cmul, inverse_ab, inverse_b
from .reports import CheckReport, from_residuals

TABLES_KEPT = 8  # character tables kept per word closure by ``character_table``


class UnknownGroupElementError(ValueError):
    """Raised when an element is not reachable in the subgroup's word closure."""


def j_factor(alpha: float, a, b, z):
    """exp(-i alpha Im(z * conj(g^{-1}.0))) for g = [a, b]; a and b broadcast against z."""
    w = inverse_b(a, b)
    return np.exp(-1j * alpha * (z * np.conj(w)).imag)


@dataclass
class PseudoCharacter:
    """Unit-circle values on the generators of a discrete subgroup."""

    values_on_generators: list[complex]

    def __post_init__(self):
        vals = [complex(v) for v in self.values_on_generators]
        for v in vals:
            if not abs(abs(v) - 1.0) <= 1e-12:  # NaN fails too
                raise ValueError(f"pseudo-character value {v} is not unimodular")
        self.values_on_generators = vals

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoCharacter":
        return cls([complex(*v) for v in d["values_on_generators"]])


class CharacterTable:
    """chi extended over the words up to ``max_len``, with consistency audit.

    The entries are the first ``len(values)`` of ``gamma.closure``, which the
    table grows to ``max_len``; words grown past that are not the table's.
    The phase ``theta`` of chi is carried by twisted multiplicativity along the
    edge w -> w g that made each entry (from ``parent`` by generator ``slot``),
    one word length at a time, reduced to [-pi, pi); ``values`` is e^{i theta}.
    Every other edge out of the shorter words reaches an entry, and the largest
    mismatch of the two chi values there is ``inconsistency``.  ``u``, ``ru`` and ``rv``
    hold g^{-1}.0, rho(g^{-1}).0 and rho(g).0 for every entry g (the last two only when
    mu != 0); g.0 is ``closure.b``.  Every array is read-only, as ``character_table``
    shares one table per input; the constructor builds a new one.
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
        self.max_len = max_len
        self.closure = closure = gamma.closure.grow(max_len)
        # chi(e) = 1 forces theta(g^{-1}) = -theta(g) - phase(g, g^{-1}), and phase(g, g^{-1})
        # is 0: it is the imaginary part of real products <g^{-1}.0, g^{-1}.0>
        arg = np.angle(np.array(chi.values_on_generators, complex))
        steps = np.stack([arg, -arg], -1).reshape(-1)  # per slot
        # the table's entries, and the expanded ones among them (all, once a finite group closes)
        n, m = closure.size(max_len), closure.size(max_len - 1)
        a, b = closure.a[:n], closure.b[:n]
        # phase(w, g) = nu Im(u_w conj v_g) + mu Im(ru_w conj rv_g), u = w^{-1}.0, v = g.0,
        # on the edges out of the expanded entries
        self.u = _cmul(-a.conj(), b)
        ph = nu * _im_conj_outer(self.u[:m], closure.slot_ab[:, 1])
        if mu != 0.0:
            # rho(g).0 is the b of rho(g)
            self.ru = apply_endo_ab(rho, *inverse_ab(a, b))[1]
            self.rv = apply_endo_ab(rho, a, b)[1]
            ph += mu * _im_conj_outer(self.ru[:m], apply_endo_ab(rho, *closure.slot_ab.T)[1])
        self.parent, self.slot = closure.parent[:n], closure.slot[:n]
        s, t = self.parent[1:], self.slot[1:]  # the edge that made entry i > 0, at i - 1
        edge_ph, edge_step = ph[s, t], steps[t]  # its terms, gathered once
        self.theta = theta = np.zeros(n)
        for lo, hi in zip(closure.offsets[1 : max_len + 1], closure.offsets[2 : max_len + 2]):
            e = slice(lo - 1, hi - 1)
            x = np.remainder(theta[s[e]] + edge_ph[e] + edge_step[e] + np.pi, 2 * np.pi) - np.pi
            theta[lo:hi] = np.where(x >= np.pi, -np.pi, x)  # the remainder may round up to 2 pi; a NaN stays NaN
        self.values = np.exp(1j * theta)
        delta = theta[:m, None] + ph + steps - theta[closure.succ[:m]]
        self.inconsistency = float(2 * np.abs(np.sin(delta / 2)).max(initial=0.0))
        for name in ("theta", "values", "u", "ru", "rv", "parent", "slot"):
            getattr(self, name, theta).setflags(write=False)  # no ru, rv when mu == 0

    @property
    def entries(self) -> list[tuple[GroupElement, complex, list[int]]]:
        closure, n = self.closure, len(self.values)
        elements = map(GroupElement, closure.a[:n].tolist(), closure.b[:n].tolist())
        return list(zip(elements, self.values, map(closure.word, range(n))))

    def indices(self, a, b) -> np.ndarray:
        """The entries of the elements [a, b], arrays of one shape, in one lookup in the closure."""
        flat_a, flat_b = np.ravel(a), np.ravel(b)
        hits = self.closure.lookup_all(flat_a, flat_b)
        unknown = (hits < 0) | (hits >= len(self.values))
        if unknown.any():
            x, y = flat_a[unknown.argmax()].item(), flat_b[unknown.argmax()].item()
            raise UnknownGroupElementError(f"element [{x}, {y}] not among the words of length <= {self.max_len}")
        return hits.reshape(np.shape(a))


def character_table(chi: PseudoCharacter, gamma: DiscreteSubgroup, nu: float, mu: float, rho: Endomorphism,
                    max_len: int = 8) -> CharacterTable:
    """The read-only ``CharacterTable`` of these arguments, kept in ``gamma.closure.tables`` per exact bits
    of chi on the generators, nu, mu, rho's (n, c, beta) and ``max_len``, least recently used out first."""
    key = (np.array([*chi.values_on_generators, nu, mu, rho.c, rho.beta], complex).tobytes(), rho.n, max_len)
    tables = gamma.closure.tables
    tables[key] = table = tables.pop(key, None) or CharacterTable(chi, gamma, nu, mu, rho, max_len)
    if len(tables) > TABLES_KEPT:
        del tables[next(iter(tables))]
    return table


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

    Checked over all pairs of words up to ``max_word_len`` in one rank-4 (rank 6 if mu != 0) contraction
    and one sine of the mismatches less their nearest multiples of 2 pi; the report names the first worst
    pair (row-major, left word outer; round-off's choice where all pass) by signed generator indices.
    chi is read from the table that ``character_table`` keeps, grown to 2 ``max_word_len``; the words are
    a prefix of ``gamma.closure``, which keeps their products.
    """
    table = character_table(chi, gamma, nu, mu, rho, max_len=2 * max_word_len)
    closure = table.closure
    # entries are in BFS order, so the words up to max_word_len are a prefix
    n = closure.size(max_word_len)
    if (hit := closure.products.get(max_word_len)) is None:
        # the entry of g_i g_j, kept on the closure: g_j is entry p times slot s for the entry p and
        # slot s that made it, so column j steps along the closure's edges from column p
        hit = np.arange(n)[:, None].repeat(n, 1)  # column 0, g_i e = g_i, is kept
        for lo, hi in zip(closure.offsets[1:], closure.offsets[2 : max_word_len + 2]):
            hit[:, lo:hi] = closure.succ[hit[:, table.parent[lo:hi]], table.slot[lo:hi]]
        hit.setflags(write=False)
        closure.products[max_word_len] = hit
    # |chi(g_i g_j) - chi(g_i) chi(g_j) e^{i phase}| = 2 |sin(delta / 2)|, delta = theta_ij - (theta_i + theta_j +
    # phase_ij), phase_ij = nu Im(u_i conj v_j) + mu Im(ru_i conj rv_j), u = g^{-1}.0, v = g.0: the parenthesis is
    # rows [theta, 1, nu u, mu ru] times columns [1, theta, i v, i rv], a complex entry as its two parts
    u, v, theta, ones = table.u[:n], closure.b[:n], table.theta[:n], np.ones(n)
    rows, cols = [theta, ones, nu * u.real, nu * u.imag], [ones, theta, -v.imag, v.real]
    if mu != 0.0:
        rows += [mu * table.ru[:n].real, mu * table.ru[:n].imag]
        cols += [-table.rv[:n].imag, table.rv[:n].real]
    half_sums = np.einsum("ki,kj->ij", 0.5 * np.array(rows), np.array(cols))  # halving is exact
    residuals = (0.5 * table.theta)[hit]
    residuals -= half_sums
    # |sin| has period pi: delta / 2 less its nearest multiple of pi is near 0 on a passing pair, all in place
    turns = np.rint(np.multiply(residuals, 1 / np.pi, out=half_sums), out=half_sums)
    residuals -= np.multiply(turns, np.pi, out=turns)
    np.abs(np.sin(residuals, out=residuals), out=residuals)
    residuals *= 2
    i, j = divmod(int(np.argmax(residuals)), n)
    return from_residuals(
        "rdq",
        residuals,
        tol,
        max_word_len=max_word_len,
        convention="chi(gg') = chi(g) chi(g') exp(+i*phase(g,g'))",
        extension_inconsistency=table.inconsistency,
        worst_pair={"left": closure.word(i), "right": closure.word(j)},
    )

