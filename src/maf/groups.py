"""The rigid-motion group U(1) x| C: elements, words, discrete subgroups.

An element [a, b] with |a| = 1 acts on the plane by z -> a z + b and
multiplies like the 2x2 matrices [[a, b], [0, 1]].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

UNIT_TOL = 1e-12
DEDUP_TOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """A rigid motion [a, b] of the plane, a on the unit circle."""

    a: complex
    b: complex

    def __post_init__(self):
        if abs(abs(self.a) - 1.0) > UNIT_TOL:
            raise ValueError(f"rotation part must be unimodular, got |a|={abs(self.a)!r}")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def to_dict(self) -> dict:
        return {"a": [self.a.real, self.a.imag], "b": [self.b.real, self.b.imag]}

    @classmethod
    def from_dict(cls, d: dict) -> "GroupElement":
        return cls(complex(*d["a"]), complex(*d["b"]))


IDENTITY = GroupElement(1.0, 0.0)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g*h.  The rotation part is renormalized to kill drift."""
    a = g.a * h.a
    a /= abs(a)
    return GroupElement(a, g.a * h.b + g.b)


def inverse(g: GroupElement) -> GroupElement:
    abar = g.a.conjugate()
    return GroupElement(abar / abs(abar), -abar * g.b)


def act(g: GroupElement, z: complex) -> complex:
    return g.a * z + g.b


def distance(g: GroupElement, h: GroupElement) -> float:
    return abs(g.a - h.a) + abs(g.b - h.b)


def is_identity(g: GroupElement, tol: float = DEDUP_TOL) -> bool:
    return abs(g.a - 1.0) + abs(g.b) <= tol


def stabilizer_residual(g: GroupElement, x: complex) -> float:
    """|g.x - x|: zero exactly when g stabilizes x."""
    return abs(act(g, x) - x)


@dataclass
class DiscreteSubgroup:
    """Finitely generated subgroup given by its generators."""

    generators: list[GroupElement]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.labels:
            self.labels = [f"g{i}" for i in range(len(self.generators))]
        if len(self.labels) != len(self.generators):
            raise ValueError("labels and generators must have equal length")
        self._discreteness_smoke_test()

    def _discreteness_smoke_test(self, max_len: int = 3):
        for w in enumerate_words(self, max_len):
            d = abs(w.a - 1.0) + abs(w.b)
            if 1e-12 < d < 1e-9:
                raise ValueError(
                    f"generator set fails discreteness smoke test: word at distance {d:.2e} from identity"
                )

    def symmetric_generators(self) -> list[tuple[int, GroupElement]]:
        """Generators and their inverses, tagged with signed indices (1-based)."""
        out = []
        for i, g in enumerate(self.generators):
            out.append((i + 1, g))
            out.append((-(i + 1), inverse(g)))
        return out


class WordClosure:
    """Words in the generators and their inverses, grown breadth-first.

    Entry i holds ``elements[i]`` and its signed word ``words[i]``; entry 0 is
    the identity.  Word length L + 1 is one pass of (entries of length L) x
    ``symmetric_generators()``; a product within ``tol`` of an earlier entry
    is a repeat, not a new entry.  ``succ[i][slot]`` is the entry of
    ``elements[i] * gens[slot]`` once entry i has been expanded, else -1.

    Matches go through a hash of (a, b) floored to cells of side
    ``max(CELL, 4 tol)``, centred on multiples of the side so that lattice
    coordinates sit mid-cell.  A lookup probes every cell within 2 tol, so a
    point near a cell edge also finds its neighbour's entries, and the
    first-inserted entry within ``tol`` wins.
    """

    CELL = 1e-6

    def __init__(self, gamma: DiscreteSubgroup, tol: float = DEDUP_TOL):
        self.tol = tol
        self.gens = gamma.symmetric_generators()
        self.elements: list[GroupElement] = []
        self.words: list[list[int]] = []
        self.succ: list[list[int]] = []
        self._cell = max(self.CELL, 4 * tol)
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._insert(IDENTITY, [])

    def _keys(self, a: complex, b: complex, r: float):
        """Keys of the cells that meet the box of half-side r around [a, b]."""
        coords = (a.real, a.imag, b.real, b.imag)
        lo = [math.floor((x - r) / self._cell + 0.5) for x in coords]
        hi = [math.floor((x + r) / self._cell + 0.5) for x in coords]
        return [tuple(lo)] if lo == hi else itertools.product(*map(range, lo, [h + 1 for h in hi]))

    def _insert(self, g: GroupElement, word: list[int]) -> int:
        (key,) = self._keys(g.a, g.b, 0.0)
        self._cells.setdefault(key, []).append(len(self.elements))
        self.elements.append(g)
        self.words.append(word)
        self.succ.append([-1] * len(self.gens))
        return len(self.elements) - 1

    def lookup(self, a: complex, b: complex) -> int | None:
        """Index of the first entry within ``tol`` of [a, b], or None."""
        best = None
        for key in self._keys(a, b, 2 * self.tol):
            for i in self._cells.get(key, ()):
                e = self.elements[i]
                if (best is None or i < best) and abs(e.a - a) + abs(e.b - b) <= self.tol:
                    best = i
        return best

    def edges(self, max_len: int) -> Iterator[tuple[int, int, int, bool]]:
        """Grow to words of length ``max_len``, yielding each edge as it is met.

        An edge is (source entry, generator slot, target entry, whether the
        target is new).
        """
        if max_len < 0:
            raise ValueError("max_len must be nonnegative")
        for length in range(max_len):
            for src in [i for i, w in enumerate(self.words) if len(w) == length]:
                for slot, (idx, g) in enumerate(self.gens):
                    cand = compose(self.elements[src], g)
                    dst = self.lookup(cand.a, cand.b)
                    new = dst is None
                    if new:
                        dst = self._insert(cand, self.words[src] + [idx])
                    self.succ[src][slot] = dst
                    yield src, slot, dst, new

    def grow(self, max_len: int) -> "WordClosure":
        for _ in self.edges(max_len):
            pass
        return self


def enumerate_words(
    gamma: DiscreteSubgroup, max_len: int, dedup_tol: float = DEDUP_TOL
) -> list[GroupElement]:
    """All products of at most max_len generators/inverses, deduplicated, shortest first."""
    return WordClosure(gamma, dedup_tol).grow(max_len).elements


def find_word(
    gamma: DiscreteSubgroup, target: GroupElement, max_len: int = 6, tol: float = 1e-9
) -> list[int] | None:
    """Signed generator indices of the first word within ``tol`` of target, or None.

    The closure grows only until the target appears.
    """
    if is_identity(target, tol):
        return []
    closure = WordClosure(gamma)
    for _, _, dst, new in closure.edges(max_len):
        if new and distance(closure.elements[dst], target) <= tol:
            return closure.words[dst]
    return None


def random_elements(rng: np.random.Generator, n: int) -> list[GroupElement]:
    """n rigid motions with uniform rotation angle and standard normal translation."""
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [GroupElement(ai, bi) for ai, bi in zip(a, b)]
