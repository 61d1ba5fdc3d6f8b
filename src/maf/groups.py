"""The rigid-motion group U(1) x| C: elements, words, discrete subgroups.

An element [a, b] with |a| = 1 acts on the plane by z -> a z + b and
multiplies like the 2x2 matrices [[a, b], [0, 1]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .reports import element_dicts

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
        return element_dicts(([self.a], [self.b]))[0]

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
    """Finitely generated subgroup given by its generators.

    ``closure`` is its one word closure, at ``DEDUP_TOL``: the discreteness smoke
    test grows it to length 3; ``find_word``, ``enumerate_words`` and every
    ``CharacterTable`` grow it on and read a prefix.
    """

    generators: list[GroupElement]
    labels: list[str] = field(default_factory=list)
    closure: WordClosure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            self.labels = [f"g{i}" for i in range(len(self.generators))]
        if len(self.labels) != len(self.generators):
            raise ValueError("labels and generators must have equal length")
        if not np.isfinite([[g.a, g.b] for g in self.generators]).all():
            raise ValueError("generators must be finite")
        self.closure = WordClosure(self)
        self._discreteness_smoke_test()

    def _discreteness_smoke_test(self, max_len: int = 3):
        d = _l1(np.array([1, 0], complex), self.closure.grow(max_len).ab)
        close = d[(1e-12 < d) & (d < 1e-9)]
        if close.size:
            raise ValueError(
                f"generator set fails discreteness smoke test: word at distance {close[0]:.2e} from identity"
            )

    def symmetric_generators(self) -> list[tuple[int, GroupElement]]:
        """Generators and their inverses, tagged with signed indices (1-based)."""
        return [pair for i, g in enumerate(self.generators, 1) for pair in ((i, g), (-i, inverse(g)))]


def _l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``distance`` from x to y, elements as [a, b] on the last axis, rounding as it does."""
    h = _abs(y - x)
    return h[..., 0] + h[..., 1]


def _abs(x):
    """abs of complex numbers, rounding as the scalar abs does."""
    return np.hypot(x.real, x.imag)


def _cmul(x, y):
    """Complex product by the textbook formula, rounding as scalar complex arithmetic does."""
    return x.real * y.real - x.imag * y.imag + 1j * (x.real * y.imag + x.imag * y.real)


def _unit(x: np.ndarray) -> np.ndarray:
    """x / abs(x), rounding as the scalar quotient does."""
    r = _abs(x)
    return x.real / r + 1j * (x.imag / r)


def compose_ab(ga, gb, ha, hb) -> tuple[np.ndarray, np.ndarray]:
    """``compose`` on arrays: the a and b of g*h, rounding as it does."""
    return _unit(_cmul(ga, ha)), _cmul(ga, hb) + gb


def inverse_ab(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``inverse`` on arrays, rounding as it does; every |a| must be 1, as in ``GroupElement``."""
    abar = np.conj(a)
    if not abs(_abs(abar) - 1.0).max() <= UNIT_TOL:  # NaN fails too
        raise ValueError(f"rotation part must be unimodular, got |a| in {np.unique(_abs(abar))}")
    return _unit(abar), _cmul(-abar, b)


class WordClosure:
    """Words in the generators and their inverses, grown one word length at a time.

    Entry i is the element ``ab[i]`` = [a, b] with signed word ``words[i]``;
    entry 0 is the identity and ``offsets[L]:offsets[L + 1]`` are the words of
    length L.  A level composes every entry of the last length with each of
    ``symmetric_generators()``, source-major and slot-minor; a product within
    ``tol`` of an entry, or of a new product earlier in the level, is a repeat.
    ``succ[i, slot]`` is the entry of ``elements[i] * gens[slot]``, or -1 while
    entry i is not expanded; entry i > 0 was first reached as
    ``elements[parent[i]] * gens[slot[i]]`` (entry 0 has parent 0, slot 0).

    Matches go through a hash of (a, b) floored to cells of side
    ``max(CELL, 4 tol)``, centred on multiples of the side so that lattice
    coordinates sit mid-cell.  A product whose box of half-side 2 tol lies in
    its cell can only match there, so a stable sort of the hashes settles it
    against the first entry of the cell, confirmed by the distance; the others
    go through ``lookup``, which probes every cell within 2 tol.  Either way
    the first-inserted entry within ``tol`` wins.
    """

    CELL = 1e-6
    # cell coordinates are clipped to +-LIMIT, inside int64; the box corners of a
    # coordinate beyond it are clipped to two cells, so its product goes through lookup
    LIMIT = 2.0**52
    _CLIP = np.array([[-LIMIT, -LIMIT, 1 - LIMIT], [LIMIT, LIMIT - 1, LIMIT]])[:, :, None, None]
    _MIX = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 1], np.uint64)

    def __init__(self, gamma: DiscreteSubgroup, tol: float = DEDUP_TOL):
        self.tol = tol
        self.gens = gamma.symmetric_generators()
        # [a, b][ga, gb] = [a ga, a gb + b]: (re a, im a) dotted with each pair is the
        # textbook re(a ga), im(a ga), re(a gb), im(a gb)
        rows = [(g.a.real, -g.a.imag, g.a.imag, g.a.real, g.b.real, -g.b.imag, g.b.imag, g.b.real)
                for _, g in self.gens]
        self._g = np.array(rows).reshape(-1, 4, 2)
        cell = max(self.CELL, 4 * tol)
        self._scale = 1 / cell
        self._shift = np.array([0.5, 0.5 - 2 * tol / cell, 0.5 + 2 * tol / cell])[:, None, None]
        self.ab = np.array([[1, 0]], complex)
        self._keys = self._hash(self._cells(self.ab)[0])
        self.words: list[list[int]] = [[]]
        self.offsets = [0, 1]
        self.succ = np.full((1, len(self.gens)), -1)
        self.parent, self.slot = np.zeros(1, int), np.zeros(1, int)
        self._elements: list[GroupElement] = []
        self._index = None

    a = property(lambda self: self.ab[:, 0])
    b = property(lambda self: self.ab[:, 1])

    def elements_upto(self, n: int) -> list[GroupElement]:
        """The first n entries as elements, converted once and kept."""
        done = len(self._elements)
        self._elements += map(GroupElement, self.a[done:n].tolist(), self.b[done:n].tolist())
        return self._elements[:n]

    elements = property(lambda self: self.elements_upto(len(self.ab)))

    def _cells(self, ab: np.ndarray) -> np.ndarray:
        """Cells of the (k, 2) elements ab and of their box corners -+ 2 tol, stacked first."""
        cells = np.floor(ab.view(float) * self._scale + self._shift)
        np.minimum(cells, self._CLIP[1], out=cells)
        return np.maximum(cells, self._CLIP[0], out=cells).astype(np.int64)

    def _hash(self, cells: np.ndarray) -> np.ndarray:
        return cells.view(np.uint64) @ self._MIX

    def _sorted(self) -> tuple:
        """(sorted keys, entry of each, elements, live mask) of the entries and, while
        a level grows, of its products."""
        if self._index is None:
            order = self._keys.argsort(kind="stable")
            self._index = self._keys[order], order, self.ab, np.ones(len(order), bool)
        return self._index

    def lookup_all(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``lookup`` of every element [a[i], b[i]] of two 1-d arrays, -1 for None.

        One probe of the hash settles each element whose box lies in its cell
        and whose cell's first entry is within ``tol``; the rest go through ``lookup``.
        """
        keys, order, e, live = self._sorted()
        x = np.stack([np.asarray(a, complex), np.asarray(b, complex)], axis=-1)
        own, lo_corner, hi_corner = self._cells(x)
        # the first entry of the cell when it has one, else an entry of
        # another cell, which is not within tol of a box inside this cell
        first = order[np.minimum(keys.searchsorted(self._hash(own)), len(keys) - 1)]
        hit = (lo_corner == hi_corner).all(axis=1) & live[first] & (_l1(x, e[first]) <= self.tol)
        out = np.where(hit, first, -1)
        for k in (~hit).nonzero()[0]:
            found = self.lookup(*x[k])
            out[k] = -1 if found is None else found
        return out

    def lookup(self, a: complex, b: complex) -> int | None:
        """Index of the first entry within ``tol`` of [a, b], or None.

        While a level grows, the labels of its products that are new so far
        count as entries too.
        """
        keys, order, e, live = self._sorted()
        x = np.array([a, b], complex)
        _, lo, hi = self._cells(x[None])[:, 0]
        probe = self._hash(np.array(list(itertools.product(*map(range, lo, hi + 1)))))
        first, last = keys.searchsorted(probe), keys.searchsorted(probe, "right")
        near = np.concatenate([order[i:j] for i, j in zip(first, last)])
        near = near[live[near]]
        near = near[_l1(x, e[near]) <= self.tol]
        return int(near.min()) if near.size else None

    def levels(self, max_len: int) -> Iterator[int]:
        """Grow to words of length ``max_len``, yielding the first new entry of each
        level; stop early once a level adds nothing."""
        if max_len < 0:
            raise ValueError("max_len must be nonnegative")
        ns, tol = len(self.gens), self.tol
        while len(self.offsets) - 2 < max_len and self.offsets[-1] > self.offsets[-2]:
            lo, n = self.offsets[-2:]
            x = self.ab[lo:].view(float)
            prod = x[:, None, None, :2] * self._g
            c = np.add(prod[..., 0], prod[..., 1], order="C")
            c[..., 2:] += x[:, None, 2:]
            c[..., :2] /= np.hypot(c[..., :1], c[..., 1:2])
            # labels: entry i is i, product k is n + k; the stable sort puts the
            # lowest label of each cell first
            e = np.concatenate([self.ab, c.reshape(-1, 4).view(complex)])
            own, lo_corner, hi_corner = self._cells(e[n:])
            safe = (lo_corner == hi_corner).all(axis=1)
            keys = np.concatenate([self._keys, self._hash(own)])
            order = keys.argsort(kind="stable")
            sk = keys[order]
            dst = order[sk.searchsorted(keys[n:])]
            # an entry, or a safe product first in its cell (hence new), settles
            # the safe products of its cell within tol of it
            live = np.ones(len(e), bool)
            live[n:] = safe
            fast = safe & live[dst] & (_l1(e[n:], e[dst]) <= tol)
            live[n:] = fast & (dst == np.arange(n, len(e)))
            self._index = sk, order, e, live
            for k in (~fast).nonzero()[0]:
                hit = self.lookup(*e[n + k])
                dst[k] = n + k if hit is None else hit
                live[n + k] = hit is None
            keep = live.nonzero()[0]
            self.ab, self._keys = e[keep], keys[keep]
            parent, slot = np.divmod(keep[n:] - n + lo * ns, ns)
            self.words += [self.words[p] + [self.gens[k][0]] for p, k in zip(parent.tolist(), slot.tolist())]
            self.parent, self.slot = np.concatenate([self.parent, parent]), np.concatenate([self.slot, slot])
            self.succ[lo:] = keep.searchsorted(dst).reshape(n - lo, ns)
            self.succ = np.concatenate([self.succ, np.full((len(keep) - n, ns), -1)])
            self.offsets.append(len(keep))
            self._index = None
            yield n

    def grow(self, max_len: int) -> "WordClosure":
        for _ in self.levels(max_len):
            pass
        return self

    def size(self, max_len: int) -> int:
        """Number of entries of word length at most ``max_len``, as far as grown."""
        return self.offsets[min(max_len + 1, len(self.offsets) - 1)]


def enumerate_words(gamma: DiscreteSubgroup, max_len: int) -> list[GroupElement]:
    """All products of at most max_len generators/inverses, deduplicated, shortest first."""
    closure = gamma.closure.grow(max_len)
    return closure.elements_upto(closure.size(max_len))


def find_word(
    gamma: DiscreteSubgroup, target: GroupElement, max_len: int = 6, tol: float = 1e-9
) -> list[int] | None:
    """Signed generator indices of the first word within ``tol`` of target, or None.

    Searches ``gamma.closure``, grown on only until the target appears.
    """
    if is_identity(target, tol):
        return []
    closure, t = gamma.closure, np.array([target.a, target.b])
    # the levels grown so far, then each new level
    for lo in itertools.chain([1], closure.levels(max_len)):
        hit = (_l1(t, closure.ab[lo : closure.size(max_len)]) <= tol).nonzero()[0]
        if hit.size:
            return closure.words[lo + hit[0]]
    return None


def random_ab(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The a and b arrays of n rigid motions with uniform rotation angle and
    standard normal translation."""
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b

