"""The rigid-motion group U(1) x| C: elements, words, discrete subgroups.

An element [a, b] with |a| = 1 acts on the plane by z -> a z + b and
multiplies like the 2x2 matrices [[a, b], [0, 1]].  A discrete subgroup is
read once into its normal form Lambda x| C_q, where each element is an integer
triple (j mod q, m, n), so its word closure and membership are exact.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .reports import element_dicts

UNIT_TOL = 1e-12
NEAR_TOL = 1e-9  # elements closer than this, and not within UNIT_TOL, fail discreteness
MATCH_TOL = 1e-10  # how far ``lookup_all`` reads a float from its entry
MAX_ORDER = 1000  # of a rotation
MAX_COORD = 2**20  # of a generator on the lattice basis


@dataclass(frozen=True)
class GroupElement:
    """A rigid motion [a, b] of the plane, a on the unit circle."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        for name, part in (("rotation", self.a), ("translation", self.b)):
            if not cmath.isfinite(part):
                raise ValueError(f"{name} part must be finite, got {part!r}")
        if abs(abs(self.a) - 1.0) > UNIT_TOL:
            raise ValueError(f"rotation part must be unimodular, got |a|={abs(self.a)!r}")

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


@dataclass
class DiscreteSubgroup:
    """Finitely generated discrete subgroup, given by its generators, in normal form
    Lambda x| C_q: [zeta^j, (1 - zeta^j) c0 + m e1 + n e2] is the triple (j, m, n).

    ``normal_form`` holds q, c0 and the lattice basis; ``closure`` is the one word closure, which
    ``enumerate_words`` and every ``CharacterTable`` grow and read a prefix of.  Subgroups with
    bit-equal generators share both (``_read``, a memo of 16): grow a closure from one thread at a time.

    The normal form is found once, from the floats, the one step that uses a tolerance:
    - q: each a is within UNIT_TOL of a root of unity of order at most MAX_ORDER, else it
      is a rotation of infinite order; q is the lcm of their orders;
    - c0: the fixed point of a product of generators whose rotation generates C_q (of the
      first generator that rotates, when its order is q), 0 when none rotates;
    - Lambda: spanned by l_i = b_i - (1 - a_i) c0 and zeta l_i.  Translations with q not in
      {1, 2, 3, 4, 6} break the crystallographic restriction (rank 1 with q > 2 cannot
      occur, as zeta l_i joins l_i); a generator off the lattice or more than MAX_COORD
      basis vectors long means incommensurable translations; a translation within
      NEAR_TOL of another fails discreteness (``_settle``).  Each is a ValueError naming it.
    """

    generators: list[GroupElement]
    labels: list[str] = field(default_factory=list)
    normal_form: NormalForm = field(init=False, repr=False, compare=False)
    closure: WordClosure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            self.labels = [f"g{i}" for i in range(len(self.generators))]
        if len(self.labels) != len(self.generators):
            raise ValueError("labels and generators must have equal length")
        ab = np.array([[g.a, g.b] for g in self.generators], complex)
        self.normal_form, self._slots, shared = _read(ab.tobytes())
        if not shared:  # the first subgroup of these generators makes the closure they all share
            shared.append(WordClosure(self))
        self.closure = shared[0]

    def contains(self, a, b) -> np.ndarray:
        """Whether each [a[i], b[i]] of two 1-d arrays is within NEAR_TOL max(1, |b[i]|) of an element."""
        a, b, nf = np.asarray(a, complex), np.asarray(b, complex), self.normal_form
        j, mn = nf.read(a, b)
        zj = np.exp(2j * np.pi / nf.q * j)
        near = _abs(a - zj) + _abs(b - (1 - zj) * nf.c0 - mn[:, 0] * nf.basis[0] - mn[:, 1] * nf.basis[1])
        return np.isfinite(b) & (near <= NEAR_TOL * np.maximum(1.0, _abs(b)))


class NormalForm:
    """Coordinates on Lambda x| C_q: [zeta^j, (1 - zeta^j) c0 + m e1 + n e2] is (j, m, n).

    zeta = e^{2 pi i / q}, c0 is a centre of rotation by zeta, and ``basis`` (e1, e2) is a
    reduced basis of the zeta-stable lattice Lambda of rank ``rank``, completed by i e1 at
    rank 1 and by (1, i) at rank 0, along which no element lies.
    """

    def __init__(self, q: int, c0: complex, basis: tuple[complex, complex], rank: int):
        self.q, self.c0, self.basis, self.rank = q, c0, basis, rank
        # x = Im(conj(v) f1), y = Im(conj(v) f2) for the dual basis f; no element lies
        # along the completing directions, so their coordinate is 0
        e1, e2 = basis
        det = (e1.conjugate() * e2).imag
        self._dual = np.array([e2 / det * (rank > 0), -e1 / det * (rank > 1)])

    def coords(self, v):
        """The real (x, y) with v = x e1 + y e2 (0 past the rank), on a last axis, for a
        complex or an array of them."""
        return (np.conj(v)[..., None] * self._dual).imag

    def read(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nearest triple to each [a[i], b[i]] of two 1-d arrays, by rounding one 2x2 solve:
        j and (m, n) as floats, or (0, 2^62, 2^62), far from any word, where a or b is not finite."""
        with np.errstate(invalid="ignore", over="ignore"):
            j = np.rint(np.arctan2(a.imag, a.real) * (self.q / (2 * np.pi))) % self.q
            mn = np.rint(self.coords(b - (1 - np.exp(2j * np.pi / self.q * j)) * self.c0))
        ok = np.isfinite(mn).all(-1)
        return np.where(ok, j, 0), np.where(ok[:, None], mn, 2.0**62)


@functools.lru_cache(maxsize=16)  # subgroups kept, the least recently used dropped first
def _read(key: bytes) -> tuple[NormalForm, tuple, list]:
    """The normal form and slots of the generators whose [a, b] have the bytes ``key``, exact bits
    that tell 1 ulp or the sign of a zero apart, and a list for the closure their first subgroup makes."""
    gens = [GroupElement(a, b) for a, b in np.frombuffer(key, complex).reshape(-1, 2).tolist()]
    turns = [_turns(i, g.a) for i, g in enumerate(gens)]
    q = math.lcm(*(d for _, d in turns))
    g, r = IDENTITY, 0
    for gen, (p, d) in zip(gens, turns):
        j = p * (q // d)
        e = next(e for e in range(q) if math.gcd(r + e * j, q) == math.gcd(r, j, q))
        for _ in range(e):
            g = compose(g, gen)
        r += e * j
    c0 = g.b / (1 - g.a) if q > 1 else 0j
    lams = [_settle(g.b - (1 - g.a) * c0, max(1.0, abs(g.b))) for g in gens]
    if any(lams) and q not in (1, 2, 3, 4, 6):
        raise ValueError(f"rotations of order {q} and translations generate no lattice: "
                         "a lattice admits rotations of order 1, 2, 3, 4 or 6 only")
    zeta = _turn(1 / q)
    basis = _reduce([v for lam in lams if lam for v in ((lam, zeta * lam) if q > 2 else (lam,))])
    e1, e2 = (basis + [1j * basis[0]] if basis else [1, 1j])[:2]
    nf = NormalForm(q, c0, (e1, e2), len(basis))
    # each generator's (j, l) and its inverse's (-j, -zeta^-j l), l on the lattice
    slots = []
    for i, ((p, d), lam, (x, y)) in enumerate(zip(turns, lams, nf.coords(np.array(lams, complex)).tolist())):
        m, n = round(x), round(y)
        if abs(lam - m * e1 - n * e2) > 1e-6 * abs(e1) or max(abs(m), abs(n)) > MAX_COORD:
            raise ValueError(f"incommensurable translations: generator {i} is on no lattice they span")
        j = p * (q // d) % q
        slots += [(j, m * e1 + n * e2), (-j % q, -(zeta ** -j) * (m * e1 + n * e2))]
    return nf, tuple(slots), []


def _turns(i: int, a: complex) -> tuple[int, int]:
    """(p, d) with a = e^{2 pi i p / d} and d the least order, for generator i."""
    t = math.atan2(a.imag, a.real) / (2 * math.pi)
    d = next((d for d in range(1, MAX_ORDER + 1) if abs(d * t - round(d * t)) <= d * NEAR_TOL), None)
    if d is None:
        raise ValueError(f"generator {i} is a rotation of infinite order: a = {a} is no root of unity")
    if (err := abs(a - _turn(round(d * t) / d))) > UNIT_TOL:
        raise ValueError(f"generators nearly coincide: generator {i} is {err:.2e} off a rotation of finite order")
    return round(d * t), d


def _turn(t: float) -> complex:
    """e^{2 pi i t}."""
    return complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))


def _settle(v: complex, scale: float) -> complex:
    """v, or 0 where it is round-off of quantities of size ``scale``; a nonzero v within
    NEAR_TOL of 0 (relative below size 1) fails discreteness."""
    if abs(v) <= UNIT_TOL * max(1.0, scale):
        return 0j
    if abs(v) <= NEAR_TOL * min(1.0, scale):
        raise ValueError(f"generators nearly coincide: a translation of length {abs(v):.2e} fails discreteness")
    return v


def _reduce(vectors: list[complex]) -> list[complex]:
    """A reduced basis, shortest first, of the lattice the vectors span: the longest is
    reduced by the two shortest while there are three (along a line when those are
    collinear), then the last two are Gauss-reduced."""
    vs = sorted(vectors, key=abs)
    for _ in range(200):
        if len(vs) < 2:
            return vs
        u, v, w = vs[0], vs[1], vs[-1]
        cross = (u.conjugate() * v).imag
        if len(vs) > 2 and abs(cross) > UNIT_TOL * abs(u) * abs(v):
            x, y = (w.conjugate() * v).imag / cross, (u.conjugate() * w).imag / cross
            vs[-1] = _settle(w - round(x) * u - round(y) * v, abs(w))
        else:
            new = _settle(v - round((v / u).real) * u, abs(v))
            if len(vs) == 2 and abs(new) >= abs(v):
                return vs
            vs[1] = new
        vs = sorted(filter(None, vs), key=abs)
    raise ValueError("incommensurable translations: their lattice reduction does not end")


def _l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|a_x - a_y| + |b_x - b_y|, elements as [a, b] on the last axis, rounding as scalar abs does."""
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


def inverse_b(a, b) -> np.ndarray:
    """g^{-1}.0 for g = [a, b], the b of ``inverse_ab``; every |a| must be 1, as in ``GroupElement``."""
    abar = np.conj(a)
    if not abs(_abs(abar) - 1.0).max() <= UNIT_TOL:  # NaN fails too
        raise ValueError(f"rotation part must be unimodular, got |a| in {np.unique(_abs(abar))}")
    return _cmul(-abar, b)


def inverse_ab(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``inverse`` on arrays, rounding as it does; its b is ``inverse_b``."""
    w = inverse_b(a, b)
    return _unit(np.conj(a)), w


class WordClosure:
    """Words in the generators and their inverses, grown one word length at a time.

    Entry i is the element ``ab[i]`` = [a, b]; entry 0 is the identity and
    ``offsets[L]:offsets[L + 1]`` are the words of length L.  A level composes every entry
    of the last length with each slot, source-major and slot-minor, on triples:
    (j, l)(j', l') = (j + j' mod q, l + zeta^j l').  Slots 2i and 2i + 1 are generator i
    and its inverse (``inverse``), ``slot_ab`` their [a, b] and ``signed`` their indices
    i + 1 and -(i + 1).  A product whose triple is an entry, or an earlier product of the
    level, is a repeat.  ``succ[i, s]`` is the entry of entry i times slot s, or -1 while
    entry i is not expanded; entry i > 0 was first reached as entry ``parent[i]`` times slot
    ``slot[i]`` (entry 0 has parent 0, slot 0), and its [a, b] is that product in floats,
    rounding as ``compose``.

    Triple (j, m, n) is the int64 key (m W + n) q + j, W = 2 BOX + 1, one to one while
    |m|, |n| <= BOX (rank 2 has q <= 6).  Keys are found by binary search in the sorted
    keys, so the closure keeps O(entries) memory however long its generators are; a level
    dedups its new keys by one stable sort and merges them into the sorted keys by another.
    """

    BOX = 2**29

    def __init__(self, gamma: DiscreteSubgroup):
        self.normal_form = nf = gamma.normal_form
        gens = [x for g in gamma.generators for x in (g, inverse(g))]
        self.slot_ab = np.array([[g.a, g.b] for g in gens], complex).reshape(-1, 2)
        self.signed = [s for i in range(1, len(gamma.generators) + 1) for s in (i, -i)]
        # [a, b][ga, gb] = [a ga, a gb + b]: (re a, im a) dotted with each pair is the
        # textbook re(a ga), im(a ga), re(a gb), im(a gb)
        ga, gb = self.slot_ab.T
        rows = [ga.real, -ga.imag, ga.imag, ga.real, gb.real, -gb.imag, gb.imag, gb.real]
        self._g = np.stack(rows, -1).reshape(-1, 4, 2)
        # each slot's zeta^k l on the basis, for every k; the key of (k, l) times slot s,
        # less the key of (k, l)
        k = np.arange(nf.q)[:, None]
        steps = np.rint(nf.coords(np.exp(2j * np.pi / nf.q * k) * [lam for _, lam in gamma._slots]))
        self._reach = np.abs(steps).max(initial=0)
        self._stride = np.array([(2 * self.BOX + 1) * nf.q, nf.q])
        self._delta = self._pack((k + [j for j, _ in gamma._slots]) % nf.q - k, steps)
        self.ab = np.array([[1, 0]], complex)
        # the last level's keys; all keys sorted, then a sentinel past them, and their entries
        self._front, self._sorted, self._order = np.zeros(1, np.int64), np.array([0, 2**63 - 1]), np.array([0, -1])
        self.offsets = [0, 1]
        self.succ = np.full((1, len(self.signed)), -1)
        self.parent, self.slot = np.zeros(1, int), np.zeros(1, int)
        self.tables, self.products = {}, {}  # character tables and rdq's product index, kept by ``automorphy``

    a = property(lambda self: self.ab[:, 0])
    b = property(lambda self: self.ab[:, 1])

    def word(self, i: int) -> list[int]:
        """The signed generator indices of entry i, walked back along parent and slot."""
        word = []
        while i:
            word.append(self.signed[self.slot[i]])
            i = self.parent[i]
        return word[::-1]

    def _pack(self, j, mn) -> np.ndarray:
        """The int64 keys of triples (j, m, n), from integers or integral floats."""
        return np.asarray(mn, np.int64) @ self._stride + np.asarray(j, np.int64)

    def lookup_all(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The entry within MATCH_TOL (``_l1``) of each element [a[i], b[i]] of two 1-d
        arrays, -1 for none: the entry of the nearest triple (``NormalForm.read``), if any."""
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        j, mn = self.normal_form.read(a, b)
        # a triple past BOX + 1 packs as one on it, where no entry is
        keys = self._pack(j, np.clip(mn, -self.BOX - 1, self.BOX + 1))
        at = self._sorted.searchsorted(keys)
        hit = np.where(self._sorted[at] == keys, self._order[at], -1)
        e = self.ab[hit]
        return np.where((hit >= 0) & (_abs(e[:, 0] - a) + _abs(e[:, 1] - b) <= MATCH_TOL), hit, -1)

    def levels(self, max_len: int) -> Iterator[int]:
        """Grow to words of length ``max_len``, yielding the first new entry of each
        level; stop early once a level adds nothing."""
        if max_len < 0:
            raise ValueError("max_len must be nonnegative")
        q, ns = self.normal_form.q, len(self.signed)
        while len(self.offsets) - 2 < max_len and self.offsets[-1] > self.offsets[-2]:
            if (len(self.offsets) - 1) * self._reach > self.BOX:
                raise OverflowError("lattice coordinates beyond 2^29 do not pack into int64")
            lo, n = self.offsets[-2:]
            keys = (self._front[:, None] + self._delta[self._front % q]).reshape(-1)
            at = self._sorted.searchsorted(keys)
            dst, fresh = self._order[at], (self._sorted[at] != keys).nonzero()[0]
            # the first product of each new triple: a stable sort keeps equal keys in product order
            new = keys[fresh]
            perm = new.argsort(kind="stable")
            lead = perm[new[perm].searchsorted(new)]
            first = lead == np.arange(len(fresh))
            made, self._front = fresh[first], new[first]
            dst[fresh] = n - 1 + first.cumsum()[lead]
            parent, slot = np.divmod(made + lo * ns, ns)
            x = self.ab[parent].view(float)
            prod = x[:, None, :2] * self._g[slot]
            c = np.add(prod[..., 0], prod[..., 1], order="C")
            c[:, 2:] += x[:, 2:]
            c[:, :2] /= np.hypot(c[:, :1], c[:, 1:2])
            self.ab = np.concatenate([self.ab, c.view(complex)])
            # the stable sort takes the sorted keys as one run and merges the new ones into it
            merged = np.concatenate([self._sorted, self._front])
            order = merged.argsort(kind="stable")
            self._sorted, self._order = merged[order], np.concatenate([self._order, np.arange(n, len(self.ab))])[order]
            self.parent, self.slot = np.concatenate([self.parent, parent]), np.concatenate([self.slot, slot])
            self.succ[lo:] = dst.reshape(n - lo, ns)
            self.succ = np.concatenate([self.succ, np.zeros((len(made), ns), int) - 1])
            self.offsets.append(len(self.ab))
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
    n = closure.size(max_len)
    return list(map(GroupElement, closure.a[:n].tolist(), closure.b[:n].tolist()))


def random_ab(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The a and b arrays of n rigid motions with uniform rotation angle and
    standard normal translation."""
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a, b

