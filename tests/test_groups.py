import importlib.util
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from maf import groups
from maf.config import build_system, load_bundled, load_config
from maf.equivariant import Endomorphism
from maf.groups import (
    IDENTITY,
    MATCH_TOL,
    DiscreteSubgroup,
    GroupElement,
    WordClosure,
    compose,
    enumerate_words,
    inverse,
    inverse_ab,
    inverse_b,
    random_ab,
)
from oracles import act, apply_endo, distance, symmetric_generators

ROOT = Path(__file__).resolve().parents[1]
SQUARE = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
# the p6 group of perfbench/p6.json: rotation by pi/3 and a unit translation
P6 = DiscreteSubgroup([GroupElement(0.5 + 0.8660254037844386j, 0), GroupElement(1, 1)])
# wallpaper groups p2, p3 and p4 from a rotation and lattice translations
P2 = DiscreteSubgroup([GroupElement(-1, 0), GroupElement(1, 1), GroupElement(1, 1j)])
P3 = DiscreteSubgroup([GroupElement(np.exp(2j * np.pi / 3), 0), GroupElement(1, 1)])
P4 = DiscreteSubgroup([GroupElement(1j, 0), GroupElement(1, 1)])



def words(closure):
    """The word of every entry of the closure."""
    return [closure.word(i) for i in range(len(closure.ab))]


def closure_elements(closure):
    """Every entry of the closure as a ``GroupElement``."""
    return list(map(GroupElement, closure.a.tolist(), closure.b.tolist()))


def word_of(gamma, target, max_len=6):
    """The shortest word of target, or None past max_len: its entry in the subgroup's
    closure (``lookup_all``), walked back (``word``)."""
    closure = gamma.closure.grow(max_len)
    i = closure.lookup_all([target.a], [target.b])[0]
    return closure.word(i) if 0 <= i < closure.size(max_len) else None


angles = st.floats(0, 2 * np.pi, allow_nan=False)
coords = st.floats(-5, 5, allow_nan=False)


def elements():
    return st.builds(
        lambda t, x, y: GroupElement(np.exp(1j * t), complex(x, y)), angles, coords, coords
    )


class TestGroupElement:
    def test_unimodular_check(self):
        with pytest.raises(ValueError):
            GroupElement(1.1, 0.0)

    def test_array_inverse_checks_unimodular_too(self):
        a, b = np.exp(1j * np.array([0.3, 2.0])), np.array([1 + 1j, -2.0])
        for got, g in zip(zip(*inverse_ab(a, b)), map(GroupElement, a, b)):
            assert got == (inverse(g).a, inverse(g).b)
        for bad in (1.1, 1 + 1e-9, np.nan):
            with pytest.raises(ValueError, match="unimodular"):
                inverse_ab(np.array([1.0, bad]), np.zeros(2))

    def test_array_inverse_origin_rounds_as_inverse(self):
        # g^{-1}.0 alone, as j_factor and T_g take it: the b of the scalar inverse, bit for bit
        a, b = random_ab(np.random.default_rng(8), 200)
        want = np.array([inverse(g).b for g in map(GroupElement, a, b)])
        assert inverse_b(a, b).tobytes() == inverse_ab(a, b)[1].tobytes() == want.tobytes()
        for bad in (1.1, 1 + 1e-9, np.nan):
            with pytest.raises(ValueError, match="unimodular"):
                inverse_b(np.array([1.0, bad]), np.zeros(2))

    def test_serialization_roundtrip(self):
        g = GroupElement(1j, 2 + 3j)
        assert GroupElement.from_dict(g.to_dict()) == g

    def test_dict_shape(self):
        assert GroupElement(1j, 2 + 3j).to_dict() == {"a": [0.0, 1.0], "b": [2.0, 3.0]}


class TestCompose:
    def test_identity_left(self):
        g = GroupElement(1j, 1 - 2j)
        assert distance(compose(IDENTITY, g), g) == 0

    def test_matrix_oracle(self):
        # 2x2 upper-triangular matrix product [[a, b], [0, 1]]
        g = GroupElement(1j, 0)
        h = GroupElement(1, 1)
        assert distance(compose(g, h), GroupElement(1j, 1j)) < 1e-14

    def test_inverse_pair(self):
        g = GroupElement(1j, 1)
        h = GroupElement(-1j, 1j)
        assert distance(compose(g, h), IDENTITY) <= MATCH_TOL

    @given(elements(), elements(), elements())
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, g, h, k):
        assert distance(compose(compose(g, h), k), compose(g, compose(h, k))) < 1e-12

    @given(elements(), elements(), coords, coords)
    @settings(max_examples=50, deadline=None)
    def test_action_compatibility(self, g, h, x, y):
        z = complex(x, y)
        assert abs(act(compose(g, h), z) - act(g, act(h, z))) < 1e-12


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    def test_formula(self):
        assert distance(inverse(GroupElement(1j, 1)), GroupElement(-1j, 1j)) < 1e-14

    def test_involution_on_order_two(self):
        g = GroupElement(-1, 2 + 1j)
        assert distance(inverse(g), g) < 1e-14

    @given(elements())
    @settings(max_examples=50, deadline=None)
    def test_two_sided(self, g):
        assert distance(compose(g, inverse(g)), IDENTITY) <= 1e-12
        assert distance(compose(inverse(g), g), IDENTITY) <= 1e-12
        assert distance(inverse(inverse(g)), g) < 1e-12


class TestAct:
    def test_identity(self):
        assert act(IDENTITY, 1 + 2j) == 1 + 2j

    def test_substitution(self):
        assert act(GroupElement(1j, 1), 2) == 1 + 2j

    def test_origin_orbit(self):
        g = GroupElement(np.exp(0.3j), 4 - 1j)
        assert act(g, 0) == g.b


class TestEnumerateWords:
    def test_rank_one(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        words = enumerate_words(gamma, 2)
        bs = sorted(w.b.real for w in words)
        assert bs == [-2, -1, 0, 1, 2]

    def test_rank_two_length_one(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
        assert len(enumerate_words(gamma, 1)) == 5

    def test_empty_generators(self):
        gamma = DiscreteSubgroup([])
        assert enumerate_words(gamma, 3) == [IDENTITY]

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            enumerate_words(DiscreteSubgroup([]), -1)


def stabilizer_residual(g: GroupElement, x: complex) -> float:
    """|g.x - x|: zero exactly when g stabilizes x."""
    return abs(act(g, x) - x)


class TestStabilizer:
    def test_rotation_fixes_origin(self):
        assert stabilizer_residual(GroupElement(np.exp(0.7j), 0), 0) == 0

    def test_translation_moves_origin(self):
        assert stabilizer_residual(GroupElement(1, 1), 0) == 1

    def test_constructed_fixed_point(self):
        # b = (1 - a) x makes x a fixed point of [a, b]
        a = 1j
        g = GroupElement(a, (1 - a) * 1.0)
        assert stabilizer_residual(g, 1.0) < 1e-14


class TestDiscreteSubgroup:
    def test_discreteness_smoke_test(self):
        with pytest.raises(ValueError, match="generators nearly coincide: .* fails discreteness"):
            DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1 + 1e-10)])

    @pytest.mark.parametrize(
        "generators, message",
        [
            ([GroupElement(np.exp(1j), 0)], "generator 0 is a rotation of infinite order"),
            ([GroupElement(np.exp(2j * np.pi / 5), 0), GroupElement(1, 1)], "rotations of order 5 and translations generate no lattice"),
            ([GroupElement(1, 1), GroupElement(1, math.sqrt(2))], "incommensurable translations"),
            ([GroupElement(1, 1j), GroupElement(1, 1), GroupElement(1, math.pi)], "incommensurable translations"),
            ([GroupElement(np.exp(2j * np.pi / 3 + 1e-10j), 0)], "generators nearly coincide: generator 0 is .* off a rotation"),
        ],
        ids=["irrational_rotation", "c5_and_translation", "one_and_sqrt2", "rank_two_and_pi", "near_c3"],
    )
    def test_refuses_generators_with_no_normal_form(self, generators, message):
        with pytest.raises(ValueError, match=message):
            DiscreteSubgroup(generators)

    @pytest.mark.parametrize("bad", [(1, complex(np.nan, 0)), (1, np.inf), (np.nan, 0)])
    def test_rejects_non_finite_generators(self, bad):
        # refused as the element is made, naming its part
        with pytest.raises(ValueError, match="(translation|rotation) part must be finite"):
            DiscreteSubgroup([GroupElement(1, 1j), GroupElement(*bad)])

    def test_labels_default(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert gamma.labels == ["g0"]

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteSubgroup([GroupElement(1, 1)], ["a", "b"])


class TestFindWord:
    """The word of an element, read from the closure by ``word_of``."""

    def test_finds_lattice_point(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
        word = word_of(gamma, GroupElement(1, 2 + 1j))
        assert word is not None and len(word) == 3

    def test_identity_is_empty_word(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert word_of(gamma, IDENTITY) == []

    def test_unreachable(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert word_of(gamma, GroupElement(1, 0.5)) is None


def random_elements(rng, n):
    """The n rigid motions of ``random_ab``, as elements."""
    return list(map(GroupElement, *random_ab(rng, n)))


class TestRandomElements:
    def test_unimodular_and_seeded(self):
        gs = random_elements(np.random.default_rng(3), 4)
        assert len(gs) == 4 and all(abs(abs(g.a) - 1) < 1e-12 for g in gs)
        assert gs == random_elements(np.random.default_rng(3), 4)


def _bfs_find_word(gamma, target, max_len=6, tol=MATCH_TOL, dedup_tol=1e-10):
    """The breadth-first search with a linear-scan dedup, kept as an oracle."""
    if distance(target, IDENTITY) <= tol:
        return []
    frontier, seen = [(IDENTITY, [])], [IDENTITY]
    for _ in range(max_len):
        new_frontier = []
        for w, word in frontier:
            for idx, g in symmetric_generators(gamma):
                cand = compose(w, g)
                if distance(cand, target) <= tol:
                    return word + [idx]
                if all(distance(cand, e) > dedup_tol for e in seen):
                    seen.append(cand)
                    new_frontier.append((cand, word + [idx]))
        frontier = new_frontier
    return None


class TestWordClosure:
    @pytest.mark.parametrize("L", range(1, 13))
    def test_square_lattice_sizes(self, L):
        # words of length <= L in two commuting translations reach |m| + |n| <= L
        assert len(enumerate_words(SQUARE, L)) == 2 * L * L + 2 * L + 1

    def test_p6_length_eight(self):
        assert len(enumerate_words(P6, 8)) == 712

    def test_shortlex_order_and_words(self):
        closure = WordClosure(SQUARE).grow(3)
        lengths = [len(w) for w in words(closure)]
        assert lengths == sorted(lengths) and words(closure)[:3] == [[], [1], [-1]]
        for g, word in zip(closure_elements(closure), words(closure)):
            prod = IDENTITY
            for i in word:
                gen = SQUARE.generators[abs(i) - 1]
                prod = compose(prod, gen if i > 0 else inverse(gen))
            assert distance(prod, g) < 1e-12

    @pytest.mark.parametrize("nudge", [1e-10, 1e-9, 2.4e-7, 0.3])
    def test_lookup_all_matches_lookup(self, nudge):
        # entries, and queries nudged off them by up to 3 nudge, against a linear scan
        # for the first entry within MATCH_TOL (a nudge of MATCH_TOL straddles it)
        closure = WordClosure(P6).grow(5)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(closure.ab), 300)
        scale = nudge * np.array([0.0, 0.3, 0.45, 1.5, 3.0])[rng.integers(0, 5, 300)]
        a = closure.a[idx] * np.exp(1j * scale * rng.uniform(-1, 1, 300))
        b = closure.b[idx] + scale * np.exp(2j * np.pi * rng.uniform(size=300))
        elements = closure_elements(closure)
        want = [next((i for i, g in enumerate(elements) if distance(g, GroupElement(x, y)) <= MATCH_TOL), None)
                for x, y in zip(a.tolist(), b.tolist())]
        got = closure.lookup_all(a, b)
        assert got.tolist() == [-1 if w is None else w for w in want]
        assert (got >= 0).sum() > 40 and (got < 0).sum() > 20

    def test_successor_table(self):
        closure = WordClosure(P6).grow(4)
        elements = closure_elements(closure)
        for i, row in enumerate(closure.succ):
            if i >= closure.offsets[4]:
                assert row.tolist() == [-1] * 4  # the last layer is not expanded
                continue
            for (_, g), dst in zip(symmetric_generators(P6), row):
                assert distance(elements[dst], compose(elements[i], g)) < 1e-12

    @pytest.mark.parametrize("name", ["square", "p2", "p6", "alteration"])
    def test_slots_are_the_generators_and_their_inverses(self, name):
        # slot 2i is generator i and slot 2i + 1 its scalar ``inverse``, bit for bit (the
        # sign of a zero included), with signed indices i + 1 and -(i + 1)
        gamma = {"square": SQUARE, "p2": P2, "p6": P6}.get(name) or _bundled_group(name)
        closure, pairs = WordClosure(gamma), symmetric_generators(gamma)
        assert closure.slot_ab.tobytes() == np.array([[g.a, g.b] for _, g in pairs], complex).tobytes()
        assert closure.signed == [i for i, _ in pairs]

    def test_find_word_matches_breadth_first_search(self):
        systems = [build_system(load_bundled(n)) for n in ("landau", "conjugate", "alteration")]
        groups = [(s.gamma, [apply_endo(s.rho, g) for g in s.gamma.generators]) for s in systems]
        groups.append((P6, []))
        for gamma, extra in groups:
            targets = enumerate_words(gamma, 4)[::3] + extra
            targets += [GroupElement(1, 0.5), GroupElement(1j, 0.25), GroupElement(-1, 7)]
            for t in targets:
                assert word_of(gamma, t) == _bfs_find_word(gamma, t)


class EdgeClosure:
    """The float closure grown one edge at a time, a product within tol of an
    entry being a repeat (found by a per-product cell lookup): the breadth-first
    loop that the exact closure must reproduce, kept as an oracle."""

    CELL = 1e-6

    def __init__(self, gamma, tol=1e-10):
        self.tol = tol
        self.gens = symmetric_generators(gamma)
        self.elements, self.words, self.succ = [], [], []
        self._cell = max(self.CELL, 4 * tol)
        self._cells = {}
        self.expanded = 0
        self._insert(IDENTITY, [])

    def _keys(self, a, b, r):
        coords = (a.real, a.imag, b.real, b.imag)
        lo = [math.floor((x - r) / self._cell + 0.5) for x in coords]
        hi = [math.floor((x + r) / self._cell + 0.5) for x in coords]
        return [tuple(lo)] if lo == hi else itertools.product(*map(range, lo, [h + 1 for h in hi]))

    def _insert(self, g, word):
        (key,) = self._keys(g.a, g.b, 0.0)
        self._cells.setdefault(key, []).append(len(self.elements))
        self.elements.append(g)
        self.words.append(word)
        self.succ.append([-1] * len(self.gens))
        return len(self.elements) - 1

    def lookup(self, a, b):
        best = None
        for key in self._keys(a, b, 2 * self.tol):
            for i in self._cells.get(key, ()):
                e = self.elements[i]
                if (best is None or i < best) and abs(e.a - a) + abs(e.b - b) <= self.tol:
                    best = i
        return best

    def edges(self, max_len):
        """Yield (source, slot, target, whether the target is new) per edge, from the
        first word length not yet expanded."""
        for length in range(self.expanded, max_len):
            for src in [i for i, w in enumerate(self.words) if len(w) == length]:
                for slot, (idx, g) in enumerate(self.gens):
                    cand = compose(self.elements[src], g)
                    dst = self.lookup(cand.a, cand.b)
                    new = dst is None
                    if new:
                        dst = self._insert(cand, self.words[src] + [idx])
                    self.succ[src][slot] = dst
                    yield src, slot, dst, new
            self.expanded = length + 1

    def grow(self, max_len):
        for _ in self.edges(max_len):
            pass
        return self


def _bundled_group(name):
    return build_system(load_bundled(name)).gamma


class TestLevelGrowth:
    GROUPS = {"p6": P6, "p2": P2, "p3": P3, "p4": P4, "square": SQUARE}

    @pytest.mark.parametrize("tol", [1e-10, 1e-9])
    @pytest.mark.parametrize("name", ["landau", "conjugate", "alteration", "p6", "p2", "p3", "p4"])
    def test_matches_per_edge_growth(self, name, tol):
        # the exact closure is the float closure that dedups at either tol, with the
        # same floats, at word length 8 and, grown on, at 12
        gamma = self.GROUPS.get(name) or _bundled_group(name)
        closure, oracle = WordClosure(gamma), EdgeClosure(gamma, tol)
        for length in (8, 12):
            closure.grow(length), oracle.grow(length)
            # == on complex ignores the sign of zero, which the two products may differ in
            assert closure_elements(closure) == oracle.elements
            assert words(closure) == oracle.words
            assert closure.succ.tolist() == oracle.succ

    @pytest.mark.parametrize("name", ["square", "p4", "p6"])
    def test_level_sizes_match_the_exact_oracle(self, name):
        spec = importlib.util.spec_from_file_location("oracle", ROOT / "perfbench" / "oracle.py")
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        gamma = self.GROUPS[name]
        closure = WordClosure(gamma).grow(12)
        pairs = [(g.a, g.b) for g in gamma.generators]
        assert [closure.size(L) for L in range(13)] == [oracle.closure_size(pairs, L) for L in range(13)]

    @pytest.mark.parametrize(
        "name, q, rank",
        [("square", 1, 2), ("p2", 2, 2), ("p3", 3, 2), ("p4", 4, 2), ("p6", 6, 2), ("alteration", 6, 0), ("conjugate", 1, 1)],
    )
    def test_normal_form(self, name, q, rank):
        gamma = self.GROUPS.get(name) or _bundled_group(name)
        nf = gamma.normal_form
        assert (nf.q, nf.rank) == (q, rank)
        # every entry reads back as its own triple, and zeta maps the lattice to itself
        closure = WordClosure(gamma).grow(4)
        assert closure.lookup_all(closure.a, closure.b).tolist() == list(range(len(closure.ab)))
        zeta = np.exp(2j * np.pi / q)
        assert gamma.contains(np.ones(rank), zeta * np.array(nf.basis[:rank])).all()
        # below rank 2 no element lies along the completing directions
        assert not gamma.contains(np.ones(2 - rank), np.array(nf.basis[rank:])).any()
        # nor at a non-finite [a, b]
        a, b = [1, np.nan, 1, np.inf], [np.inf, 0, complex(np.nan, 1), 0]
        assert not gamma.contains(a, b).any() and closure.lookup_all(a, b).tolist() == [-1] * 4

    @pytest.mark.parametrize("name, size", [("p2", 578), ("p3", 1027), ("p4", 976), ("p6", 1880)])
    def test_sizes_at_length_twelve(self, name, size):
        # the exact counts of perfbench/oracle.py, in Z[i] and Z[omega]
        assert len(WordClosure(self.GROUPS[name]).grow(12).ab) == size

    def test_cell_mates_farther_than_tol_stay_apart(self):
        # a lattice of spacing 3e-7, 300 times the float closure's tol
        gamma = DiscreteSubgroup([GroupElement(1, 3e-7)])
        closure = WordClosure(gamma).grow(4)
        assert sorted(round(b.real / 3e-7) for b in closure.b) == list(range(-4, 5))
        assert words(closure) == EdgeClosure(gamma, 1e-9).grow(4).words

    def test_stops_once_a_level_adds_nothing(self):
        # the alteration group is finite: a rotation of order 6 about a point
        closure = WordClosure(_bundled_group("alteration")).grow(50)
        assert len(closure.offsets) < 10 and closure.offsets[-1] == closure.offsets[-2] == 6
        assert closure.normal_form.c0 == pytest.approx(0.5 + 0.8660254037844386j)  # its centre

    def test_coordinates_beyond_the_cell_range(self):
        # 1e13 is a lattice vector like 1j: no warning, and the same closure as the floats'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = DiscreteSubgroup([GroupElement(1, 1e13), GroupElement(1, 1j)])
            closure = WordClosure(gamma).grow(4)
            oracle = EdgeClosure(gamma).grow(4)
        assert len(closure_elements(closure)) == 41
        assert closure_elements(closure) == oracle.elements and words(closure) == oracle.words
        assert closure.succ.tolist() == oracle.succ

    @pytest.mark.parametrize(
        "generators, length",
        [([(1, 1000), (1, 1001j), (1, 1 + 1j)], 6), ([(1j, 0), (1, 1), (1, 40 + 23j)], 6),
         ([(1, 2**20 * 1j), (1, 1j), (1, 1)], 9)],
        ids=["wide", "wide-p4", "keys-past-2^53"],
    )
    def test_wide_generators_keep_memory_per_entry(self, generators, length):
        # generators tens to 2^20 basis vectors long: the closure is the float one, every
        # entry reads back exactly (keys pass 2^53 at 2^20 x 9), and the arrays hold a few
        # hundred bytes per entry, not a table over their box
        gamma = DiscreteSubgroup([GroupElement(*g) for g in generators])
        closure, oracle = WordClosure(gamma).grow(length), EdgeClosure(gamma).grow(length)
        assert closure_elements(closure) == oracle.elements and words(closure) == oracle.words
        assert closure.succ.tolist() == oracle.succ
        assert closure.lookup_all(closure.a, closure.b).tolist() == list(range(len(closure.ab)))
        held = sum(x.nbytes for x in vars(closure).values() if isinstance(x, np.ndarray))
        assert held <= 300 * len(closure.ab) + 4096

    def test_grows_on_from_where_it_stopped(self):
        closure = WordClosure(P6).grow(3).grow(6)
        assert words(closure) == words(WordClosure(P6).grow(6))
        assert closure.succ.tolist() == WordClosure(P6).grow(6).succ.tolist()

    @pytest.mark.parametrize(
        "generators",
        [[(0.5 + 0.8660254037844386j, 0), (1, 1)], [(1, 1), (1, 1j)], [(0.5 + 0.8660254037844386j, 0)], [(1, 0)]],
        ids=["p6", "square", "C6", "trivial"],
    )
    def test_stepwise_growth_is_growth_at_once(self, generators):
        # grown to 2, 5 and 8 or to 8 at once: the same floats bit for bit, the same edges,
        # words and lookups, and the same first entry per level; every yield leaves the
        # closure whole, each entry reading back as itself
        gamma = DiscreteSubgroup([GroupElement(*g) for g in generators])
        stepwise, at_once = WordClosure(gamma), WordClosure(gamma)
        firsts = []
        for length in (2, 5, 8):
            for first in stepwise.levels(length):
                n = stepwise.offsets[-1]
                assert len(stepwise.ab) == len(stepwise.parent) == len(stepwise.slot) == len(stepwise.succ) == n
                assert stepwise.lookup_all(stepwise.a, stepwise.b).tolist() == list(range(n))
                assert (stepwise.succ[stepwise.offsets[-2] :] == -1).all()
                firsts.append(first)
        assert firsts == list(at_once.levels(8))
        assert stepwise.ab.tobytes() == at_once.ab.tobytes()
        for attr in ("parent", "slot", "succ"):
            assert np.array_equal(getattr(stepwise, attr), getattr(at_once, attr)), attr
        assert stepwise.offsets == at_once.offsets
        n = len(at_once.ab)
        assert [stepwise.word(i) for i in range(n)] == [at_once.word(i) for i in range(n)]
        assert stepwise.lookup_all(at_once.a, at_once.b).tolist() == list(range(n))
        assert at_once.lookup_all(stepwise.a, stepwise.b).tolist() == list(range(n))
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            next(stepwise.levels(-1))


def _fresh_find_word(gamma, target, max_len=6, tol=MATCH_TOL):
    """The word of target from a closure of its own, grown from the identity and
    scanned level by level: the search that the one closure per subgroup replaced,
    kept as an oracle."""
    if distance(target, IDENTITY) <= tol:
        return []
    closure, t = WordClosure(gamma), np.array([target.a, target.b])
    for lo in closure.levels(max_len):
        elements = closure_elements(closure)
        hit = [i for i in range(lo, len(closure.ab)) if distance(elements[i], target) <= tol]
        if hit:
            return closure.word(hit[0])
    return None


class TestOneClosurePerSubgroup:
    CONFIGS = ["landau", "conjugate", "alteration", "perfbench/p6.json"]

    @staticmethod
    def _load(name):
        if name.endswith(".json"):
            return load_config(str(Path(__file__).resolve().parents[1] / name))
        return load_bundled(name)

    @pytest.fixture
    def closures_made(self, monkeypatch):
        """The subgroup of every WordClosure constructed while the test runs."""
        made, init = [], WordClosure.__init__

        def counting_init(self, gamma):
            made.append(gamma)
            init(self, gamma)

        monkeypatch.setattr(WordClosure, "__init__", counting_init)
        return made

    @pytest.mark.parametrize("name", CONFIGS)
    def test_build_system_grows_one_closure(self, name, fresh_groups, closures_made):
        system = build_system(self._load(name))
        assert closures_made == [system.gamma]
        assert system.gamma.closure.offsets == [0, 1]  # the build grows no level
        # a second identical build shares the closure the first made
        assert build_system(self._load(name)).gamma.closure is system.gamma.closure
        assert closures_made == [system.gamma]

    @pytest.mark.parametrize("name", CONFIGS)
    def test_report_grows_one_closure(self, name, fresh_groups, closures_made, capsys):
        from maf.cli import main

        config = str(Path(__file__).resolve().parents[1] / name) if name.endswith(".json") else name
        main(["report", "--config", config])
        capsys.readouterr()
        assert len(closures_made) == 1
        main(["report", "--config", config])
        capsys.readouterr()
        assert len(closures_made) == 1  # the second report constructs none

    def test_second_rdq_grows_no_level(self):
        from maf.automorphy import PseudoCharacter, rdq_check

        gamma, chi, rho = DiscreteSubgroup(SQUARE.generators), PseudoCharacter([1, 1]), Endomorphism(1, 1)
        assert rdq_check(np.pi, 0.0, rho, gamma, chi, max_word_len=5).passed
        ab, offsets = gamma.closure.ab, list(gamma.closure.offsets)
        assert not rdq_check(1.0, 0.0, rho, gamma, chi, max_word_len=5).passed
        assert gamma.closure.ab is ab and gamma.closure.offsets == offsets

    @pytest.mark.parametrize("name", ["p6", "p2", "p3", "p4", *CONFIGS[:3]])
    def test_find_word_matches_fresh_closure(self, name, fresh_groups):
        if name in TestLevelGrowth.GROUPS:
            gamma = TestLevelGrowth.GROUPS[name]
            rho = Endomorphism(1, 1)
        else:
            system = build_system(load_bundled(name))
            gamma, rho = system.gamma, system.rho
        # a fresh subgroup on a cleared memo, so that its closure is grown by this test only
        gamma = DiscreteSubgroup(gamma.generators, gamma.labels)
        assert gamma.closure.offsets == [0, 1]
        images = [apply_endo(rho, g) for g in gamma.generators]
        # a long word first grows the closure on; shorter and unreachable targets
        # then search the grown levels, also with max_len below them
        far = closure_elements(WordClosure(gamma).grow(5))[-1]
        targets = [far, *images, GroupElement(1, 0.5), GroupElement(-1, 7)]
        for t in targets:
            assert word_of(gamma, t) == _fresh_find_word(gamma, t)
            assert word_of(gamma, t, max_len=2) == _fresh_find_word(gamma, t, max_len=2)
        word = word_of(gamma, far)
        assert len(word) >= 3 and word_of(gamma, far, max_len=len(word) - 1) is None


def _ulp_after(x: float) -> float:
    """The next float above x."""
    return math.nextafter(x, math.inf)


class TestClosureMemo:
    """Subgroups read their normal form and closure from a memo of 16, keyed on the exact
    bits of their generators' [a, b]."""

    def test_equal_generators_share_one_closure(self, fresh_groups):
        gamma = DiscreteSubgroup(P6.generators, ["r", "t"])
        twin = DiscreteSubgroup([GroupElement(g.a, g.b) for g in P6.generators])
        assert twin.closure is gamma.closure and twin.normal_form is gamma.normal_form
        assert twin.labels == ["g0", "g1"]  # labels are the subgroup's own

    @pytest.mark.parametrize(
        "near",
        [
            [GroupElement(1, _ulp_after(1.0)), GroupElement(1, 1j)],  # 1 ulp along b
            [GroupElement(1, 1), GroupElement(1, complex(-0.0, 1))],  # -0.0 for 0.0 in b
            [GroupElement(complex(1, -0.0), 1), GroupElement(1, 1j)],  # -0.0 for 0.0 in a
        ],
    )
    def test_near_equal_generators_share_nothing(self, fresh_groups, near):
        square = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
        other = DiscreteSubgroup(near)
        assert other.closure is not square.closure
        assert groups._read.cache_info().currsize == 2

    def test_seventeenth_subgroup_evicts_the_least_recently_used(self, fresh_groups):
        made = [DiscreteSubgroup([GroupElement(1, k + 1)]) for k in range(16)]
        assert groups._read.cache_info().currsize == 16
        assert DiscreteSubgroup(made[0].generators).closure is made[0].closure  # now the most recent
        DiscreteSubgroup([GroupElement(1, 17)])
        assert groups._read.cache_info().currsize == 16
        assert DiscreteSubgroup(made[0].generators).closure is made[0].closure
        assert DiscreteSubgroup(made[1].generators).closure is not made[1].closure  # evicted

    def test_a_refused_subgroup_is_not_kept(self, fresh_groups):
        for _ in range(2):
            with pytest.raises(ValueError, match="infinite order"):
                DiscreteSubgroup([GroupElement(np.exp(1j), 0)])
        assert groups._read.cache_info().currsize == 0
