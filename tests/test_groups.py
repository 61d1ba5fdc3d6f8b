import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from maf.config import build_system, load_bundled, load_config
from maf.equivariant import Endomorphism, apply_endo
from maf.groups import (
    DEDUP_TOL,
    IDENTITY,
    DiscreteSubgroup,
    GroupElement,
    WordClosure,
    act,
    compose,
    distance,
    enumerate_words,
    find_word,
    inverse,
    inverse_ab,
    is_identity,
    random_ab,
    stabilizer_residual,
)

SQUARE = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
# the p6 group of perfbench/p6.json: rotation by pi/3 and a unit translation
P6 = DiscreteSubgroup([GroupElement(0.5 + 0.8660254037844386j, 0), GroupElement(1, 1)])
# wallpaper groups p2, p3 and p4 from a rotation and lattice translations
P2 = DiscreteSubgroup([GroupElement(-1, 0), GroupElement(1, 1), GroupElement(1, 1j)])
P3 = DiscreteSubgroup([GroupElement(np.exp(2j * np.pi / 3), 0), GroupElement(1, 1)])
P4 = DiscreteSubgroup([GroupElement(1j, 0), GroupElement(1, 1)])

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
        assert is_identity(compose(g, h))

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
        assert is_identity(compose(g, inverse(g)), 1e-12)
        assert is_identity(compose(inverse(g), g), 1e-12)
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
        with pytest.raises(ValueError, match="discreteness"):
            DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1 + 1e-10)])

    @pytest.mark.parametrize(
        "bad", [GroupElement(1, complex(np.nan, 0)), GroupElement(1, np.inf), GroupElement(np.nan, 0)]
    )
    def test_rejects_non_finite_generators(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscreteSubgroup([GroupElement(1, 1j), bad])

    def test_labels_default(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert gamma.labels == ["g0"]

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteSubgroup([GroupElement(1, 1)], ["a", "b"])


class TestFindWord:
    def test_finds_lattice_point(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
        word = find_word(gamma, GroupElement(1, 2 + 1j))
        assert word is not None and len(word) == 3

    def test_identity_is_empty_word(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert find_word(gamma, IDENTITY) == []

    def test_unreachable(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        assert find_word(gamma, GroupElement(1, 0.5)) is None


def random_elements(rng, n):
    """The n rigid motions of ``random_ab``, as elements."""
    return list(map(GroupElement, *random_ab(rng, n)))


class TestRandomElements:
    def test_unimodular_and_seeded(self):
        gs = random_elements(np.random.default_rng(3), 4)
        assert len(gs) == 4 and all(abs(abs(g.a) - 1) < 1e-12 for g in gs)
        assert gs == random_elements(np.random.default_rng(3), 4)


def _bfs_find_word(gamma, target, max_len=6, tol=1e-9, dedup_tol=1e-10):
    """The breadth-first search with a linear-scan dedup, kept as an oracle."""
    if is_identity(target, tol):
        return []
    frontier, seen = [(IDENTITY, [])], [IDENTITY]
    for _ in range(max_len):
        new_frontier = []
        for w, word in frontier:
            for idx, g in gamma.symmetric_generators():
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
        lengths = [len(w) for w in closure.words]
        assert lengths == sorted(lengths) and closure.words[:3] == [[], [1], [-1]]
        for g, word in zip(closure.elements, closure.words):
            prod = IDENTITY
            for i in word:
                gen = SQUARE.generators[abs(i) - 1]
                prod = compose(prod, gen if i > 0 else inverse(gen))
            assert distance(prod, g) < 1e-12

    @pytest.mark.parametrize("offset", [-5e-10, -1e-10, 0.0, 1e-10, 5e-10])
    def test_match_across_cell_edge(self, offset):
        # b sits within 5e-10 of a multiple of half a cell, so whichever way the
        # cells are laid out, entry and query may fall on two sides of an edge
        cell = WordClosure.CELL
        for edge in (3 * cell, 3.5 * cell, 7 + cell / 2):
            closure = WordClosure(DiscreteSubgroup([GroupElement(1, edge + offset)]), tol=1e-9)
            closure.grow(1)
            for query in (edge, edge + offset - 9e-10, edge + offset + 9e-10):
                assert closure.lookup(1 + 0j, complex(query)) == 1
            assert closure.lookup(1 + 0j, complex(edge + offset + 2e-9)) is None

    def test_first_inserted_match_wins(self):
        closure = WordClosure(SQUARE, tol=0.6).grow(1)
        # with a wide tolerance the identity and a translation by 1 both match 0.5
        assert closure.lookup(1 + 0j, 0.5 + 0j) == 0
        assert len(closure.elements) == 5
        assert closure.lookup_all(np.array([1, 1]), np.array([0.5, 0.9])).tolist() == [0, 1]

    def test_lookup_all_across_a_cell_edge(self):
        # entries 1 (b = d) and 3 (b = 2d) are both within tol of b = 2.1e-6, which
        # lies in 2d's cell (side 4 tol, edges at odd multiples of 2 tol): the
        # first-inserted entry 1 wins, although 3 is first in the query's own cell
        tol, d = 1e-6, 1.5e-6
        closure = WordClosure(DiscreteSubgroup([GroupElement(1, d)]), tol).grow(2)
        assert closure.b[[1, 3]].tolist() == [d, 2 * d]
        assert closure.lookup(1 + 0j, 2.1e-6 + 0j) == 1
        assert closure.lookup_all(np.array([1, 1]), np.array([2.1e-6, 2.9e-6])).tolist() == [1, 3]

    @pytest.mark.parametrize("tol", [1e-10, 1e-9, 2.4e-7, 0.3])
    def test_lookup_all_matches_lookup(self, tol):
        # entries, queries within and beyond tol of them, and cell edges; at tol
        # 2.4e-7 and 0.3 nearly every box straddles a cell edge
        closure = WordClosure(P6, tol).grow(5)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(closure.ab), 300)
        scale = tol * np.array([0.0, 0.3, 0.45, 1.5, 3.0])[rng.integers(0, 5, 300)]
        a = closure.a[idx] * np.exp(1j * scale * rng.uniform(-1, 1, 300))
        b = closure.b[idx] + scale * np.exp(2j * np.pi * rng.uniform(size=300))
        cell = max(WordClosure.CELL, 4 * tol)
        b[:20] = np.round(b[:20].real / cell) * cell + 0.5 * cell + 1j * b[:20].imag
        want = [closure.lookup(x, y) for x, y in zip(a.tolist(), b.tolist())]
        got = closure.lookup_all(a, b)
        assert got.tolist() == [-1 if w is None else w for w in want]
        assert (got >= 0).sum() > 100 and (got < 0).sum() > 20

    def test_successor_table(self):
        closure = WordClosure(P6).grow(4)
        for i, row in enumerate(closure.succ):
            if len(closure.words[i]) == 4:
                assert row.tolist() == [-1] * 4  # the last layer is not expanded
                continue
            for (_, g), dst in zip(closure.gens, row):
                assert distance(closure.elements[dst], compose(closure.elements[i], g)) < 1e-12

    def test_find_word_matches_breadth_first_search(self):
        systems = [build_system(load_bundled(n)) for n in ("landau", "conjugate", "alteration")]
        groups = [(s.gamma, [apply_endo(s.rho, g) for g in s.gamma.generators]) for s in systems]
        groups.append((P6, []))
        for gamma, extra in groups:
            targets = enumerate_words(gamma, 4)[::3] + extra
            targets += [GroupElement(1, 0.5), GroupElement(1j, 0.25), GroupElement(-1, 7)]
            for t in targets:
                assert find_word(gamma, t) == _bfs_find_word(gamma, t)


class EdgeClosure:
    """The closure grown one edge at a time with a per-product cell lookup:
    the breadth-first loop that the level-at-a-time growth replaced, kept as
    an oracle."""

    CELL = 1e-6

    def __init__(self, gamma, tol=1e-10):
        self.tol = tol
        self.gens = gamma.symmetric_generators()
        self.elements, self.words, self.succ = [], [], []
        self._cell = max(self.CELL, 4 * tol)
        self._cells = {}
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
        """Yield (source, slot, target, whether the target is new) per edge."""
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
        gamma = self.GROUPS.get(name) or _bundled_group(name)
        length = 6 if name == "p2" else 8
        closure, oracle = WordClosure(gamma, tol).grow(length), EdgeClosure(gamma, tol).grow(length)
        # == on complex ignores the sign of zero, which the two products may differ in
        assert closure.elements == oracle.elements
        assert closure.words == oracle.words
        assert closure.succ.tolist() == oracle.succ

    @pytest.mark.parametrize("name, size", [("p2", 578), ("p3", 1027), ("p4", 976), ("p6", 1880)])
    def test_sizes_at_length_twelve(self, name, size):
        # the exact counts of perfbench/oracle.py, in Z[i] and Z[omega]
        assert len(WordClosure(self.GROUPS[name]).grow(12).elements) == size

    def test_products_through_lookup_match_per_edge_growth(self):
        # at tol 0.3 every box of half-side 0.6 straddles a cell edge, so every
        # product goes through lookup, repeats within a level included
        closure, oracle = WordClosure(SQUARE, 0.3).grow(4), EdgeClosure(SQUARE, 0.3).grow(4)
        assert closure.elements == oracle.elements and closure.words == oracle.words
        assert closure.succ.tolist() == oracle.succ

    def test_cell_mates_farther_than_tol_stay_apart(self):
        # 3e-7 apart: the same 1e-6 cell, but 300 tol away
        gamma = DiscreteSubgroup([GroupElement(1, 3e-7)])
        closure = WordClosure(gamma, tol=1e-9).grow(4)
        assert sorted(round(b.real / 3e-7) for b in closure.b) == list(range(-4, 5))
        assert closure.words == EdgeClosure(gamma, 1e-9).grow(4).words

    def test_stops_once_a_level_adds_nothing(self):
        # the alteration group is finite: a rotation of order 6 about a point
        closure = WordClosure(_bundled_group("alteration")).grow(50)
        assert len(closure.offsets) < 10 and closure.offsets[-1] == closure.offsets[-2] == 6

    def test_coordinates_beyond_the_cell_range(self):
        # 1e13 is beyond 2**52 cells of 1e-6: no invalid cast to int64, and the
        # products out there go through lookup
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = DiscreteSubgroup([GroupElement(1, 1e13), GroupElement(1, 1j)])
            closure = WordClosure(gamma).grow(4)
            oracle = EdgeClosure(gamma).grow(4)
        assert len(closure.elements) == 41
        assert closure.elements == oracle.elements and closure.words == oracle.words
        assert closure.succ.tolist() == oracle.succ

    def test_grows_on_from_where_it_stopped(self):
        closure = WordClosure(P6).grow(3).grow(6)
        assert closure.words == WordClosure(P6).grow(6).words
        assert closure.succ.tolist() == WordClosure(P6).grow(6).succ.tolist()


def _fresh_find_word(gamma, target, max_len=6, tol=1e-9):
    """find_word on a closure of its own, grown from the identity: the search
    that the one closure per subgroup replaced, kept as an oracle."""
    if is_identity(target, tol):
        return []
    closure, t = WordClosure(gamma), np.array([target.a, target.b])
    for lo in closure.levels(max_len):
        hit = [i for i in range(lo, len(closure.ab)) if distance(closure.elements[i], target) <= tol]
        if hit:
            return closure.words[hit[0]]
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
        """The tol of every WordClosure constructed while the test runs."""
        made, init = [], WordClosure.__init__

        def counting_init(self, gamma, tol=DEDUP_TOL):
            made.append(tol)
            init(self, gamma, tol)

        monkeypatch.setattr(WordClosure, "__init__", counting_init)
        return made

    @pytest.mark.parametrize("name", CONFIGS)
    def test_build_system_grows_one_closure(self, name, closures_made):
        system = build_system(self._load(name))
        assert closures_made == [DEDUP_TOL]
        assert len(system.gamma.closure.offsets) >= 5  # the smoke test grew it to length 3

    @pytest.mark.parametrize("name", CONFIGS)
    def test_report_grows_one_closure(self, name, closures_made, capsys):
        from maf.cli import main

        config = str(Path(__file__).resolve().parents[1] / name) if name.endswith(".json") else name
        main(["report", "--config", config])
        capsys.readouterr()
        assert closures_made == [DEDUP_TOL]

    def test_second_rdq_grows_no_level(self):
        from maf.automorphy import PseudoCharacter, rdq_check

        gamma, chi, rho = DiscreteSubgroup(SQUARE.generators), PseudoCharacter([1, 1]), Endomorphism(1, 1)
        assert rdq_check(np.pi, 0.0, rho, gamma, chi, max_word_len=5).passed
        ab, offsets = gamma.closure.ab, list(gamma.closure.offsets)
        assert not rdq_check(1.0, 0.0, rho, gamma, chi, max_word_len=5).passed
        assert gamma.closure.ab is ab and gamma.closure.offsets == offsets

    @pytest.mark.parametrize("name", ["p6", "p2", "p3", "p4", *CONFIGS[:3]])
    def test_find_word_matches_fresh_closure(self, name):
        if name in TestLevelGrowth.GROUPS:
            gamma = TestLevelGrowth.GROUPS[name]
            rho = Endomorphism(1, 1)
        else:
            system = build_system(load_bundled(name))
            gamma, rho = system.gamma, system.rho
        # a fresh subgroup, so that its closure is grown by this test only
        gamma = DiscreteSubgroup(gamma.generators, gamma.labels)
        images = [apply_endo(rho, g) for g in gamma.generators]
        # a long word first grows the closure on; shorter and unreachable targets
        # then search the grown levels, also with max_len below them
        far = WordClosure(gamma).grow(5).elements[-1]
        targets = [far, *images, GroupElement(1, 0.5), GroupElement(-1, 7)]
        for t in targets:
            assert find_word(gamma, t) == _fresh_find_word(gamma, t)
            assert find_word(gamma, t, max_len=2) == _fresh_find_word(gamma, t, max_len=2)
        word = find_word(gamma, far)
        assert len(word) >= 3 and find_word(gamma, far, max_len=len(word) - 1) is None
