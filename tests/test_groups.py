import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maf.config import build_system, load_bundled
from maf.equivariant import apply_endo
from maf.groups import (
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
    is_identity,
    random_elements,
    stabilizer_residual,
)

SQUARE = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
# the p6 group of perfbench/p6.json: rotation by pi/3 and a unit translation
P6 = DiscreteSubgroup([GroupElement(0.5 + 0.8660254037844386j, 0), GroupElement(1, 1)])

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

    def test_successor_table(self):
        closure = WordClosure(P6).grow(4)
        for i, row in enumerate(closure.succ):
            if len(closure.words[i]) == 4:
                assert row == [-1] * 4  # the last layer is not expanded
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
