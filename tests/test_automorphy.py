import math

import numpy as np
import pytest

from maf import automorphy, groups
from maf.automorphy import (
    CharacterTable,
    PseudoCharacter,
    UnknownGroupElementError,
    character_table,
    j_factor,
    rdq_check,
)
from maf.config import build_system, load_bundled
from maf.equivariant import Endomorphism, tau_from_beta
from maf.fields import Grid
from maf.groups import IDENTITY, MATCH_TOL, DiscreteSubgroup, GroupElement, compose, compose_ab, inverse
from oracles import (
    act,
    chi_value,
    cocycle_defect,
    defect_phase_residuals,
    functional_equation_residual,
    mixed_factor,
    phase,
    table_word,
)
from test_equivariant import apply_endo_oracle
from test_groups import P2, P3, P4, EdgeClosure, _ulp_after, closure_elements

SQUARE = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
# the p6 group of perfbench/p6.json: rotation by pi/3 and a unit translation
P6 = DiscreteSubgroup([GroupElement(0.5 + 0.8660254037844386j, 0), GroupElement(1, 1)])
P6_NU = 3.6275987284684357  # 2 pi / sqrt(3): pi over the covolume of the hexagonal lattice
ID = Endomorphism(1, 1)
CONJ = Endomorphism(-1, 1)


def square_chi(m: int, n: int) -> complex:
    return (-1.0) ** (m * n)


@pytest.fixture(scope="module")
def conj_system():
    return build_system(load_bundled("conjugate"))


class TestJFactor:
    def test_identity_element(self):
        assert j_factor(2.3, IDENTITY.a, IDENTITY.b, 1 + 5j) == 1

    def test_translation(self):
        # g = [1,1]: g^{-1}.0 = -1, Im(i * conj(-1)) = -1
        assert abs(j_factor(1.0, 1, 1, 1j) - np.exp(1j)) < 1e-14

    def test_zero_weight(self):
        assert j_factor(0.0, 1j, 2, 3 + 4j) == 1

    def test_unimodular(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = GroupElement(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.normal() + 1j * rng.normal())
            z = rng.normal() + 1j * rng.normal()
            assert abs(abs(j_factor(1.7, g.a, g.b, z)) - 1) < 1e-12


class TestPhase:
    def test_identity_vanishes(self):
        g = GroupElement(1j, 2)
        assert phase(1.0, 1.0, ID, IDENTITY, g) == 0
        assert phase(1.0, 1.0, ID, g, IDENTITY) == 0

    def test_translation_pair(self):
        assert abs(phase(1.0, 0.0, ID, GroupElement(1, 1), GroupElement(1, 1j)) - 1) < 1e-14

    def test_conjugated_pair(self):
        assert abs(phase(0.0, 1.0, CONJ, GroupElement(1, 1), GroupElement(1, 1j)) + 1) < 1e-14


class TestCocycleDefect:
    def test_trivial_right_factor(self, conj_system):
        s = conj_system
        g = GroupElement(1j, 1 - 1j)
        assert abs(cocycle_defect(s.nu, s.mu, s.rho, s.tau, g, IDENTITY, 0.3 + 0.2j) - 1) < 1e-12

    def test_z_independent_and_matches_phase(self, conj_system):
        s = conj_system
        rng = np.random.default_rng(1)
        grid = Grid(nx=5, ny=5)
        for _ in range(5):
            g = GroupElement(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.normal() + 1j * rng.normal())
            gp = GroupElement(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.normal() + 1j * rng.normal())
            spread, dev = defect_phase_residuals(s.nu, s.mu, s.rho, s.tau, g, gp, grid)
            assert spread < 1e-9
            assert dev < 1e-9

    def test_landau_translations(self):
        tau = tau_from_beta(ID, 0.0)
        spread, dev = defect_phase_residuals(
            np.pi, 0.0, ID, tau, GroupElement(1, 1), GroupElement(1, 1j), Grid(nx=5, ny=5)
        )
        assert spread < 1e-12 and dev < 1e-12


class TestPseudoCharacter:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            PseudoCharacter([0.5])

    def test_dict_roundtrip(self):
        assert PseudoCharacter.from_dict({"values_on_generators": [[0.0, 1.0]]}).values_on_generators == [1j]

    def test_extension_matches_closed_form(self):
        # nu = pi flux on the unit square lattice extends generator values 1
        # to (-1)^{mn} on the translation by m + in
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=6)
        for m, n in [(1, 1), (2, 1), (-1, 3), (2, 2), (-2, -1)]:
            g = GroupElement(1, m + 1j * n)
            assert abs(chi_value(table, g) - square_chi(m, n)) < 1e-10

    def test_extension_consistency_audit(self):
        good = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=6)
        assert good.inconsistency < 1e-10
        bad = CharacterTable(PseudoCharacter([1, 1]), SQUARE, 1.0, 0.0, ID, max_len=6)
        assert bad.inconsistency > 0.1

    def test_unknown_element(self):
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=4)
        with pytest.raises(UnknownGroupElementError):
            chi_value(table, GroupElement(1, 0.5))

    def test_p6_table_size_and_words(self):
        table = CharacterTable(PseudoCharacter([1, -1]), P6, P6_NU, 0.0, ID, max_len=8)
        assert len(table.entries) == 712
        assert table_word(table, closure_elements(table.closure)[100]) == table.closure.word(100)
        with pytest.raises(UnknownGroupElementError):
            table_word(table, GroupElement(np.exp(2j * np.pi / 3), 1 + 1j))  # 1 + i is off the lattice

    def test_refuses_words_past_its_length(self, fresh_groups):
        # rdq at length 6 grows the closure, on a cleared memo, to 12; a table at 8
        # still reads only the words of length <= 8
        gamma = DiscreteSubgroup(SQUARE.generators)
        chi = PseudoCharacter([1, 1])
        rdq_check(np.pi, 0.0, ID, gamma, chi, max_word_len=6)
        assert len(gamma.closure.offsets) == 14
        table = CharacterTable(chi, gamma, np.pi, 0.0, ID, max_len=8)
        assert len(table.entries) == 2 * 8 * 9 + 1
        assert max(len(w) for _, _, w in table.entries) == 8
        assert chi_value(table, GroupElement(1, 8)) == square_chi(8, 0)
        far = GroupElement(1, 10)
        assert gamma.closure.lookup_all([far.a], [far.b])[0] >= 0  # in the closure, past the table
        for method in (chi_value, table_word):
            with pytest.raises(UnknownGroupElementError):
                method(table, far)

    def test_nan_phase_stays_nan(self):
        # the wrap to [-pi, pi) turns no NaN into -pi, so a NaN flux reads as NaN, and rdq fails
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.nan, 0.0, ID, max_len=2)
        assert table.theta[0] == 0 and np.isnan(table.theta[1:]).all()
        rep = rdq_check(np.nan, 0.0, ID, SQUARE, PseudoCharacter([1, 1]), max_word_len=1)
        assert np.isnan(rep.max_residual) and not rep.passed

    def test_generator_count_mismatch(self):
        with pytest.raises(ValueError):
            CharacterTable(PseudoCharacter([1]), SQUARE, 1.0, 0.0, ID)


class TestValuesAt:
    """``indices`` finds the entries of many elements in one ``lookup_all`` of the
    closure, and chi is read there."""

    @pytest.fixture(scope="class")
    def table(self):
        # on a closure of its own, dropped from the memo after the class: ``counted_lookups``
        # leaves the real lookup_all on the instance it patched, where a class patch misses it
        groups._read.cache_clear()
        yield CharacterTable(PseudoCharacter([1, -1]), DiscreteSubgroup(P6.generators), P6_NU, 0.0, ID, max_len=8)
        groups._read.cache_clear()

    @staticmethod
    def counted_lookups(monkeypatch, closure) -> list:
        calls, real = [], closure.lookup_all
        monkeypatch.setattr(closure, "lookup_all", lambda *x: calls.append(x) or real(*x))
        return calls

    def test_every_p6_entry(self, table, monkeypatch):
        closure = table.closure
        calls = self.counted_lookups(monkeypatch, closure)
        got = table.indices(closure.a[:712].reshape(8, 89), closure.b[:712].reshape(8, 89))
        assert len(calls) == 1
        assert got.shape == (8, 89) and len(table.values) == 712
        assert np.array_equal(got.ravel(), np.arange(712))
        monkeypatch.undo()
        want = [chi_value(table, g) for g, _, _ in table.entries]
        assert np.array_equal(table.values[got].ravel(), want)

    def test_nudged_within_tol(self, table, monkeypatch):
        rng = np.random.default_rng(0)
        closure, tol = table.closure, MATCH_TOL
        idx = rng.integers(0, 712, 400)
        # |da| + |db| <= 0.4 tol + 0.55 tol; a stays on the unit circle
        a = closure.a[idx] * np.exp(0.4j * tol * rng.uniform(-1, 1, 400))
        b = closure.b[idx] + 0.55 * tol * np.exp(2j * np.pi * rng.uniform(size=400))
        calls = self.counted_lookups(monkeypatch, closure)
        got = table.indices(a, b)
        assert len(calls) == 1
        assert got.tolist() == idx.tolist()
        assert np.array_equal(table.values[got], table.values[idx])

    def test_unknown_elements_raise(self, table):
        closure = table.closure
        a, b = closure.a[:5].copy(), closure.b[:5].copy()
        b[3] += 1 + 1j  # off the lattice
        with pytest.raises(UnknownGroupElementError, match=r"element \[.*\] not among the words of length <= 8"):
            table.indices(a, b)
        b[3] = closure.b[3] + 3 * MATCH_TOL  # beyond tol
        with pytest.raises(UnknownGroupElementError):
            table.indices(a, b)

    def test_words_past_the_table_raise(self, fresh_groups):
        gamma = DiscreteSubgroup(SQUARE.generators)
        table = CharacterTable(PseudoCharacter([1, 1]), gamma, np.pi, 0.0, ID, max_len=4)
        gamma.closure.grow(6)
        assert table.values[table.indices(np.array([1, 1]), np.array([4, 3j]))].tolist() == [1, 1]
        with pytest.raises(UnknownGroupElementError):
            table.indices(np.array([1, 1]), np.array([4, 5]))


def edge_character_table(chi, gamma, nu, mu, rho, max_len):
    """chi carried edge by edge over the per-edge closure: the loop that the
    level-at-a-time extension replaced, kept as an oracle."""
    closure = EdgeClosure(gamma)
    gens = [g for _, g in closure.gens]
    steps = []
    for i, v in enumerate(chi.values_on_generators):
        steps += [v, v.conjugate() * np.exp(-1j * phase(nu, mu, rho, gens[2 * i], gens[2 * i + 1]))]
    values, inconsistency = [1.0 + 0j], 0.0
    for src, slot, dst, new in closure.edges(max_len):
        w = closure.elements[src]
        cval = values[src] * steps[slot] * np.exp(1j * phase(nu, mu, rho, w, gens[slot]))
        if new:
            values.append(cval)
        else:
            inconsistency = max(inconsistency, abs(cval - values[dst]))
    return closure, values, inconsistency


class TestLevelExtension:
    CASES = {
        "p6": (PseudoCharacter([1, -1]), P6, P6_NU, 0.0, ID),
        "square_unquantized": (PseudoCharacter([1, 1]), SQUARE, 1.0, 0.0, ID),
        "p2": (PseudoCharacter([1j, 1, -1]), P2, np.pi, 0.0, ID),
        "p3": (PseudoCharacter([1, np.exp(0.3j)]), P3, 2.0, 0.0, ID),
        "p4_conjugated": (PseudoCharacter([1, 1]), P4, np.pi, 0.7, CONJ),
    }

    @pytest.mark.parametrize("name", ["landau", "conjugate", "alteration", *CASES])
    def test_matches_per_edge_extension(self, name):
        if name in self.CASES:
            chi, gamma, nu, mu, rho = self.CASES[name]
        else:
            s = build_system(load_bundled(name))
            chi, gamma, nu, mu, rho = s.chi, s.gamma, s.nu, s.mu, s.rho
        table = CharacterTable(chi, gamma, nu, mu, rho, max_len=6)
        closure, values, inconsistency = edge_character_table(chi, gamma, nu, mu, rho, 6)
        # the table is the length-6 prefix of gamma.closure, which other tests
        # may have grown further
        entry_elements, _, words = map(list, zip(*table.entries))
        assert entry_elements == closure.elements
        assert words == closure.words
        # chi is carried as phases, reduced to [-pi, pi) at each level, so it meets
        # the complex products of the oracle to round-off
        assert ((-np.pi <= table.theta) & (table.theta < np.pi)).all()
        assert np.array_equal(table.values, np.exp(1j * table.theta))
        assert np.abs(table.values - values).max() <= 2e-14
        assert abs(table.inconsistency - inconsistency) <= 2e-14

    @pytest.mark.parametrize("name", ["conjugate", "alteration", "p6", "p4_conjugated"])
    def test_table_on_grown_closure_matches_fresh_subgroup(self, name, fresh_groups):
        # the bit-for-bit case for sharing one closure: a table on a closure grown past it
        # is the table on a closure grown only to it
        if name in self.CASES:
            chi, gamma, nu, mu, rho = self.CASES[name]
        else:
            s = build_system(load_bundled(name))
            chi, gamma, nu, mu, rho = s.chi, s.gamma, s.nu, s.mu, s.rho
        grown = DiscreteSubgroup(gamma.generators)
        grown.closure.grow(12)
        grown_table = CharacterTable(chi, grown, nu, mu, rho, max_len=6)
        groups._read.cache_clear()  # so that the fresh subgroup makes its own closure
        fresh = DiscreteSubgroup(gamma.generators)
        assert fresh.closure is not grown.closure
        tables = [grown_table, CharacterTable(chi, fresh, nu, mu, rho, max_len=6)]
        assert len(grown.closure.offsets) > len(fresh.closure.offsets) or name == "alteration"
        for attr in ("theta", "values", "parent", "slot", "u", *(("ru", "rv") if mu else ())):
            a, b = (getattr(t, attr) for t in tables)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        assert tables[0].inconsistency == tables[1].inconsistency
        assert [w for *_, w in tables[0].entries] == [w for *_, w in tables[1].entries]

    @pytest.mark.parametrize("name", ["conjugate", "alteration", "p4_conjugated"])
    def test_rho_images_match_per_element_oracle(self, name):
        if name in self.CASES:
            chi, gamma, nu, mu, rho = self.CASES[name]
        else:
            s = build_system(load_bundled(name))
            chi, gamma, nu, mu, rho = s.chi, s.gamma, s.nu, s.mu, s.rho
        table = CharacterTable(chi, gamma, nu, mu, rho, max_len=6)
        els = [g for g, _, _ in table.entries]
        assert table.ru.tolist() == [act(apply_endo_oracle(rho, inverse(g)), 0.0) for g in els]
        assert table.rv.tolist() == [act(apply_endo_oracle(rho, g), 0.0) for g in els]


def system_factor(s, g: GroupElement, z):
    """chi(g) j^nu(g, z) j^mu(rho(g), tau(z)) of the system s, from its character table."""
    return mixed_factor(s.nu, s.mu, s.rho, s.tau, s.chi_table, g, z)


class TestMixedFactor:
    def test_identity_gives_one(self, conj_system):
        s = conj_system
        assert abs(system_factor(s, IDENTITY, 1 + 1j) - 1) < 1e-12

    def test_landau_reduction(self):
        s = build_system(load_bundled("landau"))
        g = s.gamma.generators[0]
        z = 0.7 - 0.1j
        assert abs(system_factor(s, g, z) - j_factor(s.nu, g.a, g.b, z)) < 1e-12

    def test_componentwise_oracle(self, conj_system):
        s = conj_system
        g = s.gamma.generators[0]
        z = 1j
        expected = (
            chi_value(s.chi_table, g)
            * j_factor(s.nu, g.a, g.b, z)
            * j_factor(s.mu, g.a.conjugate(), g.b.conjugate(), z.conjugate())
        )
        assert abs(system_factor(s, g, z) - expected) < 1e-14

    def test_unimodular(self, conj_system):
        s = conj_system
        g = compose(s.gamma.generators[0], s.gamma.generators[0])
        assert abs(abs(system_factor(s, g, 0.2 - 1.4j)) - 1) < 1e-12

    def test_exact_cocycle_with_quantized_chi(self):
        # with a passing character the full factor composes exactly
        tau = tau_from_beta(ID, 0.0)
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=8)
        rng = np.random.default_rng(2)
        for _ in range(5):
            m1, n1, m2, n2 = rng.integers(-2, 3, 4)
            g = GroupElement(1, m1 + 1j * n1)
            gp = GroupElement(1, m2 + 1j * n2)
            z = rng.normal() + 1j * rng.normal()
            lhs = mixed_factor(np.pi, 0.0, ID, tau, table, compose(g, gp), z)
            rhs = mixed_factor(np.pi, 0.0, ID, tau, table, g, act(gp, z)) * mixed_factor(
                np.pi, 0.0, ID, tau, table, gp, z
            )
            assert abs(lhs - rhs) < 1e-9


class TestRdqCheck:
    def test_quantized_square_lattice_passes(self):
        rep = rdq_check(np.pi, 0.0, ID, SQUARE, PseudoCharacter([1, 1]))
        assert rep.passed and rep.max_residual < 1e-10

    def test_unquantized_flux_fails(self):
        rep = rdq_check(1.0, 0.0, ID, SQUARE, PseudoCharacter([1, 1]))
        assert not rep.passed and rep.max_residual >= 0.1
        assert rep.metadata["worst_pair"]["left"]

    def test_trivial_group_passes(self):
        rep = rdq_check(1.0, 0.0, ID, DiscreteSubgroup([]), PseudoCharacter([]))
        assert rep.passed and rep.max_residual == 0

    def test_rank_one_always_passes(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        rep = rdq_check(2.7, 0.0, ID, gamma, PseudoCharacter([np.exp(0.4j)]))
        assert rep.passed

    # (nu, gamma, chi, max_word_len) -> (max, mean, inconsistency, worst pair),
    # as the pairwise scan over the linear-scan table reported them; the worst
    # pair is None where round-off picks it among tied pairs
    RECORDED = [
        (np.pi, SQUARE, [1, 1], 6, 1.445330815248512e-14, 1.3935499533171178e-15,
         6.246936636924677e-15, None, None),
        (1.0, SQUARE, [1, 1], 6, 1.9835577068862311, 0.9170308731053869,
         1.9999804131014072, [2] * 6, [1] * 6),
        (1.0, SQUARE, [1, 1], 4, 1.978716493246764, 0.7891383242972166,
         1.9178485493262771, None, None),
        (1.0, SQUARE, [1, 1], 5, 1.9787164932467642, 0.8610058117649179,
         1.978716493246764, None, None),
        (P6_NU, P6, [1, -1], 4, 5.451535198115487e-15, 5.449801328135552e-16,
         5.512148557436266e-15, None, None),
    ]

    @staticmethod
    def scalar_residual(nu, mu, rho, table, g, gp):
        """|chi(g g') - chi(g) chi(g') e^{i phase(g, g')}|, one group element at a time."""
        chi = lambda h: chi_value(table, h)
        return abs(chi(compose(g, gp)) - chi(g) * chi(gp) * np.exp(1j * phase(nu, mu, rho, g, gp)))

    @pytest.mark.parametrize(
        "case", RECORDED, ids=["landau_pi", "landau_1", "landau_1_len4", "landau_1_len5", "p6"]
    )
    def test_matches_recorded_scan(self, case):
        nu, gamma, chi, length, mx, mean, incons, left, right = case
        rep = rdq_check(nu, 0.0, ID, gamma, PseudoCharacter(chi), max_word_len=length)
        assert rep.passed == (mx <= 1e-10)
        if left is not None:
            assert rep.metadata["worst_pair"] == {"left": left, "right": right}
        # the named pair attains the maximum, by the scalar formula
        table = CharacterTable(PseudoCharacter(chi), gamma, nu, 0.0, ID, max_len=2 * length)
        word_elements = {tuple(w): g for g, _, w in table.entries}
        g, gp = (word_elements[tuple(rep.metadata["worst_pair"][side])] for side in ("left", "right"))
        assert abs(self.scalar_residual(nu, 0.0, ID, table, g, gp) - rep.max_residual) <= 1e-13
        assert abs(rep.max_residual - mx) <= 1e-13
        assert abs(rep.mean_residual - mean) <= 1e-13
        assert abs(rep.metadata["extension_inconsistency"] - incons) <= 1e-13

    # name -> (nu, gamma, chi, word length, least largest |phase|): the bundled conjugate and alteration
    # systems, where mu != 0; p6 and the square lattice at the closure benchmark's fluxes, at word
    # lengths whose phases pass 30 rad, so that the sweep takes off multiples of 2 pi; at nu = 1 it fails
    SCALAR_CASES = {
        "conjugate": (None, None, None, 3, 0.0),
        "alteration": (None, None, None, 3, 0.0),
        "p6": (P6_NU, P6, [1, -1], 4, 30.0),
        "square_pi": (np.pi, SQUARE, [1, 1], 4, 30.0),
        "square_1": (1.0, SQUARE, [1, 1], 6, 30.0),
    }

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    def test_pairs_against_scalar_formula(self, name):
        # every pair residual recomputed one pair at a time, by complex products of chi's values,
        # with each product g g' looked up in the closure afresh, agrees with the sweep over the
        # phases to round-off
        nu, gamma, chi, length, least_phase = self.SCALAR_CASES[name]
        if gamma is None:
            s = build_system(load_bundled(name))
            nu, mu, rho, gamma, chi = s.nu, s.mu, s.rho, s.gamma, s.chi
        else:
            mu, rho, chi = 0.0, ID, PseudoCharacter(chi)
        rep = rdq_check(nu, mu, rho, gamma, chi, max_word_len=length)
        table = CharacterTable(chi, gamma, nu, mu, rho, max_len=2 * length)
        short = [(g, x) for g, x, w in table.entries if len(w) <= length]
        pairs = [(g, x, gp, xp) for g, x in short for gp, xp in short]
        products = [compose(g, gp) for g, _, gp, _ in pairs]
        at = table.indices(np.array([h.a for h in products]), np.array([h.b for h in products]))
        phases = [phase(nu, mu, rho, g, gp) for g, _, gp, _ in pairs]
        res = [abs(table.values[k] - x * xp * np.exp(1j * ph)) for k, ph, (_, x, _, xp) in zip(at, phases, pairs)]
        assert max(map(abs, phases)) >= least_phase and rep.passed == (name != "square_1")
        assert abs(rep.max_residual - max(res)) <= 2e-14
        assert abs(rep.mean_residual - math.fsum(res) / len(res)) <= 2e-14

    NUDGE_CASES = {
        "square_pi": (SQUARE, np.pi, [1, 1], 6, 2e-14),
        "p6": (P6, P6_NU, [1, -1], 6, 5e-14),
    }

    @pytest.mark.parametrize("name", sorted(NUDGE_CASES))
    @pytest.mark.parametrize("generator", [0, 1])
    def test_nudged_generator_entry_fails(self, name, generator, monkeypatch):
        # chi on one generator's entry times e^{1e-9 i}: the pairs through it fail
        gamma, nu, chi, length, clean = self.NUDGE_CASES[name]
        table = CharacterTable(PseudoCharacter(chi), gamma, nu, 0.0, ID, max_len=2 * length)
        monkeypatch.setattr(automorphy, "character_table", lambda *args, **kwargs: table)
        rep = rdq_check(nu, 0.0, ID, gamma, PseudoCharacter(chi), max_word_len=length)
        assert rep.passed and rep.max_residual <= clean
        k = [w for *_, w in table.entries].index([generator + 1])
        table.theta = table.theta.copy()
        table.theta[k] += 1e-9
        rep = rdq_check(nu, 0.0, ID, gamma, PseudoCharacter(chi), max_word_len=length)
        assert not rep.passed and rep.max_residual >= 5e-10
        assert [generator + 1] in rep.metadata["worst_pair"].values()

    def test_nudged_rotation_value_fails_p6(self):
        # a chi off the solution set: chi(r)^6 = 1 is broken by 6e-9
        chi = PseudoCharacter([np.exp(1e-9j), -1])
        rep = rdq_check(P6_NU, 0.0, ID, P6, chi, max_word_len=6)
        assert not rep.passed and rep.max_residual >= 5e-10
        assert rdq_check(P6_NU, 0.0, ID, P6, PseudoCharacter([1, -1]), max_word_len=6).max_residual <= 5e-14

    def test_convention_echoed(self):
        rep = rdq_check(np.pi, 0.0, ID, SQUARE, PseudoCharacter([1, 1]))
        assert "convention" in rep.metadata


class TestFunctionalEquation:
    def test_zero_function(self):
        s = build_system(load_bundled("conjugate"))
        rep = functional_equation_residual(
            lambda z: 0.0,
            s.nu, s.mu, s.rho, s.tau, s.chi_table,
            s.gamma.generators[0], Grid(nx=5, ny=5),
        )
        assert rep.max_residual == 0

    def test_ground_state_satisfies_equation(self):
        # weighted Gaussian matched to the rank-one character e^{2 pi i / 4}
        s = build_system(load_bundled("conjugate"))
        alpha = 0.25
        B = s.B

        def f(z):
            return np.exp(-1j * s.phi(z)) * np.exp(
                -(B / 2) * abs(z) ** 2 + (B / 2) * z**2 + 2j * np.pi * alpha * z
            )

        rep = functional_equation_residual(
            f, s.nu, s.mu, s.rho, s.tau, s.chi_table,
            s.gamma.generators[0], Grid(nx=7, ny=7),
        )
        assert rep.max_residual < 1e-8

    def test_constant_function_fails(self):
        s = build_system(load_bundled("conjugate"))
        rep = functional_equation_residual(
            lambda z: 1.0, s.nu, s.mu, s.rho, s.tau, s.chi_table,
            s.gamma.generators[0], Grid(nx=5, ny=5),
        )
        assert rep.max_residual > 0.1


class TestTableMemo:
    """``character_table`` keeps one table per exact input on the closure it indexes."""

    SQ = (SQUARE.generators, PseudoCharacter([1, 1]))  # made into a fresh subgroup by each test

    def test_equal_inputs_share_one_read_only_table(self, fresh_groups):
        gens, chi = self.SQ
        gamma, rho = DiscreteSubgroup(gens), Endomorphism(-1, 1, 0.3)
        table = character_table(chi, gamma, np.pi, 0.5, rho, 6)
        assert character_table(PseudoCharacter([1, 1]), DiscreteSubgroup(gens), np.pi, 0.5, rho, 6) is table
        assert CharacterTable(chi, gamma, np.pi, 0.5, rho, 6) is not table  # the constructor builds anew
        for name in ("theta", "values", "u", "ru", "rv", "parent", "slot"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0

    # each one ulp, or the sign of a zero, from BASE
    BASE = dict(chi=PseudoCharacter([1, 1j]), nu=np.pi, mu=0.5, rho=Endomorphism(1, 1, 0.25), max_len=4)
    NEAR = {
        "nu": dict(nu=_ulp_after(np.pi)),
        "mu": dict(mu=_ulp_after(0.5)),
        "chi": dict(chi=PseudoCharacter([1, complex(_ulp_after(0.0), 1)])),
        "chi_minus_zero": dict(chi=PseudoCharacter([1, complex(-0.0, 1)])),
        "rho_c": dict(rho=Endomorphism(1, _ulp_after(1.0), 0.25)),
        "rho_beta": dict(rho=Endomorphism(1, 1, _ulp_after(0.25))),
        "rho_n": dict(rho=Endomorphism(-1, 1, 0.25)),
        "max_len": dict(max_len=5),
    }

    @pytest.mark.parametrize("change", NEAR)
    def test_near_equal_inputs_get_distinct_tables(self, fresh_groups, change):
        gamma = DiscreteSubgroup(self.SQ[0])
        table = character_table(gamma=gamma, **self.BASE)
        assert character_table(gamma=gamma, **self.BASE) is table
        assert character_table(gamma=gamma, **{**self.BASE, **self.NEAR[change]}) is not table
        assert len(gamma.closure.tables) == 2

    def test_table_dict_stays_at_its_bound(self, fresh_groups):
        gens, chi = self.SQ
        gamma = DiscreteSubgroup(gens)
        first = character_table(chi, gamma, 0.5, 0.0, ID, 4)
        for nu in np.linspace(1.0, 2.0, 100):
            character_table(chi, gamma, nu, 0.0, ID, 4)
            assert len(gamma.closure.tables) <= automorphy.TABLES_KEPT
        assert len(gamma.closure.tables) == automorphy.TABLES_KEPT
        assert character_table(chi, gamma, 0.5, 0.0, ID, 4) is not first  # evicted, built again

    def test_least_recently_used_table_goes_first(self, fresh_groups):
        gens, chi = self.SQ
        gamma = DiscreteSubgroup(gens)
        made = [character_table(chi, gamma, nu, 0.0, ID, 4) for nu in range(automorphy.TABLES_KEPT)]
        assert character_table(chi, gamma, 0, 0.0, ID, 4) is made[0]  # now the most recent
        character_table(chi, gamma, 100.0, 0.0, ID, 4)
        assert character_table(chi, gamma, 0, 0.0, ID, 4) is made[0]
        assert character_table(chi, gamma, 1, 0.0, ID, 4) is not made[1]

    @pytest.mark.parametrize("order", [(np.pi, 1.0), (1.0, np.pi)])
    def test_negative_control_on_one_closure(self, fresh_groups, order):
        # the two fluxes share the closure and its product index, and keep their own tables
        gens, chi = self.SQ
        gamma = DiscreteSubgroup(gens)
        reps = {nu: rdq_check(nu, 0.0, ID, gamma, chi, max_word_len=6) for nu in order}
        assert reps[np.pi].passed and reps[np.pi].max_residual <= 1e-10
        assert not reps[1.0].passed and reps[1.0].max_residual >= 0.1

    def test_patched_phase_makes_rdq_fail(self, fresh_groups, monkeypatch):
        # chi carried along edge phases off by 0.5 nu: rdq, reading that table, fails
        gens, chi = self.SQ
        assert rdq_check(np.pi, 0.0, ID, DiscreteSubgroup(gens), chi, max_word_len=4).passed
        groups._read.cache_clear()  # the table above would otherwise be served again
        gamma, real = DiscreteSubgroup(gens), automorphy._im_conj_outer
        with monkeypatch.context() as patch:
            patch.setattr(automorphy, "_im_conj_outer", lambda u, v: real(u, v) + 0.5)
            character_table(chi, gamma, np.pi, 0.0, ID, 8)  # kept, and read by rdq at length 4
        rep = rdq_check(np.pi, 0.0, ID, gamma, chi, max_word_len=4)
        assert not rep.passed and rep.max_residual >= 0.1

    def test_product_index_is_kept_read_only_and_right(self, fresh_groups):
        gamma = DiscreteSubgroup(P6.generators)
        rdq_check(P6_NU, 0.0, ID, gamma, PseudoCharacter([1, -1]), max_word_len=3)
        hit = gamma.closure.products[3]
        rdq_check(1.0, 0.0, ID, gamma, PseudoCharacter([1, 1]), max_word_len=3)
        assert list(gamma.closure.products) == [3] and gamma.closure.products[3] is hit  # one per word length
        with pytest.raises(ValueError):
            hit[0, 0] = 1
        # every entry is the entry of the product in the closure
        a, b = (x[: len(hit)] for x in (gamma.closure.a, gamma.closure.b))
        pa, pb = (x.ravel() for x in np.broadcast_arrays(*compose_ab(a[:, None], b[:, None], a, b)))
        assert np.array_equal(gamma.closure.lookup_all(pa, pb), hit.ravel())

