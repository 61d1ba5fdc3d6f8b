import numpy as np
import pytest

from maf.automorphy import (
    CharacterTable,
    PseudoCharacter,
    UnknownGroupElementError,
    cocycle_defect,
    defect_phase_residuals,
    functional_equation_residual,
    j_factor,
    mixed_factor,
    mixed_factor_nochi,
    phase,
    rdq_check,
)
from maf.config import build_system, load_bundled
from maf.equivariant import Endomorphism, tau_from_beta
from maf.fields import Grid, ScalarField
from maf.groups import IDENTITY, DiscreteSubgroup, GroupElement, act, compose

SQUARE = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
# the p6 group of perfbench/p6.json: rotation by pi/3 and a unit translation
P6 = DiscreteSubgroup([GroupElement(0.5 + 0.8660254037844386j, 0), GroupElement(1, 1)])
P6_NU = 3.6275987284684357  # 2 pi / sqrt(3): pi over the covolume of the hexagonal lattice
ID = Endomorphism("identity")
CONJ = Endomorphism("complex_conjugate")


def square_chi(m: int, n: int) -> complex:
    return (-1.0) ** (m * n)


@pytest.fixture(scope="module")
def conj_system():
    return build_system(load_bundled("conjugate"))


class TestJFactor:
    def test_identity_element(self):
        assert j_factor(2.3, IDENTITY, 1 + 5j) == 1

    def test_translation(self):
        # g = [1,1]: g^{-1}.0 = -1, Im(i * conj(-1)) = -1
        assert abs(j_factor(1.0, GroupElement(1, 1), 1j) - np.exp(1j)) < 1e-14

    def test_zero_weight(self):
        assert j_factor(0.0, GroupElement(1j, 2), 3 + 4j) == 1

    def test_unimodular(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = GroupElement(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.normal() + 1j * rng.normal())
            z = rng.normal() + 1j * rng.normal()
            assert abs(abs(j_factor(1.7, g, z)) - 1) < 1e-12


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
        chi = PseudoCharacter([1j])
        assert PseudoCharacter.from_dict(chi.to_dict()).values_on_generators == [1j]

    def test_extension_matches_closed_form(self):
        # nu = pi flux on the unit square lattice extends generator values 1
        # to (-1)^{mn} on the translation by m + in
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=6)
        for m, n in [(1, 1), (2, 1), (-1, 3), (2, 2), (-2, -1)]:
            g = GroupElement(1, m + 1j * n)
            assert abs(table.value(g) - square_chi(m, n)) < 1e-10

    def test_extension_consistency_audit(self):
        good = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=6)
        assert good.inconsistency < 1e-10
        bad = CharacterTable(PseudoCharacter([1, 1]), SQUARE, 1.0, 0.0, ID, max_len=6)
        assert bad.inconsistency > 0.1

    def test_unknown_element(self):
        table = CharacterTable(PseudoCharacter([1, 1]), SQUARE, np.pi, 0.0, ID, max_len=4)
        with pytest.raises(UnknownGroupElementError):
            table.value(GroupElement(1, 0.5))

    def test_p6_table_size_and_words(self):
        table = CharacterTable(PseudoCharacter([1, -1]), P6, P6_NU, 0.0, ID, max_len=8)
        assert len(table.entries) == 712
        assert table.word(table.closure.elements[100]) == table.closure.words[100]
        with pytest.raises(UnknownGroupElementError):
            table.word(GroupElement(np.exp(2j * np.pi / 3), 1 + 1j))  # 1 + i is off the lattice

    def test_generator_count_mismatch(self):
        with pytest.raises(ValueError):
            CharacterTable(PseudoCharacter([1]), SQUARE, 1.0, 0.0, ID)


class TestMixedFactor:
    def test_identity_gives_one(self, conj_system):
        s = conj_system
        assert abs(s.factor(IDENTITY, 1 + 1j) - 1) < 1e-12

    def test_landau_reduction(self):
        s = build_system(load_bundled("landau"))
        g = s.gamma.generators[0]
        z = 0.7 - 0.1j
        assert abs(s.factor(g, z) - j_factor(s.nu, g, z)) < 1e-12

    def test_componentwise_oracle(self, conj_system):
        s = conj_system
        g = s.gamma.generators[0]
        z = 1j
        expected = (
            s.chi_table.value(g)
            * j_factor(s.nu, g, z)
            * j_factor(s.mu, GroupElement(g.a.conjugate(), g.b.conjugate()), z.conjugate())
        )
        assert abs(s.factor(g, z) - expected) < 1e-14

    def test_unimodular(self, conj_system):
        s = conj_system
        g = compose(s.gamma.generators[0], s.gamma.generators[0])
        assert abs(abs(s.factor(g, 0.2 - 1.4j)) - 1) < 1e-12

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

    def test_rank_one_always_passes(self):
        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        rep = rdq_check(2.7, 0.0, ID, gamma, PseudoCharacter([np.exp(0.4j)]))
        assert rep.passed

    # (nu, gamma, chi, max_word_len) -> (max, mean, inconsistency, worst pair),
    # as the pairwise scan over the linear-scan table reported them
    RECORDED = [
        (np.pi, SQUARE, [1, 1], 6, 1.445330815248512e-14, 1.3935499533171178e-15,
         6.246936636924677e-15, [2] * 5, [1] * 6),
        (1.0, SQUARE, [1, 1], 6, 1.9835577068862311, 0.9170308731053869,
         1.9999804131014072, [2] * 6, [1] * 6),
        # round-off decides between tied pairs here
        (1.0, SQUARE, [1, 1], 4, 1.978716493246764, 0.7891383242972166,
         1.9178485493262771, [2] * 4, [1, 1, -2]),
        (1.0, SQUARE, [1, 1], 5, 1.9787164932467642, 0.8610058117649179,
         1.978716493246764, [2] * 4, [1, 1, 2, 2, 2]),
        (P6_NU, P6, [1, -1], 4, 5.451535198115487e-15, 5.449801328135552e-16,
         5.512148557436266e-15, [2, 1, 2, 2], [-2, 1, -2, -2]),
    ]

    @pytest.mark.parametrize(
        "case", RECORDED, ids=["landau_pi", "landau_1", "landau_1_len4", "landau_1_len5", "p6"]
    )
    def test_matches_recorded_scan(self, case):
        nu, gamma, chi, length, mx, mean, incons, left, right = case
        rep = rdq_check(nu, 0.0, ID, gamma, PseudoCharacter(chi), max_word_len=length)
        assert rep.passed == (mx <= 1e-10)
        assert rep.metadata["worst_pair"] == {"left": left, "right": right}
        assert abs(rep.max_residual - mx) <= 1e-13
        assert abs(rep.mean_residual - mean) <= 1e-13
        assert abs(rep.metadata["extension_inconsistency"] - incons) <= 1e-13

    @pytest.mark.parametrize("name", ["conjugate", "alteration"])
    def test_pairs_against_scalar_formula(self, name):
        # mu != 0; every pair residual recomputed one group element at a time
        # must agree to the last bit, so the report matches the pairwise scan
        s = build_system(load_bundled(name))
        rep = rdq_check(s.nu, s.mu, s.rho, s.gamma, s.chi, max_word_len=3)
        table = CharacterTable(s.chi, s.gamma, s.nu, s.mu, s.rho, max_len=6)
        short = [e for e in table.entries if len(e[2]) <= 3]
        res = [
            abs(table.value(compose(g, gp)) - vg * vgp * np.exp(1j * phase(s.nu, s.mu, s.rho, g, gp)))
            for g, vg, _ in short
            for gp, vgp, _ in short
        ]
        assert rep.max_residual == max(res)
        assert rep.mean_residual == sum(res) / len(res)

    def test_convention_echoed(self):
        rep = rdq_check(np.pi, 0.0, ID, SQUARE, PseudoCharacter([1, 1]))
        assert "convention" in rep.metadata


class TestFunctionalEquation:
    def test_zero_function(self):
        s = build_system(load_bundled("conjugate"))
        rep = functional_equation_residual(
            ScalarField(lambda z: 0.0),
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
            ScalarField(f), s.nu, s.mu, s.rho, s.tau, s.chi_table,
            s.gamma.generators[0], Grid(nx=7, ny=7),
        )
        assert rep.max_residual < 1e-8

    def test_constant_function_fails(self):
        s = build_system(load_bundled("conjugate"))
        rep = functional_equation_residual(
            ScalarField(lambda z: 1.0), s.nu, s.mu, s.rho, s.tau, s.chi_table,
            s.gamma.generators[0], Grid(nx=5, ny=5),
        )
        assert rep.max_residual > 0.1
