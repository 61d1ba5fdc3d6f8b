import numpy as np
import pytest

from maf.equivariant import (
    Endomorphism,
    EquivariantMap,
    apply_endo,
    check_equivariance,
    classify_separated,
    homomorphism_report,
    tau_from_beta,
    xi_rho,
)
from maf.groups import GroupElement, act, compose, distance, inverse

H = GroupElement(np.exp(1j * np.pi / 3), 1.0)


class TestApplyEndo:
    def test_identity(self):
        g = GroupElement(1j, 2 - 1j)
        assert apply_endo(Endomorphism("identity"), g) == g

    def test_conjugation_matrix_oracle(self):
        h = GroupElement(1, 1)
        rho = Endomorphism("conjugation", h=h)
        g = GroupElement(1j, 0)
        expected = compose(compose(h, g), inverse(h))
        assert distance(apply_endo(rho, g), expected) < 1e-14
        assert distance(apply_endo(rho, g), GroupElement(1j, 1 - 1j)) < 1e-14

    def test_complex_conjugate(self):
        out = apply_endo(Endomorphism("complex_conjugate"), GroupElement(1j, 1 + 2j))
        assert distance(out, GroupElement(-1j, 1 - 2j)) < 1e-14

    def test_separated(self):
        rho = Endomorphism(
            "separated", rho_tilde={"kind": "power", "n": 2}, tau_tilde={"kind": "linear", "c": [2, 0]}
        )
        out = apply_endo(rho, GroupElement(1j, 1 + 1j))
        assert distance(out, GroupElement(-1, 2 + 2j)) < 1e-14

    def test_homomorphism_property_builtin_families(self):
        for rho in (
            Endomorphism("identity"),
            Endomorphism("conjugation", h=H),
            Endomorphism("complex_conjugate"),
            Endomorphism("separated", rho_tilde={"kind": "conjugate"}, tau_tilde={"kind": "conjugate"}),
        ):
            assert homomorphism_report(rho).max_residual < 1e-10

    def test_custom_family_validated(self):
        with pytest.raises(ValueError, match="endomorphism"):
            Endomorphism("custom", func=lambda g: GroupElement(g.a, g.b + 1))

    def test_custom_family_valid(self):
        rho = Endomorphism("custom", func=lambda g: GroupElement(g.a, 2 * g.b))
        assert apply_endo(rho, GroupElement(1, 1)).b == 2


class TestXiRho:
    def test_complex_conjugate_fixes_origin(self):
        fps = xi_rho(Endomorphism("complex_conjugate"))
        assert fps.kind == "single_point" and abs(fps.beta) < 1e-12

    def test_conjugation_fixes_center(self):
        fps = xi_rho(Endomorphism("conjugation", h=H))
        assert fps.kind == "single_point" and abs(fps.beta - H.b) < 1e-9

    def test_identity_fixes_origin(self):
        fps = xi_rho(Endomorphism("identity"))
        assert fps.kind == "single_point" and abs(fps.beta) < 1e-12

    def test_trivial_rotation_image_gives_plane(self):
        rho = Endomorphism(
            "separated", rho_tilde={"kind": "power", "n": 0}, tau_tilde={"kind": "linear", "c": [0, 0]}
        )
        assert xi_rho(rho).kind == "all_of_plane"

    def test_empty_case(self):
        # exercise the trichotomy branch directly: trivial rotation images
        # with nonzero translations admit no common fixed point
        rho = Endomorphism.__new__(Endomorphism)
        rho.family = "custom"
        rho.h = rho.rho_tilde = rho.tau_tilde = None
        rho.func = lambda g: GroupElement(1.0, g.a.imag)
        assert xi_rho(rho).kind == "empty"


class TestTauFromBeta:
    def test_conjugate_map(self):
        tau = tau_from_beta(Endomorphism("complex_conjugate"), 0.0)
        z = 1 + 2j
        assert tau(z) == z.conjugate()
        assert tau.affine == (0, 1, 0)

    def test_conjugation_affine(self):
        tau = tau_from_beta(Endomorphism("conjugation", h=H), H.b)
        z = 0.5 - 0.25j
        assert abs(tau(z) - (H.a * z + H.b)) < 1e-14

    def test_identity_translation(self):
        tau = tau_from_beta(Endomorphism("identity"), 0.0)
        assert tau(3 + 1j) == 3 + 1j

    def test_custom_family_is_affine(self):
        # rho([a, b]) = [abar, 2 bbar] gives tau(z) = rho([1, z]).0 = 2 zbar
        rho = Endomorphism("custom", func=lambda g: GroupElement(g.a.conjugate(), 2 * g.b.conjugate()))
        tau = tau_from_beta(rho, 0.0)
        assert tau.affine == (0, 2, 0)
        zs = np.array([0.5 - 0.25j, -1 + 2j])
        assert np.allclose(tau(zs), [act(apply_endo(rho, GroupElement(1, z)), 0.0) for z in zs], rtol=0, atol=1e-15)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_rejects_beta_outside_fixed_set(self):
        with pytest.raises(ValueError, match="fixed point"):
            tau_from_beta(Endomorphism("complex_conjugate"), 1.0)

    def test_constructed_pairs_are_equivariant(self):
        for rho, beta in (
            (Endomorphism("complex_conjugate"), 0.0),
            (Endomorphism("conjugation", h=H), H.b),
            (Endomorphism("identity"), 0.0),
        ):
            tau = tau_from_beta(rho, beta)
            assert check_equivariance(rho, tau).max_residual < 1e-10


class TestCheckEquivariance:
    def test_conjugation_pair_passes(self):
        rho = Endomorphism("conjugation", h=H)
        tau = tau_from_beta(rho, H.b)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_conjugate_pair_passes(self):
        rho = Endomorphism("complex_conjugate")
        tau = tau_from_beta(rho, 0.0)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_shifted_translation_fails_at_rotation(self):
        # tau = z + 1 with identity rho: at g = [i, 0], z = 0 the two sides
        # differ by |1 - i|
        tau = EquivariantMap.from_affine(1.0, 0.0, 1.0)
        rep = check_equivariance(Endomorphism("identity"), tau)
        assert rep.max_residual >= abs(1 - 1j) - 1e-12


class TestClassifySeparated:
    def test_conjugation_is_case_one(self):
        out = classify_separated({"kind": "conjugate"}, {"kind": "conjugate"})
        assert out["case"] == "case_1"

    def test_trivial_is_case_two(self):
        out = classify_separated({"kind": "power", "n": 0}, {"kind": "linear", "c": [0, 0]})
        assert out["case"] == "case_2"

    def test_square_map_is_neither(self):
        out = classify_separated({"kind": "power", "n": 2}, {"kind": "linear", "c": [1, 0]})
        assert out["case"] == "neither"
        assert "violating_sample" in out

    def test_descriptor_roundtrip(self):
        rho = Endomorphism.from_dict(
            {"family": "separated", "rho_tilde": {"kind": "conjugate"}, "tau_tilde": {"kind": "conjugate"}}
        )
        assert rho.family == "separated"
        d = Endomorphism("conjugation", h=H).to_dict()
        assert Endomorphism.from_dict(d).h == H
