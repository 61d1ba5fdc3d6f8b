import numpy as np
import pytest

import maf.groups
from maf.equivariant import (
    FIXED_POINT_TOL,
    HOM_TOL,
    Endomorphism,
    EquivariantMap,
    FixedPointSet,
    _unit_samples,
    apply_endo,
    apply_endo_ab,
    check_equivariance,
    classify_separated,
    homomorphism_report,
    tau_from_beta,
    xi_rho,
)
from maf.groups import GroupElement, act, compose, distance, inverse, random_elements
from maf.reports import from_residuals

H = GroupElement(np.exp(1j * np.pi / 3), 1.0)


# ---------------------------------------------------------------------------
# The per-element code that the array path replaced, kept as oracles: one
# GroupElement per sample and scalar complex arithmetic throughout.

def apply_endo_oracle(rho, g):
    if rho.family == "identity":
        return g
    if rho.family == "conjugation":
        return GroupElement(g.a, (1 - g.a) * rho.h.b + g.b * rho.h.a)
    if rho.family == "complex_conjugate":
        return GroupElement(g.a.conjugate(), g.b.conjugate())
    if rho.family == "separated":
        rt, tt = rho.rho_tilde, rho.tau_tilde
        a = g.a.conjugate() if rt["kind"] == "conjugate" else g.a ** int(rt["n"])
        b = g.b.conjugate() if tt["kind"] == "conjugate" else complex(*tt["c"]) * g.b
        return GroupElement(a, b)
    return rho.func(g)


def homomorphism_report_oracle(rho, n_pairs=128, seed=0, tol=HOM_TOL):
    rng = np.random.default_rng(seed)
    gs = random_elements(rng, n_pairs)
    hs = random_elements(rng, n_pairs)
    apply_ = lambda g: apply_endo_oracle(rho, g)
    res = [distance(apply_(compose(g, h)), compose(apply_(g), apply_(h))) for g, h in zip(gs, hs)]
    return from_residuals("endomorphism_homomorphism", res, tol, family=rho.family, n_pairs=n_pairs)


def xi_rho_oracle(rho, seed=0):
    rng = np.random.default_rng(seed)
    images = [apply_endo_oracle(rho, GroupElement(a, 0.0)) for a in _unit_samples(rng)]
    rotating = [g for g in images if abs(g.a - 1) > FIXED_POINT_TOL]
    if not rotating:
        if all(abs(g.b) <= FIXED_POINT_TOL for g in images):
            return FixedPointSet("all_of_plane")
        return FixedPointSet("empty")
    betas = [g.b / (1 - g.a) for g in rotating]
    beta = betas[0]
    if any(abs(bt - beta) > FIXED_POINT_TOL for bt in betas[1:]):
        raise ValueError("inconsistent fixed points across rotation samples")
    for g in images:
        if abs(act(g, beta) - beta) > FIXED_POINT_TOL:
            return FixedPointSet("empty")
    return FixedPointSet("single_point", beta)


def check_equivariance_oracle(rho, tau, n_samples=100, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    gs = random_elements(rng, n_samples)
    zs = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    gs += [GroupElement(1j, 0.0), GroupElement(-1.0, 0.0)]
    zs = np.append(zs, [0.0, 0.0])
    res = [abs(tau(act(g, z)) - act(apply_endo_oracle(rho, g), tau(z))) for g, z in zip(gs, zs)]
    return from_residuals("equivariance", res, tol, family=rho.family, n_samples=len(gs), seed=seed)


def _separated(rt, tt):
    return Endomorphism("separated", rho_tilde=rt, tau_tilde=tt)


def _custom_unchecked(func):
    """A custom endomorphism that skips the constructor's homomorphism check."""
    rho = Endomorphism.__new__(Endomorphism)
    rho.family, rho.h, rho.rho_tilde, rho.tau_tilde, rho.func = "custom", None, None, None, func
    return rho


FAMILIES = {
    "identity": Endomorphism("identity"),
    "conjugation": Endomorphism("conjugation", h=H),
    "complex_conjugate": Endomorphism("complex_conjugate"),
    "separated_conjugate": _separated({"kind": "conjugate"}, {"kind": "conjugate"}),
    "separated_power": _separated({"kind": "power", "n": 3}, {"kind": "linear", "c": [0.3, -1.7]}),
    "separated_trivial": _separated({"kind": "power", "n": 0}, {"kind": "linear", "c": [0, 0]}),
    "custom": Endomorphism("custom", func=lambda g: GroupElement(g.a.conjugate(), 2 * g.b.conjugate())),
}


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
        assert (tau.p, tau.q, tau.r) == (0, 1, 0)

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
        assert (tau.p, tau.q, tau.r) == (0, 2, 0)
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
        tau = EquivariantMap(1.0, 0.0, 1.0)
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


class TestArrayPathMatchesPerElementOracle:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_apply_endo(self, name):
        rho = FAMILIES[name]
        gs = random_elements(np.random.default_rng(7), 50)
        a, b = apply_endo_ab(rho, np.array([g.a for g in gs]), np.array([g.b for g in gs]))
        expected = [apply_endo_oracle(rho, g) for g in gs]
        assert a.tolist() == [g.a for g in expected] and b.tolist() == [g.b for g in expected]
        assert [apply_endo(rho, g) for g in gs] == expected

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_homomorphism_report(self, name, seed):
        rho = FAMILIES[name]
        assert homomorphism_report(rho, seed=seed) == homomorphism_report_oracle(rho, seed=seed)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_xi_rho(self, name):
        rho = FAMILIES[name]
        assert xi_rho(rho) == xi_rho_oracle(rho)

    def test_xi_rho_empty_case(self):
        rho = _custom_unchecked(lambda g: GroupElement(1.0, g.a.imag))
        assert xi_rho(rho) == xi_rho_oracle(rho) == FixedPointSet("empty")

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_check_equivariance(self, name, seed):
        rho = FAMILIES[name]
        xi = xi_rho(rho)
        # the canonical tau where there is one, else a tau the check must reject
        if xi.kind == "empty":
            taus = [EquivariantMap(1.0, 0.5j, 1.0)]
        else:
            taus = [tau_from_beta(rho, 0.3 - 0.2j if xi.beta is None else xi.beta)]
        # and zbar + 1 on every family, equivariant or not
        taus.append(EquivariantMap(0, 1, 1))
        for tau in taus:
            rep = check_equivariance(rho, tau, seed=seed)
            assert rep == check_equivariance_oracle(rho, tau, seed=seed)

    def test_canonical_pairs_of_endomorphisms_pass(self):
        for name, rho in FAMILIES.items():
            xi = xi_rho(rho)
            if homomorphism_report(rho).passed and xi.kind != "empty":
                tau = tau_from_beta(rho, 0.3 - 0.2j if xi.beta is None else xi.beta)
                assert check_equivariance(rho, tau).passed, name

    def test_no_group_element_per_sample(self, monkeypatch):
        made = []
        init = GroupElement.__post_init__
        monkeypatch.setattr(GroupElement, "__post_init__", lambda g: made.append(g) or init(g))
        for name, rho in FAMILIES.items():
            if name == "custom":
                continue
            tau = EquivariantMap(1.0, 0.0, 0.0)
            made.clear()
            check_equivariance(rho, tau)
            homomorphism_report(rho)
            xi_rho(rho)
            assert made == [], name


class TestNegativeControls:
    """Each must fail on the array path and on the per-element oracle."""

    def test_tau_with_shifted_r(self):
        rho = Endomorphism("conjugation", h=H)
        tau = tau_from_beta(rho, H.b)
        p, q, r = tau.p, tau.q, tau.r
        tau = EquivariantMap(p, q, r + 1e-6)
        rep, oracle = check_equivariance(rho, tau), check_equivariance_oracle(rho, tau)
        assert rep == oracle and not rep.passed
        assert rep.max_residual > 1e-7

    def test_custom_map_not_a_homomorphism(self):
        rho = _custom_unchecked(lambda g: GroupElement(g.a, g.b + 0.5 * g.a.imag))
        rep, oracle = homomorphism_report(rho), homomorphism_report_oracle(rho)
        assert rep == oracle and not rep.passed
        with pytest.raises(ValueError, match="not an endomorphism"):
            Endomorphism("custom", func=rho.func)

    def test_beta_outside_fixed_point_set(self):
        rho = Endomorphism("conjugation", h=H)
        beta = H.b + 1e-6
        assert not xi_rho(rho).contains(beta) and not xi_rho_oracle(rho).contains(beta)
        with pytest.raises(ValueError, match="fixed point"):
            tau_from_beta(rho, beta)
