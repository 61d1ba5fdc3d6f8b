import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maf.equivariant import (
    FIXED_POINT_TOL,
    HOM_TOL,
    Endomorphism,
    EquivariantMap,
    apply_endo_ab,
    check_equivariance,
    equivariance_defects,
    homomorphism_report,
    tau_from_beta,
)
from maf.groups import GroupElement, compose, inverse
from maf.magnetics import CHECK_TOL
from maf.reports import from_residuals
from oracles import act, apply_endo, distance
from test_groups import random_elements

H = GroupElement(np.exp(1j * np.pi / 3), 1.0)


# ---------------------------------------------------------------------------
# The per-element code that the array path replaced, kept as oracles: one
# GroupElement per sample and scalar complex arithmetic throughout.

def apply_endo_oracle(rho, g):
    an = (g.a if rho.n >= 0 else g.a.conjugate()) ** abs(rho.n)
    bn = g.b if rho.n == 1 else g.b.conjugate()
    return GroupElement(an, rho.c * bn + (1 - an) * rho.beta)


def homomorphism_report_oracle(rho, n_pairs=128, seed=0, tol=HOM_TOL):
    rng = np.random.default_rng(seed)
    gs = random_elements(rng, n_pairs)
    hs = random_elements(rng, n_pairs)
    apply_ = lambda g: apply_endo_oracle(rho, g)
    res = [distance(apply_(compose(g, h)), compose(apply_(g), apply_(h))) for g, h in zip(gs, hs)]
    return from_residuals("endomorphism_homomorphism", res, tol, family=rho.family, n_pairs=n_pairs)


def _unit_samples(rng, n_equi=64, n_rand=32):
    angles = np.concatenate([2 * np.pi * np.arange(n_equi) / n_equi, rng.uniform(0, 2 * np.pi, n_rand)])
    return np.exp(1j * angles)


def xi_rho_oracle(rho, seed=0):
    """The sampled search that the closed form replaced: the common fixed point
    of the images rho([a, 0]) over a on the circle, None for the whole plane."""
    rng = np.random.default_rng(seed)
    images = [apply_endo_oracle(rho, GroupElement(a, 0.0)) for a in _unit_samples(rng)]
    rotating = [g for g in images if abs(g.a - 1) > FIXED_POINT_TOL]
    if not rotating:
        if all(abs(g.b) <= FIXED_POINT_TOL for g in images):
            return None
        raise ValueError("no common fixed point")
    betas = [g.b / (1 - g.a) for g in rotating]
    beta = betas[0]
    if any(abs(bt - beta) > FIXED_POINT_TOL for bt in betas[1:]):
        raise ValueError("inconsistent fixed points across rotation samples")
    if any(abs(act(g, beta) - beta) > FIXED_POINT_TOL for g in images):
        raise ValueError("no common fixed point")
    return beta


def xi_rho(rho):
    """The common fixed point of the rotation image rho([a, 0]) = [a^n, (1 - a^n) beta] in closed
    form, the one ``tau_from_beta`` requires: beta, or None when n = 0 (the image then fixes the
    whole plane)."""
    return rho.beta if rho.n else None


def same_fixed_point(x, y):
    return x is None and y is None or None not in (x, y) and abs(x - y) <= FIXED_POINT_TOL


def check_equivariance_oracle(rho, tau, n_samples=100, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    gs = random_elements(rng, n_samples)
    zs = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    gs += [GroupElement(1j, 0.0), GroupElement(-1.0, 0.0)]
    zs = np.append(zs, [0.0, 0.0])
    res = [abs(tau(act(g, z)) - act(apply_endo_oracle(rho, g), tau(z))) for g, z in zip(gs, zs)]
    return from_residuals("equivariance", res, tol, family=rho.family, n_samples=len(gs), seed=seed)


def _separated(rt, tt):
    return Endomorphism.from_dict({"family": "separated", "rho_tilde": rt, "tau_tilde": tt})


def _unchecked(n, c, beta=0j):
    """The triple (n, c, beta) forced past the constructor's refusal."""
    rho = object.__new__(Endomorphism)
    rho.n, rho.c, rho.beta, rho.family = n, complex(c), complex(beta), "normal_form"
    return rho


FAMILIES = {
    "identity": Endomorphism.from_dict({"family": "identity"}),
    "conjugation": Endomorphism.from_dict({"family": "conjugation", "h": H.to_dict()}),
    "complex_conjugate": Endomorphism.from_dict({"family": "complex_conjugate"}),
    "separated_conjugate": _separated({"kind": "conjugate"}, {"kind": "conjugate"}),
    "separated_power": _separated({"kind": "power", "n": 3}, {"kind": "linear", "c": [0, 0]}),
    "separated_linear": _separated({"kind": "power", "n": 1}, {"kind": "linear", "c": [0.3, -1.7]}),
    "separated_trivial": _separated({"kind": "power", "n": 0}, {"kind": "linear", "c": [0, 0]}),
    # triples built by hand rather than parsed from a config
    "custom": Endomorphism(-1, 2, 0),
    "custom_linear": Endomorphism(1, 2, 0),
    "custom_shifted": Endomorphism(-3, 0, 0.4 + 1.1j),
}


class TestApplyEndo:
    def test_identity(self):
        g = GroupElement(1j, 2 - 1j)
        assert apply_endo(FAMILIES["identity"], g) == g

    def test_conjugation_matrix_oracle(self):
        h = GroupElement(1, 1)
        rho = Endomorphism.from_dict({"family": "conjugation", "h": h.to_dict()})
        g = GroupElement(1j, 0)
        expected = compose(compose(h, g), inverse(h))
        assert distance(apply_endo(rho, g), expected) < 1e-14
        assert distance(apply_endo(rho, g), GroupElement(1j, 1 - 1j)) < 1e-14

    def test_complex_conjugate(self):
        out = apply_endo(FAMILIES["complex_conjugate"], GroupElement(1j, 1 + 2j))
        assert distance(out, GroupElement(-1j, 1 - 2j)) < 1e-14

    def test_separated(self):
        rho = _separated({"kind": "power", "n": 1}, {"kind": "linear", "c": [2, 0]})
        assert (rho.n, rho.c, rho.beta, rho.family) == (1, 2, 0, "separated")
        assert distance(apply_endo(rho, GroupElement(1j, 1 + 1j)), GroupElement(1j, 2 + 2j)) < 1e-14
        rho = _separated({"kind": "power", "n": 2}, {"kind": "linear", "c": [0, 0]})
        assert distance(apply_endo(rho, GroupElement(1j, 1 + 1j)), GroupElement(-1, 0)) < 1e-14

    def test_homomorphism_property_builtin_families(self):
        for rho in FAMILIES.values():
            assert homomorphism_report(rho).max_residual < 1e-10

    def test_custom_family_validated(self):
        # a nonzero additive part needs n = 1 or -1
        with pytest.raises(ValueError, match="not an endomorphism"):
            Endomorphism(2, 1, 0)

    def test_custom_family_valid(self):
        rho = Endomorphism(1, 2, 0)
        assert apply_endo(rho, GroupElement(1, 1)).b == 2


class TestXiRho:
    def test_complex_conjugate_fixes_origin(self):
        assert xi_rho(FAMILIES["complex_conjugate"]) == 0

    def test_conjugation_fixes_center(self):
        assert xi_rho(FAMILIES["conjugation"]) == H.b

    def test_identity_fixes_origin(self):
        assert xi_rho(FAMILIES["identity"]) == 0

    def test_trivial_rotation_image_gives_plane(self):
        assert xi_rho(FAMILIES["separated_trivial"]) is None


class TestTauFromBeta:
    def test_conjugate_map(self):
        tau = tau_from_beta(FAMILIES["complex_conjugate"], 0.0)
        z = 1 + 2j
        assert tau(z) == z.conjugate()
        assert (tau.p, tau.q, tau.r) == (0, 1, 0)

    def test_conjugation_affine(self):
        tau = tau_from_beta(FAMILIES["conjugation"], H.b)
        z = 0.5 - 0.25j
        assert abs(tau(z) - (H.a * z + H.b)) < 1e-14

    def test_identity_translation(self):
        tau = tau_from_beta(FAMILIES["identity"], 0.0)
        assert tau(3 + 1j) == 3 + 1j

    def test_custom_family_is_affine(self):
        # rho([a, b]) = [abar, 2 bbar] gives tau(z) = rho([1, z]).0 = 2 zbar
        rho = FAMILIES["custom"]
        tau = tau_from_beta(rho, 0.0)
        assert (tau.p, tau.q, tau.r) == (0, 2, 0)
        zs = np.array([0.5 - 0.25j, -1 + 2j])
        assert np.allclose(tau(zs), [act(apply_endo(rho, GroupElement(1, z)), 0.0) for z in zs], rtol=0, atol=1e-15)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_rejects_beta_outside_fixed_set(self):
        with pytest.raises(ValueError, match="fixed point"):
            tau_from_beta(FAMILIES["complex_conjugate"], 1.0)

    def test_constructed_pairs_are_equivariant(self):
        for rho, beta in (
            (FAMILIES["complex_conjugate"], 0.0),
            (FAMILIES["conjugation"], H.b),
            (FAMILIES["identity"], 0.0),
        ):
            tau = tau_from_beta(rho, beta)
            assert check_equivariance(rho, tau).max_residual < 1e-10


class TestCheckEquivariance:
    def test_conjugation_pair_passes(self):
        rho = FAMILIES["conjugation"]
        tau = tau_from_beta(rho, H.b)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_conjugate_pair_passes(self):
        rho = FAMILIES["complex_conjugate"]
        tau = tau_from_beta(rho, 0.0)
        assert check_equivariance(rho, tau).max_residual < 1e-12

    def test_shifted_translation_fails_at_rotation(self):
        # tau = z + 1 with identity rho: at g = [i, 0], z = 0 the two sides
        # differ by |1 - i|
        tau = EquivariantMap(1.0, 0.0, 1.0)
        rep = check_equivariance(FAMILIES["identity"], tau)
        assert rep.max_residual >= abs(1 - 1j) - 1e-12


class TestClassifySeparated:
    """The compatibility cases of a separated pair [rho_tilde(a), tau_tilde(b)]:
    case 1 (rho_tilde nontrivial, tau_tilde intertwines it) and case 2
    (rho_tilde trivial, tau_tilde = 0) parse; any other pair is refused."""

    def test_conjugation_is_case_one(self):
        rho = _separated({"kind": "conjugate"}, {"kind": "conjugate"})
        assert (rho.n, rho.c, rho.beta) == (-1, 1, 0)
        assert homomorphism_report(rho).passed

    def test_trivial_is_case_two(self):
        rho = _separated({"kind": "power", "n": 0}, {"kind": "linear", "c": [0, 0]})
        assert (rho.n, rho.c, rho.beta) == (0, 0, 0)
        assert homomorphism_report(rho).passed

    def test_square_map_is_neither(self):
        with pytest.raises(ValueError, match="needs power 1 if linear, -1 if conjugate"):
            _separated({"kind": "power", "n": 2}, {"kind": "linear", "c": [1, 0]})
        assert not homomorphism_report(_unchecked(2, 1)).passed

    def test_descriptor_roundtrip(self):
        rho = Endomorphism.from_dict({"family": "conjugation", "h": H.to_dict()})
        assert (rho.n, rho.c, rho.beta, rho.family) == (1, H.a, H.b, "conjugation")
        rho = Endomorphism.from_dict({"family": "complex_conjugate"})
        assert rho == Endomorphism(-1, 1, 0, "complex_conjugate")


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
        assert same_fixed_point(xi_rho(rho), xi_rho_oracle(rho))

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_check_equivariance(self, name, seed):
        rho = FAMILIES[name]
        xi = xi_rho(rho)
        # the canonical tau, and zbar + 1 on every family, equivariant or not
        taus = [tau_from_beta(rho, 0.3 - 0.2j if xi is None else xi), EquivariantMap(0, 1, 1)]
        for tau in taus:
            rep = check_equivariance(rho, tau, seed=seed)
            assert rep == check_equivariance_oracle(rho, tau, seed=seed)

    def test_canonical_pairs_of_endomorphisms_pass(self):
        for name, rho in FAMILIES.items():
            xi = xi_rho(rho)
            assert homomorphism_report(rho).passed, name
            tau = tau_from_beta(rho, 0.3 - 0.2j if xi is None else xi)
            assert check_equivariance(rho, tau).passed, name

    def test_no_group_element_per_sample(self, monkeypatch):
        made = []
        init = GroupElement.__post_init__
        monkeypatch.setattr(GroupElement, "__post_init__", lambda g: made.append(g) or init(g))
        for name, rho in FAMILIES.items():
            tau = EquivariantMap(1.0, 0.0, 0.0)
            made.clear()
            check_equivariance(rho, tau)
            homomorphism_report(rho)
            tau_from_beta(rho, rho.beta)
            assert made == [], name


# Random triples: n in [-3, 3], c and beta in a box; c = 0 unless n = +-1.
coords = st.floats(-3, 3, allow_nan=False)
points = st.builds(complex, coords, coords)


@st.composite
def valid_triples(draw):
    n = draw(st.integers(-3, 3))
    return Endomorphism(n, draw(points) if n in (1, -1) else 0, draw(points))


class TestNormalFormProperties:
    @given(valid_triples())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_valid_triples(self, rho):
        assert homomorphism_report_oracle(rho).passed
        assert check_equivariance(rho, tau_from_beta(rho, rho.beta)).passed
        assert same_fixed_point(xi_rho(rho), xi_rho_oracle(rho))

    @given(valid_triples(), st.sampled_from("pqr"), st.sampled_from([0.0, 1e-6, 1e-6j, 0.5]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_verdict_equals_sampled(self, rho, name, nudge):
        # the build decides equivariance from the normal forms; the sampled check agrees,
        # on the canonical tau and on each coefficient of it nudged
        tau = tau_from_beta(rho, rho.beta)
        setattr(tau, name, getattr(tau, name) + nudge)
        exact = all(abs(d) <= CHECK_TOL for d in equivariance_defects(rho, tau).values())
        assert exact == check_equivariance(rho, tau, tol=CHECK_TOL).passed
        assert exact == (nudge == 0 or (name == "r" and rho.n == 0))

    @given(st.sampled_from([-3, -2, 0, 2, 3]), points.filter(lambda c: abs(c) > 0.1), points)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_invalid_triples_refused(self, n, c, beta):
        with pytest.raises(ValueError, match="not an endomorphism"):
            Endomorphism(n, c, beta)
        rho = _unchecked(n, c, beta)
        assert not homomorphism_report(rho).passed and not homomorphism_report_oracle(rho).passed


class TestNegativeControls:
    """Each must fail on the array path and on the per-element oracle."""

    def test_tau_with_shifted_r(self):
        rho = FAMILIES["conjugation"]
        tau = tau_from_beta(rho, H.b)
        p, q, r = tau.p, tau.q, tau.r
        tau = EquivariantMap(p, q, r + 1e-6)
        rep, oracle = check_equivariance(rho, tau), check_equivariance_oracle(rho, tau)
        assert rep == oracle and not rep.passed
        assert rep.max_residual > 1e-7

    def test_custom_map_not_a_homomorphism(self):
        # (n, c) = (2, 1): rho([a, b]) = [a^2, bbar], forced past the constructor
        rho = _unchecked(2, 1)
        rep, oracle = homomorphism_report(rho), homomorphism_report_oracle(rho)
        assert rep == oracle and not rep.passed
        with pytest.raises(ValueError, match="not an endomorphism"):
            Endomorphism(2, 1)

    def test_beta_outside_fixed_point_set(self):
        rho = FAMILIES["conjugation"]
        beta = H.b + 1e-6
        for fixed in (xi_rho(rho), xi_rho_oracle(rho)):
            assert not same_fixed_point(fixed, beta)
        with pytest.raises(ValueError, match="fixed point"):
            tau_from_beta(rho, beta)
