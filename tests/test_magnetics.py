from pathlib import Path

import numpy as np
import pytest
from oracles import exterior_derivative, fd_field, gauge_phi, oracle_jet, oracle_wirtinger

from maf import magnetics
from maf.automorphy import PseudoCharacter, mixed_factor_nochi
from maf.config import build_system, load_bundled, load_config
from maf.equivariant import Endomorphism, tau_from_beta
from maf.fields import Grid, ScalarField, jet, polyexp_field
from maf.groups import IDENTITY, GroupElement, act, random_ab
from maf.magnetics import (
    MagneticSystem,
    S_field,
    apply_landau,
    apply_mixed_laplacian,
    chi_tau,
    chi_tau_hat_spread,
    field_constancy,
    gauge_check,
    intertwining_residual,
    invariance_residual,
    lifting_residual,
    magnetic_field,
    phase_pullback,
    representation,
    value_and_mixed_laplacian,
    w_transform,
)

SMALL = Grid(-1.5, 1.5, 5, -1.5, 1.5, 5)
P6_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "p6.json"


def ab(elements):
    """The elements as gs = (a, b), the arrays the group checks take."""
    return [g.a for g in elements], [g.b for g in elements]


def conjugate_beta(beta=0.3 + 0.4j):
    """The conjugate system with its fixed point moved to beta: rho([a, b]) = [abar, bbar +
    (1 - abar) beta] and tau(z) = zbar + beta, so gauge_k = -i beta / 2 is not 0."""
    conj = build_system(load_bundled("conjugate"))
    rho = Endomorphism(-1, 1, beta, "complex_conjugate")
    return MagneticSystem(conj.nu, conj.mu, rho, tau_from_beta(rho, beta), conj.gamma, conj.chi)


def config_system(name):
    """A bundled system by name, the p6 system of the benchmark, or ``conjugate_beta``."""
    if name == "conjugate_beta":
        return conjugate_beta()
    return build_system(load_config(str(P6_CONFIG)) if name == "p6" else load_bundled(name))


@pytest.fixture(scope="module")
def landau():
    return build_system(load_bundled("landau"))


@pytest.fixture(scope="module")
def conj():
    return build_system(load_bundled("conjugate"))


@pytest.fixture(scope="module")
def alt():
    return build_system(load_bundled("alteration"))


def probe(B, extra=None):
    """Gaussian-weighted polynomial with analytic derivatives."""
    coeffs = {(0, 0): 1.0, (1, 0): 0.3, (0, 1): -0.2j}
    if extra:
        coeffs.update(extra)
    return polyexp_field(coeffs, alpha=B / 2)


def covariant_laplacian(sys, f, z, h=1e-3):
    """The mixed Laplacian of an affine tau from its definition, 2 (D Dbar + Dbar D) f with
    D = d - Sbar/2, Dbar = dbar + S/2 and S = nu z + mu (tau dbar(tau bar) - tau bar dbar(tau)),
    every derivative, tau's included, by the stencil: the oracle of ``_mixed``."""

    def S(w):
        dbar_taubar = oracle_wirtinger(lambda u: np.conj(sys.tau(u)), w, h)[1]
        dbar_tau = oracle_wirtinger(sys.tau, w, h)[1]
        return sys.nu * w + sys.mu * (sys.tau(w) * dbar_taubar - np.conj(sys.tau(w)) * dbar_tau)

    d = lambda g: lambda w: oracle_wirtinger(g, w, h)[0] - np.conj(S(w)) / 2 * g(w)
    dbar = lambda g: lambda w: oracle_wirtinger(g, w, h)[1] + S(w) / 2 * g(w)
    return 2 * (d(dbar(f))(z) + dbar(d(f))(z))


class TestLinearPhaseMultiply:
    def test_value(self):
        f = ScalarField(lambda z: 1.0, lambda z: (1.0, 0.0, 0.0, 0.0))
        g = phase_pullback(f, 0.5j)
        z = 1 + 2j
        assert abs(g(z) - np.exp(2j * (0.5j * z).real)) < 1e-14

    def test_derivatives_propagate(self):
        k = 0.3 - 0.1j
        f = polyexp_field({(1, 0): 1.0}, alpha=0.5)
        g = phase_pullback(f, k)
        for z in (0.4 + 0.2j, -0.7 + 1.1j):
            (_, dz, dzb, lap), (_, dz_n, dzb_n, lap_n) = jet(g, z), oracle_jet(g, z)
            assert abs(dz - dz_n) < 1e-6
            assert abs(dzb - dzb_n) < 1e-6
            assert abs(lap - lap_n) < 1e-4

    def test_inverse_sign(self):
        f = polyexp_field({(0, 0): 1.0}, alpha=0.5)
        g = phase_pullback(phase_pullback(f, 0.2j), -0.2j)
        z = 0.9 - 0.3j
        assert abs(g(z) - f(z)) < 1e-14


class TestSField:
    def test_landau_is_linear(self, landau):
        z = 0.7 - 1.2j
        assert abs(S_field(landau, z) - landau.nu * z) < 1e-12

    def test_conjugate_reduced_slope(self, conj):
        # tau = zbar gives S = (nu - mu) z
        z = 1.1 + 0.4j
        assert abs(S_field(conj, z) - (conj.nu - conj.mu) * z) < 1e-9

    def test_affine_closed_form(self, alt):
        # affine tau: S(z) = B z + c with c = mu (pbar r - q rbar)
        p, q, r = alt.tau.p, alt.tau.q, alt.tau.r
        c = alt.mu * (p.conjugate() * r - q * r.conjugate())
        for z in (0.0, 1 + 1j, -0.5 + 2j):
            assert abs(S_field(alt, z) - (alt.B * z + c)) < 1e-8


class TestMagneticField:
    def test_bundled_values(self, landau, conj, alt):
        assert abs(landau.B - 1.0) < 1e-12
        assert abs(conj.B - 1.0) < 1e-8
        assert abs(alt.B - 1.5) < 1e-8

    def test_constancy(self, conj, alt):
        for sys in (conj, alt):
            rep = field_constancy(sys, SMALL)
            assert rep.passed

    def test_matches_affine_formula(self, alt):
        p, q = alt.tau.p, alt.tau.q
        expected = alt.nu + alt.mu * (abs(p) ** 2 - abs(q) ** 2)
        assert abs(magnetic_field(alt, 0.3 - 0.8j) - expected) < 1e-8


class TestPotential:
    def test_exterior_derivative_is_field(self, conj, alt):
        for sys in (conj, alt):
            # theta = -(Sbar/2) dz + (S/2) dzbar
            theta = exterior_derivative(lambda z: -np.conj(S_field(sys, z)) / 2, lambda z: S_field(sys, z) / 2)
            for z in (0.2 + 0.5j, -1 + 0.3j):
                assert abs(theta.coeff(z) - sys.B) < 1e-5


class TestLandauOperator:
    def test_ground_state_eigenvalue(self):
        B = 1.3
        psi = polyexp_field({(0, 0): 1.0}, alpha=B / 2)
        for z in (0.0, 0.6 - 0.9j):
            assert abs(apply_landau(B, psi, z) + 2 * B * psi(z)) < 1e-10

    def test_constant_function(self):
        B = 2.0
        one = ScalarField(lambda z: 1.0, lambda z: (1.0, 0.0, 0.0, 0.0))
        z = 1 + 0.5j
        assert abs(apply_landau(B, one, z) + B**2 * abs(z) ** 2) < 1e-12

    def test_mixed_reduces_when_mu_zero(self, landau):
        f = probe(landau.B, extra={(2, 0): 0.4})
        for z in (0.3 + 0.3j, -0.8 - 0.2j):
            assert abs(apply_mixed_laplacian(landau, f, z) - apply_landau(landau.nu, f, z)) < 1e-10

    @pytest.mark.parametrize("name", ["landau", "conjugate", "alteration", "p6"])
    def test_mixed_laplacian_is_the_covariant_one(self, name):
        # value_and_mixed_laplacian on the exact jets of f, T_g f and W f, against the
        # operator's definition on their values
        sys = config_system(name)
        pts = SMALL.points()
        f = probe(sys.B, extra={(2, 0): 0.4})
        g = ORACLE_ELEMENTS[0]
        for field in (f, representation(sys, g.a, g.b, f), w_transform(sys, f)):
            val, lap = value_and_mixed_laplacian(sys, field, pts)
            assert np.max(np.abs(val - field(pts))) <= 1e-15
            assert np.max(np.abs(lap - covariant_laplacian(sys, field, pts))) <= 1e-7 * np.max(np.abs(lap))

    @pytest.mark.parametrize("name", ["landau", "conjugate", "alteration"])
    def test_one_field_evaluation_per_operator(self, name):
        # each operator takes one jet of its field on all the points, and agrees with the
        # operator on the field's finite-difference twin
        sys = build_system(load_bundled(name))
        exact = probe(sys.B)
        calls = []

        def exact_jet(z):
            calls.append(np.shape(z))
            return exact.jet(z)

        f, twin = ScalarField(exact.func, exact_jet), fd_field(exact.func, 1e-3)
        pts = SMALL.points()
        mixed = apply_mixed_laplacian(sys, f, pts)
        assert calls == [pts.shape]
        assert np.max(np.abs(mixed - apply_mixed_laplacian(sys, twin, pts))) < 1e-5
        calls.clear()
        landau_val = apply_landau(sys.B, f, pts)
        assert calls == [pts.shape]
        assert np.max(np.abs(landau_val - apply_landau(sys.B, twin, pts))) < 1e-5


def fd_representation(sys, g, f):
    """T_g f = conj(J0(g, z)) f(g.z) from the factor itself, without derivatives, so that
    every derivative of it is a finite difference: the oracle of the exact T_g."""

    def func(z):
        return mixed_factor_nochi(sys.nu, sys.mu, sys.rho, sys.tau, g.a, g.b, z).conjugate() * f(act(g, z))

    return fd_field(func)


ORACLE_ELEMENTS = [GroupElement(np.exp(0.9j), 0.5 - 0.5j), GroupElement(-1j, -1.2 + 0.3j), IDENTITY]


class TestRepresentation:
    def test_identity_element(self, conj):
        f = probe(conj.B)
        tf = representation(conj, IDENTITY.a, IDENTITY.b, f)
        z = 0.4 - 0.7j
        assert abs(tf(z) - f(z)) < 1e-12

    def test_modulus_is_pullback(self, conj):
        f = probe(conj.B)
        g = GroupElement(np.exp(0.9j), 0.5 - 0.5j)
        tf = representation(conj, g.a, g.b, f)
        for z in (0.0, 1 - 1j):
            assert abs(abs(tf(z)) - abs(f(act(g, z)))) < 1e-12

    def test_commutes_with_laplacian(self, conj):
        f = probe(conj.B)
        (rep,) = invariance_residual(conj, ab(conj.gamma.generators[:1]), f, SMALL)
        assert rep.passed

    def test_commutes_generic_element(self, alt):
        f = probe(alt.B)
        (rep,) = invariance_residual(alt, ab([GroupElement(np.exp(0.4j), 0.3 + 0.2j)]), f, SMALL)
        assert rep.passed

    @pytest.mark.parametrize("name", ["landau", "conjugate", "alteration", "p6"])
    def test_matches_fd_oracle(self, name):
        # values to round-off; the jet against the oracle's 5-point stencils
        sys = config_system(name)
        f = probe(sys.B)
        pts = SMALL.points()
        for g in ORACLE_ELEMENTS:
            exact, oracle = representation(sys, g.a, g.b, f), fd_representation(sys, g, f)
            assert np.max(np.abs(exact(pts) - oracle(pts))) <= 1e-13
            for got, want in zip(jet(exact, pts), jet(oracle, pts)):
                assert np.max(np.abs(got - want)) <= 1e-6
            lap = apply_mixed_laplacian(sys, exact, pts) - apply_mixed_laplacian(sys, oracle, pts)
            assert np.max(np.abs(lap)) <= 1e-6

    def test_elements_broadcast_against_points(self, alt):
        # (G, 1) element columns against n points give the (G, n) values of each T_g
        f = probe(alt.B)
        pts = SMALL.points()
        a, b = (np.array(x)[:, None] for x in ab(ORACLE_ELEMENTS))
        batch = representation(alt, a, b, f)
        for i, g in enumerate(ORACLE_ELEMENTS):
            one = representation(alt, g.a, g.b, f)
            for got, want in zip(jet(batch, pts), jet(one, pts)):
                assert np.max(np.abs(got[i] - want)) <= 1e-14

    def test_perturbed_phase_fails(self, monkeypatch):
        # K off by 1e-9 relative: T_g no longer commutes with the Laplacian at the exact tol
        real = magnetics._conj_j0

        def perturbed(sys_, a, b):
            K, c = real(sys_, a, b)
            return K * (1 + 1e-9), c

        monkeypatch.setattr(magnetics, "_conj_j0", perturbed)
        for name in ("landau", "conjugate", "alteration", "p6"):
            sys = config_system(name)
            reps = invariance_residual(sys, ab(ORACLE_ELEMENTS[:2]), probe(sys.B), REPORT_GRID)
            assert all(not r.passed and r.max_residual > 10 * r.tol for r in reps), name


class TestGauge:
    def test_trivial_for_landau_and_conjugate(self, landau, conj):
        assert landau.gauge_k == 0
        assert conj.gauge_k == 0
        assert landau.phi(1.3 - 0.4j) == 0

    def test_alteration_closed_form(self, alt):
        # phi(z) = 2 Re(k z) with k = i cbar / 2
        p, q, r = alt.tau.p, alt.tau.q, alt.tau.r
        c = alt.mu * (p.conjugate() * r - q * r.conjugate())
        k = 1j * c.conjugate() / 2
        assert abs(alt.gauge_k - k) < 1e-12
        z = 1 + 1j
        assert abs(alt.phi(z) - 2 * (k * z).real) < 1e-12

    def test_line_integral_matches_closed_form(self, alt):
        for z in (1 + 1j, -0.7 + 0.2j):
            assert abs(gauge_phi(alt, z) - alt.phi(z)) < 1e-12
            assert abs(gauge_phi(alt, z, x_first=False) - alt.phi(z)) < 1e-12

    def test_path_independence(self, conj, alt):
        # the two L-paths enclose a rectangle, whose loop integral of dphi vanishes iff S's curl is B
        for sys in (conj, alt):
            for z in (0.5 + 0.5j, -1 + 2j, 2 - 0.3j):
                assert abs(gauge_phi(sys, z) - gauge_phi(sys, z, x_first=False)) < 1e-12

    def test_report(self, landau, conj, alt):
        for sys in (landau, conj, alt):
            rep = gauge_check(sys)
            assert rep.passed and rep.name == "gauge_coefficient"
            assert rep.metadata["gauge_k"] == [sys.gauge_k.real, sys.gauge_k.imag]


class TestConjugateBeta:
    """A second system with a nonzero gauge: the conjugate pair with fixed point beta != 0."""

    @pytest.fixture(scope="class")
    def sys(self):
        return conjugate_beta()

    def test_gauge_is_not_zero(self, sys):
        assert sys.B == 1.0
        assert abs(sys.gauge_k + 0.5j * (0.3 + 0.4j)) < 1e-15

    def test_both_entries_pass(self, sys):
        assert field_constancy(sys, REPORT_GRID).passed
        assert gauge_check(sys).passed

    def test_oracle_along_both_paths(self, sys):
        pts = LIFT_GRID.points()
        for x_first in (True, False):
            oracle = np.array([gauge_phi(sys, z, x_first) for z in pts])
            assert np.max(np.abs(oracle - sys.phi(pts))) <= 1e-12
        assert np.max(np.abs(sys.phi(pts))) > 0.5


def _scaled_gauge_k(monkeypatch):
    real = MagneticSystem.__dict__["gauge_k"].func  # a property outranks each system's cached value
    monkeypatch.setattr(MagneticSystem, "gauge_k", property(lambda s: real(s) * (1 + 1e-3) + 1e-3))


def _shifted_S(shift):
    def mutate(monkeypatch):
        real = magnetics.S_field
        monkeypatch.setattr(magnetics, "S_field", lambda sys, z: real(sys, z) + shift(z))

    return mutate


def _scaled_field(monkeypatch):
    real = magnetics.magnetic_field
    monkeypatch.setattr(magnetics, "magnetic_field", lambda sys, z: real(sys, z) * (1 + 1e-3))


# (mutation, the entry it must fail); the other coefficient entry must still pass
MUTATIONS = {
    "gauge_k_scaled": (_scaled_gauge_k, "gauge_coefficient"),
    "S_plus_constant": (_shifted_S(lambda z: 1e-3), "gauge_coefficient"),
    "S_plus_z": (_shifted_S(lambda z: 1e-3 * z), "field_coefficient"),
    "field_scaled": (_scaled_field, "field_coefficient"),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_coefficient_mutations(monkeypatch, mutation):
    mutate, entry = MUTATIONS[mutation]
    systems = {name: config_system(name) for name in ("landau", "conjugate", "alteration", "p6", "conjugate_beta")}
    mutate(monkeypatch)
    for name, sys in systems.items():
        reps = {rep.name: rep for rep in (field_constancy(sys, Grid()), gauge_check(sys))}
        assert reps.pop(entry).max_residual > 1e3 * magnetics.COEFFICIENT_TOL, name
        assert all(rep.passed for rep in reps.values()), name


@pytest.mark.parametrize("mutation", ["S_plus_z", "field_scaled"])
def test_field_coefficient_on_a_far_grid(monkeypatch, mutation):
    # the defect is taken over max(1, |z|): a correct system passes at |z| ~ 1e4 and a wrong one still fails
    far = Grid(-1e4, 1e4, 41, -1e4, 1e4, 41)
    systems = {name: config_system(name) for name in ("landau", "conjugate", "alteration", "p6", "conjugate_beta")}
    assert all(field_constancy(sys, far).passed for sys in systems.values())
    MUTATIONS[mutation][0](monkeypatch)
    for name, sys in systems.items():
        assert field_constancy(sys, far).max_residual > 1e3 * magnetics.COEFFICIENT_TOL, name


class TestWTransform:
    def test_roundtrip(self, alt):
        f = probe(alt.B)
        g = w_transform(alt, w_transform(alt, f), sign=-1.0)
        z = 0.8 - 0.1j
        assert abs(g(z) - f(z)) < 1e-13

    def test_unit_modulus(self, alt):
        f = probe(alt.B)
        wf = w_transform(alt, f)
        z = -0.4 + 0.9j
        assert abs(abs(wf(z)) - abs(f(z))) < 1e-13

    def test_intertwines_laplacians(self, landau, conj, alt):
        for sys in (landau, conj, alt):
            f = probe(sys.B)
            rep = intertwining_residual(sys, f, SMALL)
            assert rep.passed, rep.max_residual

    def test_one_jet_of_the_probe(self, landau, conj, alt):
        # both sides of the identity, and the negative control, read one jet of f per call
        for sys in (landau, conj, alt):
            inner, calls = probe(sys.B), []
            f = ScalarField(inner.func, lambda z: calls.append(np.shape(z)) or inner.jet(z))
            assert intertwining_residual(sys, f, SMALL).passed
            bad = intertwining_residual(sys, f, SMALL, B_override=sys.B + 0.1)
            assert not bad.passed and bad.max_residual > 0.01
            assert calls == [(SMALL.nx * SMALL.ny,)] * 2

    def test_wrong_field_fails(self, alt):
        f = probe(alt.B)
        rep = intertwining_residual(alt, f, SMALL, B_override=alt.B + 0.1)
        assert not rep.passed
        assert rep.max_residual > 0.01


class TestLifting:
    def test_quotient_is_constant(self, landau, conj, alt):
        for sys in (landau, conj, alt):
            reps = chi_tau_hat_spread(sys, ab(sys.gamma.generators), SMALL)
            assert len(reps) == len(sys.gamma.generators) and all(r.passed for r in reps)

    def test_identity_lifts_to_one(self, conj):
        assert abs(chi_tau(conj, ab([IDENTITY]))[0] - 1) < 1e-12

    def test_unimodular(self, alt):
        assert np.all(np.abs(np.abs(chi_tau(alt, ab(alt.gamma.generators))) - 1) < 1e-10)

    def test_residual_vanishes(self, landau, conj, alt):
        for sys in (landau, conj, alt):
            reps = lifting_residual(sys, ab(sys.gamma.generators), SMALL)
            assert len(reps) == len(sys.gamma.generators) and all(r.passed for r in reps)

    def test_drop_controls_fail(self, alt):
        # removing either correction sub-factor breaks the identity
        g = alt.gamma.generators[0]
        for drop in ("phase_at_orbit", "inner"):
            (rep,) = lifting_residual(alt, ab([g]), SMALL, drop=drop)
            assert not rep.passed
            assert rep.max_residual > 0.1

    @pytest.mark.parametrize("name", ["landau", "p6"])
    def test_nudged_chi_fails_its_own_entry_only(self, name, monkeypatch):
        # chi_tau off by e^{1e-3 i} on the second generator: that entry fails, the first passes;
        # lifting_residual reads chi_tau by entry index, through _chi_tau
        sys = config_system(name)
        real = magnetics._chi_tau

        def nudged(sys_, idx, drop=None):
            return real(sys_, idx, drop) * np.array([1, np.exp(1e-3j)])

        monkeypatch.setattr(magnetics, "_chi_tau", nudged)
        first, second = lifting_residual(sys, ab(sys.gamma.generators), LIFT_GRID)
        assert first.passed and first.max_residual < 1e-14
        assert not second.passed and second.max_residual > 1e-4
        assert second.metadata["gamma"] == sys.gamma.generators[1].to_dict()


class TestElementArrays:
    def test_non_unit_rotation_is_rejected(self, alt):
        # [2, 0] is no rigid motion: T_g's product rule and j's g^{-1}.0 need |a| = 1
        from maf.spectral import kernel_invariance_residual

        f, gs = probe(alt.B), ([2.0], [0.5])
        with pytest.raises(ValueError, match="unimodular"):
            representation(alt, 2.0, 0.5, f)
        with pytest.raises(ValueError, match="unimodular"):
            invariance_residual(alt, gs, f, SMALL)
        with pytest.raises(ValueError, match="unimodular"):
            kernel_invariance_residual(alt, 0, gs, [(0.1, 0.2j)])
        for check in (chi_tau_hat_spread, lifting_residual):  # also not in the subgroup
            with pytest.raises(ValueError):
                check(alt, gs, SMALL)


class TestSystemValidation:
    def test_rejects_non_equivariant_pair(self, conj):
        from maf.equivariant import EquivariantMap
        from maf.magnetics import MagneticSystem

        with pytest.raises(ValueError, match="equivariant"):
            MagneticSystem(
                conj.nu, conj.mu, conj.rho, EquivariantMap(1.0, 0.0, 1.0),
                conj.gamma, conj.chi,
            )

    @pytest.mark.parametrize("config", ["landau", "conjugate", "alteration", "p6"])
    @pytest.mark.parametrize("name", ["p", "q", "r"])
    def test_nudged_coefficient_is_refused_by_name(self, capsys, tmp_path, config, name):
        # tau's coefficient off by 1e-6: the build names it, and every command that builds the
        # planar system exits 2 (highdim builds none)
        import json

        from maf.cli import COMMANDS, main

        path = P6_CONFIG if config == "p6" else Path(magnetics.__file__).parent / "configs" / f"{config}.json"
        data = json.loads(path.read_text())
        tau = config_system(config).tau
        coeffs = {c: complex(getattr(tau, c)) + (1e-6 if c == name else 0) for c in "pqr"}
        data["tau"] = {"kind": "affine", **{c: [v.real, v.imag] for c, v in coeffs.items()}}
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        for command in sorted(set(COMMANDS) - {"highdim"}):
            assert main([command, "--config", str(p)]) == 2, command
            err = capsys.readouterr().err
            assert "not equivariant" in err and f"tau's {name} is off by 1.00e-06" in err

    @pytest.mark.parametrize("config", ["landau", "conjugate", "alteration", "p6"])
    def test_build_draws_no_random_sample(self, monkeypatch, config):
        # equivariance is decided from the normal forms, so building a system draws nothing
        def no_rng(*args, **kwargs):
            raise AssertionError("the build drew a random sample")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert config_system(config).B > 0

    def test_rejects_escaping_subgroup(self, conj):
        from maf.groups import DiscreteSubgroup
        from maf.magnetics import MagneticSystem

        gamma = DiscreteSubgroup([GroupElement(1, 0.5 + 0.25j)])
        with pytest.raises(ValueError, match="subgroup"):
            MagneticSystem(conj.nu, conj.mu, conj.rho, conj.tau, gamma, conj.chi)


# -- the per-point loops the array sweeps replaced, kept as their oracle -----

REPORT_GRID = Grid(-2.0, 2.0, 9, -2.0, 2.0, 9)  # maf report's invariance/intertwining grid
LIFT_GRID = Grid(-2.0, 2.0, 11, -2.0, 2.0, 11)  # and its lifting grid


def scalar_intertwining(sys, f, grid, B):
    wf = w_transform(sys, f)
    res = []
    for z in grid.points():
        lhs = apply_mixed_laplacian(sys, f, z)
        rhs = np.exp(-1j * sys.phi(z)) * apply_landau(B, wf, z)
        res.append(abs(lhs - rhs))
    return res


def scalar_invariance(sys, g, f, grid):
    lap_f = ScalarField(lambda z: apply_mixed_laplacian(sys, f, z))
    t_lap = representation(sys, g.a, g.b, lap_f)
    t_f = representation(sys, g.a, g.b, f)
    return [abs(t_lap(z) - apply_mixed_laplacian(sys, t_f, z)) for z in grid.points()]


def scalar_lifting(sys, g, grid, drop=None):
    from maf.automorphy import j_factor

    target = chi_tau(sys, ab([g]), drop=drop)[0]
    chi = sys.chi_table.value(g)
    res = []
    for z in grid.points():
        J = chi * mixed_factor_nochi(sys.nu, sys.mu, sys.rho, sys.tau, g.a, g.b, z)
        lhs = np.exp(1j * (sys.phi(act(g, z)) - sys.phi(z))) * J
        res.append(abs(lhs - target * j_factor(sys.B, g.a, g.b, z)))
    return res


def assert_report_matches(rep, res):
    """The array sweep's report equals the scalar loop's within 1e-2 * tol."""
    assert abs(rep.max_residual - max(res)) <= 1e-2 * rep.tol
    assert abs(rep.mean_residual - sum(res) / len(res)) <= 1e-2 * rep.tol


SYSTEMS = ["landau", "conjugate", "alteration"]


class TestArraySweepsMatchScalarLoops:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_intertwining(self, name):
        sys = build_system(load_bundled(name))
        f = polyexp_field({(0, 0): 1.0}, sys.B / 2)
        rep = intertwining_residual(sys, f, REPORT_GRID)
        assert_report_matches(rep, scalar_intertwining(sys, f, REPORT_GRID, sys.B))
        # negative control: a wrong Landau field fails on both paths alike
        bad = intertwining_residual(sys, f, REPORT_GRID, B_override=sys.B + 0.1)
        assert not bad.passed and bad.max_residual > 0.01
        assert_report_matches(bad, scalar_intertwining(sys, f, REPORT_GRID, sys.B + 0.1))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_invariance(self, name):
        sys = build_system(load_bundled(name))
        f = polyexp_field({(0, 0): 1.0}, sys.B / 2)
        elements = [*sys.gamma.generators, GroupElement(np.exp(0.4j), 0.3 + 0.2j)]
        for g, rep in zip(elements, invariance_residual(sys, ab(elements), f, REPORT_GRID), strict=True):
            assert rep.passed and rep.metadata["g"] == g.to_dict()
            assert_report_matches(rep, scalar_invariance(sys, g, f, REPORT_GRID))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_lifting(self, name):
        sys = build_system(load_bundled(name))
        elements = sys.gamma.generators
        for g, rep in zip(elements, lifting_residual(sys, ab(elements), LIFT_GRID), strict=True):
            assert rep.passed and rep.metadata["gamma"] == g.to_dict()
            assert_report_matches(rep, scalar_lifting(sys, g, LIFT_GRID))

    def test_lifting_drop_controls(self, alt):
        g = alt.gamma.generators[0]
        for drop in ("phase_at_orbit", "inner"):
            (rep,) = lifting_residual(alt, ab([g]), LIFT_GRID, drop=drop)
            assert not rep.passed and rep.max_residual > 0.1
            assert_report_matches(rep, scalar_lifting(alt, g, LIFT_GRID, drop=drop))

    @pytest.mark.parametrize("name", [*SYSTEMS, "p6"])
    def test_batch_equals_one_element_calls(self, name):
        # the report of each element is the one a one-element call gives, to round-off
        sys = config_system(name)
        f = polyexp_field({(0, 0): 1.0}, sys.B / 2)
        rng_elements = list(map(GroupElement, *random_ab(np.random.default_rng(5), 3)))
        cases = [
            (lambda gs: invariance_residual(sys, gs, f, REPORT_GRID), rng_elements),
            (lambda gs: chi_tau_hat_spread(sys, gs, LIFT_GRID), sys.gamma.generators),
            (lambda gs: lifting_residual(sys, gs, LIFT_GRID), sys.gamma.generators),
        ]
        for check, elements in cases:
            batch = check(ab(elements))
            assert len(batch) == len(elements)
            for rep, g in zip(batch, elements):
                (one,) = check(ab([g]))
                assert rep.name == one.name and rep.tol == one.tol
                assert abs(rep.max_residual - one.max_residual) <= 1e-15
                assert abs(rep.mean_residual - one.mean_residual) <= 1e-15
                assert rep.metadata.keys() == one.metadata.keys()
                assert rep.metadata.get("gamma", rep.metadata.get("g")) == g.to_dict()
                if "value" in one.metadata:
                    assert np.allclose(rep.metadata["value"], one.metadata["value"], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_gauge_phi(self, name):
        # the closed form on the grid's array against the line integral, point by point
        sys = build_system(load_bundled(name))
        pts = LIFT_GRID.points()
        oracle = np.array([gauge_phi(sys, z) for z in pts])
        assert np.max(np.abs(sys.phi(pts) - oracle)) <= 1e-12

    def test_custom_family_system(self):
        # a hand-built normal form, rho([a, b]) = [a, 2b], runs through the same array sweeps
        from maf.groups import DiscreteSubgroup

        rho = Endomorphism(1, 2, 0)
        square = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
        sys = MagneticSystem(1.0, 0.5, rho, tau_from_beta(rho, 0.0), square, PseudoCharacter([1, 1]))
        assert sys.B == 3.0
        f = polyexp_field({(0, 0): 1.0}, sys.B / 2)
        assert field_constancy(sys, REPORT_GRID).passed
        assert intertwining_residual(sys, f, REPORT_GRID).passed
        gs = ab(square.generators)
        assert all(r.passed for r in invariance_residual(sys, gs, f, REPORT_GRID))
        assert all(r.passed for r in lifting_residual(sys, gs, LIFT_GRID))
