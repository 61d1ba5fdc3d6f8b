"""End-to-end acceptance gate: one numbered check per top-level guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line so the suite log
doubles as a verification report for the three bundled systems.
"""

import numpy as np
import pytest

from maf.automorphy import PseudoCharacter, rdq_check
from maf.config import build_system, load_bundled
from maf.equivariant import Endomorphism, tau_from_beta
from maf.fields import Grid, polyexp_field, quad2d_nodes
from maf.groups import DiscreteSubgroup, GroupElement
from maf.highdim import EquivariantMapN, constant_field_test, two_form
from maf.magnetics import (
    S_field,
    apply_landau,
    apply_mixed_laplacian,
    field_constancy,
    gauge_check,
    intertwining_residual,
    invariance_residual,
    lifting_residual,
    chi_tau_hat_spread,
)
from maf.spectral import (
    SpectralBasis,
    kernel,
    kernel_eigen_residual,
    kernel_invariance_residual,
    landau_level,
    project_on_nodes,
    rayleigh_quotient,
    select_laguerre_scale,
    strip_eigenfunction,
    truncation_radius,
)
from oracles import defect_phase_residuals, gauge_phi
from test_highdim import _two_form_matrix, potential_n_coeffs

NAMES = ("landau", "conjugate", "alteration")
EXPECTED_B = {"landau": 1.0, "conjugate": 1.0, "alteration": 1.5}
CENTRAL = [0.0, 0.4 + 0.3j, -0.6 + 0.8j, 1.1 - 0.5j, -0.9 - 1.2j]


@pytest.fixture(scope="module")
def systems():
    return {name: build_system(load_bundled(name)) for name in NAMES}


def _verdict(num: str, ok: bool) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    return ok


def _probes(B):
    a = B / 2
    return [
        polyexp_field({(0, 0): 1.0}, a),
        polyexp_field({(1, 0): 1.0, (0, 0): 0.3}, a),
        polyexp_field({(0, 1): 0.5, (1, 1): 0.2j}, a),
        polyexp_field({(2, 0): 1.0, (0, 2): -0.4}, a),
        polyexp_field({(1, 2): 0.7, (0, 0): 1j}, a),
    ]


def _random_elements(rng, n):
    return [
        GroupElement(np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.normal() + 1j * rng.normal())
        for _ in range(n)
    ]


def _ab(elements):
    return [g.a for g in elements], [g.b for g in elements]


def test_criterion_1_field_constancy(systems):
    # S's z-coefficient is the field: S(z) - S(0) = B z on the report grid, to round-off
    ok = True
    grid = Grid(-2, 2, 41, -2, 2, 41)
    for name, sys_ in systems.items():
        rep = field_constancy(sys_, grid, tol=1e-12)
        ok &= rep.name == "field_coefficient" and rep.passed and rep.metadata["B"] == EXPECTED_B[name]
    assert _verdict("1", ok)


def test_criterion_2_gauge_wellposed(systems):
    # S's constant term is 2i conj(gauge_k), and phi = 2 Re(gauge_k z) is the line integral of dphi
    ok = True
    for sys_ in systems.values():
        rep = gauge_check(sys_, tol=1e-12)
        ok &= rep.name == "gauge_coefficient" and rep.passed
        for z in CENTRAL:
            ok &= all(abs(gauge_phi(sys_, z, x_first) - sys_.phi(z)) <= 1e-12 for x_first in (True, False))
    assert _verdict("2", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the conjugate pair carries the trivial gauge: its potential already "
    "equals the symmetric-gauge form with field nu - mu, so phi vanishes "
    "identically and cannot equal (nu - mu) (Im z)^2 at z = 1 + i",
)
def test_criterion_2_conjugate_closed_form(systems):
    phi = gauge_phi(systems["conjugate"], 1 + 1j)
    assert abs(phi - 1.0) <= 1e-8


def test_criterion_3_intertwining(systems):
    ok = True
    grid = Grid(-2, 2, 9, -2, 2, 9)
    for sys_ in systems.values():
        for f in _probes(sys_.B):
            ok &= intertwining_residual(sys_, f, grid, tol=1e-5).passed
    control = intertwining_residual(
        systems["alteration"], _probes(1.5)[0], grid, B_override=1.6
    )
    ok &= control.max_residual >= 1e-2
    assert _verdict("3", ok)


def test_criterion_4_invariance(systems):
    ok = True
    grid = Grid(-2, 2, 7, -2, 2, 7)
    rng = np.random.default_rng(7)
    for sys_ in systems.values():
        f = _probes(sys_.B)[1]
        ok &= all(r.passed for r in invariance_residual(sys_, _ab(_random_elements(rng, 10)), f, grid))
    assert _verdict("4", ok)


def test_criterion_5_lifting(systems):
    ok = True
    grid = Grid(-2, 2, 11, -2, 2, 11)
    for sys_ in systems.values():
        idx = sys_.chi_table.indices(*_ab(sys_.gamma.generators))
        ok &= all(r.passed for r in chi_tau_hat_spread(sys_, idx, grid, tol=1e-8))
        ok &= all(r.passed for r in lifting_residual(sys_, idx, grid, tol=1e-8))
    for drop in ("phase_at_orbit", "inner"):
        alt = systems["alteration"]
        (rep,) = lifting_residual(alt, alt.chi_table.indices(*_ab(alt.gamma.generators[:1])), grid, drop=drop)
        ok &= rep.max_residual >= 1e-3
    assert _verdict("5", ok)


def test_criterion_6_quantization(systems):
    square = DiscreteSubgroup([GroupElement(1, 1), GroupElement(1, 1j)])
    rho = Endomorphism(1, 1)
    chi = PseudoCharacter([1, 1])
    good = rdq_check(np.pi, 0.0, rho, square, chi, max_word_len=4, tol=1e-10)
    bad = rdq_check(1.0, 0.0, rho, square, chi, max_word_len=4, tol=1e-10)
    ok = good.passed and (not bad.passed) and bad.max_residual >= 0.1
    tau = tau_from_beta(rho, 0.0)
    grid = Grid(-2, 2, 7, -2, 2, 7)
    rng = np.random.default_rng(3)
    for g, gp in zip(_random_elements(rng, 3), _random_elements(rng, 3)):
        spread, dev = defect_phase_residuals(np.pi, 0.0, rho, tau, g, gp, grid)
        ok &= spread <= 1e-9 and dev <= 1e-9
    for sys_ in (systems["conjugate"], systems["alteration"]):
        g, gp = _random_elements(rng, 2)
        spread, dev = defect_phase_residuals(sys_.nu, sys_.mu, sys_.rho, sys_.tau, g, gp, grid)
        ok &= spread <= 1e-9 and dev <= 1e-9
    assert _verdict("6", ok)


def test_criterion_7_landau_levels(systems):
    ok = True
    for sys_ in systems.values():
        basis = SpectralBasis(B=sys_.B, alpha=0.0)
        for m in range(4):
            for n in (-1, 0, 1):
                psi = strip_eigenfunction(basis, sys_, m, n)
                lam = landau_level(sys_.B, m)
                rq = rayleigh_quotient(sys_, psi, CENTRAL)
                ok &= abs(rq - lam) / abs(lam) <= 1e-12
    assert _verdict("7", ok)


def test_criterion_8_kernel(systems):
    ok = True
    rng = np.random.default_rng(11)
    for sys_ in systems.values():
        eigen = select_laguerre_scale(sys_)
        print(f"  kernel eigen-equation residual for B={sys_.B}: {eigen:.2e}")
        ok &= eigen <= 1e-12
        zs = rng.normal(size=8) + 1j * rng.normal(size=8)
        ws = rng.normal(size=8) + 1j * rng.normal(size=8)
        ok &= all(abs(kernel(sys_, 1, z, w) - kernel(sys_, 1, w, z).conjugate()) <= 1e-12 for z, w in zip(zs, ws))
        ok &= abs(kernel(sys_, 0, 0.2 - 0.4j, 0.2 - 0.4j) - sys_.B / np.pi) <= 1e-12
        for k in (0, 1, 2):
            ok &= kernel_eigen_residual(sys_, k, 0.1 + 0.05j, CENTRAL) <= 1e-12
        pairs = list(zip(zs, ws))
        gs = _ab(_random_elements(rng, 10))
        ok &= all(r.passed for r in kernel_invariance_residual(sys_, 1, gs, pairs, tol=1e-8))

    # projector algebra on the truncated plane, judged away from the cutoff
    sys_ = systems["landau"]
    R = truncation_radius(sys_.B, tail=1e-8)
    Z, Wt = quad2d_nodes((-R, R, -R, R), 64)
    central = np.abs(Z) < 2.0
    fvals = np.exp(-np.abs(Z - 0.3) ** 2)
    projected = {k: project_on_nodes(sys_, k, fvals, Z, Wt) for k in (0, 1, 2)}
    for k in (0, 1, 2):
        pk = projected[k]
        scale_k = np.abs(pk[central]).max()
        twice = project_on_nodes(sys_, k, pk, Z, Wt)
        ok &= np.abs((twice - pk)[central]).max() / scale_k <= 1e-3
        cross = project_on_nodes(sys_, (k + 1) % 3, pk, Z, Wt)
        ok &= np.abs(cross[central]).max() / scale_k <= 1e-3
    assert _verdict("8", ok)


def test_criterion_9_highdim_verdicts():
    # d theta is the closed form, checked against the stencil oracle at sample
    # points; each map is equivariant at 1e-12, and only the rotation couples
    # its coordinates
    c = np.sqrt(0.5)
    maps = {
        "identity": EquivariantMapN("identity", 2),
        "conjugate": EquivariantMapN("conjugate", 2),
        "rotation45": EquivariantMapN("linear", 2, U=np.array([[c, -c], [c, c]], dtype=complex)),
    }
    reps = dict(zip(maps, constant_field_test(list(maps.values()), 1.0, 0.5)))
    pts = np.random.default_rng(0).normal(size=(6, 2, 2)) @ np.array([1, 1j])
    ok = True
    for name, tau in maps.items():
        fd = _two_form_matrix(tau, 1.0, 0.5, pts, 1e-4)
        ok &= np.abs(fd - two_form(tau, 1.0, 0.5)).max() <= 1e-8
        ok &= reps[name].passed and reps[name].tol == 1e-12
    ident, conj, rot = (reps[name].metadata["coordinate_decoupling"] for name in maps)
    ok &= ident["decoupled"] and conj["decoupled"]
    ok &= all(abs(v + 1.0) < 1e-8 for v in ident["F_values"].values() if v != 0.0)
    ok &= rot["decoupled"] is False and rot["max_B"] > 0.4
    assert _verdict("9", ok)


def test_criterion_10_cross_module(systems):
    ok = True
    sys_ = systems["conjugate"]
    tau1 = EquivariantMapN("conjugate", 1)
    for z in (0.3 + 0.4j, -1.1 + 0.2j, 0.9 - 0.7j):
        c_dz, c_dzb = potential_n_coeffs(tau1, sys_.nu, sys_.mu, np.array([z]))
        S = S_field(sys_, z)
        ok &= abs(c_dz[0] + S.conjugate() / 2) <= 1e-9
        ok &= abs(c_dzb[0] - S / 2) <= 1e-9
    landau_sys = systems["landau"]
    rng = np.random.default_rng(5)
    for _ in range(3):
        coeffs = {
            (int(rng.integers(0, 3)), int(rng.integers(0, 3))): complex(rng.normal(), rng.normal())
        }
        coeffs[(0, 0)] = 1.0
        f = polyexp_field(coeffs, landau_sys.B / 2)
        for z in CENTRAL:
            ok &= (
                abs(apply_mixed_laplacian(landau_sys, f, z) - apply_landau(landau_sys.nu, f, z))
                <= 1e-8
            )
    assert _verdict("10", ok)
