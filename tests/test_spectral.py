import io
import json
import math
import re
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import functional_equation_residual, oracle_jet

from maf import spectral
from maf.cli import main
from maf.config import build_system, load_bundled, load_config
from maf.equivariant import EquivariantMap
from maf.fields import Grid, ScalarField, jet, quad2d_nodes
from maf.groups import GroupElement, random_ab
from maf.spectral import (
    SpectralBasis,
    hermite,
    hermite_function,
    kernel,
    kernel_eigen_residual,
    kernel_field,
    kernel_invariance_residual,
    laguerre,
    landau_level,
    project_on_nodes,
    rayleigh_quotient,
    select_laguerre_scale,
    spectrum_table,
    strip_eigenfunction,
    truncation_radius,
)

CENTRAL = [0.0, 0.4 + 0.3j, -0.6 + 0.8j, 1.1 - 0.5j, -0.9 - 1.2j]
P6 = Path(__file__).resolve().parents[1] / "perfbench" / "p6.json"
SYSTEMS = ["landau", "conjugate", "alteration", str(P6)]
SYSTEM_IDS = ["landau", "conjugate", "alteration", "p6"]


@pytest.fixture(scope="module")
def landau():
    return build_system(load_bundled("landau"))


@pytest.fixture(scope="module")
def conj():
    return build_system(load_bundled("conjugate"))


@pytest.fixture(scope="module")
def alt():
    return build_system(load_bundled("alteration"))


@pytest.fixture(scope="module", params=SYSTEMS, ids=SYSTEM_IDS)
def any_sys(request):
    name = request.param
    return build_system(load_config(name) if name.endswith(".json") else load_bundled(name))


def _fd_relative_gap(f: ScalarField, z) -> float:
    """Worst gap of f's exact jet from the 5-point FD jet of f's values, relative per part."""
    exact, fd = jet(f, z), oracle_jet(f, z)
    return max(float(np.abs(e - d).max() / np.abs(e).max()) for e, d in zip(exact, fd))


def _double_laguerre_argument(monkeypatch):
    """L_k(2B rho) in K_k's radial formula, its chain rule unchanged: ``_radial`` is the one
    caller of ``_laguerre_jet``."""
    real = spectral._laguerre_jet
    monkeypatch.setattr(spectral, "_laguerre_jet", lambda k, x: real(k, 2 * x))


def _flip_laguerre_derivative(monkeypatch):
    """L_k' = +L_{k-1}^(1) in place of -L_{k-1}^(1)."""
    real = spectral._laguerre_jet

    def mutated(k, x):
        L, L1, L2 = real(k, x)
        return L, -L1, L2

    monkeypatch.setattr(spectral, "_laguerre_jet", mutated)


def _run(argv) -> tuple[int, list[dict]]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


class TestSpecialFunctions:
    def test_hermite_values(self):
        assert hermite(0, 5.0) == 1.0
        assert hermite(1, 3.0) == 6.0
        assert hermite(2, 1.0) == 2.0  # 4x^2 - 2
        assert hermite(3, 2.0) == 40.0  # 8x^3 - 12x

    def test_hermite_array(self):
        x = np.array([0.0, 1.0])
        assert np.allclose(hermite(2, x), [-2.0, 2.0])

    def test_hermite_negative_degree(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    def test_hermite_function_matches_polynomial(self):
        t = np.linspace(-6.0, 6.0, 49)
        for k in range(11):
            norm = np.sqrt(2.0**k * math.factorial(k) * np.sqrt(np.pi))
            ref = hermite(k, t) * np.exp(-(t**2) / 2) / norm
            assert np.abs(hermite_function(k, t) - ref).max() <= 1e-14
        with pytest.raises(ValueError):
            hermite_function(-1, 0.0)

    def test_hermite_function_high_degree(self):
        # 2^150 150! sqrt(pi) = 1.4e308: the polynomial form is at the edge of overflow
        assert np.all(np.isfinite(hermite_function(150, np.array([-40.0, -17.0, 0.0, 17.0, 40.0]))))
        t, dt = np.linspace(-30.0, 30.0, 6001, retstep=True)
        psi = {k: hermite_function(k, t) for k in (148, 150)}
        assert abs(np.sum(psi[150] ** 2) * dt - 1) <= 1e-12
        assert abs(np.sum(psi[148] * psi[150]) * dt) <= 1e-12

    def test_laguerre_values(self):
        assert laguerre(0, 7.0) == 1.0
        assert laguerre(1, 1.0) == 0.0
        assert laguerre(2, 2.0) == -1.0  # (x^2 - 4x + 2)/2
        assert abs(laguerre(3, 1.0) + 2.0 / 3.0) < 1e-14  # (-x^3 + 9x^2 - 18x + 6)/6

    def test_generalized_laguerre(self):
        assert laguerre(1, 2.0, 3.0) == 2.0  # 1 + alpha - x
        assert laguerre(2, 1.0, 1.0) == 0.5  # (x^2 - 6x + 6)/2
        # x and alpha broadcast: rows are orders, columns points
        table = laguerre(2, np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        assert np.allclose(table, [[1.0, -0.5], [3.0, 0.5]])

    def test_laguerre_array(self):
        x = np.array([0.0, 1.0])
        assert np.allclose(laguerre(1, x), [1.0, 0.0])

    @pytest.mark.parametrize("k", [1.5, 2.0, -1, "1"])
    def test_degrees_must_be_nonnegative_integers(self, k):
        for f in (lambda: hermite_function(k, 0.3), lambda: laguerre(k, 0.3)):
            with pytest.raises(ValueError, match="level index must be a nonnegative integer"):
                f()
        assert laguerre(np.int64(2), 2.0) == laguerre(2, 2.0)


class TestLandauLevels:
    def test_values(self):
        assert landau_level(1.0, 0) == -2.0
        assert landau_level(1.5, 2) == -15.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            landau_level(0.0, 0)
        with pytest.raises(ValueError):
            landau_level(1.0, -1)

    @pytest.mark.parametrize("k", [1.5, 1.0])
    def test_rejects_non_integer_levels(self, k):
        # lambda_k = -2B(2k + 1) has no level at k = 1.5 (it read -8.0)
        with pytest.raises(ValueError, match="level index must be a nonnegative integer"):
            landau_level(1.0, k)

    def test_table(self):
        rows = spectrum_table(1.0, 2)
        assert [r["lambda"] for r in rows] == [-2.0, -6.0, -10.0]


class TestStripEigenfunctions:
    def test_ground_state_value_at_origin(self, landau):
        basis = SpectralBasis(B=landau.B, alpha=0.0)
        psi = strip_eigenfunction(basis, landau, 0, 0)
        assert abs(psi(0.0) - 1.0) < 1e-14

    def test_rayleigh_quotients_exact(self, conj):
        basis = SpectralBasis(B=conj.B, alpha=0.25)
        for m in range(3):
            psi = strip_eigenfunction(basis, conj, m, 0)
            rq = rayleigh_quotient(conj, psi, CENTRAL)
            assert abs(rq - landau_level(conj.B, m)) < 1e-12 * abs(landau_level(conj.B, m))

    def test_rayleigh_with_gauge(self, alt):
        basis = SpectralBasis(B=alt.B, alpha=0.0)
        psi = strip_eigenfunction(basis, alt, 1, 0)
        rq = rayleigh_quotient(alt, psi, CENTRAL)
        assert abs(rq - landau_level(alt.B, 1)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("n", [0, 1])
    def test_jet_matches_finite_differences(self, any_sys, n, alpha):
        basis = SpectralBasis(B=any_sys.B, alpha=alpha)
        for m in range(5):
            assert _fd_relative_gap(strip_eigenfunction(basis, any_sys, m, n), np.array(CENTRAL)) <= 1e-6

    def test_stacked_degrees_equal_one_degree_calls(self, any_sys):
        basis = SpectralBasis(B=any_sys.B, alpha=0.3)
        z, ms = np.array(CENTRAL), np.arange(5)
        stacked = strip_eigenfunction(basis, any_sys, ms, 1)
        singles = [strip_eigenfunction(basis, any_sys, m, 1) for m in ms]
        for part, want in zip(jet(stacked, z), zip(*(jet(f, z) for f in singles))):
            assert part.shape == (5, z.size)
            assert np.abs(part - np.array(want)).max() <= 1e-15 * np.abs(part).max()
        assert np.array_equal(stacked(z), np.array([f(z) for f in singles]))
        rq = rayleigh_quotient(any_sys, stacked, z)
        want = np.array([rayleigh_quotient(any_sys, f, z) for f in singles])
        assert rq.shape == (5,) and np.abs(rq - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("name", SYSTEMS, ids=SYSTEM_IDS)
    def test_wrong_hermite_derivative_fails_spectrum(self, monkeypatch, name):
        # H_m' = 2(m-1) H_{m-1} in place of 2m H_{m-1}
        real = spectral._hermite_jet

        def mutated(m, t):
            h, _, h2 = real(m, t)
            m = np.asarray(m)
            c = m.reshape(m.shape + (1,) * np.ndim(t))
            return h, 2 * (c - 1) * hermite(np.maximum(m - 1, 0), t), h2

        assert _run(["spectrum", "--config", name])[0] == 0
        monkeypatch.setattr(spectral, "_hermite_jet", mutated)
        code, (rep,) = _run(["spectrum", "--config", name])
        assert code == 1 and not rep["pass"] and rep["tol"] == 1e-12 and rep["max_residual"] > 1e-3

    def test_automorphy_under_strip_translation(self, landau):
        # psi_{m,n} transforms under z -> z + 1 with character e^{2 pi i alpha}
        alpha = 0.25
        basis = SpectralBasis(B=landau.B, alpha=alpha)
        psi = strip_eigenfunction(basis, landau, 0, 0)
        from maf.automorphy import CharacterTable, PseudoCharacter
        from maf.groups import DiscreteSubgroup, GroupElement

        gamma = DiscreteSubgroup([GroupElement(1, 1)])
        table = CharacterTable(
            PseudoCharacter([np.exp(2j * np.pi * alpha)]), gamma, landau.nu, landau.mu,
            landau.rho, max_len=4,
        )
        rep = functional_equation_residual(
            psi, landau.nu, landau.mu, landau.rho, landau.tau, table,
            gamma.generators[0], Grid(nx=5, ny=5),
        )
        assert rep.max_residual < 1e-8

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            SpectralBasis(B=-1.0)
        with pytest.raises(ValueError):
            SpectralBasis(B=1.0, alpha=1.0)


class TestKernel:
    def test_diagonal_value(self, landau, alt):
        for sys in (landau, alt):
            assert abs(kernel(sys, 0, 0.7 + 0.1j, 0.7 + 0.1j) - sys.B / np.pi) < 1e-12

    def test_hermitian(self, alt):
        z, w = 0.4 + 0.9j, -0.3 + 0.2j
        assert abs(kernel(alt, 1, z, w) - kernel(alt, 1, w, z).conjugate()) < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_stacked_calls_equal_separate_and_scalar_calls(self, any_sys, k):
        # the kernel entries stack (z, w) on (w, z), and (z, w) on (gz, gw), in one call each:
        # every value is bit for bit the one a separate call, or a one-point call, gives.  A
        # call on scalars may round a product differently from numpy's array loop (1 ulp on
        # alteration, whose gauge is not 0), so it is held to 2 eps.
        rng = np.random.default_rng(k)
        zw = np.stack([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in "zw"])
        a, b = (np.reshape(x, (-1, 1)) for x in random_ab(rng, 5))
        gzw = a * zw[:, None] + b  # (2, 5, 8): gz and gw
        herm = kernel(any_sys, k, zw, zw[::-1])
        inv = kernel(any_sys, k, np.vstack([zw[0], gzw[0]]), np.vstack([zw[1], gzw[1]]))
        assert np.array_equal(herm[0], kernel(any_sys, k, zw[0], zw[1]))
        assert np.array_equal(herm[1], kernel(any_sys, k, zw[1], zw[0]))
        assert np.array_equal(inv[0], herm[0])
        assert np.array_equal(inv[1:], kernel(any_sys, k, gzw[0], gzw[1]))
        for stacked, z, w in ((herm, zw, zw[::-1]), (inv[1:], gzw[0], gzw[1])):
            one_point = np.vectorize(lambda x, y: kernel(any_sys, k, [x], [y])[0], otypes=[complex])
            assert np.array_equal(stacked, one_point(z, w))
            scalar = np.vectorize(lambda x, y: kernel(any_sys, k, x, y), otypes=[complex])(z, w)
            assert np.all(np.abs(scalar - stacked) <= 2 * np.finfo(float).eps * np.abs(stacked))

    @pytest.mark.parametrize("k", [1.5, -1])
    def test_rejects_non_integer_levels(self, alt, k):
        with pytest.raises(ValueError, match="level index must be a nonnegative integer"):
            kernel(alt, k, 0.4 + 0.9j, -0.3 + 0.2j)

    def test_eigen_equation(self, landau, conj, alt):
        for sys in (landau, conj, alt):
            for k in range(6):
                assert kernel_eigen_residual(sys, k, 0.1 + 0.05j, CENTRAL) < 1e-12

    def test_scale_adjudication(self, monkeypatch, alt):
        # the eigen-equation holds for L_k(B rho) and fails by far for L_k(2B rho)
        assert select_laguerre_scale(alt) <= 1e-14
        _double_laguerre_argument(monkeypatch)
        assert select_laguerre_scale(alt) > 1e-2

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_jet_matches_finite_differences(self, monkeypatch, any_sys, factor):
        # factor 2 doubles the Laguerre argument of the one radial formula: kernel and
        # kernel_field move together, and the jet, whose chain rule keeps factor 1, leaves the
        # finite differences of its values at every level k >= 1
        if factor != 1.0:
            _double_laguerre_argument(monkeypatch)
        z, w = np.array(CENTRAL), 0.1 + 0.05j
        for k in range(6):
            f = kernel_field(any_sys, k, w)
            want = kernel(any_sys, k, z, w)
            assert np.abs(f(z) - want).max() <= 1e-14 * np.abs(want).max()
            gap = _fd_relative_gap(f, z)
            assert gap <= 1e-6 if factor == 1.0 or k == 0 else gap > 1e-2

    def test_verdict_on_every_system(self, monkeypatch, any_sys):
        # the one formula holds to round-off at every level; a doubled argument fails by far
        for k in range(1, 6):
            assert select_laguerre_scale(any_sys, k=k) <= 1e-14
        _double_laguerre_argument(monkeypatch)
        for k in range(1, 6):
            assert select_laguerre_scale(any_sys, k=k) >= 0.1

    def test_wrong_laguerre_derivative_fails_the_verdict(self, monkeypatch, any_sys):
        _flip_laguerre_derivative(monkeypatch)
        assert select_laguerre_scale(any_sys) > 1e-3

    def test_wrong_laguerre_derivative_fails_the_report(self, monkeypatch, capsys):
        # the eigen-equation residual is one of kernel_structure's residuals
        assert main(["report", "--config", "landau"]) == 0
        capsys.readouterr()
        _flip_laguerre_derivative(monkeypatch)
        assert main(["report", "--config", "landau"]) == 1
        reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        entry = reports["kernel_structure"]
        assert not entry["pass"]
        assert entry["max_residual"] == entry["metadata"]["eigen_residual"] > 1e-3
        assert [name for name, r in reports.items() if not r["pass"]] == ["kernel_structure"]

    @pytest.mark.parametrize("name", SYSTEMS, ids=SYSTEM_IDS)
    def test_doubled_laguerre_argument_fails_the_report(self, monkeypatch, name):
        # negative control: L_k(2B rho) in the one radial formula fails kernel_structure at
        # every --k, by its eigen-equation residual at level max(k, 1), and nothing else
        _double_laguerre_argument(monkeypatch)
        for k in (0, 1, 2):
            code, reports = _run(["report", "--config", name, "--k", str(k)])
            failed = {r["name"]: r["max_residual"] for r in reports if not r["pass"]}
            assert code == 1 and list(failed) == ["kernel_structure"] and failed["kernel_structure"] >= 0.1, k

    def test_invariance(self, conj, alt):
        from maf.groups import GroupElement

        pairs = [(0.3 + 0.1j, -0.4 + 0.7j), (1.0, 0.5j), (-0.8 - 0.2j, 0.2 + 0.9j)]
        for sys in (conj, alt):
            g = GroupElement(np.exp(0.6j), 0.4 - 0.3j)
            for k in (0, 1):
                (rep,) = kernel_invariance_residual(sys, k, ([g.a], [g.b]), pairs)
                assert rep.passed and rep.metadata["g"] == g.to_dict()

    def test_invariance_subgroup_generators(self, alt):
        pairs = [(0.2 + 0.4j, -0.1 - 0.3j), (0.9, -0.5j)]
        gs = [g.a for g in alt.gamma.generators], [g.b for g in alt.gamma.generators]
        assert all(r.passed for r in kernel_invariance_residual(alt, 0, gs, pairs))

    @pytest.mark.parametrize("k", [0, 2])
    def test_invariance_batch_equals_one_element_calls(self, alt, k):
        # one report per element, each the report of a one-element call, to round-off
        pairs = [(0.3 + 0.1j, -0.4 + 0.7j), (1.0, 0.5j), (-0.8 - 0.2j, 0.2 + 0.9j)]
        a, b = random_ab(np.random.default_rng(2), 5)
        batch = kernel_invariance_residual(alt, k, (a, b), pairs)
        assert len(batch) == 5
        for rep, x, y in zip(batch, a, b):
            (one,) = kernel_invariance_residual(alt, k, ([x], [y]), pairs)
            assert abs(rep.max_residual - one.max_residual) <= 1e-15
            assert abs(rep.mean_residual - one.mean_residual) <= 1e-15
            assert rep.metadata == one.metadata == {"k": k, "g": GroupElement(x, y).to_dict(), "n_pairs": 3}

    def test_invariance_negative_control(self, alt, monkeypatch):
        # the conjugate kernel is not covariant: every element's entry fails
        pairs = [(0.3 + 0.1j, -0.4 + 0.7j), (1.0, 0.5j)]
        real = spectral.kernel
        monkeypatch.setattr(spectral, "kernel", lambda *args: np.conj(real(*args)))
        reps = kernel_invariance_residual(alt, 0, random_ab(np.random.default_rng(4), 3), pairs)
        assert len(reps) == 3 and not any(r.passed for r in reps)


@pytest.fixture(scope="module")
def nodes(landau):
    R = truncation_radius(landau.B)
    return quad2d_nodes((-R, R, -R, R), 48)


@pytest.fixture
def fresh_plans():
    """An empty plan memo, emptied again after the test: a plan is keyed by its inputs,
    not by the ``_c_grid`` or ``_reach`` a test swaps in."""
    spectral._plan.cache_clear()
    yield
    spectral._plan.cache_clear()


def plane_nodes(sys, n):
    """n x n Gauss-Legendre nodes of the plane truncated at tail 1e-8."""
    R = truncation_radius(sys.B)
    return quad2d_nodes((-R, R, -R, R), n)


def dense_miss(sys, k, level, rect=None, nodes=None):
    """max |P_k f - dense P_level f| / max |dense P_level f| on the nodes (Z, Wt).

    The oracle is the dense quadrature sum of the closed-form kernel, on random
    complex values where no smoothness hides a wrong factorization; the nodes
    default to 20 x 20 nodes of rect, and rect to the truncated plane.
    """
    if rect is None:
        R = truncation_radius(sys.B)
        rect = (-R, R, -R, R)
    Z, Wt = quad2d_nodes(rect, 20) if nodes is None else nodes
    rng = np.random.default_rng(k)
    fvals = rng.normal(size=Z.shape) + 1j * rng.normal(size=Z.shape)
    z = Z.ravel()
    out = project_on_nodes(sys, k, fvals, Z, Wt).ravel()
    ref = kernel(sys, level, z[:, None], z[None, :]) @ (fvals * Wt).ravel()
    return np.abs(out - ref).max() / np.abs(ref).max()


def assert_matches_dense_kernel(sys, k, rect=None):
    assert dense_miss(sys, k, k, rect) <= 1e-10
    # negative control: the neighbouring level is a different projector
    assert dense_miss(sys, k, k + 1, rect) > 1e-2


class TestProjector:
    def test_truncation_radius(self):
        R = truncation_radius(1.0)
        assert abs(np.exp(-(R**2) / 8) - 1e-8) < 1e-12

    @pytest.mark.parametrize(
        "B, tail", [(0.0, 1e-8), (-1.0, 1e-8), (np.nan, 1e-8), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]
    )
    def test_truncation_radius_rejects_bad_input(self, B, tail):
        with pytest.raises(ValueError):
            truncation_radius(B, tail)

    def test_idempotent(self, landau, nodes):
        Z, Wt = nodes
        fvals = np.exp(-np.abs(Z - 0.3) ** 2)
        p1 = project_on_nodes(landau, 0, fvals, Z, Wt)
        p2 = project_on_nodes(landau, 0, p1, Z, Wt)
        central = np.abs(Z) < 2.0
        scale = np.abs(p1[central]).max()
        assert np.abs((p2 - p1)[central]).max() / scale < 1e-4

    def test_cross_levels_orthogonal(self, landau, nodes):
        Z, Wt = nodes
        fvals = np.exp(-np.abs(Z - 0.3) ** 2)
        p0 = project_on_nodes(landau, 0, fvals, Z, Wt)
        p10 = project_on_nodes(landau, 1, p0, Z, Wt)
        central = np.abs(Z) < 2.0
        scale = np.abs(p0[central]).max()
        assert np.abs(p10[central]).max() / scale < 1e-3

    @pytest.mark.parametrize("name", ["landau", "alteration", "conjugate"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_matches_dense_kernel(self, name, k):
        assert_matches_dense_kernel(build_system(load_bundled(name)), k)

    @pytest.mark.parametrize("name", ["landau", "alteration", "conjugate"])
    def test_matches_dense_kernel_off_centre(self, name):
        # an off-centre, non-square rectangle: the c-grid follows the nodes, not R
        sys = build_system(load_bundled(name))
        for k in range(6):
            assert_matches_dense_kernel(sys, k, (-3.0, 5.0, -1.0, 2.0))

    def test_coarser_c_grid_misses_dense_kernel(self, monkeypatch, fresh_plans, landau, alt):
        # negative control: a c-grid step 1.3x coarser aliases e^{2iBc(y - y')}
        c_grid = spectral._c_grid

        def coarse(B, k, x, y):
            c, step = c_grid(B, k, x, y)
            return np.arange(c[0], c[-1] + 1.3 * step, 1.3 * step), 1.3 * step

        monkeypatch.setattr(spectral, "_c_grid", coarse)
        for sys in (landau, alt):
            for k in range(6):
                misses = spectral._plan.cache_info().misses
                assert dense_miss(sys, k, k) > 1e-2
                assert spectral._plan.cache_info().misses == misses + 1  # no plan of the finer grid

    def test_halved_reach_misses_dense_kernel(self, monkeypatch, fresh_plans, landau, alt):
        # negative control: one reach d bounds both the c-grid and the band.  At d / 2 the
        # dropped psi_k tails miss the dense kernel by 1e-6 at k = 0 and 4e-10 at k = 2, past
        # the 1e-10 the tests above hold (by k = 5 they fall to 2e-11: d is set for round-off)
        reach = spectral._reach
        monkeypatch.setattr(spectral, "_reach", lambda B, k: reach(B, k) / 2)
        for sys in (landau, alt):
            for k in range(3):
                assert dense_miss(sys, k, k) > 1e-10

    @pytest.mark.parametrize("k", [0, 3])
    def test_band_follows_unsorted_rows(self, landau, alt, k):
        # the plan sorts the rows by x for the band and puts them back: x descending,
        # and the rows of an ascending grid shuffled, are still product grids
        R = truncation_radius(landau.B)
        Z, Wt = quad2d_nodes((-R, R, -R, R), 20)
        perm = np.random.default_rng(1).permutation(20)
        for sys in (landau, alt):
            for nodes in (quad2d_nodes((R, -R, -R, R), 20), (Z[perm], Wt[perm])):
                assert dense_miss(sys, k, k, nodes=nodes) <= 1e-10

    def test_plans_are_kept_per_gauge(self, landau):
        # same B and nodes, two gauges: each result matches its own dense kernel after
        # the other gauge has warmed the memo with its plan
        other = SimpleNamespace(B=1.0, gauge_k=0.2 + 0.1j)
        assert other.B == landau.B and other.gauge_k != landau.gauge_k
        for sys in (landau, other, landau, other):
            for k in (0, 2):
                assert dense_miss(sys, k, k) <= 1e-10

    def test_plans_are_read_only(self, monkeypatch, landau):
        Z, Wt = plane_nodes(landau, 16)
        fvals = np.exp(-np.abs(Z - 0.3) ** 2)
        out = project_on_nodes(landau, 1, fvals, Z, Wt)
        ref = out.tobytes()
        out[:] = 7.0
        # the second call is one memo hit: the c-grid is part of the plan, not of its key
        c_grid_calls = []
        c_grid = spectral._c_grid
        monkeypatch.setattr(spectral, "_c_grid", lambda *args: c_grid_calls.append(args) or c_grid(*args))
        info = spectral._plan.cache_info()
        assert project_on_nodes(landau, 1, fvals, Z, Wt).tobytes() == ref
        after = spectral._plan.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses) and not c_grid_calls
        x, y = Z.real[:, 0], Z.imag[0]
        plan = spectral._plan(landau.B, landau.gauge_k, 1, x.tobytes(), y.tobytes(), spectral._BLOCK)
        assert spectral._plan.cache_info().hits == after.hits + 1  # the plan the calls above used
        # x descending: the row order and its inverse are real permutations, read-only too
        R = truncation_radius(landau.B)
        Zd, Wd = quad2d_nodes((R, -R, -R, R), 16)
        project_on_nodes(landau, 1, np.exp(-np.abs(Zd - 0.3) ** 2), Zd, Wd)
        xd, yd = Zd.real[:, 0], Zd.imag[0]
        plan_d = spectral._plan(landau.B, landau.gauge_k, 1, xd.tobytes(), yd.tobytes(), spectral._BLOCK)
        assert list(plan_d[0]) == list(range(15, -1, -1)) and list(plan_d[1]) == list(range(15, -1, -1))
        for order, rank, u, step, fine, blocks in (plan, plan_d):
            for table in (order, rank, u, fine, *(t for block in blocks for t in block[2:])):
                with pytest.raises(ValueError, match="read-only"):
                    table[...] = 0

    def test_far_plane_matches_dense_kernel(self, landau):
        # B max|z|^2 = 1775, where e^{-B|z|^2 / 2} underflows: the Landau-gauge
        # factorization never forms it, so the projection stays finite and exact
        rect = (-30.0, 30.0, -30.0, 30.0)
        Z, Wt = quad2d_nodes(rect, 20)
        assert landau.B * np.abs(Z).max() ** 2 > 1700
        for k in (0, 3):
            assert np.all(np.isfinite(project_on_nodes(landau, k, np.ones(Z.shape), Z, Wt)))
            assert_matches_dense_kernel(landau, k, rect)

    def test_projection_memory_is_level_independent(self, landau):
        # every level holds the same few tables of n x 64 columns, none above 64 KiB; each
        # call runs cold, and what it leaves behind is its plan
        Z, Wt = plane_nodes(landau, 64)
        fvals = np.exp(-np.abs(Z - 0.3) ** 2)
        kept, peaks = {}, {}
        for k in (0, 3):
            spectral._plan.cache_clear()
            tracemalloc.start()
            try:
                project_on_nodes(landau, k, fvals, Z, Wt)
                kept[k], peaks[k] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[3] < 1e6
        assert max(peaks.values()) <= 1.5 * min(peaks.values())
        assert max(kept.values()) < 5e5

    def test_rejects_nodes_off_a_product_grid(self, landau):
        Z, Wt = plane_nodes(landau, 8)
        shuffled = Z.ravel()[np.random.default_rng(0).permutation(Z.size)].reshape(Z.shape)
        for nodes in (shuffled, Z.T, Z.ravel()):
            with pytest.raises(ValueError, match="not a product grid"):
                project_on_nodes(landau, 0, np.ones(nodes.shape), nodes, np.ones(nodes.shape))

    def test_products_stay_on_one_blas_thread(self, landau):
        # OpenBLAS runs products of the 64-column blocks on one thread by itself;
        # at 256 columns it splits them over every thread and this ratio reads about 2
        Z, Wt = plane_nodes(landau, 64)
        fvals = np.exp(-np.abs(Z - 0.3) ** 2)
        project_on_nodes(landau, 1, fvals, Z, Wt)
        time.sleep(0.3)  # let BLAS workers woken by earlier tests stop spinning
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(50):
            project_on_nodes(landau, 1, fvals, Z, Wt)
        assert time.process_time() - cpu <= 1.3 * (time.perf_counter() - wall)

    def test_rejects_values_off_the_node_shape(self, landau):
        Z, Wt = plane_nodes(landau, 8)
        ones = np.ones(Z.shape)
        for fvals, wt, bad in (
            (np.ones((8, 1)), Wt, "fvals has shape (8, 1)"),
            (1.0, Wt, "fvals has shape ()"),
            (ones, 1.0, "Wt has shape ()"),
            (np.ones(3), Wt, "fvals has shape (3,)"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{bad}, the nodes Z have shape (8, 8)")):
                project_on_nodes(landau, 0, fvals, Z, wt)

    @pytest.mark.parametrize("name", ["landau", "alteration"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_block_width_does_not_change_the_sum(self, monkeypatch, name, k):
        sys = build_system(load_bundled(name))
        Z, Wt = plane_nodes(sys, 16)
        rng = np.random.default_rng(k)
        fvals = rng.normal(size=Z.shape) + 1j * rng.normal(size=Z.shape)
        ref = project_on_nodes(sys, k, fvals, Z, Wt)
        P = len(spectral._c_grid(sys.B, k, Z.real[:, 0], Z.imag[0])[0])
        for width in (1, 7, P - 1, P, P + 1):
            monkeypatch.setattr(spectral, "_BLOCK", width)
            misses = spectral._plan.cache_info().misses
            out = project_on_nodes(sys, k, fvals, Z, Wt)
            assert spectral._plan.cache_info().misses == misses + 1, width
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max(), width

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
    def test_rejects_non_finite_nodes(self, landau, bad):
        Z = np.array([0.5, 1.0j, bad, np.nan])
        with pytest.raises(ValueError, match="node 2 is not finite"):
            project_on_nodes(landau, 1, np.ones(4), Z, np.ones(4))

    @pytest.mark.parametrize("at", [(0, 0), (0, 5), (7, 0), (9, 11), (15, 15)])
    def test_refused_grid_nodes_name_their_fault(self, landau, at):
        # a grid that fails the one comparison with x_i + i y_j goes through the checks
        # that name the fault, in their order: a node that is not finite, then the
        # shapes of the values, then the product grid
        Z, Wt = plane_nodes(landau, 16)
        ones = np.ones(Z.shape)
        flat = np.ravel_multi_index(at, Z.shape)
        for bad in (np.nan, complex(Z[at].real, np.inf)):
            nan = Z.copy()
            nan[at] = bad
            with pytest.raises(ValueError, match=f"node {flat} is not finite"):
                project_on_nodes(landau, 1, ones, nan, Wt)
            with pytest.raises(ValueError, match=f"node {flat} is not finite"):
                project_on_nodes(landau, 1, np.ones(3), nan, Wt)
        x, y = Z[at].real, Z[at].imag
        for moved in (complex(np.nextafter(x, np.inf), y), complex(x, np.nextafter(y, -np.inf))):  # one ulp
            off = Z.copy()
            off[at] = moved
            with pytest.raises(ValueError, match="not a product grid"):
                project_on_nodes(landau, 1, ones, off, Wt)
            with pytest.raises(ValueError, match=re.escape("fvals has shape (16, 15)")):
                project_on_nodes(landau, 1, ones[:, 1:], off, Wt)
        with pytest.raises(ValueError, match=re.escape("fvals has shape (16, 1), the nodes Z have shape (16, 16)")):
            project_on_nodes(landau, 1, ones[:, :1], Z, Wt)

    def test_rejects_negative_level(self, landau):
        # a level that is not a nonnegative integer is refused cold and after k = 1 is planned
        Z, Wt = plane_nodes(landau, 8)
        ones = np.ones(Z.shape)
        for k in (-1, 1.5, 1.0):
            spectral._plan.cache_clear()
            for _ in range(2):
                with pytest.raises(ValueError, match="level index must be a nonnegative integer"):
                    project_on_nodes(landau, k, ones, Z, Wt)
                project_on_nodes(landau, 1, ones, Z, Wt)

    def test_reproduces_own_level(self, landau):
        # P_0 fixes the lowest-level state and kills the first excited one
        basis = SpectralBasis(B=landau.B, alpha=0.0)
        psi0 = strip_eigenfunction(basis, landau, 0, 0)
        psi1 = strip_eigenfunction(basis, landau, 1, 0)
        R = truncation_radius(landau.B)
        Z, Wt = quad2d_nodes((-R, R, -R, R), 64)
        inner = np.abs(Z) < 1
        assert inner.sum() >= 10
        f0, f1 = psi0(Z), psi1(Z)
        assert np.abs(project_on_nodes(landau, 0, f0, Z, Wt) - f0)[inner].max() < 1e-4
        assert np.abs(project_on_nodes(landau, 0, f1, Z, Wt))[inner].max() < 1e-6


@dataclass
class WeightedInnerProduct:
    """<f, g> = int f conj(g) e^{-nu|z|^2 - mu(|E tau|^2 - |Ebar tau|^2)} dx dy.

    E = z d/dz and Ebar = zbar d/dzbar, so the weight exponent collapses to
    -B |z|^2 for any pair with constant field B.
    """

    nu: float
    mu: float
    tau: EquivariantMap
    domain: tuple[float, float, float, float]

    def weight(self, z):
        expo = -self.nu * np.abs(z) ** 2 - self.mu * (
            np.abs(z * self.tau.p) ** 2 - np.abs(np.conjugate(z) * self.tau.q) ** 2
        )
        return np.exp(expo)

    def __call__(self, f, g, n_quad: int = 64) -> complex:
        Z, Wt = quad2d_nodes(self.domain, n_quad)
        return complex(np.sum(f(Z) * np.conjugate(g(Z)) * self.weight(Z) * Wt))


class TestWeightedInnerProduct:
    def test_weight_collapses_to_field(self, conj):
        wip = WeightedInnerProduct(conj.nu, conj.mu, conj.tau, (-4, 4, -4, 4))
        for z in (0.5 + 0.5j, 1.2 - 0.3j):
            assert abs(wip.weight(z) - np.exp(-conj.B * abs(z) ** 2)) < 1e-6

    def test_gaussian_norm(self, landau):
        wip = WeightedInnerProduct(landau.nu, landau.mu, landau.tau, (-6, 6, -6, 6))
        val = wip(lambda z: 1.0, lambda z: 1.0, n_quad=64)
        assert abs(val - np.pi / landau.B) < 1e-8

    def test_levels_orthogonal(self, landau):
        # psi_{0,0} and psi_{1,0} carry the weight already; strip the
        # Gaussian so the weighted product supplies it once
        basis = SpectralBasis(B=landau.B, alpha=0.0)
        psi0 = strip_eigenfunction(basis, landau, 0, 0)
        psi1 = strip_eigenfunction(basis, landau, 1, 0)
        B = landau.B

        def bare(psi):
            return lambda z: psi(z) * np.exp((B / 2) * abs(z) ** 2)

        wip = WeightedInnerProduct(landau.nu, landau.mu, landau.tau, (-5, 5, -5, 5))
        cross = wip(bare(psi0), bare(psi1), n_quad=64)
        norm = wip(bare(psi0), bare(psi0), n_quad=64)
        assert abs(cross) / abs(norm) < 1e-8
