import math

import numpy as np
import pytest
from oracles import _poly_evals, exterior_derivative, oracle_jet, oracle_laplacian, oracle_wirtinger, polyexp_field

from maf.config import build_system, load_bundled
from maf.fields import Grid, ScalarField, gaussian, jet, quad2d_nodes


class TestWirtinger:
    """The oracle's Wirtinger derivatives and Laplacian of value-only functions."""

    def test_holomorphic_identity(self):
        dz, dzb = oracle_wirtinger(lambda z: z, 0.7 - 0.2j)
        assert abs(dz - 1) < 1e-9 and abs(dzb) < 1e-9

    def test_antiholomorphic(self):
        dz, dzb = oracle_wirtinger(lambda z: z.conjugate(), 1 + 1j)
        assert abs(dz) < 1e-9 and abs(dzb - 1) < 1e-9

    def test_modulus_squared(self):
        dz, dzb = oracle_wirtinger(lambda z: abs(z) ** 2, 1 + 1j)
        assert abs(dz - (1 - 1j)) < 1e-8
        assert abs(dzb - (1 + 1j)) < 1e-8

    def test_analytic_fast_path(self):
        # a field's derivatives are its jet's, taken as they are
        f = ScalarField(lambda z: (z**2, 2 * z, 0.0, 0.0))
        assert jet(f, 3 + 1j)[1:3] == (6 + 2j, 0.0)
        assert f(3 + 1j) == (3 + 1j) ** 2

    def test_fd_order(self):
        # halving the step shrinks the error roughly 16x for a 5-point stencil
        errs = []
        for h in (1e-2, 5e-3):
            dz, _ = oracle_wirtinger(lambda z: np.exp(z + 0.5 * z.conjugate() ** 2), 0.3 + 0.4j, h)
            exact = np.exp(0.3 + 0.4j + 0.5 * (0.3 - 0.4j) ** 2)
            errs.append(abs(dz - exact))
        if errs[1] > 1e-14:  # above roundoff floor
            assert errs[0] / errs[1] > 4

    def test_array_matches_points(self):
        f = lambda z: np.exp(z) * z.conjugate() ** 2
        zs = np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.7 - 0.9j])
        dz, dzb = oracle_wirtinger(f, zs)
        for i, z in enumerate(zs):
            assert (dz[i], dzb[i]) == pytest.approx(oracle_wirtinger(f, z), rel=1e-12)

    def test_laplacian(self):
        assert abs(oracle_laplacian(lambda z: abs(z) ** 2, 0.5 + 2j) - 4) < 1e-6


def same_bits(got, want) -> bool:
    """Equal to the last bit, signed zeros included; a scalar stands for every point."""
    got = np.asarray(got, dtype=complex)
    want = np.broadcast_to(np.asarray(want, dtype=complex), got.shape)
    return got.tobytes() == np.ascontiguousarray(want).tobytes()


def _polyexp_jet(z):
    e, zb = np.exp(z), np.conj(z)
    return e * zb**2, e * zb**2, 2 * e * zb, 8 * e * zb


def _gaussian_phase_jet(z):
    # f = e^{-0.7 z zbar + 0.15 (z - zbar)}, so f_z = P f and f_zbar = Q f with dbar P = -0.7
    f = np.exp(-0.7 * abs(z) ** 2 + 1j * (0.3 * z).imag)
    P, Q = 0.15 - 0.7 * np.conj(z), -0.15 - 0.7 * z
    return f, P * f, Q * f, 4 * (P * Q - 0.7) * f


def _exp_jet(z):
    f = np.exp(z - 0.3 * np.conj(z))
    return f, f, -0.3 * f, -1.2 * f


# value-only functions and their closed-form jets
STENCIL_FIELDS = {
    "polyexp": (lambda z: np.exp(z) * z.conjugate() ** 2, _polyexp_jet),
    "modulus": (lambda z: abs(z) ** 2, lambda z: (abs(z) ** 2, np.conj(z), z, 4.0)),
    "gaussian_phase": (lambda z: np.exp(-0.7 * abs(z) ** 2 + 1j * (0.3 * z).imag), _gaussian_phase_jet),
    "exp": (lambda z: np.exp(z - 0.3 * z.conjugate()), _exp_jet),
    "constant": (lambda z: 2.5 - 1j, lambda z: (2.5 - 1j, 0.0, 0.0, 0.0)),
}
STENCIL_POINTS = {
    "array": np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.7 - 0.9j, 0.0, -0.0 - 2.0j]),
    "grid": Grid(-2.0, 2.0, 9, -2.0, 2.0, 9).points().reshape(9, 9),
}


def stencil_tols(f, z, h):
    """Truncation h^4 plus round-off eps/h (derivatives) and eps/h^2 (Laplacian), 30x, per max |f|."""
    scale = 30 * np.max(np.abs(f(np.asarray(z))))
    eps = np.finfo(float).eps
    return scale * (eps / h + h**4), scale * (eps / h + h**4), scale * (eps / h**2 + h**4)


def counted(fn, calls):
    def func(z):
        calls.append(np.shape(z))
        return fn(z)

    return func


class TestStencil:
    """The per-call stencil, the one finite-difference oracle, against closed-form jets."""

    @pytest.mark.parametrize("pts", STENCIL_POINTS)
    @pytest.mark.parametrize("name", STENCIL_FIELDS)
    @pytest.mark.parametrize("h", [1e-4, 3e-3])
    def test_matches_per_call_stencil(self, name, pts, h):
        func, exact = STENCIL_FIELDS[name]
        f, z = ScalarField(exact), STENCIL_POINTS[pts]
        val, *parts = jet(f, z)
        want_val, *want = oracle_jet(func, z, h)
        assert same_bits(val, want_val)
        for got, w, tol in zip(parts, want, stencil_tols(func, z, h), strict=True):
            assert np.max(np.abs(got - w)) <= tol

    @pytest.mark.parametrize("name", STENCIL_FIELDS)
    @pytest.mark.parametrize("h", [1e-4, 3e-3])
    def test_zero_d_point(self, name, h):
        func, exact = STENCIL_FIELDS[name]
        f = ScalarField(exact)
        eps = np.finfo(float).eps
        for z in map(np.asarray, (0.3 + 0.4j, -1.1 + 0.25j, 0.7 - 0.9j)):
            got = jet(f, z)
            assert all(np.shape(v) == () for v in got)
            want = oracle_jet(func, z, h)
            for g, w, tol in zip(got[1:], want[1:], stencil_tols(func, z, h)):
                assert np.shape(w) == () and abs(g - w) <= tol
            # the oracle on the 0-d point evaluates f on numpy scalars, whose abs and complex
            # products may round the last bit otherwise than on the one-point array (exp
            # agrees); 4 ulp of f through the weights 1.5/h and 10.7/h^2
            scale = 4 * eps * np.max(np.abs(func(z + 2 * h * np.array([1, -1, 1j, -1j, 0]))))
            one = oracle_jet(func, z.reshape(1), h)
            for g, w, tol in zip(want[1:], one[1:], (1.5 / h, 1.5 / h, 10.7 / h**2)):
                assert abs(g - np.ravel(w)[0]) <= tol * scale
                if name in ("exp", "constant"):
                    assert same_bits(np.reshape(g, 1), w)

    def test_analytic_parts_come_from_the_field(self):
        # one call of the field's jet gives all four parts, its value part the field's value
        exact = polyexp_field({(1, 1): 1.0, (0, 2): 0.5j}, alpha=0.4)
        z = STENCIL_POINTS["array"]
        calls = []
        f = ScalarField(counted(exact.jet, calls))
        val, *parts = jet(f, z)
        assert calls == [z.shape]
        assert same_bits(val, exact(z))
        for got, want in zip(parts, exact.jet(z)[1:], strict=True):
            assert same_bits(got, want)


class TestExteriorDerivative:
    """The oracle's d of a 1-form."""

    def test_exact_form_closes(self):
        # d(df) = 0 for f = z zbar
        two = exterior_derivative(lambda z: z.conjugate(), lambda z: z)  # (df/dz, df/dzbar)
        assert abs(two.coeff(0.3 + 0.9j)) < 1e-8

    def test_landau_gauge(self):
        nu = 1.7
        two = exterior_derivative(lambda z: -nu * z.conjugate() / 2, lambda z: nu * z / 2)
        assert abs(two.coeff(1 - 2j) - nu) < 1e-7

    def test_conjugate_potential(self):
        # S = (nu - mu) z for the conjugation map
        nu, mu = 2.0, 1.0
        two = exterior_derivative(lambda z: -(nu - mu) * z.conjugate() / 2, lambda z: (nu - mu) * z / 2)
        assert abs(two.coeff(0.4j) - (nu - mu)) < 1e-7


class TestQuad2d:
    """The tensor Gauss-Legendre integral over a rectangle (dx dy) is np.sum(W * f(Z)) on its nodes."""

    def test_constant(self):
        Z, W = quad2d_nodes((0, 1, 0, 1), 4)
        assert abs(np.sum(W * np.ones_like(Z)) - 1) < 1e-12

    def test_gaussian(self):
        Z, W = quad2d_nodes((-6, 6, -6, 6), 80)
        assert abs(np.sum(W * np.exp(-abs(Z) ** 2)) - np.pi) < 1e-10

    def test_odd_symmetry(self):
        Z, W = quad2d_nodes((-1, 1, -1, 1), 10)
        assert abs(np.sum(W * Z)) < 1e-12

    def test_convergence(self):
        e20, e40 = (abs(np.sum(W * np.exp(-abs(Z) ** 2)) - np.pi)
                    for Z, W in (quad2d_nodes((-6, 6, -6, 6), n) for n in (20, 40)))
        assert e40 < e20 / 10

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            quad2d_nodes((0, 1, 0, 1), 1)


class TestPolyexpField:
    def test_derivatives_match_fd(self):
        f = polyexp_field({(2, 1): 1.5, (0, 0): 1j}, alpha=0.5)
        for z in (0.3 + 0.4j, -1.1 + 0.9j, 2.0 - 0.5j, np.array([0.3 + 0.4j, -1.1 + 0.9j])):
            (val, dz_a, dzb_a, lap_a), (_, dz_n, dzb_n, lap_n) = jet(f, z), oracle_jet(f, z)
            assert same_bits(val, f(z))
            assert np.max(abs(dz_a - dz_n)) < 1e-6
            assert np.max(abs(dzb_a - dzb_n)) < 1e-6
            assert np.max(abs(lap_a - lap_n)) < 1e-4

    def test_gaussian_value(self):
        f = polyexp_field({(0, 0): 1.0}, alpha=0.5)
        assert abs(f(1 + 1j) - np.exp(-1.0)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_poly_evals_match_the_power_form(self, seed):
        # powers built by products round apart from numpy's integer powers above z^2, by a few ulps
        rng = np.random.default_rng(seed)
        z = 2.5 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        for point in (z, z[0], complex(z[1])):
            p = {(i, j): complex(*rng.standard_normal(2)) for i in range(5) for j in range(5 - i) if rng.random() < 0.6}
            want = sum(c * point**i * np.conj(point) ** j for (i, j), c in p.items())
            scale = sum(abs(c) * np.abs(point) ** (i + j) for (i, j), c in p.items())
            assert np.all(np.abs(_poly_evals([p], point)[0] - want) <= 16 * np.finfo(float).eps * scale)

    def test_poly_evals_share_one_table_of_powers(self):
        z = np.array([0.5 - 1j, 2.0 + 0.25j])
        ps = [{}, {(0, 0): 1.5 - 2j}, {(1, 0): 2.0, (0, 1): 1j}, {(3, 0): 1.0}, {(1, 2): -0.5}]
        got = _poly_evals(ps, z)
        assert got[:2] == [0, 1.5 - 2j]
        assert same_bits(got[2], 2.0 * z + 1j * np.conj(z))
        assert same_bits(got[3], 1.0 * (z * z * z))
        assert same_bits(got[4], -0.5 * z * (np.conj(z) * np.conj(z)))
        assert all(same_bits(g, _poly_evals([p], z)[0]) for g, p in zip(got, ps))


# the probe's alpha: a few values and B/2 of each bundled system, the one maf runs there
PROBE_ALPHAS = {"0.5": 0.5, "0.75": 0.75, "1": 1.0, "pi/2": math.pi / 2,
                **{f"{n}_B/2": build_system(load_bundled(n)).B / 2 for n in ("landau", "conjugate", "alteration")}}


class TestGaussian:
    """The probe maf runs, e^{-alpha |z|^2}, against the probe family's P = 1 field."""

    @pytest.mark.parametrize("alpha", PROBE_ALPHAS.values(), ids=PROBE_ALPHAS.keys())
    def test_bit_equal_to_the_family_at_one(self, alpha):
        # the parts agree to the last bit off the axes, and on a report grid up to the sign of a
        # zero (dbar's imaginary part where x < 0 = y)
        rng = np.random.default_rng(7)
        z = 2 * (rng.standard_normal(243) + 1j * rng.standard_normal(243))
        family = polyexp_field({(0, 0): 1.0}, alpha)
        for got, want in zip(gaussian(alpha).jet(z), family.jet(z), strict=True):
            assert same_bits(got, want)
        pts = Grid().points()
        for got, want in zip(gaussian(alpha).jet(pts), family.jet(pts), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_jet_matches_the_stencil(self, alpha):
        f, z = gaussian(alpha), STENCIL_POINTS["grid"]
        val, *parts = jet(f, z)
        want_val, *want = oracle_jet(f, z, 1e-3)
        assert same_bits(val, want_val)
        assert np.max(np.abs(val - np.exp(-alpha * np.abs(z) ** 2))) <= 4 * np.finfo(float).eps
        for got, w, tol in zip(parts, want, stencil_tols(f, z, 1e-3), strict=True):
            assert np.max(np.abs(got - w)) <= tol


class TestGrid:
    def test_points_count(self):
        g = Grid(nx=5, ny=3)
        assert g.points().size == 15

    def test_points_are_one_read_only_array_per_grid(self):
        g = Grid(-1.5, 2.5, 7, -3.0, 1.0, 5)
        pts = g.points()
        want = np.add.outer(np.linspace(-1.5, 2.5, 7), 1j * np.linspace(-3.0, 1.0, 5)).ravel()
        assert same_bits(pts, want)
        assert Grid(-1.5, 2.5, 7, -3.0, 1.0, 5).points() is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 0.0
        g.nx = 9  # the memo is keyed on the grid's numbers, not on the object
        assert g.points().size == 45
        assert same_bits(g.points(), np.add.outer(np.linspace(-1.5, 2.5, 9), 1j * np.linspace(-3.0, 1.0, 5)).ravel())

    def test_dict_roundtrip(self):
        g = Grid(-1, 1, 11, -2, 2, 21)
        assert Grid.from_dict(g.to_dict()) == g

    @pytest.mark.parametrize("bound", ["xmin", "xmax", "ymin", "ymax"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_is_refused_by_name(self, bound, value):
        with pytest.raises(ValueError, match=f"grid {bound} must be finite, got {value}"):
            Grid(**{bound: value})
