import numpy as np
import pytest

from maf.fields import (
    Grid,
    OneForm,
    ScalarField,
    exterior_derivative,
    jet,
    line_integral,
    polyexp_field,
    quad2d,
    wirtinger,
)


class TestWirtinger:
    def test_holomorphic_identity(self):
        f = ScalarField(lambda z: z)
        dz, dzb = wirtinger(f, 0.7 - 0.2j)
        assert abs(dz - 1) < 1e-9 and abs(dzb) < 1e-9

    def test_antiholomorphic(self):
        f = ScalarField(lambda z: z.conjugate())
        dz, dzb = wirtinger(f, 1 + 1j)
        assert abs(dz) < 1e-9 and abs(dzb - 1) < 1e-9

    def test_modulus_squared(self):
        f = ScalarField(lambda z: abs(z) ** 2)
        dz, dzb = wirtinger(f, 1 + 1j)
        assert abs(dz - (1 - 1j)) < 1e-8
        assert abs(dzb - (1 + 1j)) < 1e-8

    def test_analytic_fast_path(self):
        f = ScalarField(lambda z: z**2, d_z=lambda z: 2 * z, d_zbar=lambda z: 0.0)
        assert wirtinger(f, 3 + 1j) == (6 + 2j, 0.0)

    def test_fd_order(self):
        # halving the step shrinks the error roughly 16x for a 5-point stencil
        errs = []
        for h in (1e-2, 5e-3):
            f = ScalarField(lambda z: np.exp(z + 0.5 * z.conjugate() ** 2), fd_step=h)
            dz, _ = wirtinger(f, 0.3 + 0.4j)
            exact = np.exp(0.3 + 0.4j + 0.5 * (0.3 - 0.4j) ** 2)
            errs.append(abs(dz - exact))
        if errs[1] > 1e-14:  # above roundoff floor
            assert errs[0] / errs[1] > 4

    def test_array_matches_points(self):
        f = ScalarField(lambda z: np.exp(z) * z.conjugate() ** 2)
        zs = np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.7 - 0.9j])
        dz, dzb = wirtinger(f, zs)
        for i, z in enumerate(zs):
            assert (dz[i], dzb[i]) == pytest.approx(wirtinger(f, z), rel=1e-12)

    def test_nonfinite_names_first_bad_point(self):
        f = ScalarField(lambda z: np.where(abs(z - 0.5) < 0.1, np.nan, z))
        with pytest.raises(ArithmeticError, match=r"non-finite derivative at z=\(0\.5\+0j\)"):
            wirtinger(f, np.array([0.0, 0.5, 0.55, 2.0], dtype=complex))

    def test_laplacian(self):
        f = ScalarField(lambda z: abs(z) ** 2)
        assert abs(jet(f, 0.5 + 2j)[3] - 4) < 1e-6


def oracle_wirtinger(f, z):
    """The per-call 5-point stencil: 8 calls of f, one per shifted point."""
    h = f.fd_step
    fn = f.func
    fx = (-fn(z + 2 * h) + 8 * fn(z + h) - 8 * fn(z - h) + fn(z - 2 * h)) / (12 * h)
    ih = 1j * h
    fy = (-fn(z + 2 * ih) + 8 * fn(z + ih) - 8 * fn(z - ih) + fn(z - 2 * ih)) / (12 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def oracle_laplacian(f, z):
    """The per-call 5-point stencil for f_xx + f_yy: 9 calls of f."""
    h = f.fd_step
    fn = f.func
    fz = fn(z)
    fxx = (
        -fn(z + 2 * h) + 16 * fn(z + h) - 30 * fz + 16 * fn(z - h) - fn(z - 2 * h)
    ) / (12 * h * h)
    ih = 1j * h
    fyy = (
        -fn(z + 2 * ih) + 16 * fn(z + ih) - 30 * fz + 16 * fn(z - ih) - fn(z - 2 * ih)
    ) / (12 * h * h)
    return fxx + fyy


def same_bits(got, want) -> bool:
    """Equal to the last bit, signed zeros included; a scalar stands for every point."""
    got = np.asarray(got, dtype=complex)
    want = np.broadcast_to(np.asarray(want, dtype=complex), got.shape)
    return got.tobytes() == np.ascontiguousarray(want).tobytes()


STENCIL_FIELDS = {
    "polyexp": lambda z: np.exp(z) * z.conjugate() ** 2,
    "modulus": lambda z: abs(z) ** 2,
    "gaussian_phase": lambda z: np.exp(-0.7 * abs(z) ** 2 + 1j * (0.3 * z).imag),
    "exp": lambda z: np.exp(z - 0.3 * z.conjugate()),
    "constant": lambda z: 2.5 - 1j,
}
STENCIL_POINTS = {
    "array": np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.7 - 0.9j, 0.0, -0.0 - 2.0j]),
    "grid": Grid(-2.0, 2.0, 9, -2.0, 2.0, 9).points().reshape(9, 9),
}


def counted(fn, calls):
    def func(z):
        calls.append(np.shape(z))
        return fn(z)

    return func


class TestStencil:
    """One evaluation of the field per jet, equal to the per-call stencil bit for bit."""

    @pytest.mark.parametrize("pts", STENCIL_POINTS)
    @pytest.mark.parametrize("name", STENCIL_FIELDS)
    @pytest.mark.parametrize("h", [1e-4, 3e-3])
    def test_matches_per_call_stencil(self, name, pts, h):
        calls = []
        f = ScalarField(counted(STENCIL_FIELDS[name], calls), fd_step=h)
        z = STENCIL_POINTS[pts]
        want_dz, want_dzb = oracle_wirtinger(f, z)
        want_lap = oracle_laplacian(f, z)
        calls.clear()
        val, dz, dzb, lap = jet(f, z)
        assert calls == [(9, *z.shape)]
        assert same_bits(val, f(z))
        assert same_bits(dz, want_dz) and same_bits(dzb, want_dzb)
        assert same_bits(lap, want_lap)
        dz, dzb = wirtinger(f, z)
        assert same_bits(dz, want_dz) and same_bits(dzb, want_dzb)

    @pytest.mark.parametrize("name", STENCIL_FIELDS)
    @pytest.mark.parametrize("h", [1e-4, 3e-3])
    def test_zero_d_point(self, name, h):
        calls = []
        f = ScalarField(counted(STENCIL_FIELDS[name], calls), fd_step=h)
        eps = np.finfo(float).eps
        for z in map(np.asarray, (0.3 + 0.4j, -1.1 + 0.25j, 0.7 - 0.9j)):
            calls.clear()
            got = jet(f, z)
            assert calls == [(9,)] and all(np.shape(v) == () for v in got)
            _, dz, dzb, lap = got
            # the stencil arithmetic of the one-point array, to the bit
            want = (*oracle_wirtinger(f, z.reshape(1)), oracle_laplacian(f, z.reshape(1)))
            assert all(same_bits(np.reshape(g, 1), w) for g, w in zip((dz, dzb, lap), want))
            assert all(same_bits(np.reshape(g, 1), w) for g, w in zip(wirtinger(f, z), want))
            # the per-call stencil on the 0-d point evaluates f on numpy scalars,
            # whose abs and complex products may round the last bit otherwise
            # (exp agrees); 4 ulp of f through the weights 1.5/h and 10.7/h^2
            scale = 4 * eps * np.max(np.abs(f(z + 2 * h * np.array([1, -1, 1j, -1j, 0]))))
            want0 = (*oracle_wirtinger(f, z), oracle_laplacian(f, z))
            for g, w, tol in zip((dz, dzb, lap), want0, (1.5 / h, 1.5 / h, 10.7 / h**2)):
                assert abs(g - w) <= tol * scale
                if name in ("exp", "constant"):
                    assert same_bits(g, w)

    def test_analytic_parts_come_from_the_field(self):
        exact = polyexp_field({(1, 1): 1.0, (0, 2): 0.5j}, alpha=0.4)
        z = STENCIL_POINTS["array"]
        calls = []
        func = counted(exact.func, calls)
        assert all(same_bits(a, b) for a, b in zip(jet(exact, z), (exact(z), *wirtinger(exact, z), exact.lap(z))))
        # derivatives exact, Laplacian by FD: still one stencil evaluation
        f = ScalarField(func, exact.d_z, exact.d_zbar)
        val, dz, dzb, lap = jet(f, z)
        assert calls == [(9, *z.shape)]
        assert same_bits(dz, exact.d_z(z)) and same_bits(dzb, exact.d_zbar(z))
        assert same_bits(lap, oracle_laplacian(f, z)) and same_bits(val, exact(z))


class TestExteriorDerivative:
    def test_exact_form_closes(self):
        # d(df) = 0 for f = z zbar
        omega = OneForm(
            ScalarField(lambda z: z.conjugate()),  # df/dz
            ScalarField(lambda z: z),
        )
        two = exterior_derivative(omega)
        assert abs(two.coeff(0.3 + 0.9j)) < 1e-8

    def test_landau_gauge(self):
        nu = 1.7
        omega = OneForm(
            ScalarField(lambda z: -nu * z.conjugate() / 2),
            ScalarField(lambda z: nu * z / 2),
        )
        assert abs(exterior_derivative(omega).coeff(1 - 2j) - nu) < 1e-7

    def test_conjugate_potential(self):
        # S = (nu - mu) z for the conjugation map
        nu, mu = 2.0, 1.0
        omega = OneForm(
            ScalarField(lambda z: -(nu - mu) * z.conjugate() / 2),
            ScalarField(lambda z: (nu - mu) * z / 2),
        )
        assert abs(exterior_derivative(omega).coeff(0.4j) - (nu - mu)) < 1e-7


class TestLineIntegral:
    def test_zero_form(self):
        omega = OneForm(ScalarField(lambda z: 0.0), ScalarField(lambda z: 0.0))
        assert line_integral(omega, [0, 1 + 1j, 2]) == 0

    def test_dz_exact(self):
        omega = OneForm(ScalarField(lambda z: 1.0), ScalarField(lambda z: 0.0))
        assert abs(line_integral(omega, [0, 1 + 1j]) - (1 + 1j)) < 1e-12

    def test_stokes_loop(self):
        # loop integral of the Landau gauge equals the dz^dzbar flux times
        # the area factor: dz^dzbar = -2i dx^dy
        nu = 1.3
        omega = OneForm(
            ScalarField(lambda z: -nu * z.conjugate() / 2),
            ScalarField(lambda z: nu * z / 2),
        )
        square = [0, 1, 1 + 1j, 1j, 0]
        loop = line_integral(omega, square)
        flux = quad2d(ScalarField(lambda z: nu), (0, 1, 0, 1), 8)  # coefficient * dx dy
        assert abs(loop - (-2j) * flux) < 1e-6

    def test_subdivision_and_array_endpoints(self):
        # z zbar^2 dz + zbar dzbar along 0 -> z: polynomial, so Gauss-Legendre is exact
        omega = OneForm(ScalarField(lambda z: z * z.conjugate() ** 2), ScalarField(lambda z: z.conjugate()))
        ends = np.array([1 + 1j, -0.5 + 2j, 0.3 - 0.7j])
        one = line_integral(omega, [0.0, ends])
        assert one.shape == ends.shape
        assert np.allclose(line_integral(omega, [0.0, ends], n_sub=3), one, rtol=0, atol=1e-13)
        for i, z in enumerate(ends):
            assert abs(line_integral(omega, [0.0, z]) - one[i]) < 1e-13

    def test_rejects_bad_subdivision(self):
        omega = OneForm(ScalarField(lambda z: 1.0), ScalarField(lambda z: 0.0))
        with pytest.raises(ValueError):
            line_integral(omega, [0, 1], n_sub=0)


class TestQuad2d:
    def test_constant(self):
        assert abs(quad2d(ScalarField(lambda z: 1.0), (0, 1, 0, 1), 4) - 1) < 1e-12

    def test_gaussian(self):
        val = quad2d(ScalarField(lambda z: np.exp(-abs(z) ** 2)), (-6, 6, -6, 6), 80)
        assert abs(val - np.pi) < 1e-10

    def test_odd_symmetry(self):
        assert abs(quad2d(ScalarField(lambda z: z), (-1, 1, -1, 1), 10)) < 1e-12

    def test_convergence(self):
        f = ScalarField(lambda z: np.exp(-abs(z) ** 2))
        e20 = abs(quad2d(f, (-6, 6, -6, 6), 20) - np.pi)
        e40 = abs(quad2d(f, (-6, 6, -6, 6), 40) - np.pi)
        assert e40 < e20 / 10

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            quad2d(ScalarField(lambda z: 1.0), (0, 1, 0, 1), 1)


class TestPolyexpField:
    def test_derivatives_match_fd(self):
        f = polyexp_field({(2, 1): 1.5, (0, 0): 1j}, alpha=0.5)
        g = ScalarField(f.func)  # finite-difference twin
        for z in (0.3 + 0.4j, -1.1 + 0.9j, 2.0 - 0.5j):
            dz_a, dzb_a = f.d_z(z), f.d_zbar(z)
            dz_n, dzb_n = wirtinger(g, z)
            assert abs(dz_a - dz_n) < 1e-6
            assert abs(dzb_a - dzb_n) < 1e-6
            assert abs(f.lap(z) - jet(g, z)[3]) < 1e-4

    def test_gaussian_value(self):
        f = polyexp_field({(0, 0): 1.0}, alpha=0.5)
        assert abs(f(1 + 1j) - np.exp(-1.0)) < 1e-14


class TestGrid:
    def test_points_count(self):
        g = Grid(nx=5, ny=3)
        assert g.points().size == 15

    def test_dict_roundtrip(self):
        g = Grid(-1, 1, 11, -2, 2, 21)
        assert Grid.from_dict(g.to_dict()) == g
