import numpy as np
import pytest

from maf.fields import (
    Grid,
    OneForm,
    ScalarField,
    exterior_derivative,
    flat_laplacian,
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
        assert abs(flat_laplacian(f, 0.5 + 2j) - 4) < 1e-6


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
            assert abs(f.lap(z) - flat_laplacian(g, z)) < 1e-4

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
