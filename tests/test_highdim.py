import numpy as np
import pytest

from maf.highdim import (
    EquivariantMapN,
    GroupElementN,
    _two_form_matrix,
    act_n,
    constant_field_test,
    determinant_coeffs,
    equivariance_check_n,
    jacobian_blocks,
    potential_n_coeffs,
    random_element_n,
)

C = np.sqrt(0.5)
ROT45 = np.array([[C, -C], [C, C]], dtype=complex)


def rot45_map():
    return EquivariantMapN("linear", 2, U=ROT45)


class TestGroupElementN:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            GroupElementN(np.diag([2.0, 1.0]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GroupElementN(np.eye(3), np.zeros(2))

    def test_action(self):
        g = GroupElementN(1j * np.eye(2), np.array([1.0, 0.0]))
        out = act_n(g, np.array([1.0, 2.0]))
        assert np.allclose(out, [1 + 1j, 2j])

    def test_random_elements_are_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_element_n(3, rng)
            assert np.abs(g.A.conj().T @ g.A - np.eye(3)).max() < 1e-10


class TestJacobianBlocks:
    def test_identity(self):
        P, Q = jacobian_blocks(EquivariantMapN("identity", 3), np.zeros(3))
        assert np.allclose(P, np.eye(3)) and np.allclose(Q, 0)

    def test_conjugate(self):
        P, Q = jacobian_blocks(EquivariantMapN("conjugate", 2), np.zeros(2))
        assert np.allclose(P, 0) and np.allclose(Q, np.eye(2))

    def test_linear(self):
        P, Q = jacobian_blocks(rot45_map(), np.ones(2))
        assert np.allclose(P, ROT45) and np.allclose(Q, 0)

    def test_polynomial_matches_exact(self):
        # tau_1 = z_1^2, tau_2 = zbar_2: P = diag(2 z_1, 0), Q = diag(0, 1)
        comp = [
            [{"z": [2, 0], "zbar": [0, 0], "c": [1, 0]}],
            [{"z": [0, 0], "zbar": [0, 1], "c": [1, 0]}],
        ]
        tau = EquivariantMapN("polynomial", 2, components=comp)
        z = np.array([0.4 + 0.3j, -0.7 + 0.1j])
        P, Q = jacobian_blocks(tau, z)
        assert abs(P[0, 0] - 2 * z[0]) < 1e-8
        assert abs(Q[1, 1] - 1) < 1e-8
        assert abs(P[1, 1]) < 1e-8 and abs(Q[0, 0]) < 1e-8


class TestDeterminantCoeffs:
    def test_identity_map(self):
        d = determinant_coeffs(EquivariantMapN("identity", 2), np.zeros(2), 0, 0, 1, 0)
        assert d["A"] == 0 and d["B"] == 0
        assert d["F"] == -1.0

    def test_conjugate_map(self):
        d = determinant_coeffs(EquivariantMapN("conjugate", 2), np.zeros(2), 0, 0, 1, 0)
        assert d["A"] == 0 and d["F"] == 1.0

    def test_symmetry_relations(self):
        # D = -conj(A) and C = -conj(B) for any smooth component
        comp = [
            [{"z": [1, 1], "zbar": [0, 1], "c": [1, 0.5]}],
            [{"z": [0, 2], "zbar": [1, 0], "c": [0, 1]}],
        ]
        tau = EquivariantMapN("polynomial", 2, components=comp)
        z = np.array([0.6 - 0.2j, 0.1 + 0.9j])
        d = determinant_coeffs(tau, z, 0, 0, 1, 1)
        assert abs(d["D"] + d["A"].conjugate()) < 1e-8
        assert abs(d["C"] + d["B"].conjugate()) < 1e-8

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            determinant_coeffs(EquivariantMapN("identity", 2), np.zeros(2), 0, 1, 0, 0)


class TestEquivariance:
    def test_identity_map(self):
        rep = equivariance_check_n(EquivariantMapN("identity", 2), "identity")
        assert rep.passed

    def test_conjugate_map(self):
        rep = equivariance_check_n(EquivariantMapN("conjugate", 2), "conjugate")
        assert rep.passed

    def test_linear_map_under_unitary_conjugation(self):
        rep = equivariance_check_n(rot45_map(), "unitary_conj", U=ROT45)
        assert rep.passed

    def test_mismatched_rho_fails(self):
        rep = equivariance_check_n(EquivariantMapN("conjugate", 2), "identity")
        assert not rep.passed

    def test_unknown_rho(self):
        with pytest.raises(ValueError):
            equivariance_check_n(EquivariantMapN("identity", 2), "antipodal")


class TestConstantFieldTest:
    def test_identity_passes_both(self):
        out = constant_field_test(EquivariantMapN("identity", 2), 1.0, 0.5, n_points=4)
        assert out["per_l"]["pass"] and out["direct"]["pass"] and out["agree"]

    def test_conjugate_passes_both(self):
        out = constant_field_test(EquivariantMapN("conjugate", 2), 2.0, 1.0, n_points=4)
        assert out["per_l"]["pass"] and out["direct"]["pass"] and out["agree"]

    def test_rotation_disagreement(self):
        # the componentwise criterion rejects the 45-degree rotation while
        # the assembled 2-form is nonetheless constant
        out = constant_field_test(rot45_map(), 1.0, 0.5, n_points=4)
        assert not out["per_l"]["pass"]
        assert out["per_l"]["max_B"] > 0.4
        assert out["direct"]["pass"]
        assert out["direct"]["spread"] < 1e-6
        assert not out["agree"]

    def test_json_safe(self):
        import json

        out = constant_field_test(rot45_map(), 1.0, 0.5, n_points=2)
        json.dumps(out)  # no numpy scalars may leak through


class TestPotentialN:
    def test_matches_one_variable(self):
        # n = 1 conjugate map against the scalar potential
        from maf.config import build_system, load_bundled
        from maf.magnetics import S_field

        sys = build_system(load_bundled("conjugate"))
        tau = EquivariantMapN("conjugate", 1)
        for z in (0.3 + 0.4j, -1.1 + 0.2j):
            c_dz, c_dzb = potential_n_coeffs(tau, sys.nu, sys.mu, np.array([z]))
            S = S_field(sys, z)
            assert abs(c_dz[0] - (-S.conjugate() / 2)) < 1e-8
            assert abs(c_dzb[0] - S / 2) < 1e-8

    def test_pure_translation_part(self):
        tau = EquivariantMapN("identity", 2)
        z = np.array([1.0, 1j])
        c_dz, c_dzb = potential_n_coeffs(tau, 0.0, 0.0, z)
        assert np.allclose(c_dz, 0) and np.allclose(c_dzb, 0)


# ---------------------------------------------------------------------------
# Per-point oracles: the scalar implementation that the array path replaced,
# one point and one stencil direction at a time.

STENCIL = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))
IDENTITY_AS_POLY = [
    [{"z": [1, 0], "zbar": [0, 0], "c": [1, 0]}],
    [{"z": [0, 1], "zbar": [0, 0], "c": [1, 0]}],
]
# tau_1 = z_1 + 0.25 z_2^2, tau_2 = zbar_2 + 0.5i z_1 zbar_1: not affine, both blocks nonzero
MIXED_POLY = [
    [{"z": [1, 0], "zbar": [0, 0], "c": [1, 0]}, {"z": [0, 2], "zbar": [0, 0], "c": [0.25, 0]}],
    [{"z": [0, 0], "zbar": [0, 1], "c": [1, 0]}, {"z": [1, 0], "zbar": [1, 0], "c": [0, 0.5]}],
]


def tau_point(tau, z):
    if tau.kind == "identity":
        return z.copy()
    if tau.kind == "conjugate":
        return np.conj(z)
    if tau.kind == "linear":
        return tau.U @ z
    zb = np.conj(z)
    return np.array([
        sum(complex(*t["c"]) * np.prod(z ** np.array(t["z"])) * np.prod(zb ** np.array(t["zbar"])) for t in terms)
        for terms in tau.components
    ])


def jacobian_point(tau, z):
    n = tau.n
    if tau.kind == "identity":
        return np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    if tau.kind == "conjugate":
        return np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    if tau.kind == "linear":
        return tau.U.copy(), np.zeros((n, n), dtype=complex)
    h = tau.fd_step
    P = np.zeros((n, n), dtype=complex)
    Q = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for step, w in STENCIL:
            zx = z.copy()
            zx[k] += step * h
            fx = tau_point(tau, zx) * (w / (12 * h))
            zy = z.copy()
            zy[k] += 1j * step * h
            fy = tau_point(tau, zy) * (w / (12 * h))
            P[:, k] += 0.5 * (fx - 1j * fy)
            Q[:, k] += 0.5 * (fx + 1j * fy)
    return P, Q


def potential_point(tau, nu, mu, z):
    c_dz = -0.5 * nu * np.conj(z)
    c_dzb = 0.5 * nu * z
    if mu != 0.0:
        t = tau_point(tau, z)
        P, Q = jacobian_point(tau, z)
        for k in range(tau.n):
            c_dz[k] += -0.5 * mu * np.sum(np.conj(t) * P[:, k] - t * np.conj(Q[:, k]))
            c_dzb[k] += -0.5 * mu * np.sum(np.conj(t) * Q[:, k] - t * np.conj(P[:, k]))
    return c_dz, c_dzb


def two_form_point(tau, nu, mu, z, h):
    n = tau.n
    grad = np.zeros((2 * n, 2 * n), dtype=complex)  # grad[a, b] = d c_b / d dir_a
    for k in range(n):
        gx = np.zeros(2 * n, dtype=complex)
        gy = np.zeros(2 * n, dtype=complex)
        for step, w in STENCIL:
            zx = z.copy()
            zx[k] += step * h
            gx += np.concatenate(potential_point(tau, nu, mu, zx)) * (w / (12 * h))
            zy = z.copy()
            zy[k] += 1j * step * h
            gy += np.concatenate(potential_point(tau, nu, mu, zy)) * (w / (12 * h))
        grad[k] = 0.5 * (gx - 1j * gy)
        grad[n + k] = 0.5 * (gx + 1j * gy)
    return grad - grad.T


def constant_field_point(tau, nu, mu, n_points, seed, tol):
    rng = np.random.default_rng(seed)
    n = tau.n
    pts = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(n_points)]
    max_A = max_B = 0.0
    F = np.zeros((n_points, n, n))
    for m, z in enumerate(pts):
        P, Q = jacobian_point(tau, z)
        F[m] = np.abs(Q) ** 2 - np.abs(P) ** 2
        for p, q in zip(P, Q):
            for i in range(n):
                for j in range(i + 1, n):
                    max_A = max(max_A, abs(q[i].conjugate() * p[j] - q[j].conjugate() * p[i]))
                    max_B = max(max_B, abs(q[i].conjugate() * q[j] - p[j].conjugate() * p[i]))
    f_spread = max(F[:, l, k].max() - F[:, l, k].min() for l in range(n) for k in range(n))
    mats = np.array([two_form_point(tau, nu, mu, z, tau.fd_step) for z in pts])
    direct_spread = np.abs(mats - mats[0]).max()
    return {
        "per_l": {
            "max_A": max_A,
            "max_B": max_B,
            "F_spread": f_spread,
            "F_values": {f"{l},{k}": F[:, l, k].mean() for l in range(n) for k in range(n)},
            "pass": bool(max_A <= tol and max_B <= tol and f_spread <= tol),
        },
        "direct": {"spread": direct_spread, "matrix": mats[0], "pass": bool(direct_spread <= tol)},
    }


ORACLE_MAPS = {
    "identity": lambda: EquivariantMapN("identity", 2),
    "conjugate": lambda: EquivariantMapN("conjugate", 2),
    "rotation45": rot45_map,
    # The potential of a polynomial tau holds an FD Jacobian, so its 2-form is an
    # FD of an FD whose round-off grows like eps/h^2: two evaluation orders differ
    # by ~5e-8 at the default h = 1e-4.  At h = 1e-2 the 5-point stencil is still
    # exact on these quadratic maps and cubic potentials, and round-off is ~1e-12.
    "polynomial": lambda: EquivariantMapN("polynomial", 2, components=MIXED_POLY, fd_step=1e-2),
}
ORACLE_TOL = 1e-8  # 1e-2 * the default tol 1e-6 of constant_field_test


def _points(shape, n=2, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))


@pytest.mark.parametrize("name", ORACLE_MAPS)
class TestArrayPathMatchesPerPointOracle:
    def test_tau_and_jacobian_blocks(self, name):
        tau = ORACLE_MAPS[name]()
        pts = _points((3, 4))
        P, Q = jacobian_blocks(tau, pts)
        assert P.shape == Q.shape == (3, 4, 2, 2)
        for idx in np.ndindex(3, 4):
            assert np.abs(tau(pts[idx]) - tau_point(tau, pts[idx])).max() < 1e-14
            assert np.abs(tau(pts)[idx] - tau_point(tau, pts[idx])).max() < 1e-14
            P0, Q0 = jacobian_point(tau, pts[idx])
            assert np.abs(P[idx] - P0).max() < 1e-10 and np.abs(Q[idx] - Q0).max() < 1e-10

    def test_potential_and_two_form(self, name):
        tau = ORACLE_MAPS[name]()
        pts = _points((5,))
        c_dz, c_dzb = potential_n_coeffs(tau, 1.0, 0.5, pts)
        mats = _two_form_matrix(tau, 1.0, 0.5, pts, tau.fd_step)
        assert mats.shape == (5, 4, 4)
        for m, z in enumerate(pts):
            o_dz, o_dzb = potential_point(tau, 1.0, 0.5, z)
            assert np.abs(c_dz[m] - o_dz).max() < 1e-10 and np.abs(c_dzb[m] - o_dzb).max() < 1e-10
            assert np.abs(mats[m] - two_form_point(tau, 1.0, 0.5, z, tau.fd_step)).max() < ORACLE_TOL

    def test_constant_field_test(self, name):
        tau = ORACLE_MAPS[name]()
        got = constant_field_test(tau, 1.0, 0.5, seed=5)
        want = constant_field_point(tau, 1.0, 0.5, 12, 5, 1e-6)
        for key in ("max_A", "max_B", "F_spread"):
            assert abs(got["per_l"][key] - want["per_l"][key]) < ORACLE_TOL, key
        assert got["per_l"]["F_values"].keys() == want["per_l"]["F_values"].keys()
        for key, v in want["per_l"]["F_values"].items():
            assert abs(got["per_l"]["F_values"][key] - v) < ORACLE_TOL, key
        assert abs(got["direct"]["spread"] - want["direct"]["spread"]) < ORACLE_TOL
        coeffs = np.array(got["direct"]["coefficients"])
        assert np.abs(coeffs[..., 0] + 1j * coeffs[..., 1] - want["direct"]["matrix"]).max() < ORACLE_TOL
        assert got["per_l"]["pass"] == want["per_l"]["pass"]
        assert got["direct"]["pass"] == want["direct"]["pass"]


def test_polynomial_map_is_checked_on_both_criteria():
    # neither criterion holds for a non-affine map: the 2-form's coefficients vary
    out = constant_field_test(ORACLE_MAPS["polynomial"](), 1.0, 0.5)
    assert not out["per_l"]["pass"] and not out["direct"]["pass"]
    assert out["direct"]["spread"] > 0.1 and out["agree"]


def test_identity_as_polynomial_matches_identity_kind():
    exact = constant_field_test(EquivariantMapN("identity", 2), 1.0, 0.5)
    poly = constant_field_test(EquivariantMapN("polynomial", 2, components=IDENTITY_AS_POLY), 1.0, 0.5)
    for part in ("per_l", "direct"):
        assert poly[part]["pass"] == exact[part]["pass"]
    assert poly["agree"] == exact["agree"]
    for key, v in exact["per_l"]["F_values"].items():
        assert abs(poly["per_l"]["F_values"][key] - v) < 1e-8, key


def test_determinants_broadcast_over_points():
    tau = ORACLE_MAPS["polynomial"]()
    pts = _points((4,))
    d = determinant_coeffs(tau, pts, 1, 0, 1, 1)
    assert d["A"].shape == d["F"].shape == (4,)
    for m, z in enumerate(pts):
        dm = determinant_coeffs(tau, z, 1, 0, 1, 1)
        for key in "ABCDF":
            assert abs(d[key][m] - dm[key]) < 1e-10, key


def test_unknown_map_kind():
    with pytest.raises(ValueError, match="unknown map kind"):
        EquivariantMapN.from_dict({"kind": "antilinear"}, 2)


def test_one_stencil_and_no_point_loops():
    """The ℂⁿ module has one finite-difference stencil and no loop statement over points."""
    import ast
    import inspect

    import maf.highdim as hd

    assert inspect.getsource(hd).count("12 * h") == 1  # the stencil weights (-1, 8, -8, 1) / 12h
    for fn in (hd.jacobian_blocks, hd.potential_n_coeffs, hd._two_form_matrix, hd.constant_field_test):
        tree = ast.parse(inspect.getsource(fn))
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))], fn.__name__
