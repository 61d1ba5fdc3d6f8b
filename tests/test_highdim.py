import ast
import inspect
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import pytest

from maf.cli import main
from maf.config import ConfigError
from maf.highdim import EquivariantMapN, _determinants, constant_field_test, equivariance_defect, two_form
from maf.reports import CheckReport, from_residuals

C = np.sqrt(0.5)
ROT45 = np.array([[C, -C], [C, C]], dtype=complex)


def determinant_coeffs(tau: EquivariantMapN, ell: int, i: int, j: int, k: int) -> dict:
    """The five 2x2 determinants of the componentwise criterion for component ``ell``.

    Indices are 0-based; i < j required for the antisymmetric quantities.
    """
    if not i < j:
        raise ValueError("need i < j")
    p, q = tau.U[ell], tau.V[ell]
    A, B, C, D = _determinants(p, q, i, j)
    return {"A": A, "B": B, "C": C, "D": D, "F": abs(q[k]) ** 2 - abs(p[k]) ** 2}


def rot45_map():
    return EquivariantMapN("linear", 2, U=ROT45)


# ---------------------------------------------------------------------------
# Oracles.  The sampled group action, the polynomial maps (not equivariant:
# the negative control) and the 5-point Wirtinger stencil that the library
# used before its 2-form was written in closed form.

UNITARY_TOL = 1e-10


@dataclass
class GroupElementN:
    """A rigid motion z -> A z + b of C^n with unitary A."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex).ravel()
        n = self.b.size
        if self.A.shape != (n, n):
            raise ValueError("rotation block and translation sizes disagree")
        if np.abs(self.A.conj().T @ self.A - np.eye(n)).max() > UNITARY_TOL:
            raise ValueError("rotation block is not unitary")


def act_n(g: GroupElementN, z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=complex) @ g.A.T + g.b


def random_element_n(n: int, rng: np.random.Generator) -> GroupElementN:
    return GroupElementN(random_unitary(n, rng), rng.normal(size=n) + 1j * rng.normal(size=n))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))


def _poly_component(terms: list[dict]):
    parsed = [
        (np.array(t["z"], dtype=int), np.array(t["zbar"], dtype=int), complex(*t["c"]))
        for t in terms
    ]

    def f(z: np.ndarray) -> np.ndarray:
        zb = np.conj(z)
        return sum(c * np.prod(z**ei, axis=-1) * np.prod(zb**ej, axis=-1) for ei, ej, c in parsed)

    return f


@dataclass
class PolyMapN:
    """tau with polynomial components, one term table per component."""

    n: int
    components: list
    fd_step: float = 1e-4
    _fns: list = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError("polynomial map needs one term table per component")
        self._fns = [_poly_component(t) for t in self.components]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.stack([f(np.asarray(z, dtype=complex)) for f in self._fns], axis=-1)


@dataclass
class AffineMapN:
    """tau(z) = U z + V zbar with both blocks free: not one of the library's kinds."""

    U: np.ndarray
    V: np.ndarray

    @property
    def n(self) -> int:
        return len(self.U)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z @ self.U.T + np.conj(z) @ self.V.T


def _wirtinger_n(f, z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d f_m / d z_k, d f_m / d zbar_k) as arrays (..., m, k) for f : (..., n) -> (..., m).

    One 5-point stencil along the real and the imaginary axis of every
    coordinate, all shifted points evaluated in one call of ``f``.
    """
    n = z.shape[-1]
    steps = np.array([2.0, 1.0, -1.0, -2.0])[:, None, None, None]
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
    e = h * np.eye(n)
    # shifted points (..., step, axis x|y, direction k, coordinate)
    fv = f(z[..., None, None, None, :] + steps * np.stack([e, 1j * e]))
    gx, gy = np.einsum("s,...sakm->a...mk", weights, fv)
    return 0.5 * (gx - 1j * gy), 0.5 * (gx + 1j * gy)


def jacobian_blocks(tau, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (..., n, n): P[..., l, k] = d tau_l / d z_k and Q[..., l, k] = d tau_l / d zbar_k."""
    z = np.asarray(z, dtype=complex)
    if isinstance(tau, PolyMapN):
        return _wirtinger_n(tau, z, tau.fd_step)
    shape = z.shape[:-1] + (tau.n, tau.n)
    return np.broadcast_to(tau.U, shape).copy(), np.broadcast_to(tau.V, shape).copy()


def potential_n_coeffs(tau, nu: float, mu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c_dz, c_dzbar) of theta at the points z, each of z's shape.

    theta = -1/2 sum_l { nu (zbar_l dz_l - z_l dzbar_l)
                         + mu (tau bar_l d tau_l - tau_l d tau bar_l) }.
    """
    z = np.asarray(z, dtype=complex)
    c_dz = -0.5 * nu * np.conj(z)
    c_dzb = 0.5 * nu * z
    if mu != 0.0:
        t = tau(z)[..., :, None]
        P, Q = jacobian_blocks(tau, z)
        # d tau_l / dz_k = P[l,k]; d (tau bar_l) / dz_k = conj(Q[l,k])
        c_dz = c_dz - 0.5 * mu * np.sum(np.conj(t) * P - t * np.conj(Q), axis=-2)
        c_dzb = c_dzb - 0.5 * mu * np.sum(np.conj(t) * Q - t * np.conj(P), axis=-2)
    return c_dz, c_dzb


def _two_form_matrix(tau, nu: float, mu: float, z: np.ndarray, h: float) -> np.ndarray:
    """Antisymmetric (..., 2n, 2n) coefficient matrices of d theta at the points z,
    by 5-point stencils of the potential in the 2n Wirtinger directions."""

    def coeffs(zz: np.ndarray) -> np.ndarray:
        return np.concatenate(potential_n_coeffs(tau, nu, mu, zz), axis=-1)

    d_dz, d_dzb = _wirtinger_n(coeffs, np.asarray(z, dtype=complex), h)
    J = np.concatenate([d_dz, d_dzb], axis=-1)  # J[..., b, a] = d c_b / d dir_a
    return np.swapaxes(J, -1, -2) - J  # M[a,b] = d_a c_b - d_b c_a


def equivariance_check_n(
    tau, rho_kind: str, n_samples: int = 50, seed: int = 0, tol: float = 1e-8, U=None
) -> CheckReport:
    """Residual of tau(g.z) = alpha(g) tau(z) + beta(g) at random g and z for the declared rho.

    ``rho_kind``: "identity" (alpha=A, beta=b), "conjugate" (entrywise
    conjugation of [A, b]), or "unitary_conj" (alpha = U A U*, beta = U b).
    """
    rng = np.random.default_rng(seed)
    n = tau.n
    res = []
    for _ in range(n_samples):
        g = random_element_n(n, rng)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        if rho_kind == "identity":
            alpha, beta = g.A, g.b
        elif rho_kind == "conjugate":
            alpha, beta = np.conj(g.A), np.conj(g.b)
        elif rho_kind == "unitary_conj":
            alpha, beta = U @ g.A @ U.conj().T, U @ g.b
        else:
            raise ValueError(f"unknown rho kind {rho_kind!r}")
        res.append(float(np.abs(tau(act_n(g, z)) - (alpha @ tau(z) + beta)).max()))
    return from_residuals("equivariance_n", res, tol, rho=rho_kind, n=n, n_samples=n_samples, seed=seed)


def _points(shape, n=2, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))


def _matrix(two_form_json) -> np.ndarray:
    M = np.array(two_form_json)
    return M[..., 0] + 1j * M[..., 1]


IDENTITY_AS_POLY = [
    [{"z": [1, 0], "zbar": [0, 0], "c": [1, 0]}],
    [{"z": [0, 1], "zbar": [0, 0], "c": [1, 0]}],
]
# tau_1 = z_1 + 0.25 z_2^2, tau_2 = zbar_2 + 0.5i z_1 zbar_1: not affine, both blocks nonzero
MIXED_POLY = [
    [{"z": [1, 0], "zbar": [0, 0], "c": [1, 0]}, {"z": [0, 2], "zbar": [0, 0], "c": [0.25, 0]}],
    [{"z": [0, 0], "zbar": [0, 1], "c": [1, 0]}, {"z": [1, 0], "zbar": [1, 0], "c": [0, 0.5]}],
]


class TestOracleGroupElementN:
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


# ---------------------------------------------------------------------------
# The maps and their Jacobian blocks


class TestJacobianBlocks:
    def test_identity(self):
        tau = EquivariantMapN("identity", 3)
        assert np.array_equal(tau.U, np.eye(3)) and not tau.V.any()

    def test_conjugate(self):
        tau = EquivariantMapN("conjugate", 2)
        assert not tau.U.any() and np.array_equal(tau.V, np.eye(2))

    def test_linear(self):
        tau = rot45_map()
        assert np.array_equal(tau.U, ROT45) and not tau.V.any()

    @pytest.mark.parametrize("make", [lambda: EquivariantMapN("conjugate", 2), rot45_map])
    def test_blocks_match_the_stencil(self, make):
        tau = make()
        P, Q = _wirtinger_n(tau, _points((3,)), 1e-4)
        assert np.abs(P - tau.U).max() < 1e-10 and np.abs(Q - tau.V).max() < 1e-10

    def test_call_broadcasts(self):
        tau, pts = rot45_map(), _points((3, 4))
        for idx in np.ndindex(3, 4):
            assert np.abs(tau(pts)[idx] - ROT45 @ pts[idx]).max() < 1e-15
        assert np.array_equal(EquivariantMapN("conjugate", 2)(pts), np.conj(pts))

    def test_polynomial_oracle_matches_exact(self):
        # tau_1 = z_1^2, tau_2 = zbar_2: P = diag(2 z_1, 0), Q = diag(0, 1)
        comp = [
            [{"z": [2, 0], "zbar": [0, 0], "c": [1, 0]}],
            [{"z": [0, 0], "zbar": [0, 1], "c": [1, 0]}],
        ]
        z = np.array([0.4 + 0.3j, -0.7 + 0.1j])
        P, Q = jacobian_blocks(PolyMapN(2, comp), z)
        assert abs(P[0, 0] - 2 * z[0]) < 1e-8
        assert abs(Q[1, 1] - 1) < 1e-8
        assert abs(P[1, 1]) < 1e-8 and abs(Q[0, 0]) < 1e-8

    def test_linear_needs_square_matrix(self):
        with pytest.raises(ValueError, match="n x n"):
            EquivariantMapN("linear", 3, U=ROT45)


class TestDeterminantCoeffs:
    def test_identity_map(self):
        d = determinant_coeffs(EquivariantMapN("identity", 2), 0, 0, 1, 0)
        assert d["A"] == 0 and d["B"] == 0
        assert d["F"] == -1.0

    def test_conjugate_map(self):
        d = determinant_coeffs(EquivariantMapN("conjugate", 2), 0, 0, 1, 0)
        assert d["A"] == 0 and d["F"] == 1.0

    def test_rotation_is_not_decoupled(self):
        # with V = 0, B_ij = -conj(U[l, j]) U[l, i]
        d = determinant_coeffs(rot45_map(), 1, 0, 1, 1)
        assert abs(d["B"] + 0.5) < 1e-15 and d["A"] == 0

    def test_symmetry_relations(self):
        # D = -conj(A) and C = -conj(B) for any smooth component
        comp = [
            [{"z": [1, 1], "zbar": [0, 1], "c": [1, 0.5]}],
            [{"z": [0, 2], "zbar": [1, 0], "c": [0, 1]}],
        ]
        P, Q = jacobian_blocks(PolyMapN(2, comp), np.array([0.6 - 0.2j, 0.1 + 0.9j]))
        A, B, Cc, D = _determinants(P[0], Q[0], 0, 1)
        assert abs(D + A.conjugate()) < 1e-8
        assert abs(Cc + B.conjugate()) < 1e-8

    def test_determinants_broadcast_over_points(self):
        pts = _points((4,))
        P, Q = jacobian_blocks(PolyMapN(2, MIXED_POLY, fd_step=1e-2), pts)
        A, B, _, _ = _determinants(P[:, 1], Q[:, 1], 0, 1)
        assert A.shape == B.shape == (4,)
        for m in range(4):
            Am, Bm, _, _ = _determinants(P[m, 1], Q[m, 1], 0, 1)
            assert abs(A[m] - Am) < 1e-15 and abs(B[m] - Bm) < 1e-15

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            determinant_coeffs(EquivariantMapN("identity", 2), 0, 1, 0, 0)


# ---------------------------------------------------------------------------
# Closed form against the oracles


def random_affine(n: int, seed: int) -> AffineMapN:
    rng = np.random.default_rng(seed)
    U, V = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    return AffineMapN(U, V)


TWO_FORM_MAPS = {
    "identity2": lambda: EquivariantMapN("identity", 2),
    "identity3": lambda: EquivariantMapN("identity", 3),
    "conjugate2": lambda: EquivariantMapN("conjugate", 2),
    "conjugate3": lambda: EquivariantMapN("conjugate", 3),
    "rotation45": rot45_map,
    "unitary3": lambda: EquivariantMapN("linear", 3, U=random_unitary(3, np.random.default_rng(4))),
    "random_uv2": lambda: random_affine(2, 11),
    "random_uv3": lambda: random_affine(3, 12),
}
# the potential is linear in z, so the stencil is exact up to round-off eps |c| / h
FD_TOL = 1e-9


@pytest.mark.parametrize("name", TWO_FORM_MAPS)
@pytest.mark.parametrize("nu, mu", [(1.0, 0.0), (1.0, 0.5), (2.0, -1.5)])
def test_two_form_matches_fd_oracle(name, nu, mu):
    tau = TWO_FORM_MAPS[name]()
    if name.startswith("random_uv"):
        assert np.abs(tau.V).min() > 0  # both blocks take part
    M = two_form(tau, nu, mu)
    assert M.shape == (2 * tau.n, 2 * tau.n) and np.array_equal(M, -M.T)
    fd = _two_form_matrix(tau, nu, mu, _points((5,), tau.n), 1e-4)
    assert np.abs(fd - M).max() < FD_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_two_form_matches_fd_of_fd_oracle(n):
    # the affine map written as a polynomial: its potential takes an FD Jacobian,
    # so the oracle's 2-form is an FD of an FD, exact on these degrees up to a
    # round-off of order eps / h^2, about 1e-7 at the default h = 1e-4
    tau = random_affine(n, 20 + n)
    unit, zero = [[int(j == k) for j in range(n)] for k in range(n)], [0] * n
    poly = PolyMapN(n, [
        [{"z": unit[k], "zbar": zero, "c": [tau.U[l, k].real, tau.U[l, k].imag]} for k in range(n)]
        + [{"z": zero, "zbar": unit[k], "c": [tau.V[l, k].real, tau.V[l, k].imag]} for k in range(n)]
        for l in range(n)
    ])
    fd = _two_form_matrix(poly, 1.0, 0.5, _points((4,), n), poly.fd_step)
    assert np.abs(fd - two_form(tau, 1.0, 0.5)).max() < 1e-6


def test_two_form_of_landau_plane():
    # mu = 0: d theta = -nu sum_l dzbar_l ^ dz_l = nu sum_l dz_l ^ dzbar_l
    M = two_form(rot45_map(), 1.5, 0.0)
    assert np.array_equal(M[:2, 2:], 1.5 * np.eye(2)) and not M[:2, :2].any() and not M[2:, 2:].any()


def test_polynomial_two_form_varies():
    # the non-equivariant negative control: its 2-form is not constant
    poly = PolyMapN(2, MIXED_POLY, fd_step=1e-2)
    mats = _two_form_matrix(poly, 1.0, 0.5, _points((6,)), poly.fd_step)
    assert np.abs(mats - mats[0]).max() > 0.1
    ident = _two_form_matrix(PolyMapN(2, IDENTITY_AS_POLY, fd_step=1e-2), 1.0, 0.5, _points((6,)), 1e-2)
    assert np.abs(ident - two_form(EquivariantMapN("identity", 2), 1.0, 0.5)).max() < 1e-8


def test_n1_conjugate_potential_matches_one_variable():
    # the oracle's potential for n = 1 is the plane's S/2
    from maf.config import build_system, load_bundled
    from maf.magnetics import S_field

    sys = build_system(load_bundled("conjugate"))
    tau = EquivariantMapN("conjugate", 1)
    for z in (0.3 + 0.4j, -1.1 + 0.2j):
        c_dz, c_dzb = potential_n_coeffs(tau, sys.nu, sys.mu, np.array([z]))
        S = S_field(sys, z)
        assert abs(c_dz[0] - (-S.conjugate() / 2)) < 1e-8
        assert abs(c_dzb[0] - S / 2) < 1e-8


EQUIVARIANT = {
    "identity": (lambda n: EquivariantMapN("identity", n), "identity"),
    "conjugate": (lambda n: EquivariantMapN("conjugate", n), "conjugate"),
    "unitary": (lambda n: EquivariantMapN("linear", n, U=random_unitary(n, np.random.default_rng(n))), "unitary_conj"),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", EQUIVARIANT)
def test_equivariance_defect_matches_sampled_oracle(name, n):
    make, rho = EQUIVARIANT[name]
    tau = make(n)
    sampled = equivariance_check_n(tau, rho, U=tau.U)
    assert sampled.passed and sampled.max_residual < 1e-12
    (rep,) = constant_field_test([tau], 1.0, 0.5)
    assert rep.metadata["rho"] == rho and rep.passed and rep.max_residual < 1e-12
    assert rep.max_residual == equivariance_defect(tau)
    if name != "unitary":
        assert rep.max_residual == 0.0


@pytest.mark.parametrize("scale", [0.5, 1.1, 3.0])
def test_non_unitary_defect_matches_sampled_oracle(scale):
    # U = s Q: the defect is |s^2 - 1|; the sampled residual is max |s (1 - s^2) Q A z| over its samples
    Q = random_unitary(2, np.random.default_rng(7))
    tau = EquivariantMapN("linear", 2, U=scale * Q)
    (rep,) = constant_field_test([tau], 1.0, 0.5)
    assert abs(rep.max_residual - abs(scale**2 - 1)) < 1e-12 and not rep.passed
    sampled = equivariance_check_n(tau, "unitary_conj", U=tau.U)
    assert not sampled.passed
    assert sampled.max_residual > rep.max_residual * min(scale, 1) / 3


def test_mismatched_rho_fails_the_sampled_oracle():
    rep = equivariance_check_n(EquivariantMapN("conjugate", 2), "identity")
    assert not rep.passed


def test_unknown_rho_in_the_sampled_oracle():
    with pytest.raises(ValueError):
        equivariance_check_n(EquivariantMapN("identity", 2), "antipodal")


# ---------------------------------------------------------------------------
# constant_field_test and the CLI entry


class TestConstantFieldTest:
    def test_identity(self):
        (rep,) = constant_field_test([EquivariantMapN("identity", 2)], 1.0, 0.5)
        block = rep.metadata["coordinate_decoupling"]
        assert rep.passed and rep.tol == 1e-12 and rep.max_residual == 0.0
        assert block["decoupled"] and block["max_A"] == block["max_B"] == 0.0
        assert block["F_values"] == {"0,0": -1.0, "0,1": 0.0, "1,0": 0.0, "1,1": -1.0}

    def test_conjugate(self):
        (rep,) = constant_field_test([EquivariantMapN("conjugate", 2)], 2.0, 1.0)
        block = rep.metadata["coordinate_decoupling"]
        assert rep.passed and block["decoupled"]
        assert block["F_values"] == {"0,0": 1.0, "0,1": 0.0, "1,0": 0.0, "1,1": 1.0}

    def test_rotation_is_equivariant_but_not_decoupled(self):
        (rep,) = constant_field_test([rot45_map()], 1.0, 0.5)
        block = rep.metadata["coordinate_decoupling"]
        assert rep.passed and rep.max_residual < 1e-15
        assert not block["decoupled"] and abs(block["max_B"] - 0.5) < 1e-15 and block["max_A"] == 0.0
        assert all(abs(v + 0.5) < 1e-15 for v in block["F_values"].values())

    def test_metadata(self):
        (rep,) = constant_field_test([rot45_map()], 1.0, 0.5, tol=1e-9, names=["highdim_x"])
        assert rep.name == "highdim_x" and rep.tol == 1e-9
        meta = rep.metadata
        assert (meta["nu"], meta["mu"], meta["n"], meta["rho"]) == (1.0, 0.5, 2, "unitary_conj")
        assert np.array_equal(_matrix(meta["two_form"]), two_form(rot45_map(), 1.0, 0.5))

    def test_json_safe(self):
        json.dumps(constant_field_test([rot45_map()], 1.0, 0.5)[0].to_dict())  # no numpy scalars may leak through


def test_unknown_map_kind():
    with pytest.raises(ValueError, match="unknown map kind"):
        EquivariantMapN.from_dict({"kind": "antilinear"}, 2)


def test_polynomial_kind_is_refused():
    with pytest.raises(ConfigError, match="supported kinds: identity, conjugate, linear"):
        EquivariantMapN.from_dict({"kind": "polynomial", "components": IDENTITY_AS_POLY}, 2)


def _highdim_config(tmp_path, cases, **extra):
    data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
    data.update(highdim={"n": 2, "cases": cases}, **extra)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_non_unitary_linear_fails(capsys, tmp_path):
    U = [[[1.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = _highdim_config(tmp_path, [{"name": "stretch", "tau": {"kind": "linear", "U": U}}])
    assert main(["highdim", "--config", path]) == 1
    (rep,) = json.loads(capsys.readouterr().out)
    assert rep["name"] == "highdim_stretch" and not rep["pass"]
    assert abs(rep["max_residual"] - 0.21) < 1e-12


def test_cli_polynomial_case_is_config_error(capsys, tmp_path):
    path = _highdim_config(tmp_path, [{"name": "p", "tau": {"kind": "polynomial", "components": IDENTITY_AS_POLY}}])
    assert main(["highdim", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: unknown map kind 'polynomial'; supported kinds: identity, conjugate, linear"
    )


def _per_map_report_parts(tau, nu, mu):
    """The metadata and defect of one map, by the per-map formulas: the largest |A| and |B| over
    the pairs i < j, F, d theta from (U, V) by hstack, and max |W* W - I| for the kind's block W."""
    n = tau.n
    i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    A, B, _, _ = _determinants(tau.U, tau.V, i, j)
    alpha, beta = np.hstack([tau.U, tau.V]), np.hstack([tau.V.conj(), tau.U.conj()])
    X = -mu * (beta.T @ alpha)
    X[n:, :n] -= nu * np.eye(n)
    W = tau.V if tau.kind == "conjugate" else tau.U
    defect = float(np.abs(W.conj().T @ W - np.eye(n)).max())
    return np.abs(A).max(initial=0.0), np.abs(B).max(initial=0.0), np.abs(tau.V) ** 2 - np.abs(tau.U) ** 2, X - X.T, defect


MIXED_BLOCK = [
    {"name": "identity", "tau": {"kind": "identity"}},
    {"name": "conjugate", "tau": {"kind": "conjugate"}},
    {"name": "rotation45", "tau": {"kind": "linear", "U": [[[C, 0.0], [-C, 0.0]], [[C, 0.0], [C, 0.0]]]}},
    {"name": "double", "tau": {"kind": "linear", "U": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}},
]


@pytest.mark.parametrize("nu, mu", [(1.0, 0.5), (2.0, -1.5)])
def test_batch_equals_per_map_results(nu, mu):
    # one call stacks the block's maps; each report is bit for bit the one the per-map
    # formulas give, and the per-map library calls agree with them
    maps = [EquivariantMapN.from_dict(case["tau"], 2) for case in MIXED_BLOCK]
    reps = constant_field_test(maps, nu, mu, names=[case["name"] for case in MIXED_BLOCK])
    assert [r.name for r in reps] == [case["name"] for case in MIXED_BLOCK]
    for tau, rep in zip(maps, reps, strict=True):
        max_A, max_B, F, M, defect = _per_map_report_parts(tau, nu, mu)
        block = rep.metadata["coordinate_decoupling"]
        assert (block["max_A"], block["max_B"]) == (max_A, max_B)
        assert np.array_equal(np.array(list(block["F_values"].values())), F.ravel())
        assert np.array_equal(_matrix(rep.metadata["two_form"]), M)
        assert np.array_equal(two_form(tau, nu, mu), M)
        assert rep.max_residual == rep.mean_residual == defect == equivariance_defect(tau)
    assert [r.passed for r in reps] == [True, True, True, False] and reps[3].max_residual == 3.0


def test_cli_mixed_block_fails_on_its_non_unitary_case(capsys, tmp_path):
    path = _highdim_config(tmp_path, MIXED_BLOCK)
    assert main(["highdim", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    maps = [EquivariantMapN.from_dict(case["tau"], 2) for case in MIXED_BLOCK]
    names = [f"highdim_{case['name']}" for case in MIXED_BLOCK]
    assert out == json.loads(json.dumps([r.to_dict() for r in constant_field_test(maps, 1.0, 0.0, 1e-12, names)]))
    assert [r["pass"] for r in out] == [True, True, True, False] and out[3]["max_residual"] == 3.0


def test_no_stencil_and_no_loops():
    """The ℂⁿ module takes no finite difference and has no loop statement."""
    import maf.highdim as hd

    source = inspect.getsource(hd)
    assert source.count("12 * h") == 0
    assert not [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.For, ast.While))]
