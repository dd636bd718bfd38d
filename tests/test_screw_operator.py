import numpy as np
import pytest
import sympy as sp

from helix_kmd.liouville import LocalProfile
from helix_kmd.screw_operator import (
    apply_L,
    b_coefficients,
    b_operator,
    change_from_local,
    change_to_local,
    div_k,
    k_matrix,
    local_frame,
)


def apply_L_fd(func, x, h, step=1e-4):
    """Reference L psi = -div(K grad psi) by centered 5-point stencils on a
    plain callable psi(x)."""
    x = np.asarray(x, dtype=float)
    e1 = np.array([step, 0.0])
    e2 = np.array([0.0, step])

    def d1(v):
        return (func(x + v) - func(x - v)) / (2.0 * step)

    def d2(v):
        return (func(x + v) - 2.0 * func(x) + func(x - v)) / step**2

    g = np.stack([d1(e1), d1(e2)], axis=-1)
    h12 = (
        func(x + e1 + e2) - func(x + e1 - e2) - func(x - e1 + e2) + func(x - e1 - e2)
    ) / (4.0 * step**2)
    K = k_matrix(x, h)
    cross = K[..., 0, 0] * d2(e1) + 2.0 * K[..., 0, 1] * h12 + K[..., 1, 1] * d2(e2)
    return -(cross + np.einsum("...i,...i->...", div_k(x, h), g))


class SympyBundle:
    """Exact value, gradient and Hessian of a sympy expression in x."""

    def __init__(self, expr, x1, x2):
        self.f = sp.lambdify((x1, x2), expr, "numpy")
        self.fx = sp.lambdify((x1, x2), sp.diff(expr, x1), "numpy")
        self.fy = sp.lambdify((x1, x2), sp.diff(expr, x2), "numpy")
        self.fxx = sp.lambdify((x1, x2), sp.diff(expr, x1, 2), "numpy")
        self.fyy = sp.lambdify((x1, x2), sp.diff(expr, x2, 2), "numpy")
        self.fxy = sp.lambdify((x1, x2), sp.diff(sp.diff(expr, x1), x2), "numpy")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.f(x[..., 0], x[..., 1]) * np.ones(x.shape[:-1])

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        one = np.ones(x.shape[:-1])
        return np.stack(
            [self.fx(x[..., 0], x[..., 1]) * one, self.fy(x[..., 0], x[..., 1]) * one],
            axis=-1,
        )

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        one = np.ones(x.shape[:-1])
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = self.fxx(x[..., 0], x[..., 1]) * one
        out[..., 1, 1] = self.fyy(x[..., 0], x[..., 1]) * one
        out[..., 0, 1] = out[..., 1, 0] = self.fxy(x[..., 0], x[..., 1]) * one
        return out


class LocalBundle:
    """Psi(z) = psi(P_j + M_j z) built from a global sympy bundle."""

    def __init__(self, bundle, frame):
        self.b = bundle
        self.fr = frame

    def grad(self, z):
        x = change_from_local(z, self.fr)
        return np.einsum("ji,...j->...i", self.fr.Mj, self.b.grad(x))

    def hess(self, z):
        x = change_from_local(z, self.fr)
        return np.einsum(
            "ki,...kl,lj->...ij", self.fr.Mj, self.b.hess(x), self.fr.Mj
        )


@pytest.fixture(scope="module")
def sympy_div_oracle():
    """Exact div(K grad psi) for a test expression, as a callable of (x, h)."""
    x1, x2, hh = sp.symbols("x1 x2 h", real=True)
    expr = x1 * x2
    D = hh**2 + x1**2 + x2**2
    K = sp.Matrix([[hh**2 + x2**2, -x1 * x2], [-x1 * x2, hh**2 + x1**2]]) / D
    g = sp.Matrix([sp.diff(expr, x1), sp.diff(expr, x2)])
    Kg = K * g
    div = sp.simplify(sp.diff(Kg[0], x1) + sp.diff(Kg[1], x2))
    return expr, x1, x2, sp.lambdify((x1, x2, hh), div, "numpy")


class TestKMatrix:
    def test_identity_at_origin(self):
        assert np.allclose(k_matrix(np.zeros(2), 1.7), np.eye(2))

    def test_hand_value(self):
        K = k_matrix(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(K, 0.5 * np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_determinant_property(self, rng):
        # oracle: symbolic expansion gives det K = h^2/(h^2+|x|^2)
        x = rng.normal(size=(50, 2)) * 2
        h = 1.3
        det = np.linalg.det(k_matrix(x, h))
        assert np.max(np.abs(det - h**2 / (h**2 + np.sum(x * x, axis=1)))) < 1e-14

    def test_spectrum(self, rng):
        x = rng.normal(size=(20, 2))
        h = 0.9
        ev = np.linalg.eigvalsh(k_matrix(x, h))
        lo = h**2 / (h**2 + np.sum(x * x, axis=1))
        assert np.max(np.abs(ev[:, 1] - 1.0)) < 1e-14
        assert np.max(np.abs(ev[:, 0] - lo)) < 1e-14


class TestApplyL:
    def test_constant_field(self):
        x1, x2 = sp.symbols("x1 x2", real=True)
        b = SympyBundle(sp.Integer(3) + 0 * x1, x1, x2)
        x = np.array([0.3, -0.2])
        assert apply_L(x, 1.0, b.grad(x), b.hess(x)) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_at_origin(self):
        x1, x2 = sp.symbols("x1 x2", real=True)
        b = SympyBundle(x1**2 + x2**2, x1, x2)
        x = np.zeros(2)
        assert apply_L(x, 1.0, b.grad(x), b.hess(x)) == pytest.approx(-4.0, abs=1e-14)

    def test_large_pitch_approaches_laplacian(self, rng):
        # exact bound: |L(x1^2) + 2| = 4 x1^2 (D + h^2)/D^2 <= 8/h^2 on |x| <= 1
        x1, x2 = sp.symbols("x1 x2", real=True)
        b = SympyBundle(x1**2, x1, x2)
        pts = rng.uniform(-1, 1, size=(200, 2))
        pts = pts[np.sum(pts * pts, axis=1) <= 1.0]
        vals = apply_L(pts, 100.0, b.grad(pts), b.hess(pts))
        assert np.max(np.abs(vals + 2.0)) <= 8.0 / 100.0**2 + 1e-12

    def test_fd_variant_matches(self, rng):
        x1, x2 = sp.symbols("x1 x2", real=True)
        b = SympyBundle(sp.sin(x1) * sp.exp(x2 / 2), x1, x2)
        pts = rng.normal(size=(10, 2)) * 0.5
        exact = apply_L(pts, 1.1, b.grad(pts), b.hess(pts))
        fd = apply_L_fd(b.value, pts, 1.1, step=1e-4)
        assert np.max(np.abs(exact - fd)) < 1e-6

    def test_rotational_invariance(self, rng):
        # (L psi)(x) = (L psi~)(Q x) for psi(x) = psi~(Q x)
        x1, x2 = sp.symbols("x1 x2", real=True)
        tilde = SympyBundle(sp.exp(x1) * sp.sin(x2), x1, x2)
        theta = 0.77
        c, s = np.cos(theta), np.sin(theta)
        Q = np.array([[c, -s], [s, c]])

        class Rotated:
            def grad(self, x):
                return np.einsum("ji,...j->...i", Q, tilde.grad(
                    np.einsum("ij,...j->...i", Q, x)))

            def hess(self, x):
                H = tilde.hess(np.einsum("ij,...j->...i", Q, x))
                return np.einsum("ki,...kl,lj->...ij", Q, H, Q)

        pts = rng.normal(size=(15, 2)) * 0.8
        rot = Rotated()
        lhs = apply_L(pts, 1.2, rot.grad(pts), rot.hess(pts))
        qx = np.einsum("ij,...j->...i", Q, pts)
        rhs = apply_L(qx, 1.2, tilde.grad(qx), tilde.hess(qx))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFrames:
    def test_vertex_maps_to_origin(self):
        fr = local_frame(3, 5, 0.4, 1.1)
        assert np.max(np.abs(change_to_local(fr.P, fr))) < 1e-15

    def test_first_frame_matrix(self):
        fr = local_frame(1, 3, 0.4, 1.1)
        m = 1.1 / np.sqrt(1.1**2 + 0.4**2)
        assert np.allclose(fr.M, np.diag([m, 1.0]))

    def test_round_trip(self, rng):
        fr = local_frame(2, 4, 0.35, 0.9)
        x = rng.normal(size=(30, 2))
        z = change_to_local(x, fr)
        assert np.max(np.abs(change_from_local(z, fr) - x)) < 1e-14

    def test_scaled_vertex_is_frame_independent(self):
        frames = [local_frame(j, 5, 0.31, 1.2) for j in range(1, 6)]
        ref = frames[0].Mj_inv @ frames[0].P
        for fr in frames[1:]:
            assert np.max(np.abs(fr.Mj_inv @ fr.P - ref)) < 1e-14

    def test_stretch_tends_to_one(self):
        dets = [np.linalg.det(local_frame(1, 3, R, 1.0).M) for R in (0.5, 0.1, 0.01)]
        assert dets[0] < dets[1] < dets[2] < 1.0 + 1e-15
        assert abs(dets[2] - 1.0) < 1e-3


class TestBOperator:
    def test_constant_field_annihilated(self):
        fr = local_frame(1, 3, 0.3, 1.0)
        assert b_operator(fr, np.array([0.1, 0.2]), np.zeros(2), np.zeros((2, 2))) == 0.0

    def test_conjugation_identity(self, sympy_div_oracle, rng):
        # div(K grad psi)(x) = Delta Psi(z) + B[Psi](z), chain-rule oracle
        expr, x1, x2, oracle = sympy_div_oracle
        bundle = SympyBundle(expr, x1, x2)
        h, R = 1.3, 0.4
        fr = local_frame(2, 3, R, h)
        z = rng.normal(size=(20, 2)) * 0.25
        x = change_from_local(z, fr)
        local = LocalBundle(bundle, fr)
        lap = np.trace(local.hess(z), axis1=-2, axis2=-1)
        rhs = lap + b_operator(fr, z, local.grad(z), local.hess(z))
        lhs = oracle(x[..., 0], x[..., 1], h)
        assert np.max(np.abs(lhs - rhs)) < 1e-8
        # and the library's global divergence form agrees too
        assert np.max(np.abs(-apply_L(x, h, bundle.grad(x), bundle.hess(x)) - rhs)) < 1e-12

    @staticmethod
    def _truncated_coefficients(z, R, h):
        """Leading small-z expansion of (a11, a22, a12, b1, b2)."""
        d0 = h * h + R * R
        one = np.ones(z.shape[:-1])
        a11 = -2.0 * R * h / d0**1.5 * z[..., 0]
        a22 = np.zeros_like(a11)
        a12 = -2.0 * R / (h * np.sqrt(d0)) * z[..., 1]
        b1 = -R / (h * np.sqrt(d0)) * (2.0 * h * h / d0 + 1.0) * one
        b2 = -z[..., 1] / d0 * (2.0 * h * h / d0 + 1.0)
        return a11, a22, a12, b1, b2

    def test_truncated_coefficients_second_order_defect(self):
        # second-derivative coefficients: exact - truncated = O(|z|^2)
        R, h = 0.35, 1.0
        scales = np.array([0.08, 0.04, 0.02, 0.01])
        worst = []
        for s in scales:
            z = np.array([[s, 0.6 * s]])
            exact = b_coefficients(z, R, h)
            trunc = self._truncated_coefficients(z, R, h)
            diff = max(float(np.abs(exact[i] - trunc[i]).max()) for i in range(3))
            worst.append(diff)
        order = np.polyfit(np.log(scales), np.log(worst), 1)[0]
        assert order >= 2.0 - 0.05

    def test_profile_defect_bounded(self, rng):
        # conjugated operator on the local profile minus retained singular
        # terms stays uniformly bounded as the core shrinks
        R, h = 0.35, 1.0
        fr = local_frame(1, 3, R, h)
        z = rng.uniform(-0.25, 0.25, size=(2000, 2))
        sups = []
        for em in (1e-2, 1e-6, 1e-14, 1e-30):
            prof = LocalProfile(em, 1.0, R, h)
            v = np.sum(z * z, axis=1)
            lap = prof.laplacian(z)
            bb = b_operator(fr, z, prof.grad(z), prof.hess(z))
            retained = (-8.0 * prof.a + prof.kE * prof.a * z[:, 0]) / (prof.a + v) ** 2
            sups.append(np.max(np.abs(lap + bb - retained)))
        assert max(sups) < 2.0 * min(sups) + 1.0
