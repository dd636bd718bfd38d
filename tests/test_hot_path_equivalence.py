"""The vectorized hot paths against their element-wise reference versions.

Each reference below is the earlier, straightforward implementation kept
verbatim: a Horner series on every point selected with np.where, a Hessian
built from eye/outer-product broadcasts, a Python loop over the stencil of
the banded mode matrix and an element-wise lil_matrix fill of the radial
systems.  The arithmetic per entry is unchanged, so results must agree
exactly, not to a tolerance.
"""

import numpy as np
import pytest
from scipy.sparse import lil_matrix

from helix_kmd import elliptic, linear_theory, liouville
from helix_kmd.liouville import LocalProfile


# -- references ---------------------------------------------------------------

def _kernels_ref(t):
    t = np.asarray(t, dtype=float)
    small = t < liouville._T_SWITCH
    ts = np.where(small, t, 0.0)
    w0 = np.polyval(liouville._W0_C, ts)
    s0 = np.polyval(liouville._S0_C, ts)
    w2 = np.polyval(liouville._W2_C, ts)
    if np.any(~small):
        tl = np.where(small, 1.0, t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s1l = (
                0.5 / tl
                - 2.0 / tl**2
                + 3.0 * np.log1p(tl) / tl**3
                - 1.0 / (tl * tl * (1.0 + tl))
            )
            w0l = 1.0 / (1.0 + tl) + s1l
            s0l = s1l / tl
            w2l = s1l / tl**2 - 0.25 / (tl * (1.0 + tl) ** 2)
        w0 = np.where(small, w0, w0l)
        s0 = np.where(small, s0, s0l)
        w2 = np.where(small, w2, w2l)
    return w0, s0, w2


def _hess_ref(prof, z):
    z = np.asarray(z, dtype=float)
    v = np.einsum("...i,...i->...", z, z)
    av = prof.a + v
    g = np.log(8.0) - 2.0 * np.log(av)
    q = 1.0 + prof.c1 * z[..., 0] + prof.c2 * v
    dg = (-4.0 / av)[..., None] * z
    dq = np.stack(
        [prof.c1 + 2.0 * prof.c2 * z[..., 0], 2.0 * prof.c2 * z[..., 1]], axis=-1
    )
    eye = np.eye(2)
    zz = z[..., :, None] * z[..., None, :]
    hg = (-4.0 / av)[..., None, None] * eye + (8.0 / av**2)[..., None, None] * zz
    hq = (2.0 * prof.c2) * eye
    p3 = z[..., 0] ** 3 - 3.0 * z[..., 0] * z[..., 1] ** 2
    dp3 = np.stack(
        [3.0 * z[..., 0] ** 2 - 3.0 * z[..., 1] ** 2, -6.0 * z[..., 0] * z[..., 1]],
        axis=-1,
    )
    hp3 = np.empty(z.shape[:-1] + (2, 2))
    hp3[..., 0, 0] = 6.0 * z[..., 0]
    hp3[..., 0, 1] = -6.0 * z[..., 1]
    hp3[..., 1, 0] = -6.0 * z[..., 1]
    hp3[..., 1, 1] = -6.0 * z[..., 0]
    w0, s0, w2 = _kernels_ref(v / prof.a)
    W = w0 / (12.0 * prof.a)
    Wp = -s0 / (4.0 * prof.a * prof.a)
    Ws = w2 / prof.a**3
    out = q[..., None, None] * hg
    out += dg[..., :, None] * dq[..., None, :] + dq[..., :, None] * dg[..., None, :]
    out += g[..., None, None] * hq
    zdp = z[..., :, None] * dp3[..., None, :] + dp3[..., :, None] * z[..., None, :]
    out += prof.kH * (
        4.0 * (Ws * p3)[..., None, None] * zz
        + 2.0 * Wp[..., None, None] * (p3[..., None, None] * eye + zdp)
        + W[..., None, None] * hp3
    )
    return out


def _banded_mode_matrix_ref(u, beta, beta_u, k2):
    n = u.size
    du = u[1] - u[0]
    ab = np.zeros((5, n))

    def put(i, j, val):
        ab[2 + i - j, j] += val

    for i in range(2, n - 2):
        b, bu = beta[i], beta_u[i]
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * du * du)
        c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * du)
        for m in range(5):
            put(i, i - 2 + m, b * c2[m] + bu * c1[m])
        put(i, i, -k2)
    for i in (1, n - 2):
        b, bu = beta[i], beta_u[i]
        put(i, i - 1, b / du**2 - bu / (2.0 * du))
        put(i, i, -2.0 * b / du**2 - k2)
        put(i, i + 1, b / du**2 + bu / (2.0 * du))
    return ab


def _radial_system_ref(u, k, h_k, border):
    e_gamma = linear_theory._e_gamma
    n = u.size
    du = u[1] - u[0]
    rho = np.exp(u)
    e2u = np.exp(2.0 * u)
    diag = e2u * e_gamma(rho) - float(k * k)
    A = lil_matrix((n, n))
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * du * du)
    for i in range(2, n - 2):
        for m in range(5):
            A[i, i - 2 + m] = c2[m]
        A[i, i] += diag[i]
    for i in (1, n - 2):
        A[i, i - 1] = 1.0 / du**2
        A[i, i] = -2.0 / du**2 + diag[i]
        A[i, i + 1] = 1.0 / du**2
    rhs = -(e2u * h_k).astype(float)
    if k == 0:
        A[0, 0] = -1.5 / du
        A[0, 1] = 2.0 / du
        A[0, 2] = -0.5 / du
        A[n - 1, n - 1] = 1.5 / du
        A[n - 1, n - 2] = -2.0 / du
        A[n - 1, n - 3] = 0.5 / du
    else:
        A[0, 0] = 1.0
        A[n - 1, n - 1] = 1.5 / du + float(k)
        A[n - 1, n - 2] = -2.0 / du
        A[n - 1, n - 3] = 0.5 / du
    rhs[0] = 0.0
    rhs[n - 1] = 0.0
    if border is None:
        return A.tocsc(), rhs
    B = lil_matrix((n + 1, n + 1))
    B[:n, :n] = A
    col = e2u * e_gamma(rho) * border
    col[0] = 0.0
    col[-1] = 0.0
    B[:n, n] = -col[:, None]
    if k == 0:
        B[n, n - 1] = 1.0
    else:
        B[n, :n] = (e2u * e_gamma(rho) * border)[None, :]
    return B.tocsc(), np.concatenate([rhs, [0.0]])


# -- equivalence --------------------------------------------------------------

class TestKernels:
    def test_matches_reference_across_the_switch(self, rng):
        t = np.concatenate([
            np.linspace(0.0, 1e4, 4001),
            [liouville._T_SWITCH, np.nextafter(liouville._T_SWITCH, 0.0)],
            rng.uniform(0.0, 2.0, 500),
            np.geomspace(1e-12, 1e4, 200),
        ])
        for new, ref in zip(liouville._kernels(t), _kernels_ref(t)):
            assert new.shape == t.shape
            assert np.array_equal(new, ref)

    def test_zero_dim_input(self):
        for t in (0.3, liouville._T_SWITCH, 5.0):
            for new, ref in zip(liouville._kernels(np.float64(t)), _kernels_ref(t)):
                assert np.shape(new) == ()
                assert new == ref

    def test_empty_input(self):
        for new in liouville._kernels(np.empty(0)):
            assert new.shape == (0,)


class TestHessian:
    @pytest.mark.parametrize("R,h", [(0.2, 1.0), (0.35, -0.7)])
    def test_matches_broadcast_reference(self, rng, R, h):
        prof = LocalProfile(np.exp(-20.0), 1.7, R, h)
        z = np.concatenate(
            [rng.normal(size=(300, 2)) * s for s in (1e-9, 1e-5, 1e-2, 0.3)]
        )
        H = prof.hess(z)
        assert H.shape == z.shape + (2,)
        assert np.array_equal(H, _hess_ref(prof, z))
        assert np.array_equal(H[..., 0, 1], H[..., 1, 0])

    def test_grid_shaped_input(self, rng):
        prof = LocalProfile(np.exp(-10.0), 1.2, 0.3, 1.0)
        z = rng.normal(size=(7, 5, 2)) * 0.1
        assert np.array_equal(prof.hess(z), _hess_ref(prof, z))


class TestBandedModeMatrix:
    @pytest.mark.parametrize("k2", [0.0, 1.0, 1936.0])
    def test_matches_loop_reference(self, k2):
        spec = elliptic.PolarGridSpec(n_radial=257)
        u = spec.u_nodes()
        rho = np.exp(u)
        h = 0.8
        beta = h * h / (h * h + rho * rho)
        beta_u = -2.0 * beta * rho * rho / (h * h + rho * rho)
        new = elliptic._banded_mode_matrix(u, beta, beta_u, k2)
        assert np.array_equal(new, _banded_mode_matrix_ref(u, beta, beta_u, k2))


class TestRadialSystem:
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("bordered", [False, True])
    def test_csc_matches_lil_reference(self, rng, k, bordered):
        u = np.linspace(np.log(1e-5), np.log(100.0), 300)
        rho = np.exp(u)
        h_k = rng.normal(size=u.size) / (1.0 + rho**4)
        border = None
        if bordered:
            border = linear_theory._z0_radial(rho) if k == 0 else linear_theory._z1_radial(rho)
        M, rhs = linear_theory._radial_system(u, k, h_k, border)
        M_ref, rhs_ref = _radial_system_ref(u, k, h_k, border)
        assert M.format == "csc"
        assert M.shape == M_ref.shape
        assert np.array_equal(M.indptr, M_ref.indptr)
        assert np.array_equal(M.indices, M_ref.indices)
        assert np.array_equal(M.data, M_ref.data)
        assert np.array_equal(rhs, rhs_ref)
