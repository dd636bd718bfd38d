"""The vectorized hot paths against their element-wise reference versions.

Each reference below is the earlier, straightforward implementation kept
verbatim: a Horner series on every point selected with np.where, a Hessian
built from eye/outer-product broadcasts, a Python loop over the stencil of
the banded mode matrix, an element-wise lil_matrix fill of the radial
systems, a local defect that lets the Laplacian, Hessian and gradient of
the profile each recompute the profile's intermediates, a far-profile
increment delta_value that computes its own intermediates and each of its
dot products with dz twice, a lift-3d box sampled one (x, y) column at
a time, and the point kernels of `stream` (error_g, residual_S and
inner_residual_scaled) run on the whole array instead of in blocks of
`stream._POINT_BLOCK` points.  The arithmetic per entry is unchanged
(the references cube as the library does, x * x * x; `TestCube` bounds
that cube against the exact one), so results must agree exactly, not to
a tolerance.  Five exceptions agree
to rounding only:
  * the defect density g on the solver grid, which is evaluated on one
    dihedral half-sector;
  * the block LU of `elliptic._Banded`, which eliminates in another order
    than scipy's solve_banded and spsolve;
  * the not-a-knot spline of `elliptic`, whose tridiagonal system
    `_Banded` solves: its knot derivatives are held to a 40-digit mpmath
    solve, its values to scipy's CubicSpline (and `ProjectedSolution.phi`
    to one CubicSpline per mode);
  * the cumulative Simpson rule of the radial mode, which takes the
    uniform step of the grid where scipy's cumulative_simpson reads each
    step from the points;
  * H2, a real cosine series in N theta, which is compared with the
    complex exp(i k theta) modes of the earlier solver (full-grid rfft,
    solve_banded, one spline per mode) to 1e-13 of max|H2|.
"""

import functools
import math
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from helix_kmd import cli, elliptic, linear_theory, liouville, stream
from helix_kmd.liouville import LocalProfile
from helix_kmd.screw_operator import b_operator, local_frame


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
    p3 = z[..., 0] * z[..., 0] * z[..., 0] - 3.0 * z[..., 0] * z[..., 1] ** 2
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


def _local_defect_ref(prof, z, frame1):
    z = np.asarray(z, dtype=float)
    v = np.einsum("...i,...i->...", z, z)
    av = prof.a + v
    lap = prof.laplacian(z)
    bb = b_operator(prof, z, frame1)
    # the retained terms in the one form the residual's terms use too
    retained = prof.a * (-8.0 + prof.kE * z[..., 0]) / av**2
    return lap + bb - retained


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


def _row_aligned(ab):
    """Row-aligned bands (bands[d, i] multiplies x[i - 2 + d]) of an ab-form matrix."""
    n = ab.shape[1]
    bands = np.zeros_like(ab)
    for d in range(5):
        for i in range(max(0, 2 - d), min(n, n + 2 - d)):
            bands[d, i] = ab[4 - d, i - 2 + d]
    return bands


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


def _g_grid_ref(ctx, spec):
    """error_g on every angular column of the rho <= 1.02 rings."""
    rho = spec.radial_nodes()
    theta = spec.theta_nodes()
    pts = np.zeros((spec.n_radial, spec.n_angular, 2))
    pts[..., 0] = rho[:, None] * np.cos(theta)[None, :]
    pts[..., 1] = rho[:, None] * np.sin(theta)[None, :]
    g = np.zeros((spec.n_radial, spec.n_angular))
    mask = rho <= 1.02
    g[mask] = stream.error_g(pts[mask], ctx.profile, ctx.frames)
    return g


def _h2_complex_ref(g, spec, h, anchor, mode_cut=1e-13):
    """H2 as complex exp(i k theta) modes from full-grid samples g[i_rho, j_theta].

    The earlier solver: rfft over all angles, every mode k above the cut
    solved by solve_banded on its real and imaginary parts, one complex
    CubicSpline per mode profile, and the real part of the mode sum.
    Returns an object with value(x), gradient(x), grid and the kept _k.
    """
    nr, nt = g.shape
    u = spec.u_nodes()
    beta, _ = elliptic._beta(u, h)
    ghat = np.fft.rfft(g, axis=1)
    scale = np.max(np.abs(ghat)) + 1e-300
    sol0, G0 = elliptic._solve_mode0(u, beta, ghat[:, 0].real)
    ks = 1 + np.flatnonzero(~(np.max(np.abs(ghat[:, 1:]), axis=0) < mode_cut * scale))
    modes = [sol0.astype(complex)]
    for k in ks:
        rhs = -np.exp(2.0 * u) * ghat[:, k]
        rhs[[0, -1]] = 0.0
        ab = _mode_system(spec, h, k)
        modes.append(solve_banded((2, 2), ab, rhs.real) + 1j * solve_banded((2, 2), ab, rhs.imag))
    ref = types.SimpleNamespace(
        h=h, _u=u, _k=np.concatenate([[0], ks]), flux=2.0 * np.pi * G0[-1] / nt, offset=0.0,
        # the Nyquist mode of an even grid counts once, every other mode twice
        _w=np.concatenate([[1.0 / nt], np.where(2 * ks == nt, 1.0 / nt, 2.0 / nt)]),
        _splines=[CubicSpline(u, m) for m in modes])
    ref.value = lambda x: _h2_value_ref(ref, x)
    ref.gradient = lambda x: _h2_gradient_ref(ref, x)
    ref.offset = float(ref.value(anchor))
    theta = spec.theta_nodes()
    ref.grid = sum(w * (m[:, None] * np.exp(1j * k * theta)[None, :]).real
                   for m, w, k in zip(modes, ref._w, ref._k))
    return ref


def _h2_polar_ref(h2, x):
    rho = np.hypot(x[..., 0], x[..., 1])
    theta = np.arctan2(x[..., 1], x[..., 0])
    u = np.log(np.maximum(rho, 1e-300))
    return rho, theta, u, np.clip(u, h2._u[0], h2._u[-1])


def _h2_value_ref(h2, x):
    x = np.asarray(x, dtype=float)
    rho, theta, u, uc = _h2_polar_ref(h2, x)
    umax = h2._u[-1]
    out = np.zeros_like(rho)
    for w, k, s in zip(h2._w, h2._k, h2._splines):
        out += w * (s(uc) * np.exp(1j * k * theta)).real
    far = u > umax
    if np.any(far):
        q = -h2.flux / (2.0 * np.pi)
        du = u - umax
        rr = np.exp(2.0 * u) - np.exp(2.0 * umax)
        out = np.where(far, out + q * (du + rr / (2.0 * h2.h**2)), out)
    return out - h2.offset


def _h2_gradient_ref(h2, x):
    x = np.asarray(x, dtype=float)
    rho, theta, u, uc = _h2_polar_ref(h2, x)
    umin, umax = h2._u[0], h2._u[-1]
    d_rho = np.zeros_like(rho)
    d_theta = np.zeros_like(rho)
    for w, k, s in zip(h2._w, h2._k, h2._splines):
        ph = np.exp(1j * k * theta)
        d_rho += w * (s.derivative()(uc) * ph).real
        d_theta += w * ((1j * k) * s(uc) * ph).real
    inside = u < umin
    d_rho = np.where(inside, 0.0, d_rho)
    d_theta = np.where(inside, 0.0, d_theta)
    far = u > umax
    if np.any(far):
        q = -h2.flux / (2.0 * np.pi)
        beta = h2.h**2 / (h2.h**2 + np.exp(2.0 * u))
        d_rho = np.where(far, q / beta, d_rho)
        d_theta = np.where(far, 0.0, d_theta)
    rho_safe = np.maximum(rho, 1e-300)
    er = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    et = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return (
        (d_rho / rho_safe)[..., None] * er
        + (d_theta / rho_safe)[..., None] * et
    )


def _sector_fill(g_half, n_angular, n):
    """Full-grid samples from half-sector ones: column k takes column
    min(c, s - c), c = k mod s, s = n_angular/n."""
    s = n_angular // n
    c = np.arange(n_angular) % s
    return g_half[:, np.minimum(c, s - c)]


def _assert_h2_matches(h2, ref, x):
    """value, gradient and grid of h2 against the complex reference."""
    scale = np.max(np.abs(ref.grid))
    assert scale > 0.0
    assert set(ref._k) <= set(h2._k)
    assert np.max(np.abs(h2.grid - ref.grid)) <= 1e-13 * scale
    assert abs(h2.offset - ref.offset) <= 1e-13 * scale
    value, gradient = h2.value(x), h2.gradient(x)
    assert value.shape == x.shape[:-1] and gradient.shape == x.shape
    assert np.max(np.abs(value - ref.value(x))) <= 1e-13 * scale
    grad_ref = ref.gradient(x)
    assert np.max(np.abs(gradient - grad_ref)) <= 1e-13 * np.max(np.abs(grad_ref))


def _box_rows_ref(field, xs, ys, zs):
    """lift-3d's box rows with one field call per (x, y) column."""
    rows = []
    for x in xs:
        for y in ys:
            pts = np.stack(
                [np.full_like(zs, x), np.full_like(zs, y), zs], axis=-1
            )
            w = field(pts)
            for k, z in enumerate(zs):
                rows.append((float(x), float(y), float(z),
                             float(w[k, 0]), float(w[k, 1]), float(w[k, 2])))
    return rows


def _phi_ref(sol, y):
    """ProjectedSolution.phi with one CubicSpline per cos and sin mode."""
    rho = np.hypot(y[..., 0], y[..., 1])
    theta = np.arctan2(y[..., 1], y[..., 0])
    uc = np.clip(np.log(np.maximum(rho, 1e-300)), sol.u[0], sol.u[-1])
    out = np.zeros_like(rho)
    for k, m in sol.cos_modes.items():
        out += CubicSpline(sol.u, m)(uc) * np.cos(k * theta)
    for k, m in sol.sin_modes.items():
        out += CubicSpline(sol.u, m)(uc) * np.sin(k * theta)
    return out


def _delta_value_ref(prof, z0, dz):
    """LocalProfile.delta_value computing its own intermediates, each
    einsum over dz as often as it appears."""
    z0 = np.asarray(z0, dtype=float)
    dz = np.asarray(dz, dtype=float)
    v0 = np.einsum("...i,...i->...", z0, z0)
    cross = 2.0 * np.einsum("...i,...i->...", z0, dz) + np.einsum(
        "...i,...i->...", dz, dz
    )
    g1 = np.log(8.0) - 2.0 * np.log(prof.a + v0 + cross)
    dgam = -2.0 * np.log1p(cross / (prof.a + v0))
    q0 = 1.0 + prof.c1 * z0[..., 0] + prof.c2 * v0
    dq = prof.c1 * dz[..., 0] + prof.c2 * cross
    w, wp, ws = liouville._h1_weights(v0, prof.a)
    p30 = z0[..., 0] * z0[..., 0] * z0[..., 0] - 3.0 * z0[..., 0] * z0[..., 1] ** 2
    dp30 = np.stack(
        [
            3.0 * z0[..., 0] ** 2 - 3.0 * z0[..., 1] ** 2,
            -6.0 * z0[..., 0] * z0[..., 1],
        ],
        axis=-1,
    )
    lin = 2.0 * wp * p30 * np.einsum("...i,...i->...", z0, dz) + w * np.einsum(
        "...i,...i->...", dp30, dz
    )
    zd = np.einsum("...i,...i->...", z0, dz)
    dd = np.einsum("...i,...i->...", dz, dz)
    quad = (
        2.0 * ws * p30 * zd * zd
        + wp * (p30 * dd + 2.0 * zd * np.einsum("...i,...i->...", dp30, dz))
        + 0.5
        * w
        * (
            6.0 * z0[..., 0] * dz[..., 0] ** 2
            - 12.0 * z0[..., 1] * dz[..., 0] * dz[..., 1]
            - 6.0 * z0[..., 0] * dz[..., 1] ** 2
        )
    )
    return g1 * dq + q0 * dgam + prof.kH * (lin + quad)


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

    def test_series_runs_only_when_needed(self, rng, monkeypatch):
        calls = []
        polyval = np.polyval

        def counting(c, x):
            calls.append(np.size(x))
            return polyval(c, x)

        monkeypatch.setattr(np, "polyval", counting)
        large = rng.uniform(liouville._T_SWITCH, 50.0, 400)
        mixed = np.concatenate([large, rng.uniform(0.0, liouville._T_SWITCH, 7)])
        for t, series_sizes in ((large, []), (mixed, [7, 7, 7])):
            calls.clear()
            new = liouville._kernels(t)
            assert calls == series_sizes
            for a, b in zip(new, _kernels_ref(t)):
                assert np.array_equal(a, b)


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


def _half_sector_frames(eps, r, h, n):
    """Profile, vertex frames and the solver's half-sector points of g."""
    R = r / math.sqrt(-math.log(eps))
    alpha = 2.0 * (1.0 / h**2 - (n - 1.0) / r**2)
    mu = math.exp(stream.solve_mu(eps, r, h, n, alpha))
    prof = LocalProfile(eps, mu, R, h)
    frames = [local_frame(j, n, R, h) for j in range(1, n + 1)]
    spec = elliptic.PolarGridSpec(n_angular=60)
    rho = spec.radial_nodes()
    rho = rho[rho <= 1.02]
    theta = spec.theta_nodes()[: spec.n_angular // n // 2 + 1]
    x = np.stack(np.broadcast_arrays(rho[:, None] * np.cos(theta),
                                     rho[:, None] * np.sin(theta)), axis=-1)
    return prof, frames, x


_RANDOM_RH = [tuple(np.random.default_rng(seed).uniform([0.6, 0.5], [1.3, 2.0]))
              for seed in (7, 8)]


class TestSharedProfileTerms:
    @pytest.mark.parametrize("exponent,n,r,h", [
        # r = 1.2 at N = 5: the mu iteration diverges at r = 1, eps = e^-10
        *[(e, n, 1.2 if n == 5 else 1.0, 1.0)
          for e in (10.0, 20.0, 80.0) for n in (2, 4, 5)],
        *[(20.0, 3, r, h) for r, h in _RANDOM_RH],
    ])
    def test_local_defect_matches_three_call_reference(self, exponent, n, r, h):
        prof, frames, x = _half_sector_frames(math.exp(-exponent), r, h, n)
        for f in frames:
            z = np.einsum("ij,...j->...i", f.Mj_inv, x - f.P)
            new = stream._local_defect(prof, z, frames[0])
            assert new.shape == x.shape[:-1]
            assert np.array_equal(new, _local_defect_ref(prof, z, frames[0]))

    @pytest.mark.parametrize("exponent", [10.0, 80.0])
    def test_each_method_matches_its_standalone_call(self, rng, exponent):
        prof = LocalProfile(math.exp(-exponent), 2.3, 0.3, -0.8)
        s = prof.eps_mu
        for z in (
            np.concatenate([rng.normal(size=(200, 2)) * c for c in (s, 1e-5, 0.3)]),
            rng.normal(size=(4, 6, 2)) * 0.2,
            np.array([0.1, -0.2]),
        ):
            t = prof._terms(z)
            for method in ("value", "grad", "hess", "laplacian"):
                shared = getattr(prof, method)(z, terms=t)
                alone = getattr(prof, method)(z)
                assert shared.shape == alone.shape
                assert np.array_equal(shared, alone), method

    def test_error_g_evaluates_the_kernels_once_per_frame_and_block(self, ctx_cache,
                                                                    rng, monkeypatch):
        ctx = ctx_cache(20.0)
        calls = []
        kernels = liouville._kernels

        def counting(t):
            calls.append(np.size(t))
            return kernels(t)

        monkeypatch.setattr(liouville, "_kernels", counting)
        rho = np.concatenate([rng.uniform(0.0, 0.5, 40), rng.uniform(0.5, 1.0, 30)])
        phi = rng.uniform(0.0, 2.0 * np.pi, rho.size)
        x = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
        stream.error_g(x, ctx.profile, ctx.frames)
        # inner block: one per frame for grad and hess together; ring block:
        # one per frame for value and grad together (the three-call path made 12)
        assert len(ctx.frames) == 3
        assert calls == [70, 70, 70, 30, 30, 30]


class TestDeltaValue:
    @pytest.mark.parametrize("exponent", [10.0, 20.0, 40.0, 80.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_reference_on_every_vertex_pair(self, rng, exponent, n):
        # the increments _inner_terms takes: far vertex z0 = M_j^-1 (P_i - P_j),
        # dz = eps mu M_j^-1 M_i y for |y| from the deep core to the sup grid
        eps = math.exp(-exponent)
        R = 1.0 / math.sqrt(exponent)
        mu = math.exp(stream.solve_mu(eps, 1.0, 1.0, n, 2.0 * (2.0 - n)))
        prof = LocalProfile(eps, mu, R, 1.0)
        z0, dd = stream._far_geometry(tuple(local_frame(j, n, R, 1.0)
                                            for j in range(1, n + 1)))
        rad = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), 4000))
        phi = rng.uniform(0.0, 2.0 * np.pi, rad.size)
        y = np.stack([rad * np.cos(phi), rad * np.sin(phi)], axis=-1)
        for i in range(n):
            for col in range(n - 1):
                dz = prof.eps_mu * np.einsum("ij,...j->...i", dd[i, col], y)
                new = prof.delta_value(z0[i, col], dz)
                assert new.shape == y.shape[:-1]
                assert np.array_equal(new, _delta_value_ref(prof, z0[i, col], dz))


class TestCube:
    """The cube of P3 = Re(z^3) is x * x * x (two roundings), not libm pow.

    Its error is bounded against the exact cube of the float inputs: x^3
    rounds twice, 3 x y^2 three times and the difference once, so
    |p3 - exact| <= 2 eps (|x|^3 + 3 |x| y^2), eps = 2^-52 (measured: 1.33).
    """

    @staticmethod
    def _assert_near_exact(x, y, p3):
        x, y, p3 = (np.ravel(a) for a in (x, y, p3))
        assert x.size and p3.shape == x.shape
        eps = Fraction(np.finfo(float).eps)
        for a, b, v in zip(x.tolist(), y.tolist(), p3.tolist()):
            fa, fb = Fraction(a), Fraction(b)
            exact = fa**3 - 3 * fa * fb**2
            assert abs(Fraction(v) - exact) <= 2 * eps * (abs(fa) ** 3 + 3 * abs(fa) * fb**2)

    @staticmethod
    def _points(rng, n=3000):
        mag = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), n))
        z = rng.normal(size=(n, 2)) * mag[:, None]
        z[: n // 4, 1] = z[: n // 4, 0] / math.sqrt(3.0)    # x^3 ~ 3 x y^2
        return z

    def test_profile_terms(self, rng):
        prof = LocalProfile(math.exp(-20.0), 7.0, 0.2, 1.0)
        z = self._points(rng)
        self._assert_near_exact(z[:, 0], z[:, 1], prof._terms(z).p3)

    def test_inner_terms(self, ctx_cache, rng, monkeypatch):
        cube, seen = liouville._re_cube, []

        def spy(x, y):
            out = cube(x, y)
            seen.append((x, y, out))
            return out

        ctx, y = ctx_cache(20.0), self._points(rng) * 1e-2
        monkeypatch.setattr(liouville, "_re_cube", spy)
        stream._inner_terms(y, ctx, 1)
        # P3(y) of the vertex itself, then P3 at each far vertex (delta_value)
        assert len(seen) == 1 + 2
        assert np.array_equal(seen[0][0], y[:, 0]) and np.array_equal(seen[0][1], y[:, 1])
        for x_, y_, p3 in seen:
            self._assert_near_exact(x_, y_, p3)


class TestBandedModeMatrix:
    @pytest.mark.parametrize("k2", [0.0, 1.0, 1936.0])
    def test_matches_loop_reference(self, k2):
        spec = elliptic.PolarGridSpec(n_radial=257)
        u = spec.u_nodes()
        rho = np.exp(u)
        h = 0.8
        beta = h * h / (h * h + rho * rho)
        beta_u = -2.0 * beta * rho * rho / (h * h + rho * rho)
        new = elliptic._radial_stencil(u, beta, beta_u, np.full(u.size, -k2))
        assert np.array_equal(new, _row_aligned(_banded_mode_matrix_ref(u, beta, beta_u, k2)))

    @pytest.mark.parametrize("ks", [(3,), (6, 9), (3, 6, 9, 129)])
    def test_mode_factor_bands_match_loop_reference(self, ks):
        spec = elliptic.PolarGridSpec()
        u = spec.u_nodes()
        beta, beta_u = elliptic._beta(u, 1.0)
        bands = elliptic._mode_factor(spec, 1.0, ks)._bands
        for j, k in enumerate(ks):
            ab = _banded_mode_matrix_ref(u, beta, beta_u, float(k * k))
            ab[2, 0] = ab[2, -1] = 1.0
            assert np.array_equal(_mode_system(spec, 1.0, k), ab)
            assert np.array_equal(bands[..., j], _row_aligned(ab))


def _dense(bands):
    """Dense n x n form of one matrix's row-aligned bands."""
    n = bands.shape[1]
    A = np.zeros((n, n))
    for d in range(5):
        for i in range(n):
            if 0 <= i - 2 + d < n:
                A[i, i - 2 + d] = bands[d, i]
    return A


class TestRadialSystem:
    """Bands, right-hand side and border of a radial mode against the lil reference."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("bordered", [False, True])
    def test_csc_matches_lil_reference(self, rng, k, bordered):
        u = np.linspace(np.log(1e-5), np.log(100.0), 300)
        rho = np.exp(u)
        h_k = rng.normal(size=u.size) / (1.0 + rho**4)
        border = None
        if bordered:
            border = linear_theory._z0_radial(rho) if k == 0 else linear_theory._z1_radial(rho)
        bands, rhs, col, row = linear_theory._radial_rows(u, k, h_k[:, None], border)
        M, rhs = _dense(bands), rhs[:, 0]
        if bordered:
            M = np.block([[M, -col[:, None]], [row[None, :], np.zeros((1, 1))]])
            rhs = np.concatenate([rhs, [0.0]])
        else:
            assert col is None and row is None
        M_ref, rhs_ref = _radial_system_ref(u, k, h_k, border)
        assert np.array_equal(M, M_ref.toarray())
        assert np.array_equal(rhs, rhs_ref)


@functools.lru_cache(maxsize=None)
def _mode_system_k0(spec, h):
    u = spec.u_nodes()
    return _banded_mode_matrix_ref(u, *elliptic._beta(u, h), 0.0)


def _mode_system(spec, h, k):
    """solve_banded form of the H2 mode-k system with its Dirichlet edge rows.

    The loop reference at k = 0 plus -k^2 on the diagonal: the same sums
    as the loop reference at k, without its Python loop per k.
    """
    ab = _mode_system_k0(spec, h).copy()
    ab[2, 1:-1] += -float(k * k)
    ab[2, 0] = ab[2, -1] = 1.0
    return ab


class TestBanded:
    KS = tuple(range(1, 129))

    # n = 5 is below the block size and 100 no multiple of it
    @pytest.mark.parametrize("n", [5, 64, 96, 100, 128, 256, 512, 1024])
    @pytest.mark.parametrize("h", [0.3, 0.5, 1.0, 2.0, 4.0, -1.0])
    def test_mode_systems_match_solve_banded(self, rng, h, n):
        spec = elliptic.PolarGridSpec(n_radial=n)
        rho = spec.radial_nodes()
        factor = elliptic._mode_factor(spec, h, self.KS)
        # smooth sources of the H2 form e^{2u} g(rho), one per mode
        g = (rho**2 * np.exp(-rho**2 / 0.1))[:, None] * (
            1.0 + np.sin(np.array(self.KS)) * rho[:, None])
        smooth = np.stack([g, -0.3 * g], axis=-1)
        noise = rng.normal(size=smooth.shape)
        for rhs in (smooth, noise):
            rhs[[0, -1]] = 0.0
        x, x_noise = factor.solve(smooth), factor.solve(noise)
        # the condition number of these systems grows like n^2; at n = 1024
        # solve_banded is itself 1.1e-13 from an extended-precision solution
        tol = 1e-13 * max(1.0, (n / 512) ** 2)
        for j, k in enumerate(self.KS):
            ab = _mode_system(spec, h, k)
            ref = solve_banded((2, 2), ab, smooth[:, j])
            assert np.max(np.abs(x[:, j] - ref)) <= tol * np.max(np.abs(ref))
        # random sources: backward stable, normwise residual at rounding level
        norm_a = np.max(np.sum(np.abs(factor._bands), axis=0), axis=0)
        resid = np.max(np.abs(factor.matvec(x_noise) - noise), axis=0)
        assert np.all(resid <= 1e-15 * norm_a[:, None] * np.max(np.abs(x_noise), axis=0))

    @pytest.mark.parametrize("n", [5, 100, 512])
    def test_solution_independent_of_batch(self, rng, n):
        spec = elliptic.PolarGridSpec(n_radial=n)
        rhs = rng.normal(size=(n, len(self.KS), 3))
        full = elliptic._mode_factor(spec, 0.8, self.KS).solve(rhs)
        for ks in [(17,), (90, 3, 17), self.KS[::-1], self.KS[40:]]:
            cols = [self.KS.index(k) for k in ks]
            part = elliptic._mode_factor(spec, 0.8, ks).solve(rhs[:, cols])
            assert np.array_equal(part, full[:, cols])


def _bordered_ref(u, k, h_k, border):
    """spsolve of the lil reference bordered system: (phi, d, matrix, rhs)."""
    B, rhs = _radial_system_ref(u, k, h_k, border)
    B = B.tocsc()
    x = spsolve(B, rhs)
    return x[:-1], x[-1], B, rhs


class TestBorderedSolve:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sources_match_spsolve(self, seed):
        rng = np.random.default_rng(seed)
        u = np.linspace(np.log(1e-5), np.log(100.0), 3072)
        rho = np.exp(u)
        hc, hs = rng.normal(size=(2, u.size, 2)) / (1.0 + rho**4)[:, None]
        phi, d = linear_theory._radial_solve(u, hc, hs)
        z0, z1 = linear_theory._z0_radial(rho), linear_theory._z1_radial(rho)
        cases = [(0, hc[:, 0], z0, phi[:, 0, 0], d[0, 0]),
                 (1, hc[:, 1], z1, phi[:, 1, 0], d[1, 0]),
                 (1, hs[:, 1], z1, phi[:, 1, 1], d[1, 1])]
        for k, h_k, border, phi_k, d_k in cases:
            phi_ref, d_ref, B, rhs = _bordered_ref(u, k, h_k, border)
            x = np.concatenate([phi_k, [d_k]])
            norm_b = abs(B).sum(axis=1).max()
            resid = np.max(np.abs(B @ x - rhs))
            assert resid <= 1e-14 * (norm_b * np.max(np.abs(x)) + np.max(np.abs(rhs)))
            assert np.max(np.abs(phi_k - phi_ref)) <= 1e-9 * np.max(np.abs(phi_ref))
            assert abs(d_k - d_ref) <= 1e-8 * max(1.0, abs(d_ref))


def test_h2_modes_independent_of_factor_cache():
    spec = elliptic.PolarGridSpec(n_radial=96, n_angular=24)

    def modes():
        return stream.build_context(math.exp(-20.0), 1.0, 1.0, 3, grid=spec).h2._modes

    elliptic._mode_factor.cache_clear()
    cold = modes()
    elliptic._mode_factor.cache_clear()
    stream.build_context(math.exp(-20.0), 1.0, 0.7, 3, grid=spec)
    warm = modes()
    assert np.array_equal(cold, warm)
    # and once more with this factor already cached
    assert np.array_equal(cold, modes())


class TestSectorFilledDefect:
    # n_angular / N = 9, 8, 3 and 8 columns per sector: odd and even
    @pytest.mark.parametrize("n,n_angular", [(2, 18), (3, 24), (4, 12), (5, 40)])
    def test_matches_full_grid(self, monkeypatch, rng, n, n_angular):
        spec = elliptic.PolarGridSpec(n_radial=96, n_angular=n_angular)
        ctx = stream.build_context(math.exp(-20.0), 1.0, 1.0, n, grid=spec)
        assert ctx.grid == spec
        seen = []

        def capture(g, grid, h, n, anchor):
            seen.append(g)
            return elliptic.solve_k_poisson(g, grid, h, n, anchor=anchor)

        monkeypatch.setattr(stream, "solve_k_poisson", capture)
        h2 = stream.solve_H2(ctx.profile, ctx.frames, ctx.h, spec)
        g_ref = _g_grid_ref(ctx, spec)
        # the half-sector columns are evaluated directly, and the symmetry
        # gives every other column to rounding
        half = n_angular // n // 2 + 1
        assert np.array_equal(seen[0], g_ref[:, :half])
        g_full = _sector_fill(seen[0], n_angular, n)
        assert np.max(np.abs(g_full - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        ref = _h2_complex_ref(g_full, spec, ctx.h, ctx.frames[0].P)
        assert np.array_equal(h2._k, ref._k)
        rho = np.exp(rng.uniform(np.log(1e-8), np.log(40.0), 500))
        theta = rng.uniform(-np.pi, np.pi, 500)
        _assert_h2_matches(h2, ref, np.stack([rho * np.cos(theta), rho * np.sin(theta)], -1))


def _dihedral_source(spec, n):
    """Half-sector samples of a D_n-symmetric source with several modes."""
    rho = spec.radial_nodes()[:, None]
    theta = spec.theta_nodes()[None, : spec.n_angular // n // 2 + 1]
    return np.exp(-rho**2 / 0.1) * (
        1.0 + np.cos(n * theta) + 0.5 * np.cos(2 * n * theta) + 0.2 * np.cos(4 * n * theta)
    ) * (rho < 1.0)


class TestH2CosineSeries:
    # sectors of s = n_angular/N = 9, 12, 9, 8, 7, 8, 5 and 8 angles
    CASES = [(2, 18), (2, 24), (3, 27), (3, 24), (4, 28), (4, 32), (5, 25), (5, 40)]

    @pytest.fixture(scope="class", params=CASES, ids=[f"N{n}-{nt}" for n, nt in CASES])
    def pair(self, request):
        n, n_angular = request.param
        spec = elliptic.PolarGridSpec(n_radial=128, n_angular=n_angular)
        g = _dihedral_source(spec, n)
        anchor = np.array([0.3, 0.1])
        h2 = elliptic.solve_k_poisson(g, spec, 0.8, n, anchor=anchor)
        assert h2._k.size > 1 and h2.offset != 0.0
        return h2, _h2_complex_ref(_sector_fill(g, n_angular, n), spec, 0.8, anchor)

    @pytest.mark.parametrize("shape", [(1,), (9,), (5000,), (3, 4)])
    def test_matches_complex_modes(self, pair, rng, shape):
        # radii from inside rho_min to beyond rho_max
        rho = np.exp(rng.uniform(np.log(1e-8), np.log(40.0), shape))
        theta = rng.uniform(-np.pi, np.pi, shape)
        _assert_h2_matches(*pair, np.stack([rho * np.cos(theta), rho * np.sin(theta)], -1))

    def test_single_point_input(self, pair):
        for x in (np.array([0.2, -0.3]), np.array([1e-9, 0.0]), np.array([0.0, 30.0])):
            _assert_h2_matches(*pair, x)

    @settings(max_examples=25, deadline=None)
    @given(rho=st.floats(1e-7, 30.0), theta=st.floats(-np.pi, np.pi), j=st.integers(1, 4))
    def test_dihedral_invariance(self, pair, rho, theta, j):
        h2, _ = pair
        scale = np.max(np.abs(h2.grid))
        x = rho * np.array([np.cos(theta), np.sin(theta)])
        rot = j * 2.0 * np.pi / h2.n
        Q = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        v = h2.value(x)
        assert abs(h2.value(Q @ x) - v) <= 1e-14 * scale
        assert abs(h2.value(x * np.array([1.0, -1.0])) - v) <= 1e-14 * scale

    @pytest.mark.parametrize("n,width", [(3, 22), (3, 24), (4, 16), (5, 14)])
    def test_rejects_samples_off_the_half_sector(self, n, width):
        # 24 angles: 5 half-sector columns for N = 3, 4 for N = 4; 5 does not divide 24
        spec = elliptic.PolarGridSpec(n_radial=64, n_angular=24)
        with pytest.raises(ValueError, match="half-sector"):
            elliptic.solve_k_poisson(np.zeros((64, width)), spec, 1.0, n)
        with pytest.raises(ValueError, match="half-sector"):
            elliptic.solve_k_poisson(np.zeros((63, 24 // n // 2 + 1)), spec, 1.0, n)


def _knot_derivatives_mp(x, y, dps=40):
    """Knot derivatives of the not-a-knot spline through the float data
    (x, y[:, j]): its tridiagonal system set up and solved by Thomas
    elimination in mpmath at `dps` digits, then rounded to floats."""
    mpf = mpmath.mpf
    n = x.size
    out = np.empty(y.shape)
    with mpmath.workdps(dps):
        xs = [mpf(float(v)) for v in x]
        dx = [b - a for a, b in zip(xs, xs[1:])]
        for j in range(y.shape[1]):
            ys = [mpf(float(v)) for v in y[:, j]]
            sl = [(b - a) / d for a, b, d in zip(ys, ys[1:], dx)]
            sub, diag, sup, rhs = ([mpf(0)] * n for _ in range(4))
            for i in range(1, n - 1):
                sub[i], diag[i], sup[i] = dx[i], 2 * (dx[i - 1] + dx[i]), dx[i - 1]
                rhs[i] = 3 * (dx[i] * sl[i - 1] + dx[i - 1] * sl[i])
            d = xs[2] - xs[0]
            diag[0], sup[0] = dx[1], d
            rhs[0] = ((dx[0] + 2 * d) * dx[1] * sl[0] + dx[0] ** 2 * sl[1]) / d
            d = xs[-1] - xs[-3]
            diag[-1], sub[-1] = dx[-2], d
            rhs[-1] = (dx[-1] ** 2 * sl[-2] + (2 * d + dx[-1]) * dx[-2] * sl[-1]) / d
            for i in range(1, n):
                w = sub[i] / diag[i - 1]
                diag[i] -= w * sup[i - 1]
                rhs[i] -= w * rhs[i - 1]
            yp = [rhs[-1] / diag[-1]]
            for i in range(n - 2, -1, -1):
                yp.append((rhs[i] - sup[i] * yp[-1]) / diag[i])
            out[:, j] = [float(v) for v in yp[::-1]]
    return out


def _spline_data(n, columns=6):
    """n log-radius knots as on the H2 grid, random columns decaying outwards."""
    x = np.linspace(np.log(1e-6), np.log(20.0), n)
    y = np.random.default_rng(n).normal(size=(n, columns)) * np.exp(-np.exp(x))[:, None]
    return x, y


def _max_rel(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


class TestColumnSpline:
    # 4 knots is the fewest; 9 and 201 = 8k + 1 leave one real row in the
    # last block of _Banded's LU
    KNOTS = [4, 9, 200, 201, 512, 3072]

    @pytest.mark.parametrize("n", KNOTS)
    def test_knot_derivatives_match_extended_precision(self, n):
        # measured at most 3.8e-16; scipy's CubicSpline is 3.3e-16 from it
        x, y = _spline_data(n)
        ref = _knot_derivatives_mp(x, y)
        _, deriv = elliptic._ColumnSpline(x, y).with_derivative(x)
        assert _max_rel(deriv, ref) <= 2e-15

    @pytest.mark.parametrize("n", KNOTS)
    @pytest.mark.parametrize("n_points", [1, 9, 5000])
    def test_matches_cubic_spline(self, n, n_points):
        x, y = _spline_data(n)
        rng = np.random.default_rng(n_points)
        # interior points, every knot and the last point before the end
        u = np.concatenate([rng.uniform(x[0], x[-1], n_points), x,
                            [np.nextafter(x[-1], 0.0)]])
        ref = CubicSpline(x, y, axis=0)
        spline = elliptic._ColumnSpline(x, y)
        value, deriv = spline.with_derivative(u)
        assert value.dtype == y.dtype and value.shape == (u.size, y.shape[1])
        assert np.array_equal(spline(u), value)
        # measured at most 8.6e-16
        assert _max_rel(value, ref(u)) <= 1e-14
        assert _max_rel(deriv, ref.derivative()(u)) <= 1e-14

    @pytest.mark.parametrize("n", KNOTS)
    def test_end_polynomials_beyond_the_knots(self, n):
        # a distance s beyond an end knot, the end cubic magnifies the
        # rounding of its coefficients by about (s/dx)^3 (measured at most
        # 6.7e-16 (s/dx)^3 of max|y|); H2Correction and ProjectedSolution
        # clip u to the knots, so only the spline itself evaluates there
        x, y = _spline_data(n)
        s = 0.5
        u = np.array([x[0] - s, x[-1] + s])
        ref = CubicSpline(x, y, axis=0)
        value, deriv = elliptic._ColumnSpline(x, y).with_derivative(u)
        growth = max(1.0, (s / (x[1] - x[0])) ** 3)
        assert np.max(np.abs(value - ref(u))) <= 1e-14 * growth * np.max(np.abs(y))
        assert np.max(np.abs(deriv - ref.derivative()(u))) \
            <= 1e-14 * growth * np.max(np.abs(ref.derivative()(x)))

    def test_columns_agree_with_single_column_splines(self):
        # not bit for bit: the batched matmul of _Banded.solve picks its
        # BLAS kernel by the number of columns (measured 6.6e-16)
        x, y = _spline_data(200, columns=45)
        u = np.linspace(x[0], x[-1], 777)
        both = elliptic._ColumnSpline(x, y)(u)
        for j in range(y.shape[1]):
            one = elliptic._ColumnSpline(x, y[:, j:j + 1])(u)[:, 0]
            assert np.max(np.abs(both[:, j] - one)) <= 2e-15 * np.max(np.abs(y[:, j]))

    def test_one_factor_per_knot_set(self):
        # the knot factor is cached on the knots' bytes: splines on the same
        # knots share it and give the bytes of a fresh factor; other knots
        # of the same count get their own
        x, y = _spline_data(200, columns=3)
        u = np.linspace(x[0], x[-1], 333)
        elliptic._knot_factor.cache_clear()
        first = elliptic._ColumnSpline(x, y)(u)
        again = elliptic._ColumnSpline(x, 2.0 * y)(u)
        info = elliptic._knot_factor.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        elliptic._knot_factor.cache_clear()
        assert np.array_equal(elliptic._ColumnSpline(x, 2.0 * y)(u), again)
        assert np.array_equal(first, elliptic._ColumnSpline(x, y)(u))
        x2 = x[0] + (x - x[0]) ** 2 / (x[-1] - x[0])
        other = elliptic._ColumnSpline(x2, y)(u)
        assert elliptic._knot_factor.cache_info().misses == 2
        assert _max_rel(other, CubicSpline(x2, y, axis=0)(u)) <= 1e-14


class TestCumulativeSimpson:
    # scipy's rule for points x reads the step of every interval from
    # np.diff(x), which differs from the uniform step by up to about
    # ulp(max|x|)/dx relative; on n nodes that grows like n
    @pytest.mark.parametrize("n", [3, 4, 5, 129, 512, 3072])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        x = np.linspace(-2.0, 3.0, n)
        y = np.sin(x) + rng.normal(size=n)
        got = elliptic._cumulative_simpson(y, x[1] - x[0])
        # measured at most 2.4e-15 and 3.7e-14 (at 3,072 nodes)
        assert _max_rel(got, cumulative_simpson(y, dx=x[1] - x[0], initial=0.0)) <= 1e-14
        assert _max_rel(got, cumulative_simpson(y, x=x, initial=0.0)) <= 2e-16 * n

    @pytest.mark.parametrize("n", [257, 512, 3072])
    def test_radial_mode(self, rng, n):
        spec = elliptic.PolarGridSpec(n_radial=n)
        u = spec.u_nodes()
        rho = np.exp(u)
        beta = 0.64 / (0.64 + rho * rho)
        g0 = np.exp(-rho**2) * (1.0 + rng.normal(size=u.size))
        f0, G = elliptic._solve_mode0(u, beta, g0)
        G_ref = cumulative_simpson(np.exp(2.0 * u) * g0, x=u, initial=0.0)
        f0_ref = -cumulative_simpson(G_ref / beta, x=u, initial=0.0)
        # measured 2.6e-14 at 512 nodes and 1.8e-13 at 3,072
        assert _max_rel(G, G_ref) <= 2e-16 * n
        assert _max_rel(f0, f0_ref) <= 2e-16 * n


class TestProjectedSolutionSpline:
    def test_phi_matches_per_mode_splines(self, rng):
        h = lambda y: np.exp(-np.einsum("...i,...i->...", y, y)) * (
            0.3 + 0.7 * y[..., 0] - 0.4 * y[..., 1] + 0.2 * y[..., 0] * y[..., 1]
        )
        sol = linear_theory.projected_solve(h, n_radial=512)
        assert len(sol.cos_modes) > 1 and len(sol.sin_modes) > 1
        rho = np.exp(rng.uniform(np.log(1e-6), np.log(200.0), 50))
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        y = np.stack([rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)],
                     axis=-1)
        # measured 1.3e-16
        ref = _phi_ref(sol, y)
        assert _max_rel(sol.phi(y), ref) <= 1e-14
        assert abs(sol.phi(y[3, 5]) - ref[3, 5]) <= 1e-14 * np.max(np.abs(ref))


def test_gamma_constants_fixed_rule():
    for g in linear_theory.gamma_constants():
        assert abs(g - 3.0 / (32.0 * math.pi)) <= 1e-14


_TINY_LIFT = """
[stream]
epsilon = e^-20
r = 1.0
h = 1.0
n = 3
grid.radial = 64
grid.angular = 24

[grid]
extent = 0.8
nx = 5
ny = 5
nz = 3
"""


class TestLiftBox:
    @pytest.fixture()
    def run(self, tmp_path, monkeypatch):
        """Run a tiny lift-3d; return its box rows, context and psi_star call count."""
        seen = {"psi_star": 0}
        build, write, psi = cli._build_ctx, cli.write_csv, stream.psi_star

        def build_spy(cfg, eps, alpha=None):
            seen["ctx"] = build(cfg, eps, alpha)
            return seen["ctx"]

        def write_spy(path, header, rows):
            rows = list(rows)
            if path.name == "omega_box.csv":
                seen["rows"] = rows
            write(path, header, rows)

        def psi_spy(x, ctx):
            seen["psi_star"] += 1
            return psi(x, ctx)

        monkeypatch.setattr(cli, "_build_ctx", build_spy)
        monkeypatch.setattr(cli, "write_csv", write_spy)
        monkeypatch.setattr(stream, "psi_star", psi_spy)
        cfg = tmp_path / "lift.ini"
        cfg.write_text(_TINY_LIFT)
        assert cli.main(["lift-3d", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        return seen

    def test_rows_match_column_loop(self, run):
        from helix_kmd.lift import lifted_field, stream_vorticity

        ctx = run["ctx"]
        xs = ys = np.linspace(-0.8, 0.8, 5)
        zs = np.linspace(0.0, 2.0 * np.pi * abs(ctx.h), 3, endpoint=False)
        ref = _box_rows_ref(lifted_field(stream_vorticity(ctx), ctx.h), xs, ys, zs)
        assert len(run["rows"]) == 75
        assert all(type(v) is float for row in run["rows"] for v in row)
        assert np.array_equal(np.array(run["rows"]), np.array(ref))

    def test_box_is_one_psi_star_call(self, run):
        # one call for the box, the rest for the symmetry defect; one call
        # per (x, y) column would make more than 25
        assert run["psi_star"] <= 5


_B = stream._POINT_BLOCK


def _kernel_inputs(ctx, rng, size):
    """Points for error_g and residual_S (a quarter of them deep in a vertex
    core, where residual_S takes the scaled assembly) and for
    inner_residual_scaled, each shaped size + (2,)."""
    n = math.prod(size)
    x = rng.uniform(-1.1, 1.1, size=(n, 2))
    deep = rng.random(n) < 0.25
    frame = rng.integers(0, ctx.n, n)
    y = rng.uniform(-5.0, 5.0, size=(n, 2))
    for j, f in enumerate(ctx.frames):
        sel = deep & (frame == j)
        x[sel] = f.P + ctx.eps_mu * y[sel] @ f.Mj.T
    return x.reshape(size + (2,)), rng.uniform(-40.0, 40.0, size=size + (2,))


def _kernels(ctx):
    """(name, blocked call, whole-array call) of each routed point kernel."""
    return [
        ("error_g", lambda x, y: stream.error_g(x, ctx.profile, ctx.frames),
         lambda x, y: stream._error_g(x, ctx.profile, ctx.frames)),
        ("residual_S", lambda x, y: stream.residual_S(x, ctx),
         lambda x, y: stream._residual_S(x, ctx)),
        ("inner_residual_scaled", lambda x, y: stream.inner_residual_scaled(y, ctx, 2),
         lambda x, y: stream._inner_residual_scaled(y, ctx, 2)),
    ]


class TestPointBlocks:
    SIZES = [(_B - 1,), (_B,), (_B + 1,), (2 * _B + 3,), (61, 97)]

    @pytest.mark.parametrize("size", SIZES, ids=lambda s: "x".join(map(str, s)))
    def test_blocks_match_one_whole_array_call(self, ctx_cache, rng, size):
        ctx = ctx_cache(20.0)
        x, y = _kernel_inputs(ctx, rng, size)
        for name, blocked, whole in _kernels(ctx):
            got, ref = blocked(x, y), whole(x, y)
            assert got.shape == size, name
            assert np.array_equal(got, ref), name

    def test_pool_threads_evaluate_whole_arrays(self, ctx_cache, rng, monkeypatch):
        ctx = ctx_cache(20.0)
        x, y = _kernel_inputs(ctx, rng, (2 * _B + 3,))
        calls = []
        body = stream._error_g

        def counting(*args):
            calls.append(len(args[0]))
            return body(*args)

        monkeypatch.setattr(stream, "_error_g", counting)
        serial = {name: blocked(x, y) for name, blocked, _ in _kernels(ctx)}
        assert calls == [_B, _B, 3]
        calls.clear()
        with ThreadPoolExecutor(2) as pool:
            pooled = {name: pool.submit(blocked, x, y)
                      for name, blocked, _ in _kernels(ctx)}
            pooled = {name: fut.result(timeout=120) for name, fut in pooled.items()}
        # one whole-array call while the pool's threads are alive
        assert calls == [2 * _B + 3]
        for name in serial:
            assert np.array_equal(pooled[name], serial[name]), name

    def test_error_g_peak_memory_on_the_defect_grid(self, ctx_cache):
        # the half-sector of the default grid that solve_H2 samples
        ctx = ctx_cache(20.0)
        grid = ctx.grid
        rho = grid.radial_nodes()
        theta = grid.theta_nodes()[: grid.n_angular // ctx.n // 2 + 1]
        x = elliptic._polar_points(rho[rho <= 1.02], theta)
        assert x[..., 0].size > 4 * _B
        stream.error_g(x, ctx.profile, ctx.frames)
        tracemalloc.start()
        try:
            stream.error_g(x, ctx.profile, ctx.frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 6.4 MB in one whole-array call, 1.5 MB in blocks
        assert peak < 2.5e6
