import math
from types import SimpleNamespace

import numpy as np
import pytest

from helix_kmd.lift import (
    bump_test_field,
    fd_divergence,
    filament_curves,
    helical_symmetry_defect,
    lifted_field,
    stream_vorticity,
    weak_convergence_gap,
)
from helix_kmd.lift import _rotate_planar
from helix_kmd.screw_operator import local_frame


def gaussian_w(xp):
    return np.exp(-np.einsum("...i,...i->...", xp, xp) / 2.0)


class TestLift:
    def test_midplane_components(self):
        x = np.array([[0.3, 0.4, 0.0]])
        h = 1.3
        w0 = gaussian_w(x[:, :2])
        out = lifted_field(gaussian_w, h)(x)
        assert out[0, 2] == pytest.approx(float(w0[0]))
        assert out[0, 0] == pytest.approx(float(-0.4 / h * w0[0]))
        assert out[0, 1] == pytest.approx(float(0.3 / h * w0[0]))

    def test_radial_scalar_axially_invariant(self, rng):
        pts = rng.uniform(-1, 1, size=(20, 3))
        shifted = pts.copy()
        shifted[:, 2] += 1.7
        f = lifted_field(gaussian_w, 0.8)
        assert np.max(np.abs(f(pts)[:, 2] - f(shifted)[:, 2])) < 1e-15

    def test_divergence_free(self, rng):
        f = lifted_field(gaussian_w, 1.3)
        pts = rng.uniform(-1.5, 1.5, size=(60, 3))
        assert np.max(np.abs(fd_divergence(f, pts))) < 1e-5

    def test_axial_periodicity(self, rng):
        h = 0.9
        f = lifted_field(lambda xp: xp[..., 0] ** 2 - xp[..., 1], h)
        pts = rng.uniform(-1, 1, size=(20, 3))
        shifted = pts.copy()
        shifted[:, 2] += 2.0 * math.pi * h
        assert np.max(np.abs(f(pts) - f(shifted))) < 1e-12


class TestSymmetry:
    def test_lifted_field_exact(self):
        f = lifted_field(lambda xp: xp[..., 0] * np.exp(-np.sum(xp * xp, -1)), 1.1)
        for rho in (0.37, -1.1, 2.0):
            assert helical_symmetry_defect(f, 1.1, rho) < 1e-12

    def test_full_turn_periodicity(self):
        f = lifted_field(gaussian_w, 1.1)
        assert helical_symmetry_defect(f, 1.1, 2.0 * math.pi) < 1e-12

    def test_non_helical_control(self):
        def g(x):
            return np.broadcast_to(np.array([1.0, 0.0, 0.0]), x.shape).copy()

        assert helical_symmetry_defect(g, 1.1, 0.37) > 0.1


def _volume_ref(ctx, test_field, n_axial):
    """The volume pairing as one pass per frame and axial slice, summed in that order,
    with vertex 1's scaled vorticity in every frame."""
    from helix_kmd.stream import _eta_of_s, _inner_terms, _polar_gauss_rule

    h = ctx.h
    period = 2.0 * np.pi * abs(h)
    s3 = np.arange(n_axial) * (period / n_axial)
    y, wq = _polar_gauss_rule(ctx, 0.9, 40.0, 2.0, 16, 48)
    y, wq = y.reshape(-1, 2), wq.ravel()
    volume = 0.0
    det_m = float(np.linalg.det(ctx.frames[0].M))
    ds, u, s_arg = _inner_terms(y, ctx)
    eta, _ = _eta_of_s(ctx, s_arg)
    w_scaled = u * eta * np.exp(ds)
    for f in ctx.frames:
        xi = f.P + ctx.eps_mu * np.einsum("ij,...j->...i", f.Mj, y)
        for x3 in s3:
            xp = _rotate_planar(xi, x3 / h)
            pts = np.concatenate([xp, np.full(xp.shape[:-1] + (1,), x3)], axis=-1)
            phi = test_field(pts)
            integrand = w_scaled * (
                -xp[..., 1] / h * phi[..., 0]
                + xp[..., 0] / h * phi[..., 1]
                + phi[..., 2]
            )
            volume += det_m * float(np.sum(integrand * wq)) * (period / n_axial)
    return volume


class TestWeakConvergence:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("n_axial", [7, 48, 96])
    def test_volume_matches_per_frame_slice_loop(self, ctx_cache, n, n_axial):
        ctx = ctx_cache(20.0, n=n)
        period = 2.0 * math.pi * abs(ctx.h)
        # off-centre bumps through the first core: every component of the
        # pairing, the planar ones included, is nonzero
        center = _rotate_planar(ctx.frames[0].P, 0.3) + np.array([0.02, -0.01])
        for component in (0, 1, 2):
            phi = bump_test_field(center, 0.3, period / 3.0, period / 4.0, component)
            gap, volume, line = weak_convergence_gap(ctx, phi, n_axial=n_axial,
                                                     return_parts=True)
            assert volume != 0.0
            assert volume == _volume_ref(ctx, phi, n_axial)
            assert gap == volume - line

    def test_disjoint_supports(self, ctx_cache):
        ctx = ctx_cache(20.0)
        phi = bump_test_field(np.array([3.0, 0.0]), 0.4, math.pi, 1.0)
        assert weak_convergence_gap(ctx, phi) == pytest.approx(0.0, abs=1e-12)

    def test_single_filament_mass(self, ctx_cache):
        ctx = ctx_cache(40.0)
        center = _rotate_planar(ctx.frames[0].P, 0.3)
        chi = bump_test_field(center, 0.12, 0.3, 0.45)
        gap, vol, line = weak_convergence_gap(ctx, chi, n_axial=160,
                                              return_parts=True)
        period = 2.0 * math.pi * abs(ctx.h)
        ss = np.linspace(0, period, 3000, endpoint=False)
        pts, tan = filament_curves(ctx, ss)
        weights = np.einsum("...i,...i->...", chi(pts[0]), tan[0])
        l1 = 8 * math.pi * np.sum(weights) * (period / 3000)
        assert abs(vol - l1) / abs(l1) < 0.05

    def test_gap_decreases_along_sweep(self, ctx_cache):
        phi = bump_test_field(np.zeros(2), 0.7, math.pi, math.pi * 0.8)
        gaps = [abs(weak_convergence_gap(ctx_cache(ex), phi, n_axial=96))
                for ex in (10.0, 20.0, 40.0)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_lifted_stream_field_symmetry(self, ctx_cache):
        ctx = ctx_cache(20.0)
        f = lifted_field(stream_vorticity(ctx), ctx.h)
        assert helical_symmetry_defect(f, ctx.h, 0.61, normalized=True) < 1e-10


class TestCurves:
    def test_tangent_is_curve_derivative(self, ctx_cache):
        ctx = ctx_cache(20.0)
        s = np.linspace(0.0, 2.0 * math.pi * abs(ctx.h), 17)
        d = 1e-6
        _, tan = filament_curves(ctx, s)
        fd = (filament_curves(ctx, s + d)[0] - filament_curves(ctx, s - d)[0]) / (2 * d)
        assert np.max(np.abs(fd - tan)) < 1e-8

    def test_helix_through_vertex_and_period(self, ctx_cache):
        ctx = ctx_cache(20.0)
        period = 2.0 * math.pi * abs(ctx.h)
        pts, _ = filament_curves(ctx, np.array([0.0, period]))
        assert pts.shape == (len(ctx.frames), 2, 3)
        for f, (start, end) in zip(ctx.frames, pts):
            assert np.array_equal(start, [f.P[0], f.P[1], 0.0])
            assert np.allclose(end - start, [0.0, 0.0, period], atol=1e-12)

    @pytest.mark.parametrize("h", [1.0, -0.8])
    def test_helix_from_its_frame_alone(self, h):
        # a frame at P = 0, as the centre filament's, gives the straight axis
        stub = SimpleNamespace(h=h, frames=(local_frame(1, 1, 0.0, h),))
        s = np.linspace(-3.0, 7.0, 11)
        pts, tan = filament_curves(stub, s)
        assert pts.shape == tan.shape == (1, 11, 3)
        assert np.array_equal(pts[0], np.stack([0 * s, 0 * s, s], -1))
        assert np.array_equal(tan[0], np.broadcast_to([0.0, 0.0, 1.0], (11, 3)))
