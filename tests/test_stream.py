import math

import numpy as np
import pytest
from scipy.integrate import quad

from helix_kmd.elliptic import PolarGridSpec, solve_k_poisson
from helix_kmd.errors import DegenerateConfig, HelixKmdError
from helix_kmd.liouville import liouville_unit
from helix_kmd.screw_operator import change_to_local
from helix_kmd.stream import (
    _inner_terms,
    b_eps_bound_check,
    build_context,
    calA,
    error_g,
    eta0,
    generic_scan_alpha,
    inner_residual_scaled,
    mu_relation_rhs,
    nonlinearity_F,
    F_prime,
    psi0_sum,
    psi_star,
    residual_S,
    rotating_argument,
    solve_H2,
    solve_mu,
)


class TestVertices:
    def test_quarter_rotation(self, ctx_cache):
        ctx = build_context(math.exp(-10.0), 1.0, 1.0, 4)
        P = ctx.vertices
        R = 1.0 / math.sqrt(10.0)
        assert np.allclose(P[1], [0.0, R], atol=1e-15)

    def test_scaled_radius_value(self, ctx_cache):
        ctx = ctx_cache(10.0)
        assert ctx.R == pytest.approx(10 ** (-0.5), abs=1e-12)
        assert ctx.R == pytest.approx(0.316228, abs=1e-6)

    def test_equal_norms(self, ctx_cache):
        P = ctx_cache(20.0).vertices
        norms = np.hypot(P[:, 0], P[:, 1])
        assert np.max(np.abs(norms - norms[0])) < 1e-15



class TestAdmissibility:
    """Every admissibility check of build_context raises DegenerateConfig."""

    @pytest.mark.parametrize("kwargs,match", [
        ({"eps": 0.5}, "0 < eps < e"),
        ({"eps": 0.0}, "0 < eps < e"),
        ({"r": -1.0}, "invalid geometry"),
        ({"h": 0.0}, "invalid geometry"),
        ({"n": 1}, "invalid geometry"),
        ({"r": 3.0}, "too close to the cutoff"),
        ({"alpha": 40.0}, "rotation speed outside the admissible band"),
        ({"alpha": -40.0}, "rotation speed outside the admissible band"),
        ({"delta": 0.5}, "0 < delta"),
        # |log mu| = 0.01 here, below the band's 0.1 log|log eps|
        ({"eps": math.exp(-10.0), "r": 1.42, "n": 2, "alpha": 1.85},
         "mu escaped the admissible logarithmic band"),
        ({"eps": math.exp(-400.0)}, "eps\\*mu underflow"),
        # the grid must reach inside R = 1/sqrt(20) and past the defect band rho <= 1.02
        ({"grid": PolarGridSpec(rho_max=0.8, n_radial=64, n_angular=24)},
         "rho_min < R = 0.2236 and rho_max > 1.02"),
        ({"grid": PolarGridSpec(rho_min=0.6, n_radial=64, n_angular=24)},
         "rho_min < R = 0.2236 and rho_max > 1.02"),
    ])
    def test_out_of_band_inputs(self, kwargs, match):
        args = {"eps": math.exp(-20.0), "r": 1.0, "h": 1.0, "n": 3,
                "grid": PolarGridSpec(n_radial=64, n_angular=24), **kwargs}
        with pytest.raises(DegenerateConfig, match=match):
            build_context(args.pop("eps"), args.pop("r"), args.pop("h"), args.pop("n"),
                          **args)


class TestMu:
    @pytest.mark.parametrize("alpha", [None, generic_scan_alpha(1.0, 1.0, 3)])
    @pytest.mark.parametrize("exponent", [10.0, 20.0, 40.0, 80.0])
    def test_one_eps_mu(self, ctx_cache, exponent, alpha):
        # the context's eps*mu is the vertex profile's, bit for bit
        ctx = ctx_cache(exponent, alpha=alpha)
        assert ctx.eps_mu == ctx.profile.eps_mu

    def test_vertex_independence(self, ctx_cache):
        ctx = ctx_cache(20.0)
        vals = [mu_relation_rhs(ctx, i) for i in range(1, ctx.n + 1)]
        assert max(vals) - min(vals) < 1e-12

    @pytest.mark.parametrize("exponent", [10.0, 20.0, 40.0, 80.0])
    def test_relation_closed_by_solver(self, ctx_cache, exponent):
        ctx = ctx_cache(exponent)
        assert abs(2.0 * ctx.log_mu - mu_relation_rhs(ctx, 1)) <= 1e-13

    def test_logarithmic_asymptotics(self):
        # log mu^2 - 2(N-1) log|log eps| stays bounded along the sweep
        vals = []
        for ex in (10.0, 20.0, 40.0):
            lm = solve_mu(math.exp(-ex), 1.0, 1.0, 3, alpha=-2.0)
            vals.append(2.0 * lm - 4.0 * math.log(ex))
        assert max(abs(v) for v in vals) < 5.0

    def test_steep_relation_closed(self):
        # N = 5, r = h = 1, e^-10: the excess's slope is about -3 at the
        # root, far from the -1 of the first estimate's Newton step
        ctx = build_context(math.exp(-10.0), 1.0, 1.0, 5,
                            grid=PolarGridSpec(n_radial=64, n_angular=40))
        assert ctx.log_mu == 9.031435912259754
        assert abs(2.0 * ctx.log_mu - mu_relation_rhs(ctx, 1)) <= 1e-13
        vals = [mu_relation_rhs(ctx, i) for i in range(1, 6)]
        assert max(vals) - min(vals) < 1e-12

    def test_secant_needs_no_bracket(self, monkeypatch):
        from helix_kmd import stream

        def refuse(*args):
            raise AssertionError("Brent's method called where the secant converges")

        monkeypatch.setattr(stream, "_brent", refuse)
        lm = solve_mu(math.exp(-20.0), 1.0, 1.0, 3, alpha=-2.0)
        assert math.isfinite(lm)

    @staticmethod
    def _count_far_sums(monkeypatch):
        from helix_kmd import stream

        calls = []
        far_sum = stream._far_sum

        def counting(*args):
            calls.append(args)
            return far_sum(*args)

        monkeypatch.setattr(stream, "_far_sum", counting)
        return calls

    def test_steep_relation_takes_few_profile_builds(self, monkeypatch):
        # N = 5, r = h = 1, e^-10, where the excess's slope is about -3
        calls = self._count_far_sums(monkeypatch)
        lm = solve_mu(math.exp(-10.0), 1.0, 1.0, 5, alpha=-6.0)
        assert lm == 9.031435912259754
        assert len(calls) <= 10

    @pytest.mark.parametrize("exponent", [10.0, 20.0, 40.0, 80.0])
    def test_few_profile_builds(self, monkeypatch, exponent):
        # the start, its Newton estimate and at most four secant steps
        calls = self._count_far_sums(monkeypatch)
        solve_mu(math.exp(-exponent), 1.0, 1.0, 3, alpha=-2.0)
        assert len(calls) <= 6

    @pytest.mark.parametrize("exponent", [10.0, 20.0, 40.0, 80.0])
    def test_bracket_path_matches_secant(self, monkeypatch, exponent):
        from helix_kmd import stream

        eps = math.exp(-exponent)
        secant = solve_mu(eps, 1.0, 1.0, 3, alpha=-2.0)
        brent_calls = []
        brent = stream._brent

        def spy(*args):
            brent_calls.append(args)
            return brent(*args)

        monkeypatch.setattr(stream, "_SECANT_MAXITER", 0)
        monkeypatch.setattr(stream, "_brent", spy)
        bracket = solve_mu(eps, 1.0, 1.0, 3, alpha=-2.0)
        assert len(brent_calls) == 1
        assert abs(bracket - secant) <= 1e-12

    def test_excess_without_root_raises(self, monkeypatch):
        from helix_kmd import stream
        from helix_kmd.errors import NoBracket

        # a far sum of 2 log mu + 10 leaves the excess at 5.5 for every mu
        monkeypatch.setattr(stream, "_far_sum",
                            lambda prof, z0_row: 2.0 * math.log(prof.mu) + 10.0)
        with pytest.raises(NoBracket):
            solve_mu(math.exp(-20.0), 1.0, 1.0, 3, alpha=-2.0)

    def test_admissible_band(self, ctx_cache):
        # delta log|log eps| < |log mu| < log|log eps|/delta for delta = 0.1
        for ex in (10.0, 20.0, 40.0):
            ctx = ctx_cache(ex)
            loglog = math.log(ex)
            assert 0.1 * loglog < abs(ctx.log_mu) < 10.0 * loglog


class TestVertexSum:
    def test_dihedral_invariance(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        x = rng.normal(size=(25, 2)) * 0.4
        Q = ctx.frames[1].Q
        diff = psi0_sum(x @ Q.T, ctx) - psi0_sum(x, ctx)
        assert np.max(np.abs(diff)) < 1e-12

    def test_evenness_in_frame_coordinates(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        f1 = ctx.frames[0]
        z = rng.normal(size=(25, 2)) * 0.3
        zm = z.copy()
        zm[:, 1] *= -1.0
        a = psi0_sum(f1.P + z @ f1.M.T, ctx)
        b = psi0_sum(f1.P + zm @ f1.M.T, ctx)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_value_at_first_vertex(self, ctx_cache):
        # psi0(P1) = Psi(0) + sum of far-profile values
        ctx = ctx_cache(20.0)
        z0, _ = ctx.far_geometry
        expected = ctx.profile.value(np.zeros(2)) + float(
            np.sum(ctx.profile.value(z0))
        )
        assert psi0_sum(ctx.frames[0].P, ctx) == pytest.approx(expected, rel=1e-14)


class TestErrorDensity:
    def test_compact_support(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        far = rng.normal(size=(10, 2))
        far = far / np.hypot(far[:, 0], far[:, 1])[:, None] * 1.3
        assert np.max(np.abs(error_g(far, ctx.profile, ctx.frames))) == 0.0

    def test_dihedral_invariance(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        x = rng.normal(size=(25, 2)) * 0.4
        for i in (1, 2):
            Q = ctx.frames[i].Q
            diff = (error_g(x @ Q.T, ctx.profile, ctx.frames)
                    - error_g(x, ctx.profile, ctx.frames))
            assert np.max(np.abs(diff)) < 1e-12

    def test_evenness_in_frame_coordinates(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        f1 = ctx.frames[0]
        z = rng.normal(size=(25, 2)) * 0.35
        zm = z.copy()
        zm[:, 1] *= -1.0
        a = error_g(f1.P + z @ f1.M.T, ctx.profile, ctx.frames)
        b = error_g(f1.P + zm @ f1.M.T, ctx.profile, ctx.frames)
        assert np.max(np.abs(a - b)) < 1e-12


class TestGlobalCorrection:
    def test_zero_source_gives_zero_field(self, ctx_cache):
        spec = PolarGridSpec(n_radial=128, n_angular=36)
        field = solve_k_poisson(np.zeros((128, 19)), spec, 1.0, 1,
                                anchor=np.array([0.3, 0.0]))
        pts = np.array([[0.1, 0.2], [1.5, -0.4], [5.0, 0.0]])
        assert np.max(np.abs(field.value(pts))) < 1e-14

    def test_rotation_invariance(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        x = rng.normal(size=(30, 2)) * 1.5
        Q = ctx.frames[1].Q
        diff = ctx.h2.value(x @ Q.T) - ctx.h2.value(x)
        assert np.max(np.abs(diff)) < 1e-11

    def test_vanishes_at_all_vertices(self, ctx_cache):
        ctx = ctx_cache(20.0)
        vals = ctx.h2.value(ctx.vertices)
        assert np.max(np.abs(vals)) < 1e-12

    def test_evenness_of_vertex_map(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        f1 = ctx.frames[0]
        z = rng.normal(size=(25, 2)) * 0.4
        zm = z.copy()
        zm[:, 1] *= -1.0
        diff = ctx.h2.value(f1.P + z @ f1.M.T) - ctx.h2.value(f1.P + zm @ f1.M.T)
        assert np.max(np.abs(diff)) < 1e-11

    def test_rejects_grid_off_the_dihedral_class(self, ctx_cache):
        # the half-sector fill needs n_angular a multiple of N
        ctx = ctx_cache(20.0)
        with pytest.raises(DegenerateConfig, match="multiple of N = 3"):
            solve_H2(ctx.profile, ctx.frames, ctx.h,
                     PolarGridSpec(n_radial=64, n_angular=25))
        assert issubclass(DegenerateConfig, HelixKmdError)

    def test_quadratic_growth_bound(self, ctx_cache):
        ctx = ctx_cache(20.0)
        rho = np.linspace(0.1, 19.0, 60)
        pts = np.stack([rho, np.zeros_like(rho)], axis=-1)
        vals = np.abs(ctx.h2.value(pts))
        assert np.all(vals <= 50.0 * (1.0 + rho**2))


class TestPsiStar:
    def test_reduces_to_correction_outside_cutoff(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        x = rng.normal(size=(10, 2))
        x = x / np.hypot(x[:, 0], x[:, 1])[:, None] * 1.2
        assert np.max(np.abs(psi_star(x, ctx) - ctx.h2.value(x))) == 0.0

    def test_dihedral_invariance_analytic_part(self, ctx_cache, rng):
        ctx = ctx_cache(20.0)
        x = rng.normal(size=(25, 2)) * 0.4
        Q = ctx.frames[1].Q
        rho = np.hypot(x[:, 0], x[:, 1])
        analytic = eta0(rho) * psi0_sum(x, ctx)
        analytic_rot = eta0(rho) * psi0_sum(x @ Q.T, ctx)
        assert np.max(np.abs(analytic_rot - analytic)) < 1e-12
        # full field including the solved part, at solver tolerance
        assert np.max(np.abs(psi_star(x @ Q.T, ctx) - psi_star(x, ctx))) < 1e-10

    def test_inner_expansion_reconstruction(self, ctx_cache):
        # psi_* near the first vertex equals the concentrated expansion
        # Gamma(y) - 4 log eps - 2 log mu + ds(y) + (alpha/2)|log eps||x|^2,
        # with ds the assembled increment: the direct and the stable paths
        # must agree to roundoff of the direct evaluation
        ctx = ctx_cache(20.0)
        em = ctx.eps_mu
        rr = np.geomspace(0.5, 100.0, 30)
        y = np.stack([rr * 0.6, -rr * 0.8], axis=-1)
        f1 = ctx.frames[0]
        x = f1.P + em * np.einsum("ij,...j->...i", f1.Mj, y)
        gam = liouville_unit(y)
        s_stable = gam - 4.0 * math.log(ctx.eps) - 2.0 * ctx.log_mu \
            + _inner_terms(y, ctx)[0]
        s_direct = rotating_argument(x, ctx)
        # the stable path keeps the correction field to first order; allow
        # its quadratic remainder (eps mu |y|)^2 |Hess H2| on top of roundoff
        tol = 1e-10 + 50.0 * (em * rr) ** 2
        assert np.all(np.abs(s_stable - s_direct) < tol)

    def test_inner_expansion_quadratic_remainder(self, ctx_cache):
        # on the symmetry axis y1 = 0 the tilt drops out and the stable
        # increment scales like the quadratic remainder (eps mu |y|)^2 log
        ctx = ctx_cache(20.0)
        tt = np.geomspace(5.0, 500.0, 12)
        y = np.stack([np.zeros_like(tt), tt], axis=-1)
        ds = np.abs(_inner_terms(y, ctx)[0])
        order = np.polyfit(np.log(tt), np.log(ds), 1)[0]
        assert 1.8 <= order <= 2.2
        bound = ctx.abs_log_eps * (ctx.eps_mu * tt) ** 2
        assert np.all(ds <= 60.0 * bound)


class TestNonlinearity:
    def test_vanishes_below_lower_threshold(self, ctx_cache):
        ctx = ctx_cache(20.0)
        lo, hi = ctx.thresholds
        s = np.array([lo - 5.0, lo - 0.001])
        assert np.all(nonlinearity_F(s, ctx) == 0.0)

    def test_pure_exponential_above_upper_threshold(self, ctx_cache):
        ctx = ctx_cache(20.0)
        lo, hi = ctx.thresholds
        s = np.array([hi + 0.001, hi + 3.0])
        expected = np.exp(s + 2.0 * math.log(ctx.eps))
        assert np.allclose(nonlinearity_F(s, ctx), expected, rtol=1e-14)

    def test_derivative_consistency(self, ctx_cache):
        ctx = ctx_cache(20.0)
        lo, hi = ctx.thresholds
        s = np.linspace(lo - 1.0, hi + 1.0, 41)
        d = 1e-6
        fd = (nonlinearity_F(s + d, ctx) - nonlinearity_F(s - d, ctx)) / (2 * d)
        assert np.allclose(F_prime(s, ctx), fd, rtol=1e-6, atol=1e-40)

    def test_support_inside_vertex_disks(self, ctx_cache):
        # on the ring where every frame coordinate reaches delta/sqrt(log),
        # the cutoff argument stays below threshold and F vanishes
        for ex in (10.0, 20.0, 40.0):
            ctx = ctx_cache(ex)
            lim = ctx.delta / ctx.sqrt_log
            th = np.linspace(0.0, 2.0 * np.pi, 180, endpoint=False)
            f1 = ctx.frames[0]
            ring_z = lim * np.stack([np.cos(th), np.sin(th)], axis=-1)
            x = f1.P + ring_z @ f1.M.T
            # keep only points where ALL frames are at distance >= lim
            keep = np.ones(len(x), dtype=bool)
            for f in ctx.frames:
                z = np.einsum("ij,...j->...i", f.Mj_inv, x - f.P)
                keep &= np.hypot(z[..., 0], z[..., 1]) >= lim * (1.0 - 1e-12)
            vals = nonlinearity_F(rotating_argument(x[keep], ctx), ctx)
            assert np.max(np.abs(vals)) == 0.0


class TestResidual:
    def test_deep_inner_structure(self, ctx_cache):
        # (eps mu)^2 S = U(y) [em y1 (c1 Gamma(y) + A)] + higher order
        ctx = ctx_cache(40.0)
        a_emp = calA(ctx.alpha, ctx)
        rr = np.linspace(0.3, 10.0, 25)
        th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        y = np.zeros((rr.size, th.size, 2))
        y[..., 0] = rr[:, None] * np.cos(th)
        y[..., 1] = rr[:, None] * np.sin(th)
        flat = y.reshape(-1, 2)
        sres = inner_residual_scaled(flat, ctx)
        yn2 = np.einsum("...i,...i->...", flat, flat)
        u = 8.0 / (1.0 + yn2) ** 2
        pred = u * ctx.eps_mu * flat[:, 0] * (ctx.profile.c1 * liouville_unit(flat) + a_emp)
        mismatch = np.max(np.abs(sres - pred))
        scale = ctx.eps_mu * np.max(np.abs(u * flat[:, 0]))
        # the projection constant absorbs the shape up to O(1/sqrt(log)) tilt
        assert mismatch <= scale * (1.0 / ctx.sqrt_log) * 5.0

    def test_even_projection_vanishes(self, ctx_cache):
        # integral of the scaled residual against Z2 is zero by evenness
        ctx = ctx_cache(20.0)
        from helix_kmd.stream import _polar_gauss_rule

        y, w = _polar_gauss_rule(ctx, 0.98, 50.0, 1.0, 24, 64)
        sres = inner_residual_scaled(y, ctx)
        yn2 = np.einsum("...i,...i->...", y, y)
        z1 = -4.0 * y[..., 0] / (1.0 + yn2)
        z2 = -4.0 * y[..., 1] / (1.0 + yn2)
        p1 = float(np.sum(sres * z1 * w))
        p2 = float(np.sum(sres * z2 * w))
        assert abs(p2) < 1e-10 * max(abs(p1), 1e-30) + 1e-25

    @pytest.mark.parametrize("exponent,rel_tol", [(10.0, 0.03), (20.0, 1e-4)])
    def test_inner_and_direct_paths_agree(self, ctx_cache, exponent, rel_tol):
        # the two evaluation routes agree up to the dropped second-order
        # correction-field term, which shrinks rapidly along the sweep
        ctx = ctx_cache(exponent)
        yy = np.array([[3.0, 1.0], [5.0, -2.0], [7.0, 0.5]])
        stable = inner_residual_scaled(yy, ctx)
        f1 = ctx.frames[0]
        x = f1.P + ctx.eps_mu * np.einsum("ij,...j->...i", f1.Mj, yy)
        from helix_kmd.stream import _concentrated_terms

        direct = ctx.eps_mu**2 * (
            _concentrated_terms(ctx, x)
            + nonlinearity_F(rotating_argument(x, ctx), ctx)
        )
        assert np.max(np.abs(stable - direct)) < rel_tol * np.max(np.abs(stable))

    @staticmethod
    def _off_core_points(ctx, rng):
        # a spiral from twice vertex 1's core radius out to 0.3, plus a spread
        f1 = ctx.frames[0]
        rad = np.geomspace(2.0 * ctx.delta**2 / ctx.sqrt_log, 0.3, 20)
        th = rng.uniform(0.0, 2.0 * np.pi, rad.size)
        x = np.concatenate([f1.P + np.stack([rad * np.cos(th), rad * np.sin(th)], axis=-1),
                            rng.normal(size=(25, 2)) * 0.4])
        for f in ctx.frames:
            assert np.all(np.hypot(*change_to_local(x, f).T) > ctx.delta**2 / ctx.sqrt_log)
        return x

    def test_dihedral_invariance_outside_cores(self, ctx_cache, rng):
        # the direct assembly carries the polygon's rotations; max|d| was
        # 8e-15 of max|S|
        ctx = ctx_cache(20.0)
        x = self._off_core_points(ctx, rng)
        s = residual_S(x, ctx)
        for i in (1, 2):
            Q = ctx.frames[i].Q
            assert np.max(np.abs(residual_S(x @ Q.T, ctx) - s)) < 1e-13 * np.max(np.abs(s))

    def test_evenness_in_frame_coordinates_outside_cores(self, ctx_cache, rng):
        # max|d| was 8e-15 of max|S|
        ctx = ctx_cache(20.0)
        f1 = ctx.frames[0]
        z = change_to_local(self._off_core_points(ctx, rng), f1)
        zm = z.copy()
        zm[:, 1] *= -1.0
        a = residual_S(f1.P + z @ f1.M.T, ctx)
        b = residual_S(f1.P + zm @ f1.M.T, ctx)
        assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))


class TestSpeedSelection:
    def test_normalization_integral(self):
        # quadrature oracle: int U y1 Z1 dy = -32 pi int rho^3/(1+rho^2)^3 drho
        val, _ = quad(lambda t: t**3 / (1 + t * t) ** 3, 0, np.inf, epsabs=1e-13)
        assert -32.0 * math.pi * val == pytest.approx(-8.0 * math.pi, abs=1e-9)

    def test_empirical_projection_correction_size(self, ctx_cache):
        # |calA_emp(alpha*)| <= C log|log eps| / sqrt(log eps) along the sweep
        consts = []
        for ex in (10.0, 20.0, 40.0):
            ctx = ctx_cache(ex)
            a_emp = calA(ctx.alpha, ctx)
            consts.append(abs(a_emp) * math.sqrt(ex) / math.log(ex))
        assert max(consts) / min(consts) < 1.5

    def test_monotone_in_filament_count(self):
        # alpha decreases with N at fixed r, h
        roots = []
        for n in (2, 3, 4):
            from helix_kmd.stream import build_context, solve_alpha

            ctx = build_context(math.exp(-15.0), 1.0, 1.0, n)
            root, _ = solve_alpha(ctx, xtol=1e-6)
            roots.append(root)
        assert roots[0] > roots[1] > roots[2]


class TestBEps:
    def test_evenness(self, ctx_cache, rng):
        from helix_kmd.stream import b_eps_inner

        ctx = ctx_cache(20.0)
        y = rng.normal(size=(30, 2)) * 3.0
        ym = y.copy()
        ym[:, 1] *= -1.0
        a = b_eps_inner(y, ctx)
        b = b_eps_inner(ym, ctx)
        scale = ctx.eps_mu * ctx.sqrt_log
        assert np.max(np.abs(a - b)) < 1e-10 * scale + 1e-22

    def test_bound_constant_across_sweep(self, ctx_cache):
        # the fitted constant is bounded along the sweep: it never exceeds
        # its value at the largest eps (and in fact decreases)
        consts = [b_eps_bound_check(ctx_cache(ex)) for ex in (10.0, 20.0, 40.0)]
        assert consts[0] < 50.0
        assert all(c <= 1.05 * consts[0] for c in consts)
        assert all(c > 0.0 for c in consts)

    def test_deviation_driven_by_cutoff_region(self):
        # on the symmetry axis the tilt terms drop out, so the deep
        # deviation is tiny and the bound constant is set by the cutoff
        # transition ring, for small and moderate polygon radii alike
        from helix_kmd.stream import b_eps_inner

        axis = np.stack([np.zeros(16), np.geomspace(0.3, 10.0, 16)], axis=-1)
        for r in (1.0, 0.3):
            ctx = build_context(math.exp(-20.0), r, 1.0, 3)
            scale = ctx.eps_mu * ctx.sqrt_log
            deep = float(np.max(np.abs(b_eps_inner(axis, ctx)))) / scale
            full = b_eps_bound_check(ctx)
            assert deep < 0.05 * full


class TestScanDefaults:
    def test_generic_alpha_offset(self):
        assert generic_scan_alpha(1.0, 1.0, 3) == pytest.approx(-1.0)
        r_stat = math.sqrt(2.0)
        assert abs(generic_scan_alpha(r_stat, 1.0, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_solve_alpha_diagnostics(self, ctx_cache):
        from helix_kmd.stream import solve_alpha

        ctx = ctx_cache(10.0)
        root, diag = solve_alpha(ctx, xtol=1e-6)
        assert set(diag) >= {"alpha_root", "alpha_leading", "correction",
                             "correction_ratio"}
        assert diag["alpha_leading"] == pytest.approx(-2.0)
        assert diag["alpha_root"] == pytest.approx(root)


class TestSolveAlphaRoot:
    """Secant selection of the rotation speed against the bracket fallback."""

    GRID = PolarGridSpec(n_radial=96, n_angular=24)

    @pytest.fixture(scope="class")
    def roots(self):
        from helix_kmd import stream

        ctx = build_context(math.exp(-20.0), 1.0, 1.0, 3, grid=self.GRID)
        secant = stream.solve_alpha(ctx)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stream, "_SECANT_MAXITER", 0)
            bracket = stream.solve_alpha(ctx)
        return ctx, secant, bracket

    def test_secant_matches_brentq(self, roots):
        _, (a_sec, d_sec), (a_br, d_br) = roots
        assert d_sec["root_method"] == "secant"
        assert d_br["root_method"] == "bracket"
        assert abs(a_sec - a_br) <= 1e-8
        assert d_sec["calA_evaluations"] < d_br["calA_evaluations"]

    def test_secant_residual_no_larger(self, roots):
        ctx, (a_sec, _), (a_br, _) = roots
        assert abs(calA(a_sec, ctx)) <= abs(calA(a_br, ctx))


# synthetic projections with leading speed 0 and unit slope scale
# flat between a* = 0 and the estimate 1: the secant stalls
_STALL = lambda a: min(1.0, 7.0 - 4.0 * a)                          # noqa: E731
# shallow near the start, steep beyond 1.5: the first secant step lands
# near 100, outside the scanned window
_LEAVES_WINDOW = lambda a: (1.0 - 0.01 * a if a <= 1.5                # noqa: E731
                            else 0.985 - 10.0 * (a - 1.5))


class TestSolveAlphaFallback:
    """Synthetic projections that force the bracket path or its failure."""

    @staticmethod
    def _solve(monkeypatch, func):
        from types import SimpleNamespace

        from helix_kmd import stream

        monkeypatch.setattr(stream, "calA", lambda alpha, ctx: func(alpha))
        # leading speed 0 and unit slope scale: the first estimate is f(0)
        ctx = SimpleNamespace(leading_alpha=lambda: 0.0, r=1.0, sqrt_log=1.0,
                              abs_log_eps=20.0, loglog=math.log(20.0))
        return stream.solve_alpha(ctx)

    @pytest.mark.parametrize("func, expected", [(_STALL, 1.75), (_LEAVES_WINDOW, 1.5985)],
                             ids=["stall", "leaves-window"])
    def test_bracket_path(self, monkeypatch, func, expected):
        root, diag = self._solve(monkeypatch, func)
        assert diag["root_method"] == "bracket"
        assert root == pytest.approx(expected, abs=1e-8)
        # a*, the estimate and at least one bracket pair before Brent
        assert diag["calA_evaluations"] >= 4

    def test_no_root_raises(self, monkeypatch):
        from helix_kmd.errors import NoBracket

        with pytest.raises(NoBracket):
            self._solve(monkeypatch, lambda a: 1.0 + a * a)


class TestBrent:
    """stream._brent against scipy.optimize.brentq on the same brackets."""

    @pytest.mark.parametrize("func, lo, hi, root", [
        (_STALL, 0.0, 2.0, 1.75),
        (_LEAVES_WINDOW, 0.0, 2.0, 1.5985),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: x**3 - 2.0 * x - 5.0, 3.0, 2.0, 2.0945514815423265),
    ], ids=["stall", "leaves-window", "cos", "cubic"])
    @pytest.mark.parametrize("xtol", [1e-8, 1e-12])
    def test_matches_brentq(self, func, lo, hi, root, xtol):
        from scipy.optimize import brentq

        from helix_kmd import stream

        got = stream._brent(func, lo, func(lo), hi, func(hi), xtol)
        assert got == brentq(func, lo, hi, xtol=xtol)
        assert abs(got - root) <= xtol
