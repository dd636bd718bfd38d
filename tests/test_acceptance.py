"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names carry the same information under plain -v.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from helix_kmd.configurations import (
    HelixConfig,
    HelixVariant,
    sample,
    sampled_trajectory,
    stationary_radius,
)
from helix_kmd.filaments import center_of_vorticity, kmd_residual, simulate
from helix_kmd.lift import (
    bump_test_field,
    fd_divergence,
    filament_curves,
    helical_symmetry_defect,
    lifted_field,
    weak_convergence_gap,
)
from helix_kmd.lift import _rotate_planar
from helix_kmd.linear_theory import gamma_constants, kernel_Z, phi2o, projected_solve
from helix_kmd.liouville import liouville_density
from helix_kmd.stream import (
    build_context,
    error_g,
    fit_loglog_slope,
    generic_scan_alpha,
    inner_residual_norm,
    mu_relation_rhs,
    outer_residual_norm,
    psi0_sum,
    solve_alpha,
    vertex_core,
)

from conftest import fd_linearized_residual

SWEEP = (10.0, 20.0, 40.0, 80.0)


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def kmd_runs():
    """Simulations shared by criteria 1, 3, 4, 5."""
    runs = {}
    t0 = time.perf_counter()
    polygon = sample(
        HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON), modes=64
    )
    runs["polygon"] = simulate(polygon, 1.0, 1e-4, stride=100)
    runs["polygon_runtime"] = time.perf_counter() - t0
    r_stat = stationary_radius(1.0, 3)
    stat = sample(
        HelixConfig(r_stat, 1.0, 3, HelixVariant.POLYGON_HELIX), modes=64
    )
    runs["stationary"] = simulate(stat, 1.0, 1e-3, stride=100)
    center = sample(
        HelixConfig(2.0, 1.0, 3, HelixVariant.POLYGON_WITH_CENTER), modes=64
    )
    runs["center"] = simulate(center, 1.0, 1e-3, stride=100)
    return runs


@pytest.fixture(scope="module")
def sweep_contexts():
    """Contexts at the generic scan speed for criteria 9 and 10."""
    alpha = generic_scan_alpha(1.0, 1.0, 3)
    out = {}
    for ex in SWEEP:
        t0 = time.perf_counter()
        out[ex] = build_context(math.exp(-ex), 1.0, 1.0, 3, alpha=alpha)
        out[f"time_{ex}"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def alpha_sweeps():
    """solve_alpha across the sweep for criterion 11, reused by 12."""
    results = {}
    for label, r in (("generic", 1.0), ("stationary", math.sqrt(2.0))):
        rows = []
        for ex in SWEEP:
            ctx = build_context(math.exp(-ex), r, 1.0, 3)
            root, diag = solve_alpha(ctx)
            diag["exponent"] = ex
            rows.append(diag)
        results[label] = rows
    return results


def test_criterion_01_polygon_rotation(kmd_runs):
    traj = kmd_runs["polygon"]
    phases = np.unwrap([np.angle(s.positions[0, 0]) for s in traj.snapshots])
    speed = (phases[-1] - phases[0]) / (traj.times[-1] - traj.times[0])
    runtime = kmd_runs["polygon_runtime"]
    ok = abs(speed - 4.0) <= 1e-5 and runtime < 10.0
    verdict(1, ok, f"measured speed {speed:.8f} (target 4 +- 1e-5), "
                   f"runtime {runtime:.1f}s < 10s")


def test_criterion_02_helix_family_residual():
    worst = 0.0
    worst_ratio = np.inf
    for n in (2, 3, 4, 5):
        cfg = HelixConfig(1.0, 1.0, n, HelixVariant.POLYGON_HELIX)
        res = kmd_residual(sampled_trajectory(cfg, 1e-4, 5, modes=128))
        worst = max(worst, res)
        res_half = kmd_residual(sampled_trajectory(cfg, 5e-5, 5, modes=128))
        if res > 1e-10:  # dt-limited part present (rotating families)
            worst_ratio = min(worst_ratio, res / res_half)
    ok = worst <= 1e-6 and worst_ratio >= 3.6
    verdict(2, ok, f"max residual {worst:.2e} <= 1e-6, "
                   f"dt-halving ratio {worst_ratio:.2f} >= 3.6")


def test_criterion_03_stationary_helix_drift(kmd_runs):
    traj = kmd_runs["stationary"]
    drift = float(np.max(np.abs(
        traj.snapshots[-1].positions - traj.snapshots[0].positions
    )))
    ok = drift <= 1e-6
    verdict(3, ok, f"sup-norm drift over T=1: {drift:.2e} <= 1e-6")


def test_criterion_04_polygon_with_center_speed(kmd_runs):
    traj = kmd_runs["center"]
    phases = np.unwrap([np.angle(s.positions[1, 0]) for s in traj.snapshots])
    speed = (phases[-1] - phases[0]) / (traj.times[-1] - traj.times[0])
    ok = abs(speed - 0.0) <= 1e-5
    verdict(4, ok, f"measured speed {speed:.2e} (target 0 +- 1e-5 for r=2,h=1,N=3)")


def test_criterion_05_center_of_vorticity_conservation(kmd_runs):
    worst = 0.0
    for key in ("polygon", "stationary", "center"):
        traj = kmd_runs[key]
        scale = float(np.max(np.abs(traj.snapshots[0].positions)))
        span = traj.times[-1] - traj.times[0]
        c0 = center_of_vorticity(traj.snapshots[0])
        drift = max(abs(center_of_vorticity(s) - c0) for s in traj.snapshots)
        worst = max(worst, drift / (scale * span))
    ok = worst <= 1e-10
    verdict(5, ok, f"relative drift per unit time {worst:.2e} <= 1e-10")


def test_criterion_06_liouville_identities(rng):
    mass, _ = quad(lambda s: math.pi * 8.0 / (1.0 + s) ** 2, 0.0, np.inf,
                   epsabs=1e-12)
    mass_ok = abs(mass - 8.0 * math.pi) <= 1e-6
    y = rng.normal(size=(40, 2)) * 1.5
    kern = max(
        float(np.max(np.abs(fd_linearized_residual(lambda t, j=j: kernel_Z(j, t), y))))
        for j in range(3)
    )
    special = float(np.max(np.abs(
        fd_linearized_residual(phi2o, y) + liouville_density(y) * kernel_Z(0, y)
    )))
    ok = mass_ok and kern <= 1e-6 and special <= 1e-6
    verdict(6, ok, f"mass err {abs(mass - 8 * math.pi):.1e}, kernel FD {kern:.1e}, "
                   f"special solution FD {special:.1e} (all <= 1e-6)")


def test_criterion_07_projection_constants():
    g0, g1 = gamma_constants()
    target = 3.0 / (32.0 * math.pi)
    const_ok = abs(g0 - target) <= 1e-8 and abs(g1 - target) <= 1e-8
    sol = projected_solve(lambda y: liouville_density(y) * kernel_Z(1, y))
    proj_ok = (
        abs(sol.d[1] - 1.0) <= 1e-6
        and abs(sol.d[0]) <= 1e-6
        and abs(sol.d[2]) <= 1e-6
    )
    ok = const_ok and proj_ok
    verdict(7, ok, f"gamma0={g0:.10f}, gamma1={g1:.10f} (3/(32pi)={target:.10f}); "
                   f"d=({sol.d[0]:.1e}, {sol.d[1]:.8f}, {sol.d[2]:.1e})")


def test_criterion_08_symmetry_suite(ctx_cache, rng):
    worst = 0.0
    for ex in (20.0, 40.0):
        ctx = ctx_cache(ex)
        x = rng.normal(size=(25, 2)) * 0.4
        Q = ctx.frames[1].Q
        worst = max(worst, float(np.max(np.abs(
            psi0_sum(x @ Q.T, ctx) - psi0_sum(x, ctx)
        ))))
        worst = max(worst, float(np.max(np.abs(
            error_g(x @ Q.T, ctx.core)
            - error_g(x, ctx.core)
        ))))
        f1 = ctx.frames[0]
        z = rng.normal(size=(25, 2)) * 0.3
        zm = z.copy()
        zm[:, 1] *= -1.0
        worst = max(worst, float(np.max(np.abs(
            psi0_sum(f1.P + z @ f1.M.T, ctx) - psi0_sum(f1.P + zm @ f1.M.T, ctx)
        ))))
        worst = max(worst, float(np.max(np.abs(
            error_g(f1.P + z @ f1.M.T, ctx.core)
            - error_g(f1.P + zm @ f1.M.T, ctx.core)
        ))))
        rhs = [mu_relation_rhs(ctx, i) for i in range(1, ctx.n + 1)]
        worst = max(worst, max(rhs) - min(rhs))
    ok = worst <= 1e-12
    verdict(8, ok, f"max symmetry defect on analytic parts {worst:.2e} <= 1e-12")


def test_criterion_09_mu_asymptotics():
    worst = 0.0
    for ex in SWEEP:
        log_mu = vertex_core(math.exp(-ex), 1.0, 1.0, 3, alpha=-2.0).log_mu
        dev = abs(2.0 * log_mu - 4.0 * math.log(ex))
        worst = max(worst, dev)
    ok = worst <= 20.0
    verdict(9, ok, f"max |log mu^2 - 2(N-1) log|log eps|| = {worst:.3f} <= 20")


def test_criterion_10_residual_scaling(sweep_contexts):
    outer, inner, times = [], [], []
    for ex in SWEEP:
        ctx = sweep_contexts[ex]
        t0 = time.perf_counter()
        outer.append(outer_residual_norm(ctx))
        inner.append(inner_residual_norm(ctx))
        times.append(time.perf_counter() - t0 + sweep_contexts[f"time_{ex}"])
    slope = fit_loglog_slope([math.exp(-ex) for ex in SWEEP], outer)
    ratios = [v / inner[0] for v in inner]
    slope_ok = 1.0 <= slope <= 2.0
    inner_ok = all(1.0 / 3.0 <= q <= 3.0 for q in ratios)
    time_ok = max(times) < 300.0
    ok = slope_ok and inner_ok and time_ok
    verdict(10, ok, f"outer log-log slope {slope:.3f} in [1,2]; inner norm ratios "
                    f"{[round(q, 3) for q in ratios]} within 3x; "
                    f"max per-point time {max(times):.1f}s < 300s")


def test_criterion_11_rotation_speed_asymptotics(alpha_sweeps):
    details = []
    ok = True
    for label, target in (("generic", -2.0), ("stationary", 0.0)):
        rows = alpha_sweeps[label]
        ratios = [row["correction_ratio"] for row in rows]
        variation = max(ratios) / min(ratios)
        ok = ok and variation <= 3.0
        assert all(row["alpha_leading"] == pytest.approx(target, abs=1e-12)
                   for row in rows)
        # corrections must actually shrink toward the leading speed
        corr = [abs(row["correction"]) for row in rows]
        ok = ok and corr[-1] < corr[0]
        details.append(f"{label}: |c| log/loglog in "
                       f"[{min(ratios):.2f}, {max(ratios):.2f}] (var {variation:.2f}x)")
    verdict(11, ok, "; ".join(details))


def test_criterion_12_vorticity_lift(ctx_cache, alpha_sweeps, rng):
    wfun = lambda xp: np.exp(-np.einsum("...i,...i->...", xp, xp) / 2.0)
    proxy = lifted_field(wfun, 1.0)
    pts = rng.uniform(-1.2, 1.2, size=(60, 3))
    div = float(np.max(np.abs(fd_divergence(proxy, pts))))
    sym = helical_symmetry_defect(proxy, 1.0, 0.61)
    roots = {row["exponent"]: row["alpha_root"]
             for row in alpha_sweeps["generic"]}
    phi = bump_test_field(np.zeros(2), 0.7, math.pi, math.pi * 0.8)
    gaps = []
    ctx40 = None
    for ex in (10.0, 20.0, 40.0):
        ctx = build_context(math.exp(-ex), 1.0, 1.0, 3, alpha=roots[ex])
        if ex == 40.0:
            ctx40 = ctx
        gaps.append(abs(weak_convergence_gap(ctx, phi, n_axial=96)))
    monotone = gaps[0] > gaps[1] > gaps[2]
    center = _rotate_planar(ctx40.frames[0].P, 0.3)
    chi = bump_test_field(center, 0.12, 0.3, 0.45)
    _, vol, _ = weak_convergence_gap(ctx40, chi, n_axial=160, return_parts=True)
    period = 2.0 * math.pi * abs(ctx40.h)
    ss = np.linspace(0, period, 3000, endpoint=False)
    pts, tan = filament_curves(ctx40, ss)
    weights = np.einsum("...i,...i->...", chi(pts[0]), tan[0])
    line = 8 * math.pi * float(np.sum(weights)) * (period / 3000)
    mass_dev = abs(vol - line) / abs(line)
    ok = div <= 1e-5 and sym <= 1e-12 and monotone and mass_dev <= 0.05
    verdict(12, ok, f"divergence {div:.1e} <= 1e-5; symmetry defect {sym:.1e} "
                    f"<= 1e-12; gaps {[round(g, 3) for g in gaps]} decreasing; "
                    f"single-filament mass within {mass_dev:.2%} of 8pi line sum")
