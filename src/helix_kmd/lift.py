"""Helical lift of planar vorticity and weak-convergence diagnostics.

A planar scalar w lifts to the divergence-free, screw-symmetric field

    omega(x) = w(Q_{-x3/h} x') * ((1/h) Q_{pi/2} x', 1),
    Q_{pi/2} x' = (-x2, x1),

which is 2 pi h periodic in x3 and satisfies omega(S_{-rho} x)
= R_rho omega(x) for every rotation-translation S_rho of the screw
group.  For the constructed vorticity w = F(psi_* - (alpha/2)
|log eps||x'|^2) the field concentrates around the helices

    gamma_j(s) = (Q_{s/h} P_j, s),

one per vertex P_j of the context's frames, with unit mass 8 pi per
cross-section, and the weak-convergence gap

    int omega . phi dx  -  8 pi sum_j int phi(gamma_j(s)) . gamma_j'(s) ds

is evaluated with per-core planar quadrature in the concentrated
variable (where w dx' = det M U(y) eta e^{ds} dy stays O(1)) and
periodic trapezoid rules along the axis.
"""

from __future__ import annotations

import numpy as np

from .screw_operator import _mat2_xy
from .stream import (
    _eta_of_s,
    _inner_terms,
    _polar_gauss_rule,
    _smoothstep,
    nonlinearity_F,
    rotating_argument,
)

__all__ = [
    "lifted_field",
    "helical_symmetry_defect",
    "fd_divergence",
    "filament_curves",
    "weak_convergence_gap",
    "bump_test_field",
    "stream_vorticity",
]


_FD_STEP = 1e-3          # centered-difference step of fd_divergence


def _rotate_planar(xy: np.ndarray, angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(xy)
    out[..., 0] = c * xy[..., 0] - s * xy[..., 1]
    out[..., 1] = s * xy[..., 0] + c * xy[..., 1]
    return out


def lifted_field(w, h: float):
    """omega(x) of the planar scalar w (vectorized over (..., 2)) for x of
    shape (..., 3)."""

    def omega(x):
        x = np.asarray(x, dtype=float)
        scal = w(_rotate_planar(x[..., :2], -x[..., 2] / h))
        out = np.empty(x.shape)
        out[..., 0] = -x[..., 1] / h * scal
        out[..., 1] = x[..., 0] / h * scal
        out[..., 2] = scal
        return out

    return omega


def helical_symmetry_defect(field, h: float, rho_angle: float,
                            normalized: bool = False) -> float:
    """max |omega(S_{-rho} x) - R_{-rho} omega(x)| over random box samples,
    for the screw group of pitch h.

    The 200 samples (seed 0) are uniform in [-2, 2]^2 x [0, 2 pi |h|).  The
    screw action rotates the planar components with the same sign as the
    argument shift; fields lifted with pitch h satisfy the identity exactly.
    """
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, size=(200, 3))
    x[:, 2] = rng.uniform(0.0, 2.0 * np.pi * abs(h), size=200)
    sx = np.empty_like(x)
    sx[:, :2] = _rotate_planar(x[:, :2], -rho_angle)
    sx[:, 2] = x[:, 2] - h * rho_angle
    w1 = field(sx)
    w0 = field(x)
    rw = np.empty_like(w0)
    rw[:, :2] = _rotate_planar(w0[:, :2], -rho_angle)
    rw[:, 2] = w0[:, 2]
    diff = np.max(np.abs(w1 - rw), axis=1)
    if normalized:
        scale = np.maximum(np.max(np.abs(w0), axis=1), 1e-300)
        return float(np.max(diff / scale))
    return float(np.max(diff))


def fd_divergence(field, x: np.ndarray) -> np.ndarray:
    """Centered-difference divergence at x of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for i in range(3):
        e = np.zeros(3)
        e[i] = _FD_STEP
        out += (field(x + e)[..., i] - field(x - e)[..., i]) / (2.0 * _FD_STEP)
    return out


def filament_curves(ctx, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concentration helices of a stream context at t = 0, one per frame:
    gamma_j(s) = (Q_{s/h} P_j, s) and its tangent (-gamma_2/h, gamma_1/h, 1),
    each of shape (len(ctx.frames), *s.shape, 3)."""
    s = np.asarray(s, dtype=float)
    P = np.array([f.P for f in ctx.frames]).reshape((-1,) + (1,) * s.ndim + (2,))
    pts = np.empty(P.shape[:1] + s.shape + (3,))
    pts[..., :2] = _rotate_planar(np.broadcast_to(P, pts.shape[:-1] + (2,)), s / ctx.h)
    pts[..., 2] = s
    tan = np.stack([-pts[..., 1] / ctx.h, pts[..., 0] / ctx.h, np.ones(pts.shape[:-1])], -1)
    return pts, tan


def stream_vorticity(ctx):
    """Planar vorticity w of a stream context (direct evaluation)."""
    def w(xp):
        return nonlinearity_F(rotating_argument(xp, ctx), ctx)

    return w


def bump_test_field(
    center: np.ndarray, radius: float, axial_center: float,
    axial_radius: float, component: int = 2,
):
    """Compactly supported C^2 test field along one coordinate axis."""
    center = np.asarray(center, dtype=float)

    def ev(x):
        x = np.asarray(x, dtype=float)
        dx, dy = x[..., 0] - center[0], x[..., 1] - center[1]
        rp = np.sqrt(dx * dx + dy * dy)
        ax = np.abs(x[..., 2] - axial_center)
        val = (1.0 - _smoothstep(rp / radius)) * (1.0 - _smoothstep(ax / axial_radius))
        out = np.zeros(x.shape)
        out[..., component] = val
        return out

    return ev


def weak_convergence_gap(ctx, test_field, n_axial: int = 48, return_parts: bool = False):
    """Volume pairing of the lifted vorticity minus the filament line sums.

    Time is frozen at t = 0: in the co-rotating construction all times
    are equivalent up to a global rotation.
    """
    h = ctx.h
    period = 2.0 * np.pi * abs(h)
    s3 = np.arange(n_axial) * (period / n_axial)      # periodic trapezoid
    y, wq = _polar_gauss_rule(ctx, 0.9, 40.0, 2.0, 16, 48)
    y, wq = y.reshape(-1, 2), wq.ravel()
    # scaled vorticity on vertex 1's core grid, w dxi = detM * U eta e^{ds} dy; every
    # core is a rotated copy of it, at its own points xi
    ds, u, s_arg = _inner_terms(y, ctx)
    eta, _ = _eta_of_s(ctx, s_arg)
    w_scaled = u * eta * np.exp(ds)                   # w * (eps mu)^2
    xi1, xi2 = [], []
    for f in ctx.frames:
        m1, m2 = _mat2_xy(f.Mj, y[:, 0], y[:, 1])
        xi1.append(f.P[0] + ctx.eps_mu * m1)
        xi2.append(f.P[1] + ctx.eps_mu * m2)
    xi1, xi2 = np.concatenate(xi1), np.concatenate(xi2)
    # one pass per axial slice over all N cores; each core's sum on its own
    pts = np.empty((3, xi1.size))
    sums = np.empty((ctx.n, n_axial))
    for k, x3 in enumerate(s3):
        c, s = np.cos(x3 / h), np.sin(x3 / h)
        pts[0], pts[1], pts[2] = c * xi1 - s * xi2, s * xi1 + c * xi2, x3
        phi = test_field(pts.T)
        integrand = -pts[1] / h * phi[:, 0] + pts[0] / h * phi[:, 1] + phi[:, 2]
        sums[:, k] = np.sum(w_scaled * integrand.reshape(ctx.n, -1) * wq, axis=1)
    volume = 0.0
    det_m = float(np.linalg.det(ctx.frames[0].M))
    for s_jk in sums.ravel():       # frame by frame, then slice, as a loop per frame adds them
        volume += det_m * float(s_jk) * (period / n_axial)
    ds_line = period / (n_axial * 4)
    gam, tan = filament_curves(ctx, np.arange(n_axial * 4) * ds_line)
    line = 0.0
    for pairing in np.einsum("...i,...i->...", test_field(gam), tan):     # helix by helix
        line += 8.0 * np.pi * float(np.sum(pairing) * ds_line)
    gap = volume - line
    if return_parts:
        return gap, volume, line
    return gap
