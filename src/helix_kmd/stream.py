"""End-to-end construction of the approximate helical stream function.

Given a concentration scale eps, geometry (r, h, N) and rotation speed
alpha, the construction places local profiles Psi at the vertices

    P_j = R Q_j (1,0),   R = r / sqrt(|log eps|),

glues them with a radial cutoff eta0, and adds a global correction H2
solving div(K grad H2) = -g, where g collects the bounded conjugation
defects E of each local profile plus the cutoff commutators:

    psi_*(x) = eta0(|x|) sum_j Psi(M_j^-1 (x - P_j)) + H2(x).

The bubble scale mu is fixed by the vertex relation

    2 log mu = sum_{j != i} Psi(M_j^-1 (P_i - P_j)) + H2(P_i)
               - (alpha/2) |log eps| R^2,

which is independent of i by dihedral symmetry; H2 is normalized to
vanish at the vertices, and solve_mu closes the relation to rounding.

The vorticity nonlinearity is F(s) = eps^2 eta(s) e^s with a smooth
switch eta rising across [X + d, X + 2d], X = 2 log|log eps| + 2 log mu
+ log 8.  The residual of the construction is

    S(x) = div(K grad psi_*) + F(psi_* - (alpha/2)|log eps| |x|^2),

where the elliptic part reduces exactly to the retained concentrated
terms: div(K grad psi_*) = eta0 sum_j [Delta Gamma_em + dipole](z_j).

Numerical core: near a vertex the two O(U/( eps mu)^2) contributions
cancel to relative size eps*mu*sqrt(|log eps|), which is far below
float64 resolution of either term once eps <= e^-40.  The residual is
therefore assembled in the scaled form

    (eps mu)^2 S = U(y) [eta(s) e^{ds} - 1] + (kE/8) eps mu y1 U(y) + tails,

with ds = s - (Gamma(y) - 4 log eps - 2 log mu) built from exact
difference formulas (log1p increments of the far profiles, gradient of
H2, exact |x|^2 - R^2 increments) so that the mu-relation cancels
symbolically and no large terms are ever subtracted.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import liouville as lv
from .configurations import HelixVariant, theorem_alpha
from .elliptic import H2Correction, PolarGridSpec, _polar_points, solve_k_poisson
from .errors import DegenerateConfig, NoBracket, NonFiniteError, QuadratureFailure
from .screw_operator import LocalFrame, _dot2, _mat2, b_operator, change_to_local, local_frame

__all__ = [
    "StreamContext",
    "build_context",
    "solve_mu",
    "mu_relation_rhs",
    "error_g",
    "solve_H2",
    "psi0_sum",
    "psi_star",
    "nonlinearity_F",
    "F_prime",
    "residual_S",
    "inner_residual_scaled",
    "b_eps_inner",
    "calA",
    "solve_alpha",
    "outer_residual_norm",
    "inner_residual_norm",
    "b_eps_bound_check",
    "generic_scan_alpha",
    "fit_loglog_slope",
]

# integral of U y1 Z1 over the plane; normalizes the empirical projection
UY1Z1 = -8.0 * np.pi


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic 0->1 ramp, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_prime(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t * t * (1.0 - t) ** 2, 0.0)


def _smoothstep_second(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 60.0 * t * (1.0 - 3.0 * t + 2.0 * t * t), 0.0)


def eta0(rho: np.ndarray) -> np.ndarray:
    """Radial gluing cutoff: 1 for rho <= 1/2, 0 for rho >= 1."""
    return 1.0 - _smoothstep(2.0 * (np.asarray(rho, dtype=float) - 0.5))


@dataclass(frozen=True)
class StreamContext:
    """Full parameter pack and solved fields of one construction."""

    eps: float
    r: float
    h: float
    n: int
    alpha: float
    delta: float
    d_eps: float
    grid: PolarGridSpec
    # derived geometry
    R: float
    frames: tuple[LocalFrame, ...]
    # solved quantities
    log_mu: float
    profile: lv.LocalProfile
    h2: H2Correction
    h2_grad: np.ndarray            # (N, 2) gradient of H2 at each vertex
    far_geometry: tuple = field(repr=False, default=())

    # -- convenience -------------------------------------------------------
    @property
    def eps_mu(self) -> float:
        """The concentration scale eps*mu, as the vertex profile holds it."""
        return self.profile.eps_mu

    @property
    def abs_log_eps(self) -> float:
        return -math.log(self.eps)

    @property
    def sqrt_log(self) -> float:
        return math.sqrt(self.abs_log_eps)

    @property
    def loglog(self) -> float:
        return math.log(self.abs_log_eps)

    @property
    def vertices(self) -> np.ndarray:
        return np.array([f.P for f in self.frames])

    @property
    def thresholds(self) -> tuple[float, float]:
        x = 2.0 * self.loglog + 2.0 * self.log_mu + math.log(8.0)
        return x + self.d_eps, x + 2.0 * self.d_eps

    @property
    def inner_radius_y(self) -> float:
        """Inner-region extent in the concentrated variable y."""
        return self.delta / (self.eps_mu * self.sqrt_log)

    @property
    def switch_radius_y(self) -> float:
        """Below this |y| the cancellation-free assembly is used."""
        return self.delta**2 / (self.eps_mu * self.sqrt_log)

    def leading_alpha(self) -> float:
        return theorem_alpha(self.r, self.h, self.n, HelixVariant.POLYGON_HELIX)


def _far_geometry(frames):
    """Per-vertex tables z0[i][j] = M_j^-1 (P_i - P_j), D[i][j] = M_j^-1 M_i."""
    n = len(frames)
    z0 = np.empty((n, n - 1, 2))
    dd = np.empty((n, n - 1, 2, 2))
    for i, fi in enumerate(frames):
        others = [f for f in frames if f.j != fi.j]
        for col, fj in enumerate(others):
            z0[i, col] = fj.Mj_inv @ (fi.P - fj.P)
            dd[i, col] = fj.Mj_inv @ fi.Mj
    return z0, dd


def _far_sum(profile: lv.LocalProfile, z0_row: np.ndarray) -> float:
    return float(np.sum(profile.value(z0_row)))


def solve_mu(eps: float, r: float, h: float, n: int, alpha: float) -> float:
    """log mu from the vertex relation, by _root on its excess rhs - log mu.

    H2 does not enter: it vanishes at the vertices by normalization.  The
    excess has slope close to -1 in log mu while the far profiles barely
    feel mu, so the estimate is one Newton step of that slope from the
    start (N - 1) log|log eps|.  NoBracket when the excess has no root
    that _root can find.
    """
    abs_log = -math.log(eps)
    R = r / math.sqrt(abs_log)
    z0, _ = _far_geometry(tuple(local_frame(j, n, R, h) for j in range(1, n + 1)))
    alpha_term = 0.5 * alpha * r * r        # (alpha/2) |log eps| R^2 exactly

    def excess(log_mu):                     # rhs(log mu) - log mu
        prof = lv.LocalProfile(eps, math.exp(log_mu), R, h)
        return 0.5 * (_far_sum(prof, z0[0]) - alpha_term) - log_mu

    x0 = (n - 1.0) * math.log(abs_log)
    f0 = excess(x0)
    return _root(excess, x0, f0, x0 + f0, 1e-13, max(1.0, 0.75 * abs(f0)))[0]


def mu_relation_rhs(ctx: StreamContext, i: int) -> float:
    """Right-hand side of the mu relation at vertex i (1-based), incl. H2."""
    z0, _ = ctx.far_geometry
    far = _far_sum(ctx.profile, z0[i - 1])
    h2_at = float(ctx.h2.value(ctx.frames[i - 1].P))
    return far + h2_at - 0.5 * ctx.alpha * ctx.r * ctx.r


# -- error density g and the global correction ----------------------------

def _retained(z: np.ndarray, prof: lv.LocalProfile, weight: float = 1.0) -> np.ndarray:
    """weight a (-8 + kE z1)/(a + |z|^2)^2: Delta Gamma_em plus the retained
    dipole term of the vertex profile at local points z."""
    return weight * prof.a * (-8.0 + prof.kE * z[..., 0]) / (prof.a + _dot2(z, z)) ** 2


def _local_defect(prof: lv.LocalProfile, z: np.ndarray, frame1: LocalFrame) -> np.ndarray:
    """E(z): conjugated operator on Psi minus the retained singular terms.

    The profile's intermediates are computed once and shared by the
    Laplacian, the Hessian and the gradient.
    """
    t = prof._terms(z)
    lap = prof.laplacian(t.z, terms=t)
    # b_operator's field bundle: the profile's grad and hess at the shared terms
    at = SimpleNamespace(grad=partial(prof.grad, terms=t), hess=partial(prof.hess, terms=t))
    bb = b_operator(at, t.z, frame1)
    return lap + bb - _retained(t.z, prof)


# Points per block of the element-wise kernels: on the default build's 18,524-point
# defect grid error_g's temporaries peak at 1.6 MB (6.4 MB in one call), inside a 2 MiB
# L2; on a 2-core Xeon KVM guest it takes 28 ms, 36 at 2,048, 28 at 6,144, 34 unblocked.
_POINT_BLOCK = 4096


def _blockwise(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(x, *args), fn acting on each point alone, in blocks of _POINT_BLOCK points;
    whole-array while other threads run, as short numpy calls trade the GIL."""
    if threading.active_count() > 1 or x[..., 0].size <= _POINT_BLOCK:
        return fn(x, *args)
    out = np.empty(x.shape[:-1])
    flat, pts = out.reshape(-1), x.reshape(-1, x.shape[-1])
    for lo in range(0, flat.size, _POINT_BLOCK):
        flat[lo:lo + _POINT_BLOCK] = fn(pts[lo:lo + _POINT_BLOCK], *args)
    return out


def error_g(x: np.ndarray, profile: lv.LocalProfile, frames) -> np.ndarray:
    """Compactly supported defect density driving the H2 correction, from
    the vertex profile and frames alone (build_context needs it first)."""
    return _blockwise(_error_g, np.asarray(x, dtype=float), profile, frames)


def _error_g(x: np.ndarray, profile: lv.LocalProfile, frames) -> np.ndarray:
    rho = np.hypot(x[..., 0], x[..., 1])
    out = np.zeros(x.shape[:-1])
    e0 = eta0(rho)
    inside = e0 > 0.0
    frame1 = frames[0]
    if np.any(inside):
        xi = x[inside]
        acc = np.zeros(xi.shape[:-1])
        for f in frames:
            acc += _local_defect(profile, change_to_local(xi, f), frame1)
        out[inside] = e0[inside] * acc
    ring = (rho > 0.5) & (rho < 1.0)
    if np.any(ring):
        xr = x[ring]
        rr = rho[ring]
        h = profile.h
        beta = h * h / (h * h + rr * rr)
        beta_p = -2.0 * rr * h * h / (h * h + rr * rr) ** 2
        e0p = -2.0 * _smoothstep_prime(2.0 * (rr - 0.5))      # eta0'
        e0s = -4.0 * _smoothstep_second(2.0 * (rr - 0.5))     # eta0''
        lap_eta = beta * e0s + e0p * (beta / rr + beta_p)
        rhat = xr / rr[..., None]
        acc = np.zeros(xr.shape[:-1])
        for f in frames:
            z = change_to_local(xr, f)
            t = profile._terms(z)
            psi_j = profile.value(z, terms=t)
            grad_x = _mat2(f.Mj_inv.T, profile.grad(z, terms=t))
            acc += psi_j * lap_eta + 2.0 * e0p * beta * _dot2(rhat, grad_x)
        out[ring] += acc
    return out


def solve_H2(profile: lv.LocalProfile, frames, h: float,
             grid: PolarGridSpec) -> H2Correction:
    """Solve div(K grad H2) = -g on the polar grid, anchored at P_1.

    g is invariant under the dihedral group D_N of the polygon (rotations
    by 2 pi/N and the reflection theta -> -theta through P_1), so it is a
    cosine series in N theta.  error_g runs only on the half-sector theta
    in [0, pi/N] of the rho <= 1.02 rings, the first n_angular/N // 2 + 1
    angular nodes, and solve_k_poisson takes the series' coefficients from
    these samples.  Raises DegenerateConfig when n_angular is not a
    multiple of N.
    """
    n = len(frames)
    if grid.n_angular % n:
        raise DegenerateConfig(
            f"n_angular = {grid.n_angular} is not a multiple of N = {n}"
        )
    rho = grid.radial_nodes()
    theta = grid.theta_nodes()[: grid.n_angular // n // 2 + 1]
    mask = rho <= 1.02
    g = np.zeros((grid.n_radial, theta.size))
    g[mask] = error_g(_polar_points(rho[mask], theta), profile, frames)
    return solve_k_poisson(g, grid, h, n, anchor=frames[0].P)


def build_context(
    eps: float,
    r: float,
    h: float,
    n: int,
    alpha: float | None = None,
    delta: float | None = None,
    grid: PolarGridSpec | None = None,
) -> StreamContext:
    """Construct the full stream context: geometry, mu, defect field, H2."""
    if not 0.0 < eps < math.exp(-1.0):
        raise DegenerateConfig("need 0 < eps < e^-1")
    if r <= 0.0 or h == 0.0 or n < 2:
        raise DegenerateConfig("invalid geometry")
    abs_log = -math.log(eps)
    R = r / math.sqrt(abs_log)
    if R > 0.45:
        raise DegenerateConfig("polygon radius r/sqrt|log eps| too close to the cutoff")
    a_star = theorem_alpha(r, h, n, HelixVariant.POLYGON_HELIX)
    if alpha is None:
        alpha = a_star
    if abs(alpha) > max(10.0, 4.0 * abs(a_star) + 4.0):
        raise DegenerateConfig("rotation speed outside the admissible band")
    r0 = 2.0 * math.sin(math.pi / n)          # unit-scale nearest-vertex gap
    if delta is None:
        delta = 0.8 * min(r0 / 4.0, 0.5)
    if not 0.0 < delta < min(r0 / 4.0, 0.5) + 1e-12:
        raise DegenerateConfig("delta must satisfy 0 < delta < min(r0/4, 1/2)")
    if grid is None:
        grid = PolarGridSpec()
    # angular sampling must respect the dihedral class: with n_angular a
    # multiple of lcm(2, N), aliasing folds modes onto the same class and
    # the discrete H2 inherits the exact rotation/reflection symmetries;
    # solve_H2 samples g on one half-sector of it
    block = math.lcm(2, n)
    if grid.n_angular % block:
        grid = PolarGridSpec(
            rho_min=grid.rho_min, rho_max=grid.rho_max, n_radial=grid.n_radial,
            n_angular=block * math.ceil(grid.n_angular / block),
        )
    # support padding: keeps F switched off on the delta-ring, where the
    # profile tilt contributes up to ~2 delta r/h^2 + |alpha - alpha*| r delta
    pad = delta * r * (2.0 / h**2 + abs(alpha - a_star) + 0.25) + 0.25
    d_eps = -4.0 * math.log(delta) + pad
    frames = tuple(local_frame(j, n, R, h) for j in range(1, n + 1))
    log_mu = solve_mu(eps, r, h, n, alpha)
    loglog = math.log(abs_log)
    if not 0.1 * loglog < abs(log_mu) < 10.0 * loglog:
        raise DegenerateConfig("mu escaped the admissible logarithmic band")
    profile = lv.LocalProfile(eps, math.exp(log_mu), R, h)
    h2 = solve_H2(profile, frames, h, grid)
    return StreamContext(
        eps=eps, r=r, h=h, n=n, alpha=float(alpha), delta=delta,
        d_eps=d_eps, grid=grid, R=R, frames=frames, log_mu=log_mu, profile=profile,
        h2=h2, h2_grad=h2.gradient(np.array([f.P for f in frames])),
        far_geometry=_far_geometry(frames),
    )


# -- assembled fields ------------------------------------------------------

def psi0_sum(x: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """Bare vertex-profile superposition psi_0 (no cutoff, no H2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for f in ctx.frames:
        out += ctx.profile.value(change_to_local(x, f))
    return out


def psi_star(x: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """Globally defined approximate stream function."""
    x = np.asarray(x, dtype=float)
    rho = np.hypot(x[..., 0], x[..., 1])
    e0 = eta0(rho)
    out = np.asarray(ctx.h2.value(x)).copy()
    inside = e0 > 0.0
    if np.any(inside):
        out[inside] += e0[inside] * psi0_sum(x[inside], ctx)
    return out


def _eta_of_s(ctx: StreamContext, s: np.ndarray):
    lo, hi = ctx.thresholds
    t = (np.asarray(s, dtype=float) - lo) / (hi - lo)
    return _smoothstep(t), _smoothstep_prime(t) / (hi - lo)


def nonlinearity_F(s: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """F(s) = eps^2 eta(s) e^s, evaluated in log space."""
    s = np.asarray(s, dtype=float)
    eta, _ = _eta_of_s(ctx, s)
    expo = s + 2.0 * math.log(ctx.eps)
    with np.errstate(over="ignore"):
        val = np.exp(expo)
    return np.where(eta > 0.0, eta * val, 0.0)


def F_prime(s: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """F'(s) = eps^2 (eta'(s) + eta(s)) e^s."""
    s = np.asarray(s, dtype=float)
    eta, etap = _eta_of_s(ctx, s)
    expo = s + 2.0 * math.log(ctx.eps)
    with np.errstate(over="ignore"):
        val = np.exp(expo)
    w = eta + etap
    return np.where(w > 0.0, w * val, 0.0)


def rotating_argument(x: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """s(x) = psi_*(x) - (alpha/2)|log eps| |x|^2 (direct assembly)."""
    x = np.asarray(x, dtype=float)
    return psi_star(x, ctx) - 0.5 * ctx.alpha * ctx.abs_log_eps * _dot2(x, x)


def _concentrated_terms(ctx: StreamContext, x: np.ndarray) -> np.ndarray:
    """eta0 sum_j [Delta Gamma_em + dipole](z_j): the exact elliptic part."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros(x.shape[:-1])
    for f in ctx.frames:
        acc += _retained(change_to_local(x, f), ctx.profile)
    return eta0(np.hypot(x[..., 0], x[..., 1])) * acc


def residual_S(x: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """S(x) = div(K grad psi_*) + F(psi_* - (alpha/2)|log eps||x|^2).

    Near the vertices (|y| below the switch radius) the cancellation-free
    scaled assembly is used and divided by (eps mu)^2; elsewhere both
    terms are benign and evaluated directly.
    """
    return _blockwise(_residual_S, np.atleast_2d(np.asarray(x, dtype=float)), ctx)


def _residual_S(x: np.ndarray, ctx: StreamContext) -> np.ndarray:
    out = np.empty(x.shape[:-1])
    y, idx = _nearest_inner_coords(ctx, x)
    ynorm = np.hypot(y[..., 0], y[..., 1])
    deep = ynorm <= ctx.switch_radius_y
    if np.any(deep):
        for i in range(ctx.n):
            sel = deep & (idx == i)
            if np.any(sel):
                scaled_i = inner_residual_scaled(y[sel], ctx, vertex=i + 1)
                out[sel] = scaled_i / ctx.eps_mu**2
    rest = ~deep
    if np.any(rest):
        xr = x[rest]
        out[rest] = _concentrated_terms(ctx, xr) + nonlinearity_F(
            rotating_argument(xr, ctx), ctx
        )
    return out


def _nearest_inner_coords(ctx: StreamContext, x: np.ndarray):
    """Concentrated coordinates y w.r.t. the nearest vertex (the first one
    on a tie), plus its index."""
    z = np.stack([change_to_local(x, f) for f in ctx.frames])
    idx = np.argmin(_dot2(z, z), axis=0)
    return np.take_along_axis(z, idx[None, ..., None], axis=0)[0] / ctx.eps_mu, idx


def _inner_terms(y, ctx: StreamContext, vertex: int):
    """(ds, U(y), s) at x = P_i + eps mu M_i y with s = Gamma(y) - 4 log eps
    - 2 log mu + ds: the scaled inner assembly.

    ds is assembled from exact difference formulas; every term is
    individually small, so it carries full relative precision even when
    eps*mu ~ 1e-31.
    """
    y = np.asarray(y, dtype=float)
    i = vertex - 1
    f = ctx.frames[i]
    prof = ctx.profile
    em = ctx.eps_mu
    yn2 = _dot2(y, y)
    gam = math.log(8.0) - 2.0 * np.log1p(yn2)
    log_em = math.log(ctx.eps) + ctx.log_mu
    # (a) profile corrections at the vertex itself
    term_a = (gam - 4.0 * log_em) * (
        prof.c1 * em * y[..., 0] + prof.c2 * em * em * yn2
    )
    # (b) third-harmonic correction, inner-scaled: kH*em*w0(|y|^2)*P3(y)/12
    w0, _, _ = lv._kernels(yn2)
    p3 = lv._re_cube(y[..., 0], y[..., 1])
    term_b = prof.kH * em * (w0 / 12.0) * p3
    # (c) increments of the other vertex profiles (mu relation cancels)
    z0, dd = ctx.far_geometry
    my = _mat2(f.Mj, y)
    term_c = np.zeros(y.shape[:-1])
    for col in range(ctx.n - 1):
        dz = em * _mat2(dd[i, col], y)
        term_c += prof.delta_value(z0[i, col], dz)
    # (d) first-order increment of H2 away from its vertex zero
    term_d = em * _dot2(ctx.h2_grad[i], my)
    # (e) exact increment of -(alpha/2)|log eps| |x|^2
    pmy = _dot2(f.P, my)
    my2 = _dot2(my, my)
    term_e = -0.5 * ctx.alpha * ctx.abs_log_eps * (2.0 * em * pmy + em * em * my2)
    ds = term_a + term_b + term_c + term_d + term_e
    return ds, 8.0 / (1.0 + yn2) ** 2, gam - 4.0 * math.log(ctx.eps) - 2.0 * ctx.log_mu + ds


def _scaled_residual(y, ctx: StreamContext, vertex: int, ds, u, s) -> np.ndarray:
    """inner_residual_scaled from the inner assembly (ds, u, s) at y."""
    i = vertex - 1
    eta, _ = _eta_of_s(ctx, s)
    core = np.where(eta >= 1.0, np.expm1(ds), eta * np.exp(ds) - 1.0)
    em = ctx.eps_mu
    out = u * core + (ctx.profile.kE / 8.0) * em * y[..., 0] * u
    # far-vertex concentrated tails, O((eps mu)^4 / dist^4)
    z0, dd = ctx.far_geometry
    for col in range(ctx.n - 1):
        z = z0[i, col] + em * _mat2(dd[i, col], y)
        out += _retained(z, ctx.profile, em * em)
    return out


def inner_residual_scaled(
    y: np.ndarray, ctx: StreamContext, vertex: int = 1
) -> np.ndarray:
    """(eps mu)^2 S at x = P_i + eps mu M_i y, cancellation-free."""
    return _blockwise(_inner_residual_scaled, np.asarray(y, dtype=float), ctx, vertex)


def _inner_residual_scaled(y: np.ndarray, ctx: StreamContext, vertex: int) -> np.ndarray:
    return _scaled_residual(y, ctx, vertex, *_inner_terms(y, ctx, vertex))


def b_eps_inner(y: np.ndarray, ctx: StreamContext, vertex: int = 1) -> np.ndarray:
    """b(y) = (eps mu)^2 F'(s(x)) - e^Gamma(y) on the inner region."""
    ds, u, s = _inner_terms(y, ctx, vertex)
    eta, etap = _eta_of_s(ctx, s)
    w = eta + etap
    return u * np.where(w >= 1.0, np.expm1(ds), w * np.exp(ds) - 1.0)


# -- projections, norms, and the speed selection ---------------------------

def _polar_gauss_rule(ctx: StreamContext, frac: float, y_cap: float, floor: float,
                      n_seg: int, n_theta: int):
    """Nodes (n_r, n_theta, 2) and weights (n_r, n_theta) on the inner disk.

    The disk is |y| <= ymax = min(y_cap, frac times the inner radius);
    QuadratureFailure when ymax <= floor.  Radially, n_seg Gauss-Legendre
    nodes on each of the segments [0, 1], [1, 2], [2, 4], ... (the last one
    ends at ymax); angularly, the n_theta-point midpoint rule.
    """
    ymax = min(y_cap, frac * ctx.inner_radius_y)
    if ymax <= floor:
        raise QuadratureFailure(f"inner region too small for quadrature (|y| <= {ymax:.3g})")
    edges = [0.0, 1.0]
    while edges[-1] < ymax:
        edges.append(min(2.0 * edges[-1], ymax))
    nodes, weights = leggauss(n_seg)
    rr, ww = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        rr.append(mid + half * nodes)
        ww.append(half * weights)
    rr = np.concatenate(rr)
    ww = np.concatenate(ww)
    th = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    y = _polar_points(rr, th)
    w2d = (ww * rr)[:, None] * (2.0 * np.pi / n_theta)
    return y, np.broadcast_to(w2d, (rr.size, n_theta))


def calA(alpha: float, ctx: StreamContext) -> float:
    """Tilt coefficient of the inner residual at rotation speed `alpha`.

    The normalized projection of the scaled residual onto the translation
    kernel element Z1 over the inner disk; the context (mu, g, H2) is
    rebuilt at `alpha` if it differs.
    """
    if alpha != ctx.alpha:
        ctx = build_context(ctx.eps, ctx.r, ctx.h, ctx.n, alpha=alpha,
                            delta=ctx.delta, grid=ctx.grid)
    y, w = _polar_gauss_rule(ctx, 0.98, 50.0, 1.0, 24, 64)
    sres = inner_residual_scaled(y, ctx)
    z1 = -4.0 * y[..., 0] / (1.0 + _dot2(y, y))
    num = float(np.sum(sres * z1 * w))
    if not math.isfinite(num):
        raise QuadratureFailure("projection integral is not finite")
    return num / (ctx.eps_mu * UY1Z1)


_SECANT_MAXITER = 8    # secant steps before falling back to bracket + Brent
_BRENT_MAXITER = 100
_BRENT_RTOL = 4.0 * np.finfo(float).eps     # brentq's default relative tolerance


def solve_alpha(ctx: StreamContext, xtol: float = 1e-8):
    """Rotation speed zeroing the empirical kernel projection.

    Returns (alpha_root, diagnostics dict).  The projection is close to
    linear in alpha with slope -r sqrt|log eps|, so _root runs from the
    leading-order speed a* (projected on `ctx` itself) and the first-order
    estimate a* + calA(a*) / (r sqrt|log eps|), with the bracket
    half-width max(1, 3/4 of the estimate's offset from a*).
    Besides the root, the leading-order speed and the correction, the
    diagnostics record the number of empirical projections
    (`calA_evaluations`) and `root_method`, "secant" or "bracket".
    """
    a_star = ctx.leading_alpha()
    f_star = calA(a_star, ctx)
    center = a_star + f_star / (ctx.r * ctx.sqrt_log)
    root, method, n_eval = _root(lambda a: calA(a, ctx), a_star, f_star, center, xtol,
                                 max(1.0, 0.75 * abs(center - a_star)))
    corr = root - a_star
    diag = {
        "alpha_root": float(root),
        "alpha_leading": float(a_star),
        "correction": float(corr),
        "correction_ratio": float(
            abs(corr) * ctx.abs_log_eps / ctx.loglog
        ),
        "calA_evaluations": 1 + n_eval,
        "root_method": method,
    }
    return float(root), diag


def _root(f, x0: float, f0: float, x1: float, xtol: float, width: float):
    """Root of f from (x0, f0) and the estimate x1: (root, method, evaluations).

    The secant runs inside x1 +- 8 width, so it reaches no point the
    bracket search could not.  Should it fail (see _secant), the bracket
    x1 +- width is doubled up to three times until f changes sign, and
    Brent's method finds the root; NoBracket if f never changes sign.
    `method` is "secant" or "bracket"; `evaluations` counts the calls of f
    made here.
    """
    n_eval = 0

    def counted(x):
        nonlocal n_eval
        n_eval += 1
        return f(x)

    root = _secant(counted, x0, f0, x1, xtol, (x1 - 8.0 * width, x1 + 8.0 * width))
    if root is not None:
        return root, "secant", n_eval
    for _ in range(4):
        lo, hi = x1 - width, x1 + width
        f_lo = counted(lo)
        f_hi = counted(hi)
        if f_lo * f_hi <= 0.0:
            root = _brent(counted, lo, f_lo, hi, f_hi, xtol)
            return root, "bracket", n_eval
        width *= 2.0
    raise NoBracket(f"no sign change on [{lo:.4f}, {hi:.4f}] around estimate {x1:.4f}")


def _secant(f, x0: float, f0: float, x1: float, xtol: float,
            window: tuple[float, float]) -> float | None:
    """Secant root of f from (x0, f0) and x1 (inside `window`), or None.

    Stops once a step is at most `xtol` and returns the stepped point
    without evaluating f there.  None when the secant stalls (f1 == f0),
    a step is not finite, an iterate leaves `window` or _SECANT_MAXITER
    steps do not converge.
    """
    lo, hi = window
    f1 = f(x1)
    for _ in range(_SECANT_MAXITER):
        if f1 == f0:
            return None
        step = -f1 * (x1 - x0) / (f1 - f0)
        x2 = x1 + step
        if not lo <= x2 <= hi:    # also false for a non-finite step
            return None
        if abs(step) <= xtol:
            return x2
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
    return None


def _brent(f, xa: float, fa: float, xb: float, fb: float, xtol: float) -> float:
    """Root of f in [xa, xb], where fa = f(xa) and fb = f(xb) differ in sign.

    Brent's method in the steps of scipy.optimize.brentq (inverse
    quadratic or secant steps, bisection when they would be too long), so
    that for the same f, bracket and tolerances it returns the same root.
    Stops when the bracket is below xtol + _BRENT_RTOL |x|.  Raises NoBracket
    after _BRENT_MAXITER steps.
    """
    xpre, fpre, xcur, fcur = xa, fa, xb, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)           # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                   # inverse quadratic
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if fcur == 0.0:
            return xcur
    raise NoBracket(f"Brent's method did not converge in {_BRENT_MAXITER} steps")


def outer_residual_norm(
    ctx: StreamContext, nu_bar: float = 3.0, rho_max: float = 1.0,
    n_r: int = 96, n_theta: int = 180,
) -> float:
    """sup over the outer region (inside |x| <= rho_max) of (1+|x|^nu)|S|.

    The scan is confined to the unit disk: with the rotation term frozen,
    negative speeds reactivate the nonlinearity around |x|^2 ~ 2/|alpha|,
    an artifact of extending the cutoff argument globally.
    """
    rr = np.geomspace(ctx.R / 8.0, rho_max, n_r)
    th = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    x = _polar_points(rr, th)
    flat = x.reshape(-1, 2)
    # outer region: every concentrated coordinate beyond delta/sqrt(log)
    keep = np.ones(flat.shape[0], dtype=bool)
    lim = ctx.delta / ctx.sqrt_log
    for f in ctx.frames:
        z = change_to_local(flat, f)
        keep &= np.hypot(z[..., 0], z[..., 1]) > lim
    pts = flat[keep]
    svals = residual_S(pts, ctx)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    what = f"outer residual norm (nu_bar = {nu_bar:g})"
    with np.errstate(over="ignore"):        # _weighted_sup reports an infinite weight
        return _weighted_sup(svals, 1.0 + rho**nu_bar, what)


def inner_residual_norm(
    ctx: StreamContext, a_decay: float = 0.8, y_cap: float = 300.0,
    n_r: int = 120, n_theta: int = 96,
) -> float:
    """sup of (eps mu)^2 |S| (1+|y|^{2+a}) / (eps mu sqrt log) near a vertex.

    The sup is taken over the part of the inner region where the
    vorticity cutoff is fully on, which is where the concentrated
    expansion of the residual has ε-stable content; the switch ring
    itself carries a bounded but slowly-equilibrating O(U) mismatch.
    """
    flat, yn, weight = _inner_sup_grid(ctx, 0.98, a_decay, y_cap, n_r, n_theta)
    ds, u, s = _inner_terms(flat, ctx, 1)
    deep = yn <= ctx.switch_radius_y
    vals = np.empty(flat.shape[0])
    if np.any(deep):
        vals[deep] = _scaled_residual(flat[deep], ctx, 1, ds[deep], u[deep], s[deep])
    if np.any(~deep):
        x = ctx.frames[0].P + ctx.eps_mu * _mat2(ctx.frames[0].Mj, flat[~deep])
        vals[~deep] = ctx.eps_mu**2 * (
            _concentrated_terms(ctx, x)
            + nonlinearity_F(rotating_argument(x, ctx), ctx)
        )
    mask = _eta_of_s(ctx, s)[0] >= 1.0
    if not np.any(mask):
        raise QuadratureFailure("cutoff never saturates on the inner grid")
    return _weighted_sup(vals[mask], weight[mask], f"inner residual norm (a_decay = {a_decay:g})")


def b_eps_bound_check(ctx: StreamContext, a_decay: float = 0.8, y_cap: float = 200.0,
                      n_r: int = 96, n_theta: int = 64) -> float:
    """Fitted constant of the derivative-deviation bound.

    Computes b(y) = (eps mu)^2 F'(s(x(y))) - e^Gamma(y) on the inner disk
    and returns sup |b| (1+|y|^{2+a}) / (eps mu sqrt|log eps|).
    """
    y, _, weight = _inner_sup_grid(ctx, 0.9, a_decay, y_cap, n_r, n_theta)
    return _weighted_sup(b_eps_inner(y, ctx), weight, f"b_eps bound (a_decay = {a_decay:g})")


def _weighted_sup(vals: np.ndarray, weight: np.ndarray, what: str) -> float:
    """max |vals| weight; NonFiniteError if it is inf or nan, as an overflowed weight makes it."""
    if not math.isfinite(out := float(np.max(np.abs(vals) * weight))):
        raise NonFiniteError(f"{what} is not finite")
    return out


def _inner_sup_grid(ctx: StreamContext, frac, a_decay, y_cap, n_r, n_theta):
    """Flat sup-grid points y, |y| and weights (1+|y|^{2+a})/(eps mu sqrt|log eps|).

    Radii 0 and geomspace(0.05, ymax, n_r), ymax = min(y_cap, frac times the
    inner radius), times the n_theta-point midpoint angles.
    """
    ymax = min(y_cap, frac * ctx.inner_radius_y)
    rr = np.concatenate([[0.0], np.geomspace(0.05, ymax, n_r)])
    th = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    y = _polar_points(rr, th).reshape(-1, 2)
    yn = np.sqrt(_dot2(y, y))
    with np.errstate(over="ignore"):        # _weighted_sup reports an infinite weight
        return y, yn, (1.0 + yn ** (2.0 + a_decay)) / (ctx.eps_mu * ctx.sqrt_log)


def generic_scan_alpha(r: float, h: float, n: int) -> float:
    """Rotation speed offset from the resonant leading value.

    At the resonant speed the first-order tilt of the inner residual
    vanishes and the scan would measure only slowly-varying corrections;
    the offset keeps |alpha| small so the frozen-rotation nonlinearity
    stays subdominant on the unit disk.
    """
    a_star = theorem_alpha(r, h, n, HelixVariant.POLYGON_HELIX)
    return a_star + (1.0 if a_star <= 0.0 else -1.0)


def fit_loglog_slope(eps_values, norms) -> float:
    """Least-squares slope of log(norm) against log(eps); nan for one point."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(norms, dtype=float))
    if x.size < 2:
        return float("nan")
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
