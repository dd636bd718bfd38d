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

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import liouville as lv
from .configurations import HelixVariant, theorem_alpha
from .elliptic import H2Correction, PolarGridSpec, _polar_points, solve_k_poisson
from .errors import DegenerateConfig, NoBracket, NonFiniteError, QuadratureFailure
from .screw_operator import (
    LocalFrame, _dot2, _mat2, _soa, _to_local_xy, b_operator, change_to_local, local_frame,
)

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
    h2_grad: np.ndarray            # (2,) gradient of H2 at vertex 1
    far_geometry: tuple = field(repr=False, default=())     # vertex 1's, _far_geometry

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

    def leading_alpha(self) -> float:
        return theorem_alpha(self.r, self.h, self.n, HelixVariant.POLYGON_HELIX)


def _far_geometry(frames, i: int = 0):
    """Tables of vertex frames[i] over the other vertices j, in frame order:
    z0[j] = M_j^-1 (P_i - P_j), shape (N-1, 2), and D[j] = M_j^-1 M_i, shape
    (N-1, 2, 2).  By dihedral symmetry every vertex core is a rotated copy of
    vertex 1's, so the inner assembly uses vertex 1's tables alone."""
    fi = frames[i]
    others = frames[:i] + frames[i + 1:]
    return (np.array([fj.Mj_inv @ (fi.P - fj.P) for fj in others]),
            np.array([fj.Mj_inv @ fi.Mj for fj in others]))


def _far_sum(profile: lv.LocalProfile, z0: np.ndarray) -> float:
    return float(np.sum(profile.value(z0)))


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
        return 0.5 * (_far_sum(prof, z0) - alpha_term) - log_mu

    x0 = (n - 1.0) * math.log(abs_log)
    f0 = excess(x0)
    return _root(excess, x0, f0, x0 + f0, 1e-13, max(1.0, 0.75 * abs(f0)))[0]


def mu_relation_rhs(ctx: StreamContext, i: int) -> float:
    """Right-hand side of the mu relation at vertex i (1-based), incl. H2."""
    far = _far_sum(ctx.profile, _far_geometry(ctx.frames, i - 1)[0])
    h2_at = float(ctx.h2.value(ctx.frames[i - 1].P))
    return far + h2_at - 0.5 * ctx.alpha * ctx.r * ctx.r


# -- error density g and the global correction ----------------------------

def _retained(z: np.ndarray, prof: lv.LocalProfile, weight: float = 1.0) -> np.ndarray:
    """weight a (-8 + kE z1)/(a + |z|^2)^2: Delta Gamma_em plus the retained
    dipole term of the vertex profile at local points z."""
    return weight * prof.a * (-8.0 + prof.kE * z[..., 0]) / (prof.a + _dot2(z, z)) ** 2


def _vertex_defect(prof: lv.LocalProfile, z: np.ndarray, f: LocalFrame,
                   frame1: LocalFrame, on_ring: np.ndarray):
    """E(z), the conjugated operator on Psi minus the retained singular terms, and
    Psi and M_j^-T grad Psi at z[on_ring], from one set of the profile's
    intermediates at vertex f's local points z (freed on return)."""
    t = prof._terms(z)
    grad = prof.grad(z, terms=t)
    e = (prof.laplacian(z, terms=t) + b_operator(frame1, z, grad, prof.hess(z, terms=t))
         - _retained(z, prof))
    return e, prof.value(z, terms=t)[on_ring], _mat2(f.Mj_inv.T, grad[on_ring])


# Points per block of solve_H2's defect sampling.  On the default build's 18,524-point
# defect grid error_g's temporaries peak at 1.6 MB (6.5 MB in one call), inside a 2 MiB L2,
# and take 10.2-10.7 ms against 13.4-14.2 ms in one call on a 2-core KVM guest (three runs
# of scripts/thread_scaling.py's table 2); blocks of 2,048, 6,144 and 8,192 points took 21,
# 15 and 14 ms against 16-18 ms at 4,096 (medians of 40 interleaved runs, two-pass error_g).
_POINT_BLOCK = 4096
# g vanishes at rho >= 1 (eta0's support); solve_H2 samples it on the rings inside this
_DEFECT_RHO = 1.02


def error_g(x: np.ndarray, profile: lv.LocalProfile, frames) -> np.ndarray:
    """Compactly supported defect density driving the H2 correction, from the vertex
    profile and frames alone (build_context needs it first): eta0 sum_j E_j plus the
    ring's cutoff commutator sum_j [div(K grad), eta0] Psi_j, in one pass over j."""
    x = np.asarray(x, dtype=float)
    rho = np.hypot(x[..., 0], x[..., 1])
    near = rho < 1.0                    # eta0's support and the ring 1/2 < rho < 1
    x1, x2, rho = x[..., 0][near], x[..., 1][near], rho[near]
    e0 = eta0(rho)
    on_ring = rho > 0.5
    rr, h = rho[on_ring], profile.h
    beta = h * h / (h * h + rr * rr)
    beta_p = -2.0 * rr * h * h / (h * h + rr * rr) ** 2
    e0p = -2.0 * _smoothstep_prime(2.0 * (rr - 0.5))      # eta0'
    e0s = -4.0 * _smoothstep_second(2.0 * (rr - 0.5))     # eta0''
    lap_eta = beta * e0s + e0p * (beta / rr + beta_p)
    rhat = _soa((x1[on_ring] / rr, x2[on_ring] / rr))
    acc, ring_acc = np.zeros(rho.shape), np.zeros(rr.shape)
    for f in frames:
        e, psi_j, grad_x = _vertex_defect(profile, _soa(_to_local_xy(x1, x2, f)), f,
                                          frames[0], on_ring)
        acc += e
        ring_acc += psi_j * lap_eta + 2.0 * e0p * beta * _dot2(rhat, grad_x)
    # eta0 rounds to 0 just inside rho = 1, where only the ring term is left
    g = np.where(e0 > 0.0, e0 * acc, 0.0)
    g[on_ring] += ring_acc
    out = np.zeros(x.shape[:-1])
    out[near] = g
    return out


def solve_H2(profile: lv.LocalProfile, frames, h: float,
             grid: PolarGridSpec) -> H2Correction:
    """Solve div(K grad H2) = -g on the polar grid, anchored at P_1.

    g is invariant under the dihedral group D_N of the polygon (rotations
    by 2 pi/N and the reflection theta -> -theta through P_1), so it is a
    cosine series in N theta.  error_g runs only on the half-sector theta
    in [0, pi/N] of the rho <= _DEFECT_RHO rings, the first n_angular/N // 2 + 1
    angular nodes, and solve_k_poisson takes the series' coefficients from
    these samples.  Raises DegenerateConfig when n_angular is not a
    multiple of N.
    """
    n = len(frames)
    if grid.n_angular % n:
        raise DegenerateConfig(
            f"n_angular = {grid.n_angular} is not a multiple of N = {n}"
        )
    theta = grid.theta_nodes()[: grid.n_angular // n // 2 + 1]
    rows = grid.radial_nodes()
    rows = rows[rows <= _DEFECT_RHO]            # the first rows: rho ascends
    g = np.zeros((grid.n_radial, theta.size))
    # blocks of about _POINT_BLOCK points; all rows in one call while other
    # threads run, as short numpy calls trade the GIL
    step = max(1, rows.size if threading.active_count() > 1 else _POINT_BLOCK // theta.size)
    for lo in range(0, rows.size, step):
        b = slice(lo, min(lo + step, rows.size))
        g[b] = error_g(_polar_points(rows[b], theta), profile, frames)
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
    # necessary, not sufficient: the vertices and the sampled defect band lie on the grid
    if not (grid.rho_min < R and grid.rho_max > _DEFECT_RHO):
        raise DegenerateConfig(f"polar grid [{grid.rho_min:g}, {grid.rho_max:g}] must have "
                               f"rho_min < R = {R:.4g} and rho_max > {_DEFECT_RHO:g}")
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
        h2=h2, h2_grad=h2.gradient(frames[0].P),
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
    """S(x) = div(K grad psi_*) + F(psi_* - (alpha/2)|log eps||x|^2), assembled
    directly: for x outside the vertex cores, where both terms are benign.
    Near a vertex they cancel to below float64 resolution; there
    inner_residual_scaled assembles (eps mu)^2 S.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return _concentrated_terms(ctx, x) + nonlinearity_F(rotating_argument(x, ctx), ctx)


def _inner_terms(y, ctx: StreamContext):
    """(ds, U(y), s) at x = P_1 + eps mu M_1 y with s = Gamma(y) - 4 log eps
    - 2 log mu + ds: the scaled inner assembly of vertex 1, of which every
    other vertex core is a rotated copy.

    ds is assembled from exact difference formulas; every term is
    individually small, so it carries full relative precision even when
    eps*mu ~ 1e-31.
    """
    y = np.asarray(y, dtype=float)
    f = ctx.frames[0]
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
    for z0_j, d_j in zip(z0, dd):
        term_c += prof.delta_value(z0_j, em * _mat2(d_j, y))
    # (d) first-order increment of H2 away from its vertex zero
    term_d = em * _dot2(ctx.h2_grad, my)
    # (e) exact increment of -(alpha/2)|log eps| |x|^2
    pmy = _dot2(f.P, my)
    my2 = _dot2(my, my)
    term_e = -0.5 * ctx.alpha * ctx.abs_log_eps * (2.0 * em * pmy + em * em * my2)
    ds = term_a + term_b + term_c + term_d + term_e
    return ds, 8.0 / (1.0 + yn2) ** 2, gam - 4.0 * math.log(ctx.eps) - 2.0 * ctx.log_mu + ds


def _scaled_residual(y, ctx: StreamContext, ds, u, s) -> np.ndarray:
    """inner_residual_scaled from the inner assembly (ds, u, s) at y."""
    eta, _ = _eta_of_s(ctx, s)
    core = np.where(eta >= 1.0, np.expm1(ds), eta * np.exp(ds) - 1.0)
    em = ctx.eps_mu
    out = u * core + (ctx.profile.kE / 8.0) * em * y[..., 0] * u
    # far-vertex concentrated tails, O((eps mu)^4 / dist^4)
    z0, dd = ctx.far_geometry
    for z0_j, d_j in zip(z0, dd):
        out += _retained(z0_j + em * _mat2(d_j, y), ctx.profile, em * em)
    return out


def inner_residual_scaled(y: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """(eps mu)^2 S at x = P_1 + eps mu M_1 y, cancellation-free."""
    y = np.asarray(y, dtype=float)
    return _scaled_residual(y, ctx, *_inner_terms(y, ctx))


def b_eps_inner(y: np.ndarray, ctx: StreamContext) -> np.ndarray:
    """b(y) = (eps mu)^2 F'(s(x)) - e^Gamma(y) on vertex 1's inner region."""
    ds, u, s = _inner_terms(y, ctx)
    eta, etap = _eta_of_s(ctx, s)
    w = eta + etap
    return u * np.where(w >= 1.0, np.expm1(ds), w * np.exp(ds) - 1.0)


# -- projections, norms, and the speed selection ---------------------------

def _cell_angles(n_theta: int, cells: int) -> np.ndarray:
    """The K = ceil(n_theta/cells) midpoint angles (k + 1/2) 2 pi/(cells K) of
    the sector [0, 2 pi/cells): the first K of the n_theta-point rule, bit for
    bit, when cells divides n_theta."""
    k = -(-n_theta // cells)
    return (np.arange(k) + 0.5) * (2.0 * np.pi / (cells * k))


def _polar_gauss_rule(ctx: StreamContext, frac: float, y_cap: float, floor: float,
                      n_seg: int, n_theta: int, cells: int = 1):
    """Nodes (n_r, K, 2) and weights (n_r, K), K = ceil(n_theta/cells), on the inner disk.

    The disk is |y| <= ymax = min(y_cap, frac times the inner radius);
    QuadratureFailure when ymax <= floor.  Radially, n_seg Gauss-Legendre
    nodes on each of the segments [0, 1], [1, 2], [2, 4], ... (the last one
    ends at ymax); angularly, the n_theta-point midpoint rule on the first
    of `cells` sectors (_cell_angles), each weight standing for its angle's
    whole orbit: the rule of the disk for an integrand with that symmetry.
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
    th = _cell_angles(n_theta, cells)
    y = _polar_points(rr, th)
    w2d = (ww * rr)[:, None] * (2.0 * np.pi / th.size)
    return y, np.broadcast_to(w2d, (rr.size, th.size))


def calA(alpha: float, ctx: StreamContext) -> float:
    """Tilt coefficient of the inner residual at rotation speed `alpha`.

    The normalized projection of the scaled residual onto the translation
    kernel element Z1 over the inner disk; the context (mu, g, H2) is
    rebuilt at `alpha` if it differs.  The residual is even across the
    vertex axis, as Z1 is, so the rule samples the half-disk theta in (0, pi).
    """
    if alpha != ctx.alpha:
        ctx = build_context(ctx.eps, ctx.r, ctx.h, ctx.n, alpha=alpha,
                            delta=ctx.delta, grid=ctx.grid)
    y, w = _polar_gauss_rule(ctx, 0.98, 50.0, 1.0, 24, 64, cells=2)
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


def outer_residual_norm(ctx: StreamContext, n_r: int = 96, n_theta: int = 180) -> float:
    """sup over the outer region of the unit disk of (1+|x|^3)|S|.

    The scan is confined to the unit disk: with the rotation term frozen,
    negative speeds reactivate the nonlinearity around |x|^2 ~ 2/|alpha|,
    an artifact of extending the cutoff argument globally.  S is invariant
    under the dihedral group D_N, so the sup is taken on the half-sector
    theta in [0, pi/N], at the n_theta-point rule's spacing (_cell_angles).
    """
    rr = np.geomspace(ctx.R / 8.0, 1.0, n_r)
    x = _polar_points(rr, _cell_angles(n_theta, 2 * ctx.n))
    flat = x.reshape(-1, 2)
    # outer region: every concentrated coordinate beyond delta/sqrt(log)
    keep = np.ones(flat.shape[0], dtype=bool)
    lim = ctx.delta / ctx.sqrt_log
    for f in ctx.frames:
        z = change_to_local(flat, f)
        keep &= np.hypot(z[..., 0], z[..., 1]) > lim
    pts = flat[keep]
    rho = np.hypot(pts[..., 0], pts[..., 1])
    return _weighted_sup(residual_S(pts, ctx), 1.0 + rho**3.0, "outer residual norm")


def inner_residual_norm(ctx: StreamContext, n_r: int = 120, n_theta: int = 96) -> float:
    """sup of (eps mu)^2 |S| (1+|y|^2.8) / (eps mu sqrt log) near a vertex.

    The sup is taken over the part of the inner region where the
    vorticity cutoff is fully on, which is where the concentrated
    expansion of the residual has ε-stable content; the switch ring
    itself carries a bounded but slowly-equilibrating O(U) mismatch.
    Saturation (s >= X + 2 d_eps) holds only within |y| < delta^2/(eps mu
    sqrt|log eps|), inside the core, so the scaled residual covers it.
    """
    y, weight = _inner_sup_grid(ctx, 0.98, 300.0, n_r, n_theta)
    ds, u, s = _inner_terms(y, ctx)
    mask = _eta_of_s(ctx, s)[0] >= 1.0
    if not np.any(mask):
        raise QuadratureFailure("cutoff never saturates on the inner grid")
    vals = _scaled_residual(y[mask], ctx, ds[mask], u[mask], s[mask])
    return _weighted_sup(vals, weight[mask], "inner residual norm")


def b_eps_bound_check(ctx: StreamContext, n_r: int = 96, n_theta: int = 64) -> float:
    """Fitted constant of the derivative-deviation bound.

    Computes b(y) = (eps mu)^2 F'(s(x(y))) - e^Gamma(y) on the inner disk
    and returns sup |b| (1+|y|^2.8) / (eps mu sqrt|log eps|).
    """
    y, weight = _inner_sup_grid(ctx, 0.9, 200.0, n_r, n_theta)
    return _weighted_sup(b_eps_inner(y, ctx), weight, "b_eps bound")


def _weighted_sup(vals: np.ndarray, weight: np.ndarray, what: str) -> float:
    """max |vals| weight; NonFiniteError if it is inf or nan, as an overflowed residual makes it."""
    if not math.isfinite(out := float(np.max(np.abs(vals) * weight))):
        raise NonFiniteError(f"{what} is not finite")
    return out


def _inner_sup_grid(ctx: StreamContext, frac, y_cap, n_r, n_theta):
    """Flat sup-grid points y and weights (1+|y|^2.8)/(eps mu sqrt|log eps|).

    The origin, then radii geomspace(0.05, ymax, n_r), ymax = min(y_cap, frac
    times the inner radius), times the n_theta-point midpoint angles of the
    half-disk theta in (0, pi): the inner fields are even across the vertex axis.
    """
    ymax = min(y_cap, frac * ctx.inner_radius_y)
    rings = _polar_points(np.geomspace(0.05, ymax, n_r), _cell_angles(n_theta, 2))
    y = np.concatenate([np.zeros((1, 2)), rings.reshape(-1, 2)])
    return y, (1.0 + np.sqrt(_dot2(y, y)) ** 2.8) / (ctx.eps_mu * ctx.sqrt_log)


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
