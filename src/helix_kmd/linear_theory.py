r"""Linearized Liouville operator: kernel, projections, radial solver.

The linearization Delta + e^Gamma around the unit bubble has a
three-dimensional bounded kernel

    Z0 = 2 + y . grad Gamma = 2 (1-|y|^2)/(1+|y|^2),
    Zi = d Gamma / d y_i    = -4 y_i/(1+|y|^2),

which obstructs solvability: the desk-scale projected solver expands the
right-hand side in angular modes and solves each radial two-point
problem on a log grid, bordering the resonant modes (k = 0 against Z0,
k = 1 against the radial factor of Z1/Z2) with a multiplier d_j and an
orthogonality row, so that

    Delta phi + e^Gamma phi + h = d0 e^G Z0 + d1 e^G Z1 + d2 e^G Z2.

For h orthogonal-ish to the kernel the d_j reproduce the projection
formula d_j ~ gamma_j \int h Z_j with gamma_j^-1 = \int e^G Z_j^2
= 32 pi / 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import rfft
from numpy.polynomial.legendre import leggauss

from .elliptic import _Banded, _banded_matvec, _ColumnSpline, _polar_points, _radial_stencil
from .errors import ODESolveFailure, QuadratureFailure, SlowDecay

__all__ = [
    "kernel_Z",
    "phi2o",
    "gamma_constants",
    "ProjectedSolution",
    "projected_solve",
]


def kernel_Z(j: int, y: np.ndarray) -> np.ndarray:
    """Bounded kernel elements of the linearized bubble operator."""
    y = np.asarray(y, dtype=float)
    v = np.einsum("...i,...i->...", y, y)
    if j == 0:
        return 2.0 * (1.0 - v) / (1.0 + v)
    if j in (1, 2):
        return -4.0 * y[..., j - 1] / (1.0 + v)
    raise ValueError("kernel index must be 0, 1 or 2")


def phi2o(y: np.ndarray) -> np.ndarray:
    """Radial solution of Delta p + e^G p + e^G Z0 = 0, p(0) = -8/3, at points
    y of shape (..., 2)."""
    y = np.asarray(y, dtype=float)
    v = np.einsum("...i,...i->...", y, y)
    return (4.0 / 3.0) * (v - 1.0) / (v + 1.0) * np.log1p(v) - (8.0 / 3.0) / (v + 1.0)


def _half_line_integral(f) -> tuple[float, float]:
    """Integral of f over [0, inf) and an error estimate.

    Gauss-Legendre with 16 nodes in t = s/(1+s) on [0, 1], where
    ds = dt/(1-t)^2; integrands decaying like s^-2 or faster map to
    bounded functions of t.  The error estimate is the difference to the
    8-node rule.
    """

    def rule(n):
        t, w = leggauss(n)
        t = 0.5 * (t + 1.0)
        return float(np.sum(0.5 * w * f(t / (1.0 - t)) / (1.0 - t) ** 2))

    value = rule(16)
    return value, abs(value - rule(8))


def gamma_constants() -> tuple[float, float]:
    """(gamma_0, gamma_1) with gamma_j^-1 = int e^Gamma Z_j^2 over the plane.

    Raises QuadratureFailure when an error estimate exceeds 1e-8.  In
    t = s/(1+s) the radial integrands are the polynomials 32 pi (1-2t)^2
    and 64 pi t(1-t), which the 16-node rule integrates exactly.
    """

    def w0(s):
        return math.pi * 32.0 * (1.0 - s) ** 2 / (1.0 + s) ** 4

    def w1(s):
        return 64.0 * math.pi * s / (1.0 + s) ** 4

    i0, e0 = _half_line_integral(w0)
    i1, e1 = _half_line_integral(w1)
    if e0 > 1e-8 or e1 > 1e-8:
        raise QuadratureFailure("kernel normalization quadrature failed")
    return 1.0 / i0, 1.0 / i1


def _e_gamma(rho: np.ndarray) -> np.ndarray:
    return 8.0 / (1.0 + rho * rho) ** 2


def _z0_radial(rho: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - rho * rho) / (1.0 + rho * rho)


def _z1_radial(rho: np.ndarray) -> np.ndarray:
    return -4.0 * rho / (1.0 + rho * rho)


def _apply_bcs(bands: np.ndarray, rhs: np.ndarray, u: np.ndarray, k: int):
    """Inner regularity and outer decay-matched Robin rows."""
    n = u.size
    du = u[1] - u[0]
    if k == 0:
        # phi_u(umin) = 0 (radial regularity)
        bands[2:, 0] = -1.5 / du, 2.0 / du, -0.5 / du
        # outer: kill the log branch, phi_u(umax) = 0
        bands[:3, n - 1] = 0.5 / du, -2.0 / du, 1.5 / du
    else:
        bands[2, 0] = 1.0
        # outer: phi ~ rho^-k, i.e. phi_u + k phi = 0
        bands[:3, n - 1] = 0.5 / du, -2.0 / du, 1.5 / du + float(k)
    rhs[0] = 0.0
    rhs[n - 1] = 0.0
    return bands, rhs


def _radial_rows(u: np.ndarray, k: int, h_k: np.ndarray, border: np.ndarray | None):
    """Bands, right-hand side and border of radial mode k.

    Returns (bands, rhs, col, row): the row-aligned bands of
    phi_uu - k^2 phi + e^{2u} e^G phi with its boundary rows,
    rhs = -e^{2u} h_k (h_k of shape (n, columns)) with pinned ends, and
    for a `border` the multiplier column
    col = e^{2u} e^G border, zero at both ends, and the extra row: the outer
    Dirichlet row for k = 0, else the e^G-weighted orthogonality row.  The
    bordered system is [[A, -col], [row, 0]] [phi; d] = [rhs; 0].  col and
    row are None without a border.
    """
    e2u = np.exp(2.0 * u)
    potential = e2u * _e_gamma(np.exp(u))
    bands = _radial_stencil(u, np.ones(u.size), np.zeros(u.size), potential - float(k * k))
    bands, rhs = _apply_bcs(bands, -(e2u[:, None] * h_k), u, k)
    if border is None:
        return bands, rhs, None, None
    col = potential * border
    if k == 0:
        row = np.zeros(u.size)
        row[-1] = 1.0
    else:
        row = col.copy()
    col[0] = col[-1] = 0.0
    return bands, rhs, col, row


def _radial_solve(u: np.ndarray, hc: np.ndarray, hs: np.ndarray):
    """Solve the radial modes k = 0 .. K for cos and sin sources hc, hs (n, K+1).

    Returns phi (n, K+1, 2), the cos and sin solutions, and the
    multipliers d (2, 2) of the bordered modes k = 0 (Z0, cos column) and
    k = 1 (Z1, both columns), zero for a mode beyond K.  k = 0: the
    multiplier removes the log branch, so both the value and the slope
    are pinned at the outer edge and the solution decays; no kernel
    ambiguity remains.  k = 1: the bounded kernel element satisfies the
    homogeneous problem, so the border is paired with an e^Gamma-weighted
    orthogonality row instead.

    All modes share one _Banded factor, with the border column as a third
    right-hand side; the bordered modes take the Schur complement
    phi = y1 + d y2, with d from the border row.  One step of iterative
    refinement follows, since A_1 is nearly singular along Z1.
    """
    n, m = hc.shape
    nb = min(m, 2)                               # bordered modes
    rho = np.exp(u)
    borders = (_z0_radial(rho), _z1_radial(rho))
    bands = np.empty((5, n, m))
    rhs = np.zeros((n, m, 3))
    rows = np.empty((nb, n))
    for k in range(m):
        border = borders[k] if k < nb else None
        bands[..., k], rhs[:, k, :2], col, row = _radial_rows(
            u, k, np.stack([hc[:, k], hs[:, k]], axis=1), border)
        if border is not None:
            rhs[:, k, 2], rows[k] = col, row
    system = _Banded(bands)
    y = system.solve(rhs)
    phi, y2 = y[..., :2], y[:, :nb, 2]
    ry2 = np.einsum("kn,nk->k", rows, y2)

    def border_step(w, s):
        """Add the multiple of y2 that makes row . w = s; return it."""
        dd = (s - np.einsum("kn,nkc->kc", rows, w[:, :nb])) / ry2[:, None]
        w[:, :nb] += y2[:, :, None] * dd
        return dd

    d = np.zeros((2, 2))
    d[:nb] = border_step(phi, 0.0)
    res = rhs[..., :2] - _banded_matvec(bands, phi)
    res[:, :nb] += rhs[:, :nb, 2:] * d[:nb]
    z = system.solve(res)
    d[:nb] += border_step(z, -np.einsum("kn,nkc->kc", rows, phi[:, :nb]))
    phi += z
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(d))):
        raise ODESolveFailure("radial mode solve diverged")
    return phi, d


@dataclass
class ProjectedSolution:
    """phi and the kernel multipliers (d0, d1, d2) of a projected solve.

    modes[:, k] holds the cos and sin radial modes of cos(k theta) and
    sin(k theta) on the knots u, shape (n, K+1, 2).
    """

    u: np.ndarray
    modes: np.ndarray
    d: tuple[float, float, float]
    rho_max: float

    @cached_property
    def _spline(self) -> _ColumnSpline:
        """One spline over every mode's cos and sin columns."""
        return _ColumnSpline(self.u, self.modes.reshape(self.u.size, -1))

    def phi(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        rho = np.hypot(y[..., 0], y[..., 1])
        theta = np.arctan2(y[..., 1], y[..., 0])
        uc = np.clip(np.log(np.maximum(rho, 1e-300)), self.u[0], self.u[-1])
        vals = self._spline(uc.ravel()).reshape(rho.shape + self.modes.shape[1:])
        kt = np.multiply.outer(theta, np.arange(self.modes.shape[1]))
        return np.sum(vals[..., 0] * np.cos(kt) + vals[..., 1] * np.sin(kt), axis=-1)

    def weighted_norm(self, m: float) -> float:
        """sup (1+|y|)^{m-2} |phi| over the solved disk, on 400 radii x 64 angles."""
        rho = np.geomspace(np.exp(self.u[0]), self.rho_max, 400)
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        y = _polar_points(rho, th)
        vals = np.abs(self.phi(y))
        w = (1.0 + rho) ** (m - 2.0)
        return float(np.max(vals * w[:, None]))


def _decay_exponent(h_func, rho_max: float) -> float:
    """Fitted decay rate of max_theta |h| over the outer decade."""
    rho = np.geomspace(rho_max / 10.0, rho_max, 12)
    th = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    y = _polar_points(rho, th)
    prof = np.max(np.abs(h_func(y)), axis=1)
    if np.max(prof) < 1e-14:
        return np.inf
    prof = np.maximum(prof, 1e-300)
    return -float(np.polyfit(np.log(rho), np.log(prof), 1)[0])


def projected_solve(
    h_func,
    rho_max: float = 100.0,
    n_radial: int = 3072,
) -> ProjectedSolution:
    """Solve the projected linearized problem for a planar source h(y).

    h_func must be vectorized over y of shape (..., 2) and decay faster
    than |y|^-2; SlowDecay otherwise.  The angular modes 0..8 are solved on
    n_radial log-spaced radii in [1e-5, rho_max].  Returns the solution with
    kernel components removed and the multipliers (d0, d1, d2).
    """
    modes, rho_min, block = 8, 1e-5, 256
    m_fit = _decay_exponent(h_func, rho_max)
    if m_fit <= 2.0:
        raise SlowDecay(f"source decays like |y|^-{m_fit:.2f}; need faster than -2")
    n_theta = max(32, 4 * modes)
    u = np.linspace(math.log(rho_min), math.log(rho_max), n_radial)
    rho = np.exp(u)
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    # h_func acts pointwise and rfft per radius, so blocks give the same modes
    hh = np.empty((n_radial, modes + 1), dtype=complex)
    for i in range(0, n_radial, block):
        b = slice(i, i + block)
        hh[b] = rfft(h_func(_polar_points(rho[b], th)), axis=1)[:, :modes + 1]
    # n_theta > 2 modes: no solved mode is the Nyquist mode
    scale = np.full(modes + 1, 2.0 / n_theta)
    scale[0] = 1.0 / n_theta
    phi, d = _radial_solve(u, scale * hh.real, -scale * hh.imag)
    # remove residual k=1 kernel components in the e^Gamma-weighted product
    # (mode 0 is already unique: its far field is pinned to zero)
    z1 = _z1_radial(rho)
    wz1 = np.exp(2.0 * u) * _e_gamma(rho) * z1
    phi[:, 1] -= np.multiply.outer(z1, wz1 @ phi[:, 1] / np.sum(wz1 * z1))
    return ProjectedSolution(
        u=u, modes=phi, d=(float(d[0, 0]), float(d[1, 0]), float(d[1, 1])), rho_max=rho_max,
    )
