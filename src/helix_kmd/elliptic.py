"""Polar-grid solver for the helical divergence-form operator.

In polar coordinates K is diagonal with eigenvalues (h^2/(h^2+rho^2), 1)
on (e_r, e_theta), so

    div(K grad psi) = (1/rho) d_rho(rho beta(rho) d_rho psi)
                      + (1/rho^2) d_theta^2 psi,
    beta(rho) = h^2/(h^2 + rho^2),

and the equation div(K grad H) = -g separates into angular Fourier
modes.  Each mode solves, on a log-radius grid u = log(rho),

    d_u(beta d_u f_k) - k^2 f_k = -e^{2u} g_k(u),

with regularity at the inner edge (f_k = 0 for k >= 1, anchored value
for k = 0) and the outer condition matching the quadratic-growth far
field: beta d_u f_0 = -Q/(2 pi) carries the total source flux
Q = integral of g, while true harmonics decay like exp(-k rho/h) and are
clamped.  Banded 4th-order finite differences in u; all mode profiles
share one cubic spline in u (one column per mode), which evaluates
values and gradients off the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .errors import SolverDivergence

# points per block when summing the modes: keeps the (points x modes)
# temporaries of value() and gradient() at a few MB
_BLOCK = 2048

__all__ = ["ScalarGrid", "PolarGridSpec", "H2Correction", "solve_k_poisson"]


@dataclass(frozen=True)
class PolarGridSpec:
    """Log-spaced polar grid: n_radial nodes on [rho_min, rho_max]."""

    rho_min: float = 1e-6
    rho_max: float = 20.0
    n_radial: int = 512
    n_angular: int = 256

    def radial_nodes(self) -> np.ndarray:
        return np.exp(self.u_nodes())

    def u_nodes(self) -> np.ndarray:
        return np.linspace(np.log(self.rho_min), np.log(self.rho_max), self.n_radial)

    def theta_nodes(self) -> np.ndarray:
        return np.arange(self.n_angular) * (2.0 * np.pi / self.n_angular)


@dataclass(frozen=True)
class ScalarGrid:
    """Sampled planar scalar field on a polar grid (values[i_rho, j_theta])."""

    rho: np.ndarray
    theta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.rho.size, self.theta.size):
            raise ValueError("values shape must be (n_rho, n_theta)")
        if not np.all(np.isfinite(self.values)):
            raise SolverDivergence("non-finite grid values")
        if np.any(np.diff(self.rho) <= 0.0):
            raise ValueError("radial nodes must increase")


def _banded_mode_matrix(u: np.ndarray, beta: np.ndarray, beta_u: np.ndarray,
                        k2: float) -> np.ndarray:
    """Banded (ab-form, bandwidth 2) matrix of beta f'' + beta_u f' - k^2 f.

    Entry (i, i - 2 + m) of the operator is stored at ab[4 - m, i - 2 + m].
    """
    n = u.size
    du = u[1] - u[0]
    ab = np.zeros((5, n))
    # 4th-order central stencils on the interior rows i = 2 .. n-3
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * du * du)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * du)
    b, bu = beta[2:n - 2], beta_u[2:n - 2]
    for m in range(5):
        ab[4 - m, m:n - 4 + m] = b * c2[m] + bu * c1[m]
    ab[2, 2:n - 2] += -k2
    # 2nd-order stencils on the rows next to the edges
    for i in (1, n - 2):
        b, bu = beta[i], beta_u[i]
        ab[3, i - 1] = b / du**2 - bu / (2.0 * du)
        ab[2, i] = -2.0 * b / du**2 - k2
        ab[1, i + 1] = b / du**2 + bu / (2.0 * du)
    return ab


def _solve_mode(u, beta, beta_u, k, rhs):
    """Solve one angular mode k >= 1 with decay (Dirichlet) edge conditions."""
    n = u.size
    ab = _banded_mode_matrix(u, beta, beta_u, float(k * k))
    b = rhs.astype(complex).copy()

    def put(i, j, val):
        ab[2 + i - j, j] += val

    put(0, 0, 1.0)
    b[0] = 0.0
    put(n - 1, n - 1, 1.0)
    b[-1] = 0.0
    sol = solve_banded((2, 2), ab, b)
    if not np.all(np.isfinite(sol.view(float))):
        raise SolverDivergence("mode solve produced non-finite values")
    return sol


def _solve_mode0(u, beta, g0_hat):
    """Radial mode by exact integration: beta f' = -G(u), G' = e^{2u} g0.

    Keeps the discrete flux identical to the source integral, so the
    quadratic-growth far field continues seamlessly at the outer edge.
    Returns (f0, G) with f0(umin) = 0.
    """
    from scipy.integrate import cumulative_simpson

    e2u = np.exp(2.0 * u)
    G = cumulative_simpson(e2u * g0_hat, x=u, initial=0.0)
    f0 = -cumulative_simpson(G / beta, x=u, initial=0.0)
    if not np.all(np.isfinite(np.asarray(f0, dtype=complex).view(float))):
        raise SolverDivergence("radial mode produced non-finite values")
    return f0, G


def _add_columns(out: np.ndarray, terms: np.ndarray) -> None:
    """out += terms[:, m] for each mode m in turn (mode order, no pairwise sum)."""
    for m in range(terms.shape[1]):
        out += terms[:, m]


class H2Correction:
    """Solution field of div(K grad H) = -g with H(anchor) = 0.

    Stores the angular-mode radial profiles as one cubic spline in
    log-radius with a column per mode.  value() and gradient() sum the
    modes block by block and work anywhere: inside rho_min the field is
    frozen at its inner value, outside rho_max the mode-0 far field
    determined by the source flux continues analytically.  The sampled
    field on the solver grid (`grid`) is assembled on first access.
    """

    def __init__(self, spec: PolarGridSpec, h: float, modes: np.ndarray,
                 weights: np.ndarray, wavenumbers: np.ndarray, flux: float):
        self.spec = spec
        self.h = float(h)
        self._u = spec.u_nodes()
        self._modes = modes
        self._spline = CubicSpline(self._u, modes.T, axis=0)
        self._dspline = self._spline.derivative()
        self._w = weights
        self._k = wavenumbers
        self._ik = 1j * wavenumbers
        self.flux = float(flux)
        self.offset = 0.0

    @cached_property
    def grid(self) -> ScalarGrid:
        """Mode sum on the solver grid, without the anchor offset."""
        theta = self.spec.theta_nodes()
        values = np.zeros((self.spec.n_radial, self.spec.n_angular))
        for m, w, k in zip(self._modes, self._w, self._k):
            values += w * (m[:, None] * np.exp(1j * k * theta)[None, :]).real
        return ScalarGrid(self.spec.radial_nodes(), theta, values)

    def set_anchor(self, x: np.ndarray) -> None:
        """Shift the additive constant so the field vanishes at x."""
        self.offset = 0.0
        self.offset = float(self.value(np.asarray(x, dtype=float)))

    def _polar(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        return rho, theta

    def value(self, x: np.ndarray) -> np.ndarray:
        rho, theta = self._polar(x)
        umin, umax = self._u[0], self._u[-1]
        u = np.log(np.maximum(rho, 1e-300))
        uc = np.clip(u, umin, umax)
        out = np.zeros(rho.size)
        uf, tf = uc.ravel(), theta.ravel()
        for i in range(0, rho.size, _BLOCK):
            b = slice(i, i + _BLOCK)
            ph = np.exp(self._ik * tf[b, None])
            _add_columns(out[b], self._w * (self._spline(uf[b]) * ph).real)
        out = out.reshape(rho.shape)
        # mode-0 analytic continuation outside the disk
        far = u > umax
        if np.any(far):
            q = -self.flux / (2.0 * np.pi)
            du = u - umax
            rr = np.exp(2.0 * u) - np.exp(2.0 * umax)
            out = np.where(far, out + q * (du + rr / (2.0 * self.h**2)), out)
        return out - self.offset

    def gradient(self, x: np.ndarray) -> np.ndarray:
        rho, theta = self._polar(x)
        umin, umax = self._u[0], self._u[-1]
        u = np.log(np.maximum(rho, 1e-300))
        uc = np.clip(u, umin, umax)
        d_rho = np.zeros(rho.size)
        d_theta = np.zeros(rho.size)
        uf, tf = uc.ravel(), theta.ravel()
        for i in range(0, rho.size, _BLOCK):
            b = slice(i, i + _BLOCK)
            ph = np.exp(self._ik * tf[b, None])
            _add_columns(d_rho[b], self._w * (self._dspline(uf[b]) * ph).real)
            _add_columns(
                d_theta[b], self._w * (self._ik * self._spline(uf[b]) * ph).real
            )
        d_rho = d_rho.reshape(rho.shape)
        d_theta = d_theta.reshape(rho.shape)
        inside = u < umin
        d_rho = np.where(inside, 0.0, d_rho)
        d_theta = np.where(inside, 0.0, d_theta)
        far = u > umax
        if np.any(far):
            q = -self.flux / (2.0 * np.pi)
            beta = self.h**2 / (self.h**2 + np.exp(2.0 * u))
            d_rho = np.where(far, q / beta, d_rho)
            d_theta = np.where(far, 0.0, d_theta)
        rho_safe = np.maximum(rho, 1e-300)
        er = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        et = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        return (
            (d_rho / rho_safe)[..., None] * er
            + (d_theta / rho_safe)[..., None] * et
        )


def solve_k_poisson(
    g_samples: np.ndarray, spec: PolarGridSpec, h: float,
    mode_cut: float = 1e-13,
) -> H2Correction:
    """Solve div(K grad H) = -g from samples g[i_rho, j_theta]."""
    nr, nt = g_samples.shape
    if nr != spec.n_radial or nt != spec.n_angular:
        raise ValueError("sample shape does not match grid spec")
    u = spec.u_nodes()
    rho = np.exp(u)
    beta = h * h / (h * h + rho * rho)
    beta_u = -2.0 * beta * rho * rho / (h * h + rho * rho)
    ghat = np.fft.rfft(g_samples, axis=1)           # (nr, nt/2+1)
    e2u = np.exp(2.0 * u)
    n_modes = ghat.shape[1]
    scale = np.max(np.abs(ghat)) + 1e-300
    modes, weights, ks = [], [], []
    sol0, G0 = _solve_mode0(u, beta, ghat[:, 0].real)
    flux = float(2.0 * np.pi * G0[-1] / nt)
    modes.append(sol0.astype(complex))
    weights.append(1.0 / nt)
    ks.append(0)
    for k in range(1, n_modes):
        w = 1.0 / nt if k == nt // 2 else 2.0 / nt
        if np.max(np.abs(ghat[:, k])) < mode_cut * scale:
            continue
        sol = _solve_mode(u, beta, beta_u, k, -e2u * ghat[:, k])
        modes.append(sol)
        weights.append(w)
        ks.append(k)
    return H2Correction(
        spec, h, np.array(modes), np.array(weights), np.array(ks), flux,
    )
