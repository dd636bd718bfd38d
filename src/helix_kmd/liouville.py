"""Radial Liouville profiles and the local regularized stream profile.

The basic concentration bubble is the radial solution of Delta u + e^u = 0
with mass 8*pi:

    Gamma(y)      = log(8 / (1+|y|^2)^2)
    Gamma_em(z)   = log(8 / (s^2+|z|^2)^2),   s = eps*mu,
    U(y)          = e^Gamma = 8 / (1+|y|^2)^2,

so that -Delta Gamma_em = s^2 exp(Gamma_em).

Around a vortex point at distance R from the axis the local ansatz is

    Psi(z) = Gamma_em(z) * (1 + c1*z1 + c2*|z|^2) + kH * H1(z),

where (c1, c2) remove the unbounded parts of the conjugated operator and
H1(z) = h1(|z|) cos(3*theta) cancels the third-harmonic source

    Delta H1 + Re(z^3)/(s^2+|z|^2)^2 = 0.

h1 is computed in closed form (variation of parameters with basis r^3,
r^-3) as h1(r) = r^3 * W(r^2) with

    W(v)  = w0(v/a) / (12 a),         a = s^2,
    W'(v) = -s0(v/a) / (4 a^2),
    W''(v) = w2(v/a) / a^3,

and the dimensionless kernels w0, s0, w2 evaluated by alternating series
for small t = v/a and by explicit log1p formulas for large t.  The split
avoids the catastrophic cancellation of the naive antiderivative when
v << a, and the closed form satisfies the radial ODE exactly, which keeps
residual evaluations limited by roundoff instead of an ODE tolerance.
"""

from __future__ import annotations

import numpy as np

_SERIES_TERMS = 140
_T_SWITCH = 0.7

# series coefficients, highest power first for Horner evaluation
_W0_C = np.array(
    [1.0] + [(-1.0) ** m * 3.0 / (m + 3.0) for m in range(1, _SERIES_TERMS)]
)[::-1]
_S1_C = np.array(
    [0.0] + [(-1.0) ** (m + 1) * m / (m + 3.0) for m in range(1, _SERIES_TERMS)]
)[::-1]
_S0_C = np.array(
    [(-1.0) ** m * (m + 1.0) / (m + 4.0) for m in range(_SERIES_TERMS)]
)[::-1]
_W2_C = np.array(
    [(-1.0) ** k * (k + 1.0) * (k + 2.0) / (4.0 * (k + 5.0)) for k in range(_SERIES_TERMS)]
)[::-1]


def liouville_unit(y: np.ndarray) -> np.ndarray:
    """Gamma(y) = log 8 - 2 log(1+|y|^2) for y of shape (..., 2)."""
    y = np.asarray(y, dtype=float)
    v = np.einsum("...i,...i->...", y, y)
    return np.log(8.0) - 2.0 * np.log1p(v)


def liouville_density(y: np.ndarray) -> np.ndarray:
    """U(y) = 8/(1+|y|^2)^2, the unit-mass concentration density."""
    y = np.asarray(y, dtype=float)
    v = np.einsum("...i,...i->...", y, y)
    return 8.0 / (1.0 + v) ** 2


def liouville_profile(z: np.ndarray, eps: float, mu: float) -> np.ndarray:
    """Gamma_em(z) = log 8 - 2 log((eps*mu)^2 + |z|^2)."""
    if eps * mu <= 0.0:
        raise ValueError("eps*mu must be positive")
    z = np.asarray(z, dtype=float)
    v = np.einsum("...i,...i->...", z, z)
    return np.log(8.0) - 2.0 * np.log((eps * mu) ** 2 + v)


def c_coefficients(R: float, h: float) -> tuple[float, float]:
    """Linear and quadratic correction coefficients of the local profile."""
    if h == 0.0:
        raise ValueError("h must be nonzero")
    d = h * h + R * R
    c1 = 0.5 * R * h / d**1.5
    c2 = R * R / (8.0 * d * d) * (2.0 * h * h / d + 1.0)
    return c1, c2


def mode3_amplitude(R: float, h: float) -> float:
    """Prefactor of the third-harmonic correction H1 in the local profile."""
    d = h * h + R * R
    return 4.0 * R**3 / (h * d**1.5)


def dipole_coefficient(R: float, h: float) -> float:
    """Coefficient of the retained dipole term s^2 z1/(s^2+|z|^2)^2."""
    d = h * h + R * R
    return 4.0 * R * (3.0 * h * h + R * R) / (h * d**1.5)


def _kernels(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w0, s0, w2 at t = v/a; series below _T_SWITCH, closed form above."""
    t = np.asarray(t, dtype=float)
    w0, s0, w2 = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    small = t < _T_SWITCH
    if np.any(small):
        ts = t[small]
        w0[small] = np.polyval(_W0_C, ts)
        s0[small] = np.polyval(_S0_C, ts)
        w2[small] = np.polyval(_W2_C, ts)
    large = ~small
    if np.any(large):
        tl = t[large]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s1l = (
                0.5 / tl
                - 2.0 / tl**2
                + 3.0 * np.log1p(tl) / tl**3
                - 1.0 / (tl * tl * (1.0 + tl))
            )
            w0[large] = 1.0 / (1.0 + tl) + s1l
            s0[large] = s1l / tl
            w2[large] = s1l / tl**2 - 0.25 / (tl * (1.0 + tl) ** 2)
    return w0, s0, w2


def h1_kernels_unit(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless (w0, s0, w2) kernels at t = |z|^2/(eps*mu)^2."""
    return _kernels(t)


def _h1_weights(v: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W(v), W'(v), W''(v) from one kernel evaluation; a = (eps*mu)^2."""
    w0, s0, w2 = _kernels(np.asarray(v, dtype=float) / a)
    return w0 / (12.0 * a), -s0 / (4.0 * a * a), w2 / a**3


def h1_weight(v: np.ndarray, a: float) -> np.ndarray:
    """W(v) with h1(r) = r^3 W(r^2); a = (eps*mu)^2."""
    return _h1_weights(v, a)[0]


def h1_weight_prime(v: np.ndarray, a: float) -> np.ndarray:
    return _h1_weights(v, a)[1]


def h1_weight_second(v: np.ndarray, a: float) -> np.ndarray:
    return _h1_weights(v, a)[2]


def h1_profile(rho: np.ndarray, eps: float, mu: float) -> np.ndarray:
    """Radial third-harmonic profile h1 with H1(z) = h1(|z|) cos(3 theta).

    Solves h1'' + h1'/r - 9 h1/r^2 = -r^3/((eps*mu)^2 + r^2)^2 with h1
    regular at the origin and h1 = O(r) uniformly as eps*mu -> 0.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("radius must be nonnegative")
    a = (eps * mu) ** 2
    return rho**3 * h1_weight(rho * rho, a)


def h1_value(z: np.ndarray, eps: float, mu: float) -> np.ndarray:
    """H1(z) = h1(|z|) cos(3 theta) = W(|z|^2) Re(z^3)."""
    z = np.asarray(z, dtype=float)
    v = np.einsum("...i,...i->...", z, z)
    p3 = z[..., 0] ** 3 - 3.0 * z[..., 0] * z[..., 1] ** 2
    return h1_weight(v, (eps * mu) ** 2) * p3


class LocalProfile:
    """Regularized local stream profile Psi with analytic derivatives.

    Psi(z) = Gamma_em(z) q(z) + kH W(|z|^2) P3(z), q = 1 + c1 z1 + c2|z|^2,
    P3 = Re(z^3).  All methods are vectorized over z of shape (..., 2).
    """

    def __init__(self, eps: float, mu: float, R: float, h: float):
        self.eps = float(eps)
        self.mu = float(mu)
        self.R = float(R)
        self.h = float(h)
        self.eps_mu = self.eps * self.mu
        self.a = self.eps_mu**2
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise ValueError("eps*mu underflowed; out of supported range")
        self.c1, self.c2 = c_coefficients(R, h)
        self.kH = mode3_amplitude(R, h)
        self.kE = dipole_coefficient(R, h)

    # -- scalar building blocks -------------------------------------------
    def _split(self, z):
        z = np.asarray(z, dtype=float)
        v = np.einsum("...i,...i->...", z, z)
        return z, v

    def gamma(self, z: np.ndarray) -> np.ndarray:
        z, v = self._split(z)
        return np.log(8.0) - 2.0 * np.log(self.a + v)

    def value(self, z: np.ndarray) -> np.ndarray:
        z, v = self._split(z)
        g = np.log(8.0) - 2.0 * np.log(self.a + v)
        q = 1.0 + self.c1 * z[..., 0] + self.c2 * v
        p3 = z[..., 0] ** 3 - 3.0 * z[..., 0] * z[..., 1] ** 2
        return g * q + self.kH * h1_weight(v, self.a) * p3

    def grad(self, z: np.ndarray) -> np.ndarray:
        z, v = self._split(z)
        av = self.a + v
        g = np.log(8.0) - 2.0 * np.log(av)
        q = 1.0 + self.c1 * z[..., 0] + self.c2 * v
        dg = (-4.0 / av)[..., None] * z
        dq = np.stack(
            [self.c1 + 2.0 * self.c2 * z[..., 0], 2.0 * self.c2 * z[..., 1]], axis=-1
        )
        p3 = z[..., 0] ** 3 - 3.0 * z[..., 0] * z[..., 1] ** 2
        dp3 = np.stack(
            [3.0 * z[..., 0] ** 2 - 3.0 * z[..., 1] ** 2, -6.0 * z[..., 0] * z[..., 1]],
            axis=-1,
        )
        W, Wp, _ = _h1_weights(v, self.a)
        out = q[..., None] * dg + g[..., None] * dq
        out += self.kH * (2.0 * (Wp * p3)[..., None] * z + W[..., None] * dp3)
        return out

    def hess(self, z: np.ndarray) -> np.ndarray:
        """Hessian (..., 2, 2), assembled one component at a time."""
        z, v = self._split(z)
        x, y = z[..., 0], z[..., 1]
        av = self.a + v
        g = np.log(8.0) - 2.0 * np.log(av)
        q = 1.0 + self.c1 * x + self.c2 * v
        # Gamma_em: grad = r z, hess = r I + s z z^T
        r = -4.0 / av
        s = 8.0 / av**2
        dg1, dg2 = r * x, r * y
        dq1, dq2 = self.c1 + 2.0 * self.c2 * x, 2.0 * self.c2 * y
        p3 = x**3 - 3.0 * x * y**2
        dp1, dp2 = 3.0 * x**2 - 3.0 * y**2, -6.0 * x * y
        W, Wp, Ws = _h1_weights(v, self.a)
        wz = 4.0 * (Ws * p3)
        wd = 2.0 * Wp
        xx, xy, yy = x * x, x * y, y * y
        out = np.empty(z.shape[:-1] + (2, 2))
        out[..., 0, 0] = (
            q * (r + s * xx) + (dg1 * dq1 + dq1 * dg1) + g * (2.0 * self.c2)
            + self.kH * (wz * xx + wd * (p3 + (x * dp1 + dp1 * x)) + W * (6.0 * x))
        )
        out[..., 1, 1] = (
            q * (r + s * yy) + (dg2 * dq2 + dq2 * dg2) + g * (2.0 * self.c2)
            + self.kH * (wz * yy + wd * (p3 + (y * dp2 + dp2 * y)) + W * (-6.0 * x))
        )
        out[..., 0, 1] = (
            q * (s * xy) + (dg1 * dq2 + dq1 * dg2)
            + self.kH * (wz * xy + wd * (x * dp2 + dp1 * y) + W * (-6.0 * y))
        )
        out[..., 1, 0] = out[..., 0, 1]
        return out

    def laplacian(self, z: np.ndarray) -> np.ndarray:
        """Delta Psi; the H1 block contributes exactly -P3/(a+|z|^2)^2."""
        z, v = self._split(z)
        av = self.a + v
        g = np.log(8.0) - 2.0 * np.log(av)
        q = 1.0 + self.c1 * z[..., 0] + self.c2 * v
        dg = (-4.0 / av)[..., None] * z
        dq = np.stack(
            [self.c1 + 2.0 * self.c2 * z[..., 0], 2.0 * self.c2 * z[..., 1]], axis=-1
        )
        lap_g = -8.0 * self.a / av**2
        p3 = z[..., 0] ** 3 - 3.0 * z[..., 0] * z[..., 1] ** 2
        out = q * lap_g + 2.0 * np.einsum("...i,...i->...", dg, dq) + 4.0 * self.c2 * g
        out += self.kH * (-p3 / av**2)
        return out

    def delta_value(self, z0: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """Psi(z0+dz) - Psi(z0) without cancellation for |dz| << |z0|.

        The Gamma and polynomial parts are differenced exactly (log1p on the
        increment of |z|^2); the tiny H1 part uses a second-order Taylor
        step, whose remainder is far below every retained term.
        """
        z0 = np.asarray(z0, dtype=float)
        dz = np.asarray(dz, dtype=float)
        v0 = np.einsum("...i,...i->...", z0, z0)
        cross = 2.0 * np.einsum("...i,...i->...", z0, dz) + np.einsum(
            "...i,...i->...", dz, dz
        )
        z1 = z0 + dz
        g1 = np.log(8.0) - 2.0 * np.log(self.a + v0 + cross)
        dgam = -2.0 * np.log1p(cross / (self.a + v0))
        q0 = 1.0 + self.c1 * z0[..., 0] + self.c2 * v0
        dq = self.c1 * dz[..., 0] + self.c2 * cross
        # H1 increment: first-order term plus explicit curvature correction
        w, wp, ws = _h1_weights(v0, self.a)
        p30 = z0[..., 0] ** 3 - 3.0 * z0[..., 0] * z0[..., 1] ** 2
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
        dh1 = lin + quad
        return g1 * dq + q0 * dgam + self.kH * dh1
