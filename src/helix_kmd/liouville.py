"""Radial Liouville profiles and the local regularized stream profile.

The basic concentration bubble is the radial solution of Delta u + e^u = 0
with mass 8*pi:

    Gamma(y)      = log(8 / (1+|y|^2)^2)
    Gamma_em(z)   = log(8 / (s^2+|z|^2)^2),   s = eps*mu,
    U(y)          = e^Gamma = 8 / (1+|y|^2)^2,

so that -Delta Gamma_em = s^2 exp(Gamma_em); LocalProfile at R = 0 is
Gamma_em.

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

from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfig
from .screw_operator import _dot2

_SERIES_TERMS = 140
_T_SWITCH = 0.7

# series coefficients, highest power first for Horner evaluation
_W0_C = np.array(
    [1.0] + [(-1.0) ** m * 3.0 / (m + 3.0) for m in range(1, _SERIES_TERMS)]
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
    return np.log(8.0) - 2.0 * np.log1p(_dot2(y, y))


def liouville_density(y: np.ndarray) -> np.ndarray:
    """U(y) = 8/(1+|y|^2)^2, the unit-mass concentration density."""
    y = np.asarray(y, dtype=float)
    return 8.0 / (1.0 + _dot2(y, y)) ** 2


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


def _re_cube(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re((x + i y)^3) = x^3 - 3 x y^2; the cube as products, not libm pow."""
    return x * x * x - 3.0 * x * y**2


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


def _h1_weights(v: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W(v), W'(v), W''(v) from one kernel evaluation; a = (eps*mu)^2 and
    h1(r) = r^3 W(r^2)."""
    w0, s0, w2 = _kernels(np.asarray(v, dtype=float) / a)
    return w0 / (12.0 * a), -s0 / (4.0 * a * a), w2 / a**3


class _Terms(NamedTuple):
    """Intermediates of Psi shared by value, grad, hess and laplacian.

    The first-order pieces (r, dg, dq, dp3) are None in a value-only record.
    """

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    av: np.ndarray         # a + |z|^2
    g: np.ndarray          # Gamma_em
    q: np.ndarray          # 1 + c1 z1 + c2 |z|^2
    p3: np.ndarray         # Re(z^3)
    W: np.ndarray
    Wp: np.ndarray
    Ws: np.ndarray
    r: np.ndarray | None = None      # -4/(a+|z|^2): grad Gamma_em = r z
    dg: np.ndarray | None = None
    dq: np.ndarray | None = None
    dp3: np.ndarray | None = None


class LocalProfile:
    """Regularized local stream profile Psi with analytic derivatives.

    Psi(z) = Gamma_em(z) q(z) + kH W(|z|^2) P3(z), q = 1 + c1 z1 + c2|z|^2,
    P3 = Re(z^3).  All methods are vectorized over z of shape (..., 2).

    value, grad, hess and laplacian share one set of intermediates:
    a+|z|^2, Gamma_em, q, P3, the gradients of Gamma_em, q and P3, and the
    H1 weights W, W', W'' from a single kernel evaluation.  `_terms(z)`
    computes them once; pass the record as `terms=` to evaluate several
    derivatives at the same points (each method builds its own when called
    alone).  The arithmetic per entry is the same either way.
    """

    def __init__(self, eps: float, mu: float, R: float, h: float):
        self.eps = float(eps)
        self.mu = float(mu)
        self.R = float(R)
        self.h = float(h)
        self.eps_mu = self.eps * self.mu
        self.a = self.eps_mu**2
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise DegenerateConfig("eps*mu underflowed; out of supported range")
        self.c1, self.c2 = c_coefficients(R, h)
        self.kH = mode3_amplitude(R, h)
        self.kE = dipole_coefficient(R, h)

    def _terms(self, z: np.ndarray, derivatives: bool = True) -> _Terms:
        """Shared intermediates at z; value-only when derivatives is False."""
        z = np.asarray(z, dtype=float)
        x, y = z[..., 0], z[..., 1]
        v = _dot2(z, z)
        av = self.a + v
        g = np.log(8.0) - 2.0 * np.log(av)
        q = 1.0 + self.c1 * x + self.c2 * v
        p3 = _re_cube(x, y)
        W, Wp, Ws = _h1_weights(v, self.a)
        t = _Terms(z, x, y, av, g, q, p3, W, Wp, Ws)
        if not derivatives:
            return t
        r = -4.0 / av
        return t._replace(
            r=r,
            dg=r[..., None] * z,
            dq=np.stack([self.c1 + 2.0 * self.c2 * x, 2.0 * self.c2 * y], axis=-1),
            dp3=np.stack([3.0 * x**2 - 3.0 * y**2, -6.0 * x * y], axis=-1),
        )

    def value(self, z: np.ndarray, terms: _Terms | None = None) -> np.ndarray:
        t = self._terms(z, derivatives=False) if terms is None else terms
        return t.g * t.q + self.kH * t.W * t.p3

    def grad(self, z: np.ndarray, terms: _Terms | None = None) -> np.ndarray:
        t = self._terms(z) if terms is None else terms
        out = t.q[..., None] * t.dg + t.g[..., None] * t.dq
        out += self.kH * (2.0 * (t.Wp * t.p3)[..., None] * t.z + t.W[..., None] * t.dp3)
        return out

    def hess(self, z: np.ndarray, terms: _Terms | None = None) -> np.ndarray:
        """Hessian (..., 2, 2), assembled one component at a time."""
        t = self._terms(z) if terms is None else terms
        x, y, q, g, r, p3 = t.x, t.y, t.q, t.g, t.r, t.p3
        # Gamma_em: grad = r z, hess = r I + s z z^T
        s = 8.0 / t.av**2
        dg1, dg2 = t.dg[..., 0], t.dg[..., 1]
        dq1, dq2 = t.dq[..., 0], t.dq[..., 1]
        dp1, dp2 = t.dp3[..., 0], t.dp3[..., 1]
        W = t.W
        wz = 4.0 * (t.Ws * p3)
        wd = 2.0 * t.Wp
        xx, xy, yy = x * x, x * y, y * y
        out = np.empty(t.z.shape[:-1] + (2, 2))
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

    def laplacian(self, z: np.ndarray, terms: _Terms | None = None) -> np.ndarray:
        """Delta Psi; the H1 block contributes exactly -P3/(a+|z|^2)^2."""
        t = self._terms(z) if terms is None else terms
        lap_g = -8.0 * self.a / t.av**2
        out = (
            t.q * lap_g + 2.0 * _dot2(t.dg, t.dq)
            + 4.0 * self.c2 * t.g
        )
        out += self.kH * (-t.p3 / t.av**2)
        return out

    def delta_value(self, z0: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """Psi(z0+dz) - Psi(z0) without cancellation for |dz| << |z0|.

        z0's intermediates come from `_terms`.  The Gamma and polynomial
        parts are differenced exactly (log1p on the increment of |z|^2); the
        tiny H1 part uses a second-order Taylor step.  Against a 120-digit
        oracle (tests/test_oracle.py) the step costs the deep-core residual
        (|y| <= 4, r = h = 1, N = 3, alpha = -1) 2.9e-7 of its largest value
        at eps = e^-10; from e^-20 on the gap is < 5e-13.
        """
        t = self._terms(z0)
        dz = np.asarray(dz, dtype=float)
        zd = _dot2(t.z, dz)
        dd = _dot2(dz, dz)
        pd = _dot2(t.dp3, dz)
        cross = 2.0 * zd + dd
        g1 = np.log(8.0) - 2.0 * np.log(t.av + cross)
        dgam = -2.0 * np.log1p(cross / t.av)
        dq = self.c1 * dz[..., 0] + self.c2 * cross
        # H1 increment: first-order term plus explicit curvature correction
        lin = 2.0 * t.Wp * t.p3 * zd + t.W * pd
        quad = (
            2.0 * t.Ws * t.p3 * zd * zd
            + t.Wp * (t.p3 * dd + 2.0 * zd * pd)
            + 0.5
            * t.W
            * (
                6.0 * t.x * dz[..., 0] ** 2
                - 12.0 * t.y * dz[..., 0] * dz[..., 1]
                - 6.0 * t.x * dz[..., 1] ** 2
            )
        )
        dh1 = lin + quad
        return g1 * dq + t.q * dgam + self.kH * dh1
