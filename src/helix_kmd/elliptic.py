"""Polar-grid solver for the helical divergence-form operator.

In polar coordinates K is diagonal with eigenvalues (h^2/(h^2+rho^2), 1)
on (e_r, e_theta), so

    div(K grad psi) = (1/rho) d_rho(rho beta(rho) d_rho psi)
                      + (1/rho^2) d_theta^2 psi,
    beta(rho) = h^2/(h^2 + rho^2),

and the equation div(K grad H) = -g separates into angular Fourier
modes.  The sources here are dihedral: even in theta and of period
2 pi/N, so g and H are real cosine series in N theta,

    g = sum_m g_m(rho) cos(N m theta),   H = sum_m f_m(rho) cos(N m theta),

and each mode k = N m solves, on a log-radius grid u = log(rho),

    d_u(beta d_u f_m) - k^2 f_m = -e^{2u} g_m(u),

with regularity at the inner edge (f_m = 0 for m >= 1, anchored value
for m = 0) and the outer condition matching the quadratic-growth far
field: beta d_u f_0 = -Q/(2 pi) carries the total source flux
Q = integral of g, while true harmonics decay like exp(-k rho/h) and are
clamped.  g_m comes from a cosine sum over one half-sector of samples.
Banded 4th-order finite differences in u; all mode profiles share one
cubic spline in u (one column per mode), which evaluates values and
gradients off the grid, with cos(N m theta) and sin(N m theta) from a
Chebyshev recurrence in m.

The module imports numpy only, and so does the library.  Its one linear
solver is `_Banded`, a block LU for stacked five-band matrices: it solves
the m >= 1 mode systems together, the spline's tridiagonal system and
linear_theory's radial systems.  The mode factors (on the grid, h and the
kept modes) and the spline's knot factor (on the knots) do not depend on g
and are cached across builds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SolverDivergence

# points per block when summing the modes: keeps the (modes x points)
# buffers of value() and gradient() below 1 MB each
_BLOCK = 2048
# rows per diagonal block of _Banded's block LU
_LU_BLOCK = 8
# relative cut of solve_k_poisson's mode series
_MODE_CUT = 1e-13

__all__ = ["PolarGridSpec", "H2Correction", "solve_k_poisson"]


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


class _Banded:
    """LU factors of m stacked n x n matrices with two sub- and super-diagonals.

    Row-aligned bands: bands[d, i, j] multiplies x[i - 2 + d] in row i of
    matrix j; entries that would reach outside [0, n) are ignored.  Block
    LU over _LU_BLOCK-row diagonal blocks, n padded with identity rows:
    each Schur-complemented diagonal block is inverted by np.linalg.inv
    (partial pivoting inside the block), and consecutive blocks couple
    only through 2 x 2 corners.  Nothing pivots across blocks, which the
    radial and spline systems here do not need.  solve() takes one Python step
    per block, each a batched matmul over the m matrices, so a matrix's
    solution does not depend on the other matrices of the batch.
    """

    def __init__(self, bands: np.ndarray):
        _, n, m = bands.shape
        b = _LU_BLOCK
        p = -(-n // b)
        # rows 0, 1 of block q on columns b-2, b-1 of block q-1, and
        # rows b-2, b-1 of block q on columns 0, 1 of block q+1
        self._low = low = np.zeros((p, m, 2, 2))
        low[1:, :, 0] = bands[:2, b::b].transpose(1, 2, 0)
        low[1:1 + (n - 2) // b, :, 1, 1] = bands[0, b + 1::b]
        up = np.zeros((p - 1, m, 2, 2))
        V = bands[:, :(p - 1) * b].reshape(5, p - 1, b, m)    # the blocks before the last
        up[..., 0, 0], up[..., 1, 0], up[..., 1, 1] = V[4, :, -2], V[3, :, -1], V[4, :, -1]
        # the inverse block's last two columns times the upper corner
        self._w = w = np.empty((p - 1, m, b, 2))
        # the diagonal blocks where their inverses go; rows past n are identity rows
        self._inv = inv = np.zeros((p, m, b, b))
        flat = inv.reshape(p, m, b * b)
        for q0, q1 in ((0, n // b), (n // b, p)):
            # R[d, q, j, r]: band d of row q*b + r < n of matrix j
            nr = min(b, n - q0 * b)
            R = bands[:, q0 * b:q1 * b].reshape(5, q1 - q0, nr, m).transpose(0, 1, 3, 2)
            flat[q0:q1, :, nr * (b + 1)::b + 1] = 1.0
            for dd in range(5):
                # diagonal s of the blocks: a strided slice of the flat blocks
                s = dd - 2
                lo = max(0, -s)
                hi = max(lo, min(b - max(0, s), nr))
                flat[q0:q1, :, lo * (b + 1) + s:hi * (b + 1) + s:b + 1] = R[dd, ..., lo:hi]
        for q in range(p):
            if q:
                inv[q, :, :2, :2] -= low[q] @ w[q - 1, :, -2:]
            try:
                inv[q] = np.linalg.inv(inv[q])
            except np.linalg.LinAlgError:
                raise SolverDivergence("singular block in a banded solve") from None
            if q < p - 1:
                np.matmul(inv[q, :, :, -2:], up[q], out=w[q])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x[:, j] solving matrix j against rhs[:, j]; rhs has shape (n, m, columns)."""
        n, m, c = rhs.shape
        p, b = self._inv.shape[0], _LU_BLOCK
        # x[q, j, r]: row q*b + r of matrix j, eliminated in place
        x = np.zeros((p, m, b, c))
        x.transpose(0, 2, 1, 3)[divmod(np.arange(n), b)] = rhs
        for q in range(p):
            if q:
                x[q, :, :2] -= self._low[q] @ x[q - 1, :, -2:]
            x[q] = self._inv[q] @ x[q]
        for q in range(p - 2, -1, -1):
            x[q] -= self._w[q] @ x[q + 1, :, :2]
        return x.transpose(0, 2, 1, 3).reshape(p * b, m, c)[:n]


def _banded_matvec(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrices of row-aligned bands (as in _Banded) times x (n, m, columns)."""
    n = x.shape[0]
    xp = np.zeros((n + 4,) + x.shape[1:])
    xp[2:-2] = x
    return sum(bands[d][:, :, None] * xp[d:d + n] for d in range(5))


class _ColumnSpline:
    """Not-a-knot cubic spline through y[:, j] at increasing knots x.

    The spline of scipy.interpolate.CubicSpline(x, y, axis=0), to rounding:
    the cached _Banded factor of the knots gives the knot derivatives, and
    the pieces are evaluated in scipy's order.  Points outside [x[0], x[-1]]
    use the end polynomials.  Real columns; at least four knots.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        # derivatives yp at the knots: tridiagonal system, not-a-knot ends
        b = np.empty(y.shape)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        with _FACTOR_LOCK:
            factor = _knot_factor(x.tobytes())
        yp = factor.solve(b[:, None]).reshape(y.shape)
        # Hermite form c[0] s^3 + c[1] s^2 + c[2] s + c[3], s = u - x[i]
        t = (yp[:-1] + yp[1:] - 2 * slope) / dxr
        c = (t / dxr, (slope - yp[:-1]) / dxr - t, yp[:-1], y[:-1])
        self.x = x
        # one contiguous (n-1, columns) array per power
        self._c = [np.ascontiguousarray(ck) for ck in c]

    def _eval(self, u: np.ndarray, derivative: bool, buf: np.ndarray | None) -> list:
        """The values and, with derivative, the first derivatives at the 1-D
        points u, written into buf (2 + derivative, >= u.size, columns) or a
        new array."""
        if buf is None:
            buf = np.empty((2 + derivative, u.size, self._c[0].shape[1]))
        term = buf[-1, :u.size]
        # interval index among the interior knots: points beyond an end
        # knot fall in the end interval, as in scipy
        i = np.searchsorted(self.x[1:-1], u, side="right")
        s = (u - self.x[i])[:, None]
        s2 = s * s
        powers = (s, s2, s2 * s)
        # from the constant term up; the derivative's 2 c[1] and 3 c[0] on the rows
        polys = [(self._c[::-1], (1, 1, 1)), (self._c[-2::-1], (2.0, 3.0))][:1 + derivative]
        outs = []
        for (c, factors), v in zip(polys, buf):
            # scipy's order: ((c[3] + c[2] s) + c[1] s^2) + c[0] s^3;
            # mode="clip" (all indices are in range) writes unbuffered
            v = np.take(c[0], i, axis=0, out=v[:u.size], mode="clip")
            for ck, f, p in zip(c[1:], factors, powers):
                np.take(ck, i, axis=0, out=term, mode="clip")
                if f != 1:
                    term *= f
                term *= p
                v += term
            outs.append(v)
        return outs

    def __call__(self, u: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
        """Values at the 1-D points u, shape (u.size, columns)."""
        return self._eval(u, False, buf)[0]

    def with_derivative(self, u: np.ndarray, buf: np.ndarray | None = None) -> tuple:
        """Values and first derivatives at u from one interval lookup."""
        return tuple(self._eval(u, True, buf))


# held around the lookups of _knot_factor and _mode_factor: a pool thread asking
# for a key that another thread is factoring waits for its entry
_FACTOR_LOCK = threading.Lock()


@lru_cache(maxsize=4)
def _knot_factor(knots: bytes) -> _Banded:
    """Factor of _ColumnSpline's not-a-knot system on the knots (float64 bytes):
    the splines of every H2 build on one grid (its u_nodes()) share it."""
    x = np.frombuffer(knots)
    dx = np.diff(x)
    bands = np.zeros((5, x.size, 1))
    sub, diag, sup = bands[1:4, :, 0]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    sub[1:-1], sup[1:-1] = dx[1:], dx[:-1]
    diag[0], sup[0] = dx[1], x[2] - x[0]
    diag[-1], sub[-1] = dx[-2], x[-1] - x[-3]
    return _Banded(bands)


def _radial_stencil(u: np.ndarray, beta: np.ndarray, beta_u: np.ndarray,
                    diag: np.ndarray) -> np.ndarray:
    """Row-aligned bands (as in _Banded) of beta f'' + beta_u f' + diag f.

    4th-order central stencils on the rows 2 .. n-3 of the uniform grid u,
    2nd-order ones on the rows 1 and n-2; rows 0 and n-1 are left empty
    for the boundary conditions.  beta, beta_u and diag broadcast against
    each other along u; trailing axes stack matrices.
    """
    n = u.size
    du = u[1] - u[0]
    bands = np.zeros((5,) + np.broadcast_shapes(beta.shape, beta_u.shape, diag.shape))
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * du * du)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * du)
    b, bu = beta[2:n - 2], beta_u[2:n - 2]
    for m in range(5):
        bands[m, 2:n - 2] = b * c2[m] + bu * c1[m]
    bands[2, 2:n - 2] += diag[2:n - 2]
    for i in (1, n - 2):
        b, bu = beta[i], beta_u[i]
        bands[1, i] = b / du**2 - bu / (2.0 * du)
        bands[2, i] = -2.0 * b / du**2 + diag[i]
        bands[3, i] = b / du**2 + bu / (2.0 * du)
    return bands


def _beta(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """beta = h^2/(h^2 + rho^2) and its u-derivative at rho = e^u."""
    rho = np.exp(u)
    beta = h * h / (h * h + rho * rho)
    return beta, -2.0 * beta * rho * rho / (h * h + rho * rho)


def _mode_bands(spec: PolarGridSpec, h: float, ks: tuple) -> np.ndarray:
    """Bands of the mode systems k in ks (>= 1), decay (Dirichlet) edges."""
    u = spec.u_nodes()
    beta, beta_u = _beta(u, h)
    k2 = np.array([float(k * k) for k in ks])
    bands = _radial_stencil(u, beta[:, None], beta_u[:, None],
                            np.broadcast_to(-k2, (u.size, k2.size)))
    bands[2, 0] = bands[2, -1] = 1.0
    return bands


@lru_cache(maxsize=4)
def _mode_factor(spec: PolarGridSpec, h: float, ks: tuple) -> _Banded:
    """Factors of the _mode_bands systems, shared by builds: they do not depend on g."""
    return _Banded(_mode_bands(spec, h, ks))


def _solve_mode0(u, beta, g0_hat):
    """Radial mode by exact integration: beta f' = -G(u), G' = e^{2u} g0.

    Keeps the discrete flux identical to the source integral, so the
    quadratic-growth far field continues seamlessly at the outer edge.
    Returns (f0, G) with f0(umin) = 0.
    """
    du = u[1] - u[0]
    G = _cumulative_simpson(np.exp(2.0 * u) * g0_hat, du)
    f0 = -_cumulative_simpson(G / beta, du)
    if not np.all(np.isfinite(f0)):
        raise SolverDivergence("radial mode produced non-finite values")
    return f0, G


def _cumulative_simpson(y: np.ndarray, du: float) -> np.ndarray:
    """Cumulative integral of y on a uniform grid of step du, from 0 (3+ points).

    As scipy's cumulative_simpson: even intervals from the forward
    three-point rule, odd ones and the last from the same rule run backwards.
    """
    forward = 5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]  # interval i from y_i, y_i+1, y_i+2
    backward = -y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]  # interval i + 1 from the same
    parts = np.empty(y.size - 1)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(parts) * (du / 12.0)))


def _polar_points(rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Points rho_i (cos theta_j, sin theta_j), shape (rho.size, theta.size, 2)."""
    return rho[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _add_columns(out: np.ndarray, terms: np.ndarray) -> None:
    """out += terms[:, m] for each mode m in turn (mode order, no pairwise sum)."""
    for m in range(terms.shape[1]):
        out += terms[:, m]


def _harmonics(t: np.ndarray, *rows: np.ndarray) -> None:
    """cos(m t) into row m of rows[0] and, if given, sin(m t) into rows[1], by
    the Chebyshev recurrence T_{p+j} = 2 T_p T_j - T_{p-j} (for the sines
    S_{p+j} = 2 T_p S_j + S_{p-j}), doubling the known orders p per step."""
    for y, start in zip(rows, ((1.0, np.cos(t)), (0.0, np.sin(t)))):
        y[0], y[1:2] = start
    p, top = 1, len(rows[0]) - 1
    while p < top:
        q = min(2 * p, top)
        two_tp = 2.0 * rows[0][p]
        for y, op in zip(rows, (np.subtract, np.add)):
            new = np.multiply(two_tp, y[1:q - p + 1], out=y[p + 1:q + 1])
            op(new, y[2 * p - q:p][::-1], out=new)
        p = q


class H2Correction:
    """Solution field of div(K grad H) = -g, a cosine series in n theta.

    H = sum_m f_m(rho) cos(k_m theta) - offset with k_m = n m, where the
    constant offset makes H vanish at the constructor's anchor point (it
    is 0 without one).  The radial profiles f_m share one cubic spline in
    log-radius with a column per mode.  value() and gradient() sum the
    modes block by block and work anywhere: inside rho_min the field is
    frozen at its inner value, outside rho_max the mode-0 far field
    determined by the source flux continues analytically.  The sampled
    field on the solver grid (`grid`) is assembled on first access.
    """

    def __init__(self, spec: PolarGridSpec, h: float, n: int, modes: np.ndarray,
                 flux: float, anchor: np.ndarray | None = None):
        self.spec = spec
        self.h = float(h)
        self.n = int(n)
        self._u = spec.u_nodes()
        self._modes = modes
        self._spline = _ColumnSpline(self._u, modes.T)
        self._k = self.n * np.arange(len(modes))
        self.flux = float(flux)
        self.offset = 0.0
        if anchor is not None:
            self.offset = float(self.value(np.asarray(anchor, dtype=float)))

    @cached_property
    def grid(self) -> np.ndarray:
        """Mode sum at (radial_nodes, theta_nodes) of the solver grid, shape
        (n_radial, n_angular), without the anchor offset."""
        theta = self.spec.theta_nodes()
        cos = np.empty((self._k.size, theta.size))
        _harmonics(self.n * theta, cos)
        values = np.zeros((self.spec.n_radial, self.spec.n_angular))
        for f, c in zip(self._modes, cos):
            values += f[:, None] * c[None, :]
        return values

    def _polar(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        u = np.log(np.maximum(rho, 1e-300))
        return rho, theta, u

    def _sums(self, u: np.ndarray, theta: np.ndarray, derivative: bool) -> np.ndarray:
        """[sum_m f_m cos(k_m theta)], or [sum_m f_m' cos(k_m theta),
        -sum_m k_m f_m sin(k_m theta)] with derivative, at u clipped to the
        grid; in blocks that reuse one spline and one trig buffer."""
        uf = np.clip(u, self._u[0], self._u[-1]).ravel()
        tf = self.n * theta.ravel()
        nb = min(uf.size, _BLOCK)
        buf = np.empty((2 + derivative, nb, self._k.size))
        trig = np.empty((1 + derivative, self._k.size, nb))
        sums = np.zeros((1 + derivative, uf.size))
        for i in range(0, uf.size, _BLOCK):
            b = slice(i, i + _BLOCK)
            t = trig[..., :tf[b].size]
            _harmonics(tf[b], *t)
            if derivative:
                f, df = self._spline.with_derivative(uf[b], buf)
                df *= t[0].T
                _add_columns(sums[0, b], df)
                f *= -self._k
            else:
                f = self._spline(uf[b], buf)
            f *= t[-1].T
            _add_columns(sums[-1, b], f)
        return sums.reshape((-1,) + u.shape)

    def value(self, x: np.ndarray) -> np.ndarray:
        rho, theta, u = self._polar(x)
        out = self._sums(u, theta, False)[0]
        # mode-0 analytic continuation outside the disk
        umax = self._u[-1]
        far = u > umax
        if np.any(far):
            q = -self.flux / (2.0 * np.pi)
            du = u - umax
            rr = np.exp(2.0 * u) - np.exp(2.0 * umax)
            out = np.where(far, out + q * (du + rr / (2.0 * self.h**2)), out)
        return out - self.offset

    def gradient(self, x: np.ndarray) -> np.ndarray:
        rho, theta, u = self._polar(x)
        d_rho, d_theta = self._sums(u, theta, True)
        d_rho = np.where(u < self._u[0], 0.0, d_rho)
        far = u > self._u[-1]
        d_theta = np.where((u < self._u[0]) | far, 0.0, d_theta)
        if np.any(far):
            q = -self.flux / (2.0 * np.pi)
            beta = self.h**2 / (self.h**2 + np.exp(2.0 * u))
            d_rho = np.where(far, q / beta, d_rho)
        rho_safe = np.maximum(rho, 1e-300)
        er = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        et = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        return (
            (d_rho / rho_safe)[..., None] * er
            + (d_theta / rho_safe)[..., None] * et
        )


def solve_k_poisson(
    g_half: np.ndarray, spec: PolarGridSpec, h: float, n: int,
    anchor: np.ndarray | None = None,
) -> H2Correction:
    """Solve div(K grad H) = -g for g even in theta and of period 2 pi/n.

    g_half[i, j] samples g at rho_i and theta_j = 2 pi j/n_angular for the
    half-sector j = 0 .. s//2, s = n_angular/n.  The series keeps every
    mode up to the last one whose coefficient reaches _MODE_CUT times the
    largest.  H vanishes at `anchor` when one is given.
    """
    s = spec.n_angular // n
    if spec.n_angular % n or np.shape(g_half) != (spec.n_radial, s // 2 + 1):
        raise ValueError("samples do not cover one half-sector of the grid spec")
    u = spec.u_nodes()
    # b_m = (1/s) sum_{j<s} g_j cos(2 pi j m/s), each column inside the
    # half-sector standing for its mirror too; einsum sums in a fixed order
    j = np.arange(s // 2 + 1)
    twice = np.where((j == 0) | (2 * j == s), 1.0, 2.0)
    cos = twice[:, None] * np.cos((2.0 * np.pi / s) * (np.outer(j, j) % s)) / s
    b = np.einsum("ij,jm->im", g_half, cos)
    scale = np.max(np.abs(b)) + 1e-300
    above = np.flatnonzero(~(np.max(np.abs(b[:, 1:]), axis=0) < _MODE_CUT * scale))
    kept = above[-1] + 2 if above.size else 1
    # series coefficients: modes other than 0 and Nyquist pair with -m
    a = b[:, :kept] * twice[:kept]
    sol0, G0 = _solve_mode0(u, _beta(u, h)[0], a[:, 0])
    rhs = -np.exp(2.0 * u)[:, None] * a[:, 1:]
    rhs[[0, -1]] = 0.0
    with _FACTOR_LOCK:
        factor = _mode_factor(spec, float(h), tuple(range(n, n * kept, n)))
    sol = factor.solve(rhs[..., None])
    if not np.all(np.isfinite(sol)):
        raise SolverDivergence("mode solve produced non-finite values")
    return H2Correction(spec, h, n, np.vstack([sol0, sol[..., 0].T]), 2.0 * np.pi * G0[-1], anchor)
