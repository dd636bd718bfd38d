"""The helical-reduction elliptic operator and its local conjugation.

Helical symmetry reduces 3D Euler to a planar problem governed by the
divergence-form operator built from

    K(x) = ((h^2 + x2^2, -x1 x2), (-x1 x2, h^2 + x1^2)) / (h^2 + |x|^2).

K is symmetric positive definite with eigenpairs (e_r, h^2/(h^2+|x|^2))
and (e_theta, 1), so det K = h^2/(h^2+|x|^2).  The library convention is

    apply_L = -div(K grad),

while all perturbation computations use the divergence form directly:
with x = P + M z, P = (R, 0), M = diag(h/sqrt(h^2+R^2), 1),

    div(K grad psi)(x) = Delta_z Psi(z) + B[Psi](z),
    Psi(z) = psi(P + M z),

where B collects the variable-coefficient corrections and vanishes at
z = 0.  B is evaluated from the exact conjugated coefficients

    B2 = M^-1 K(x) M^-1 - I,     bvec = M^-1 (div K)(x),
    (div K)(x) = -x (D + 2 h^2) / D^2,   D = h^2 + |x|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "k_matrix",
    "div_k",
    "apply_L",
    "LocalFrame",
    "local_frame",
    "change_to_local",
    "change_from_local",
    "b_coefficients",
    "b_operator",
]


def k_matrix(x: np.ndarray, h: float) -> np.ndarray:
    """K(x) for x of shape (..., 2); returns shape (..., 2, 2)."""
    if h == 0.0:
        raise ValueError("h must be nonzero")
    x = np.asarray(x, dtype=float)
    d = h * h + _dot2(x, x)
    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = (h * h + x[..., 1] ** 2) / d
    out[..., 1, 1] = (h * h + x[..., 0] ** 2) / d
    out[..., 0, 1] = -x[..., 0] * x[..., 1] / d
    out[..., 1, 0] = out[..., 0, 1]
    return out


def div_k(x: np.ndarray, h: float) -> np.ndarray:
    """Row divergence of K: (div K)(x) = -x (D + 2 h^2)/D^2."""
    x = np.asarray(x, dtype=float)
    d = h * h + _dot2(x, x)
    return -x * ((d + 2.0 * h * h) / (d * d))[..., None]


def apply_L(x: np.ndarray, h: float, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """L psi = -div(K grad psi) at x from grad psi (..., 2) and its Hessian (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    return -(np.einsum("...ij,...ij->...", k_matrix(x, h), hess) + _dot2(div_k(x, h), grad))


@dataclass(frozen=True)
class LocalFrame:
    """Affine frame around vertex j: x - P_j = M_j z with M_j = Q_j M."""

    j: int
    R: float
    h: float
    P: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    Mj: np.ndarray
    Mj_inv: np.ndarray


def local_frame(j: int, N: int, R: float, h: float) -> LocalFrame:
    """Frame for vertex j in 1..N of the polygon of radius R."""
    if not 1 <= j <= N:
        raise ValueError("vertex index out of range")
    theta = 2.0 * np.pi * (j - 1) / N
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    m = h / np.sqrt(h * h + R * R)
    M = np.diag([m, 1.0])
    Mj = Q @ M
    Mj_inv = np.diag([1.0 / m, 1.0]) @ Q.T
    P = R * Q @ np.array([1.0, 0.0])
    return LocalFrame(j=j, R=R, h=h, P=P, Q=Q, M=M, Mj=Mj, Mj_inv=Mj_inv)


def _dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over a last axis of length 2: einsum's a0 b0 + a1 b1, bit for bit."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _soa(parts, axes: int = 1) -> np.ndarray:
    """Equally shaped arrays nested `axes` deep as one array with those axes last,
    stored part by part (a struct of arrays): each z[..., k] is contiguous."""
    out = np.array(parts)
    return out.transpose(*range(axes, out.ndim), *range(axes))


def _mat2(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M z for one 2 x 2 M and z of shape (..., 2): einsum's sums, bit for bit."""
    return _soa(_mat2_xy(M, z[..., 0], z[..., 1]))


def _mat2_xy(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The components of M z at the points z with components x and y."""
    return M[0, 0] * x + M[0, 1] * y, M[1, 0] * x + M[1, 1] * y


def change_to_local(x: np.ndarray, frame: LocalFrame) -> np.ndarray:
    """z = M_j^-1 (x - P_j), vectorized over x of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    return _soa(_to_local_xy(x[..., 0], x[..., 1], frame))


def _to_local_xy(x1: np.ndarray, x2: np.ndarray,
                 frame: LocalFrame) -> tuple[np.ndarray, np.ndarray]:
    """The components of change_to_local at the points with components x1, x2."""
    return _mat2_xy(frame.Mj_inv, x1 - frame.P[0], x2 - frame.P[1])


def change_from_local(z: np.ndarray, frame: LocalFrame) -> np.ndarray:
    """x = P_j + M_j z."""
    return frame.P + _mat2(frame.Mj, np.asarray(z, dtype=float))


def b_coefficients(z: np.ndarray, R: float, h: float) -> tuple[np.ndarray, ...]:
    """Coefficients (a11, a22, a12, b1, b2) with

        B[Psi] = a11 Psi_11 + a22 Psi_22 + a12 Psi_12 + b1 Psi_1 + b2 Psi_2,

    exact values conjugating K at x = (R,0) + M z.
    """
    z = np.asarray(z, dtype=float)
    m = h / np.sqrt(h * h + R * R)
    x1 = R + m * z[..., 0]
    x2 = z[..., 1]
    d = h * h + x1 * x1 + x2 * x2
    k11 = (h * h + x2 * x2) / d
    k12 = -x1 * x2 / d
    k22 = (h * h + x1 * x1) / d
    a11 = k11 / (m * m) - 1.0
    a22 = k22 - 1.0
    a12 = 2.0 * k12 / m
    dvk = -(d + 2.0 * h * h) / (d * d)
    b1 = x1 * dvk / m
    b2 = x2 * dvk
    return a11, a22, a12, b1, b2


def b_operator(frame: LocalFrame, z: np.ndarray, grad: np.ndarray,
               hess: np.ndarray) -> np.ndarray:
    """B[Psi](z) from grad Psi (..., 2) and its Hessian (..., 2, 2) at z.

    Satisfies div(K grad psi)(x) = Delta Psi(z) + B[Psi](z) for
    psi(x) = Psi(M_j^-1 (x - P_j)); B is the same in every vertex frame
    by rotational invariance of the operator.
    """
    a11, a22, a12, b1, b2 = b_coefficients(z, frame.R, frame.h)
    return (
        a11 * hess[..., 0, 0]
        + a22 * hess[..., 1, 1]
        + a12 * hess[..., 0, 1]
        + b1 * grad[..., 0]
        + b2 * grad[..., 1]
    )
