"""Nearly parallel filament dynamics (Klein-Majda-Damodaran model).

State: N planar curves X_j(s) sampled on a uniform periodic grid in the
axial coordinate s and encoded as complex numbers, evolving by

    dX_j/dt = i a_j k_j d^2 X_j/ds^2
              + 2 i sum_{k != j} k_k (X_j - X_k)/|X_j - X_k|^2.

Time stepping is Strang splitting: the linear Schroedinger flow is exact
in Fourier space (multiplier exp(-i a_j k_j q^2 dt/2) on wavenumber q),
the pointwise-in-s point-vortex interaction is advanced with classical
RK4.  The interaction term is pointwise, not a spectral product, so no
de-aliasing is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .errors import CollisionError, InvalidTransform, NonFiniteError

__all__ = [
    "FilamentEnsemble",
    "Trajectory",
    "kmd_rhs",
    "step",
    "simulate",
    "galilean_transform",
    "center_of_vorticity",
    "min_separation",
    "kmd_residual",
]


@dataclass(frozen=True)
class FilamentEnsemble:
    """Immutable snapshot of N filaments on M axial samples."""

    positions: np.ndarray        # complex, shape (N, M)
    circulations: np.ndarray     # (N,)
    core_constants: np.ndarray   # (N,)
    axial_period: float
    time: float = 0.0

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=complex))
        kap = np.asarray(self.circulations, dtype=float)
        alp = np.asarray(self.core_constants, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be (N, M)")
        n, m = pos.shape
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError("M must be a power of two")
        if kap.shape != (n,) or alp.shape != (n,):
            raise ValueError("circulations/core_constants must have shape (N,)")
        if np.any(kap == 0.0):
            raise ValueError("all circulations must be nonzero")
        if self.axial_period <= 0.0:
            raise ValueError("axial_period must be positive")
        if not np.all(np.isfinite(pos.view(float))):
            raise NonFiniteError("non-finite filament positions")
        if n > 1 and min_sep_positions(pos) == 0.0:
            raise ValueError("coincident filament points")
        pos.flags.writeable = False
        kap.flags.writeable = False
        alp.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "circulations", kap)
        object.__setattr__(self, "core_constants", alp)

    @property
    def n_filaments(self) -> int:
        return self.positions.shape[0]

    @property
    def n_modes(self) -> int:
        return self.positions.shape[1]

    @property
    def s_grid(self) -> np.ndarray:
        m = self.n_modes
        return np.arange(m) * (self.axial_period / m)

    @property
    def wavenumbers(self) -> np.ndarray:
        m = self.n_modes
        return 2.0 * np.pi * fftfreq(m, d=self.axial_period / m)

    def with_positions(self, pos: np.ndarray, time: float) -> "FilamentEnsemble":
        return FilamentEnsemble(
            positions=pos,
            circulations=self.circulations,
            core_constants=self.core_constants,
            axial_period=self.axial_period,
            time=time,
        )


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots with a fixed recording interval."""

    snapshots: list[FilamentEnsemble]
    dt: float

    def __post_init__(self):
        if len(self.snapshots) < 1:
            raise ValueError("empty trajectory")
        t0 = self.snapshots[0]
        for i, s in enumerate(self.snapshots):
            if s.positions.shape != t0.positions.shape:
                raise ValueError("snapshot shapes differ")
            if not np.array_equal(s.circulations, t0.circulations):
                raise ValueError("snapshot circulations differ")
            if not np.array_equal(s.core_constants, t0.core_constants):
                raise ValueError("snapshot core constants differ")
            expected = t0.time + i * self.dt
            if abs(s.time - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError("snapshot times not uniform")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


def min_sep_positions(pos: np.ndarray) -> float:
    """Minimum over j<k and s of |X_j(s) - X_k(s)|; +inf for one filament."""
    n = pos.shape[0]
    if n < 2:
        return np.inf
    diff = np.abs(pos[:, None, :] - pos[None, :, :])
    idx = np.arange(n)
    diff[idx, idx, :] = np.inf      # symmetric in (j, k): the minimum is the j<k one
    return float(diff.min())


def min_separation(state: FilamentEnsemble) -> float:
    return min_sep_positions(state.positions)


def _interaction(pos: np.ndarray, kappa: np.ndarray, threshold: float) -> np.ndarray:
    """2i sum_{k != j} kappa_k (X_j - X_k)/|X_j - X_k|^2, pointwise in s."""
    n = pos.shape[0]
    if n == 1:
        return np.zeros_like(pos)
    diff = pos[:, None, :] - pos[None, :, :]          # (j, k, s)
    d2 = (diff * diff.conj()).real
    idx = np.arange(n)
    d2[idx, idx, :] = np.inf        # symmetric in (j, k): the minimum is the j<k one
    dmin = np.sqrt(d2.min())
    if dmin < threshold or dmin == 0.0:
        raise CollisionError(
            f"filament separation {dmin:.3e} below threshold {threshold:.3e}"
        )
    d2[idx, idx, :] = 1.0
    diff[idx, idx, :] = 0.0
    out = 2.0j * np.einsum("k,jks->js", kappa, diff / d2)
    return out


def kmd_rhs(state: FilamentEnsemble, collision_threshold: float = 0.0) -> np.ndarray:
    """Right-hand side dX_j/dt on the sample grid (complex (N, M) array)."""
    pos = state.positions
    coef = state.core_constants * state.circulations
    xh = fft(pos, axis=1)
    k2 = state.wavenumbers**2
    lin = 1.0j * coef[:, None] * ifft(-k2[None, :] * xh, axis=1)
    out = lin + _interaction(pos, state.circulations, collision_threshold)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteError("non-finite right-hand side")
    return out


def _rk4_interaction(pos, kappa, dt, threshold):
    k1 = _interaction(pos, kappa, threshold)
    k2 = _interaction(pos + 0.5 * dt * k1, kappa, threshold)
    k3 = _interaction(pos + 0.5 * dt * k2, kappa, threshold)
    k4 = _interaction(pos + dt * k3, kappa, threshold)
    return pos + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(
    state: FilamentEnsemble, dt: float, collision_threshold: float = 0.0
) -> FilamentEnsemble:
    """One Strang step: exact linear half-step, RK4 interaction, half-step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k2 = state.wavenumbers**2
    coef = state.core_constants * state.circulations
    half = np.exp(-1.0j * coef[:, None] * k2[None, :] * (0.5 * dt))
    pos = ifft(half * fft(state.positions, axis=1), axis=1)
    pos = _rk4_interaction(pos, state.circulations, dt, collision_threshold)
    pos = ifft(half * fft(pos, axis=1), axis=1)
    if not np.all(np.isfinite(pos.view(float))):
        raise NonFiniteError("non-finite state after step")
    return state.with_positions(pos, state.time + dt)


def step_count(t_final: float, dt: float, stride: int = 1) -> int:
    """The number of steps round(t_final/dt), a multiple of stride so that
    snapshots are uniformly spaced; ValueError when the inputs give none."""
    if t_final <= 0.0 or dt <= 0.0 or dt > t_final + 1e-15:
        raise ValueError("need 0 < dt <= t_final")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError("t_final must be an integer number of steps")
    if stride < 1 or n_steps % stride != 0:
        raise ValueError("stride must divide the number of steps")
    return n_steps


def simulate(
    state: FilamentEnsemble,
    t_final: float,
    dt: float,
    stride: int = 1,
    collision_threshold: float | None = None,
) -> Trajectory:
    """Integrate to t_final recording every `stride`-th step.

    The step count comes from step_count.  The default collision threshold
    is 1e-6 times the initial minimum separation.
    """
    n_steps = step_count(t_final, dt, stride)
    if collision_threshold is None:
        ms = min_separation(state)
        collision_threshold = 0.0 if np.isinf(ms) else 1e-6 * ms
    snaps = [state]
    current = state
    for k in range(1, n_steps + 1):
        current = step(current, dt, collision_threshold)
        if k % stride == 0:
            snaps.append(current)
    return Trajectory(snapshots=snaps, dt=dt * stride)


def _transform_state(
    state: FilamentEnsemble, nu: float, kappa0: float
) -> FilamentEnsemble:
    coef = state.core_constants * state.circulations
    if not np.allclose(coef, kappa0, rtol=1e-12, atol=0.0):
        raise InvalidTransform("alpha_j * kappa_j must equal kappa0 for all j")
    m = state.n_modes
    L = state.axial_period
    mode = nu * L / (2.0 * np.pi)
    if abs(mode - round(mode)) > 1e-9:
        raise InvalidTransform(
            "nu must be an integer multiple of 2*pi/axial_period for a periodic result"
        )
    t = state.time
    shift = 2.0 * kappa0 * nu * t
    k = state.wavenumbers
    xh = fft(state.positions, axis=1)
    pos = ifft(np.exp(-1.0j * k[None, :] * shift) * xh, axis=1)
    s = state.s_grid
    phase = np.exp(-1.0j * kappa0 * nu * nu * t) * np.exp(1.0j * s * nu)
    return state.with_positions(phase[None, :] * pos, t)


def galilean_transform(obj, nu: float, kappa0: float):
    """X_j -> exp(-i kappa0 nu^2 t) exp(i s nu) X_j(s - 2 kappa0 nu t, t).

    The s-shift is applied as an exact Fourier phase; nu must be an
    integer number of grid modes.  Works on a state or a trajectory.
    """
    if isinstance(obj, FilamentEnsemble):
        return _transform_state(obj, nu, kappa0)
    if isinstance(obj, Trajectory):
        snaps = [_transform_state(s, nu, kappa0) for s in obj.snapshots]
        return Trajectory(snapshots=snaps, dt=obj.dt)
    raise TypeError("expected FilamentEnsemble or Trajectory")


def center_of_vorticity(state: FilamentEnsemble) -> complex:
    """sum_j kappa_j * mean_s X_j; conserved by the dynamics."""
    return complex(np.sum(state.circulations * state.positions.mean(axis=1)))


def kmd_residual(traj: Trajectory) -> float:
    """Max norm of centered-difference dX/dt minus the model right-hand side."""
    if len(traj.snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    worst = 0.0
    for i in range(1, len(traj.snapshots) - 1):
        before, here, after = traj.snapshots[i - 1 : i + 2]
        dxdt = (after.positions - before.positions) / (2.0 * traj.dt)
        rhs = kmd_rhs(here)
        worst = max(worst, float(np.max(np.abs(dxdt - rhs))))
    return worst
