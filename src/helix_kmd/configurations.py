"""Exact central-configuration solution families of the filament model.

Three families, all with circulation kappa = 2 and unit core constants:

  * StraightPolygon: N straight lines on a polygon of radius r rotating
    with speed kappa (N-1)/r^2.
  * PolygonHelix: the same polygon boosted to an N-helix of pitch 2*pi*h
    (nu h = 1), rotating with speed -2 (nu^2 - (N-1)/r^2).
  * PolygonWithCenter: N helices around a straight central filament of
    circulation kappa0; for kappa0 = 2 the speed is -2 (nu^2 - (N+1)/r^2).

These are used as verification targets: sampled on a periodic axial grid
they must make the model residual vanish, and their rotation speeds are
the leading-order speeds of the corresponding concentrated Euler flows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfig
from .filaments import FilamentEnsemble, Trajectory

__all__ = [
    "HelixVariant",
    "HelixConfig",
    "sample",
    "sampled_trajectory",
    "rotation_speed",
    "stationary_radius",
    "theorem_alpha",
]

KAPPA = 2.0


class HelixVariant(enum.Enum):
    STRAIGHT_POLYGON = "StraightPolygon"
    POLYGON_HELIX = "PolygonHelix"
    POLYGON_WITH_CENTER = "PolygonWithCenter"


@dataclass(frozen=True)
class HelixConfig:
    """Parameters of one solution family.

    Rotation sign convention: positions evolve as exp(i Omega t) with
    Omega = rotation_speed(config).  The concentrated-solution speed
    alpha of theorem_alpha uses the opposite sign (exp(-i alpha t)).
    """

    r: float
    h: float
    n_outer: int
    variant: HelixVariant
    kappa0: float = KAPPA   # central filament strength, PolygonWithCenter only

    def __post_init__(self):
        if not isinstance(self.variant, HelixVariant):
            raise DegenerateConfig(f"variant must be a HelixVariant, not {self.variant!r}")
        if self.r <= 0.0:
            raise DegenerateConfig("radius must be positive")
        if self.h == 0.0:
            raise DegenerateConfig("pitch parameter h must be nonzero")
        if self.n_outer < 2:
            raise DegenerateConfig("need at least two outer filaments")

    @property
    def nu(self) -> float:
        """Axial wavenumber of the outer filaments: 0 for the straight polygon,
        nu h = 1 for the helices."""
        return 0.0 if self.variant is HelixVariant.STRAIGHT_POLYGON else 1.0 / self.h


def rotation_speed(config: HelixConfig) -> float:
    """Angular velocity Omega with X_j proportional to exp(i Omega t)."""
    n, r = config.n_outer, config.r
    if config.variant is HelixVariant.STRAIGHT_POLYGON:
        return KAPPA * (n - 1) / r**2
    omega = -KAPPA * (config.nu**2 - (n - 1) / r**2)
    if config.variant is HelixVariant.POLYGON_WITH_CENTER:
        omega += 2.0 * config.kappa0 / r**2
    return omega


def stationary_radius(h: float, n_outer: int) -> float:
    """Radius making the N-helix with nu = 1/h stationary: r = |h| sqrt(N-1)."""
    if n_outer < 2:
        raise DegenerateConfig("need at least two filaments")
    if h == 0.0:
        raise DegenerateConfig("h must be nonzero")
    return abs(h) * np.sqrt(n_outer - 1.0)


def theorem_alpha(r: float, h: float, n_outer: int, variant: HelixVariant) -> float:
    """Leading-order rotation speed of the concentrated Euler solution.

    Convention exp(-i alpha t): alpha = 2 (1/h^2 - (N-1)/r^2) for the
    polygon of helices and 2 (1/h^2 - (N+1)/r^2) with a central filament.
    """
    if variant is HelixVariant.POLYGON_HELIX:
        return 2.0 * (1.0 / h**2 - (n_outer - 1.0) / r**2)
    if variant is HelixVariant.POLYGON_WITH_CENTER:
        return 2.0 * (1.0 / h**2 - (n_outer + 1.0) / r**2)
    raise DegenerateConfig("theorem_alpha applies to helix variants only")


def sample(
    config: HelixConfig, t: float = 0.0, modes: int = 128, periods: int = 1
) -> FilamentEnsemble:
    """Sample the exact solution at time t on a periodic axial grid.

    The axial period is 2*pi*|h|*periods so helix modes land exactly on
    grid wavenumbers and spectral derivatives are exact.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    L = 2.0 * np.pi * abs(config.h) * periods
    s = np.arange(modes) * (L / modes)
    omega = rotation_speed(config)
    ring = config.r * np.exp(1.0j * omega * t) * np.exp(1.0j * config.nu * s)
    phases = np.exp(2.0j * np.pi * np.arange(config.n_outer) / config.n_outer)
    outer = phases[:, None] * ring[None, :]
    if config.variant is HelixVariant.POLYGON_WITH_CENTER:
        pos = np.vstack([np.zeros((1, modes), dtype=complex), outer])
        kappa = np.array([config.kappa0] + [KAPPA] * config.n_outer)
    else:
        pos = outer
        kappa = np.full(config.n_outer, KAPPA)
    return FilamentEnsemble(
        positions=pos,
        circulations=kappa,
        core_constants=np.ones_like(kappa),
        axial_period=L,
        time=t,
    )


def sampled_trajectory(config: HelixConfig, dt: float, n_snapshots: int,
                       modes: int = 128, periods: int = 1):
    """Trajectory of exact samples at times 0, dt, ..., (n-1) dt."""
    snaps = [sample(config, k * dt, modes=modes, periods=periods)
             for k in range(n_snapshots)]
    return Trajectory(snapshots=snaps, dt=dt)
