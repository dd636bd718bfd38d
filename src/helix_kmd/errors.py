"""Exception types shared across the library."""


class HelixKmdError(Exception):
    """Base class for all library errors."""


class CollisionError(HelixKmdError):
    """Two filaments came closer than the collision threshold."""


class NonFiniteError(HelixKmdError):
    """A computation produced NaN or Inf."""


class InvalidTransform(HelixKmdError):
    """Galilean transform preconditions violated."""


class DegenerateConfig(HelixKmdError):
    """Configuration parameters outside the admissible range."""


class ODESolveFailure(HelixKmdError):
    """A radial two-point boundary value solve failed."""


class SolverDivergence(HelixKmdError):
    """An elliptic grid solve produced non-finite values."""


class QuadratureFailure(HelixKmdError):
    """A quadrature did not reach the requested accuracy."""


class NoBracket(HelixKmdError):
    """Root bracketing failed: no sign change on the search interval."""


class SlowDecay(HelixKmdError):
    """Input field decays too slowly for the projected solver."""


class ConfigError(HelixKmdError):
    """Experiment configuration file failed validation."""
