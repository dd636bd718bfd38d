"""Nearly parallel helical vortex filaments: dynamics and stream construction.

Public surface, by theme:

  * filaments / configurations: the asymptotic filament system, its
    integrator, and the exact rotating solution families.
  * screw_operator / liouville / stream: the helical-reduction elliptic
    operator and the concentrated approximate stream function, with
    residual norms and the rotation-speed selection.
  * linear_theory: the linearized bubble operator, kernel projections,
    and the desk-scale projected radial solver.
  * lift: reconstruction of the 3D helical vorticity field and the
    weak-convergence diagnostics.
"""

__version__ = "0.1.0"

from .configurations import (                                  # noqa: F401
    HelixConfig,
    HelixVariant,
    rotation_speed,
    sample,
    sampled_trajectory,
    stationary_radius,
    theorem_alpha,
)
from .errors import (                                          # noqa: F401
    CollisionError,
    ConfigError,
    DegenerateConfig,
    HelixKmdError,
    InvalidTransform,
    NoBracket,
    NonFiniteError,
    ODESolveFailure,
    QuadratureFailure,
    SlowDecay,
    SolverDivergence,
)
from .filaments import (                                       # noqa: F401
    FilamentEnsemble,
    Trajectory,
    center_of_vorticity,
    galilean_transform,
    kmd_residual,
    kmd_rhs,
    min_separation,
    simulate,
    step,
)
from .liouville import (                                       # noqa: F401
    c_coefficients,
    liouville_density,
    liouville_unit,
)
from .linear_theory import (                                   # noqa: F401
    gamma_constants,
    kernel_Z,
    phi2o,
    projected_solve,
)
from .lift import (                                            # noqa: F401
    FilamentCurve,
    VectorField3,
    bump_test_field,
    fd_divergence,
    filament_curves,
    helical_symmetry_defect,
    lifted_field,
    weak_convergence_gap,
)
from .screw_operator import (                                  # noqa: F401
    LocalFrame,
    apply_L,
    b_operator,
    change_from_local,
    change_to_local,
    k_matrix,
    local_frame,
)
from .stream import (                                          # noqa: F401
    StreamContext,
    b_eps_bound_check,
    build_context,
    calA,
    error_g,
    inner_residual_norm,
    inner_residual_scaled,
    nonlinearity_F,
    F_prime,
    outer_residual_norm,
    psi0_sum,
    psi_star,
    residual_S,
    solve_H2,
    solve_alpha,
    solve_mu,
)
