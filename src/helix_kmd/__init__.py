"""Nearly parallel helical vortex filaments: dynamics and stream construction.

Each public name is imported from the module that defines it (importing
the package loads none of them):

  * filaments / configurations: the asymptotic filament system, its
    integrator, and the exact rotating solution families.
  * screw_operator / liouville / elliptic / stream: the helical-reduction
    elliptic operator and the concentrated approximate stream function,
    with residual norms and the rotation-speed selection.
  * linear_theory: the linearized bubble operator, kernel projections,
    and the desk-scale projected radial solver.
  * lift: reconstruction of the 3D helical vorticity field and the
    weak-convergence diagnostics.
  * errors: the typed failures, all subclasses of HelixKmdError.
"""

__version__ = "0.1.0"
