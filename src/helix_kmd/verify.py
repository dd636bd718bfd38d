"""Fast self-verification suite behind the `verify` CLI subcommand.

Each check is a named predicate over desk-scale computations: exact
solution families, operator identities, kernel projections, symmetry
invariances.  Prints one PASS/FAIL line per check and returns each
check's name, verdict and detail.  All sampling uses a fixed seed,
recorded by the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import (
    HelixConfig,
    HelixVariant,
    rotation_speed,
    sample,
    sampled_trajectory,
    stationary_radius,
)
from .filaments import (
    center_of_vorticity,
    galilean_transform,
    kmd_residual,
    kmd_rhs,
    simulate,
)
from .lift import fd_divergence, helical_symmetry_defect, lifted_field
from .linear_theory import (
    _half_line_integral,
    gamma_constants,
    kernel_Z,
    phi2o,
    projected_solve,
)
from .liouville import liouville_density
from .screw_operator import (
    apply_L,
    change_from_local,
    change_to_local,
    k_matrix,
    local_frame,
)
from .stream import build_context, error_g, mu_relation_rhs, psi0_sum, psi_star

SEED = 0


def _fd_linearized(f, y, d=1e-3):
    """4th-order FD residual of Delta f + e^Gamma f at points y."""
    e1 = np.array([d, 0.0])
    e2 = np.array([0.0, d])
    lap = np.zeros(y.shape[:-1])
    for e in (e1, e2):
        lap += (
            -f(y + 2 * e) + 16 * f(y + e) - 30 * f(y) + 16 * f(y - e) - f(y - 2 * e)
        ) / (12 * d * d)
    v = np.einsum("...i,...i->...", y, y)
    return lap + 8.0 / (1.0 + v) ** 2 * f(y)


def run_checks() -> list[dict]:
    """Run every check; returns {"name", "passed", "detail"} per check in order."""
    rng = np.random.default_rng(SEED)
    checks = []

    def check(name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        checks.append({"name": name, "passed": bool(ok), "detail": detail})
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))

    # filament model and exact families
    cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON)
    st = sample(cfg, modes=64)
    rhs = kmd_rhs(st)
    err = float(np.max(np.abs(rhs - 4.0j * st.positions)))
    check("polygon right-hand side = i kappa (N-1)/r^2 X", err < 1e-12, f"{err:.2e}")

    hel = HelixConfig(1.0, 1.0, 4, HelixVariant.POLYGON_HELIX)
    res = kmd_residual(sampled_trajectory(hel, 1e-4, 5, modes=64))
    check("helix family solves the filament model", res < 1e-6, f"{res:.2e}")

    rstat = stationary_radius(1.0, 5)
    check("stationary radius h sqrt(N-1)", abs(rstat - 2.0) < 1e-14, f"{rstat}")
    stat = HelixConfig(rstat, 1.0, 5, HelixVariant.POLYGON_HELIX)
    check("stationary helix speed", abs(rotation_speed(stat)) < 1e-12)

    traj = simulate(st, 0.1, 1e-3, stride=10)
    drift = max(abs(center_of_vorticity(s)) for s in traj.snapshots)
    check("center of vorticity conserved", drift < 1e-11, f"{drift:.2e}")

    tr_hel = galilean_transform(
        sampled_trajectory(cfg, 1e-3, 4, modes=64), 1.0, 2.0
    )
    ref = sampled_trajectory(HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX),
                             1e-3, 4, modes=64)
    gerr = max(
        float(np.max(np.abs(a.positions - b.positions)))
        for a, b in zip(tr_hel.snapshots, ref.snapshots)
    )
    check("boost maps polygon to helix family", gerr < 1e-12, f"{gerr:.2e}")

    # operator identities
    x = rng.normal(size=(20, 2))
    K = k_matrix(x, 1.3)
    det_err = float(np.max(np.abs(
        np.linalg.det(K) - 1.3**2 / (1.3**2 + np.einsum("ij,ij->i", x, x))
    )))
    check("det K = h^2/(h^2+|x|^2)", det_err < 1e-13, f"{det_err:.2e}")

    # psi = |x|^2: grad 2x and Hessian 2I
    lval = float(apply_L(np.zeros(2), 1.0, np.zeros(2), 2.0 * np.eye(2)))
    check("L|x|^2 at origin = -4", abs(lval + 4.0) < 1e-14, f"{lval}")

    fr = local_frame(2, 4, 0.3, 1.1)
    z = rng.normal(size=(8, 2)) * 0.2
    rt = float(np.max(np.abs(change_to_local(change_from_local(z, fr), fr) - z)))
    check("local frame round trip", rt < 1e-13, f"{rt:.2e}")

    # Liouville identities
    mass, _ = _half_line_integral(lambda s: np.pi * 8.0 / (1.0 + s) ** 2)
    check("bubble mass 8 pi", abs(mass - 8.0 * np.pi) < 1e-6, f"{mass:.8f}")
    y = rng.normal(size=(24, 2)) * 1.5
    worst = max(
        float(np.max(np.abs(_fd_linearized(lambda t: kernel_Z(j, t), y))))
        for j in range(3)
    )
    check("kernel elements annihilated", worst < 1e-6, f"{worst:.2e}")
    pres = float(np.max(np.abs(
        _fd_linearized(phi2o, y)
        + liouville_density(y) * kernel_Z(0, y)
    )))
    check("special solution identity", pres < 1e-6, f"{pres:.2e}")
    g0, g1 = gamma_constants()
    check("projection constants 3/(32 pi)",
          abs(g0 - 3 / (32 * np.pi)) < 1e-10 and abs(g1 - g0) < 1e-10)

    hsrc = lambda t: liouville_density(t) * kernel_Z(1, t)
    sol = projected_solve(hsrc)
    check("projected solve reproduces d1 = 1",
          abs(sol.d[1] - 1.0) < 1e-6 and abs(sol.d[0]) < 1e-6 and abs(sol.d[2]) < 1e-6,
          f"d={np.round(sol.d, 9)}")

    # stream construction
    ctx = build_context(math.exp(-20.0), 1.0, 1.0, 3)
    rhs_vals = [mu_relation_rhs(ctx, i) for i in range(1, 4)]
    spread = max(rhs_vals) - min(rhs_vals)
    check("mu relation vertex independence", spread < 1e-12, f"{spread:.2e}")
    xs = rng.normal(size=(12, 2)) * 0.4
    Q = ctx.frames[1].Q
    dih = float(np.max(np.abs(psi0_sum(xs @ Q.T, ctx) - psi0_sum(xs, ctx))))
    check("dihedral invariance of the vertex sum", dih < 1e-12, f"{dih:.2e}")
    gd = float(np.max(np.abs(error_g(xs @ Q.T, ctx.core) - error_g(xs, ctx.core))))
    check("dihedral invariance of the defect density", gd < 1e-12, f"{gd:.2e}")
    f1 = ctx.frames[0]
    zz = rng.normal(size=(12, 2)) * 0.25
    zm = zz.copy()
    zm[:, 1] *= -1.0
    ev = float(np.max(np.abs(
        psi_star(f1.P + zz @ f1.M.T, ctx) - psi_star(f1.P + zm @ f1.M.T, ctx)
    )))
    check("evenness across the vertex axis", ev < 1e-12, f"{ev:.2e}")

    # vorticity lift
    wfun = lambda xp: np.exp(-np.einsum("...i,...i->...", xp, xp) / 2.0)
    fld = lifted_field(wfun, 1.3)
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    dv = float(np.max(np.abs(fd_divergence(fld, pts))))
    check("lifted field divergence-free", dv < 1e-5, f"{dv:.2e}")
    defect = helical_symmetry_defect(fld, 1.3, 0.37)
    check("helical symmetry identity", defect < 1e-12, f"{defect:.2e}")

    return checks
