"""Command-line interface: experiment orchestration over config files.

Subcommands: simulate-kmd, build-stream, residual-scan, alpha-solve,
lift-3d, verify.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import stream
from .artifacts import RunManifest, write_csv
from .config import ExperimentConfig, _parse_float_list, grid_spec, load_config
from .configurations import HelixConfig, HelixVariant, sample
from .errors import ConfigError, HelixKmdError
from .filaments import center_of_vorticity, simulate
from .lift import (
    bump_test_field,
    fd_divergence,
    helical_symmetry_defect,
    lifted_field,
    stream_vorticity,
    weak_convergence_gap,
)


def _map(args, fn, items) -> list:
    """[fn(x) for x in items], on a pool of `--threads` workers when above 1."""
    if args.threads > 1:
        # nothing else loads concurrent.futures (and its logging): only a
        # run with a pool pays for them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _epsilons(args, cfg: ExperimentConfig) -> list[float]:
    if args.epsilon_override is not None:
        try:
            vals = _parse_float_list(args.epsilon_override)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad --epsilon-override: {args.epsilon_override}") from exc
    else:
        vals = cfg.require("stream").get("epsilon", [])
    if not vals:
        raise ConfigError("no epsilon values given")
    for e in vals:
        if not 0.0 < e < math.exp(-1.0):
            raise ConfigError(f"epsilon {e} outside (0, e^-1)")
    return vals


def _build_ctx(cfg: ExperimentConfig, eps: float, alpha):
    """Context at `alpha` (None: build_context's leading-order speed)."""
    s = cfg.require("stream", "r", "h", "n")
    return stream.build_context(eps, s["r"], s["h"], s["n"], alpha=alpha,
                                delta=s.get("delta"), grid=grid_spec(s))


def cmd_simulate_kmd(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    c = cfg.require("config", "r", "h", "n_outer")
    k = cfg.require("kmd", "t_final", "dt")
    config = HelixConfig(
        r=c["r"], h=c["h"], n_outer=c["n_outer"],
        variant=HelixVariant(c["variant"]),
        kappa0=c.get("kappa0", 2.0),
    )
    state = sample(config, 0.0, modes=k.get("modes", 64),
                   periods=c.get("periods", 1))
    man.start("simulate")
    traj = simulate(state, k["t_final"], k["dt"], stride=k.get("stride", 1))
    man.stop("simulate")
    rows = []
    for snap in traj.snapshots:
        s_grid = snap.s_grid
        for j in range(snap.n_filaments):
            for m in range(snap.n_modes):
                z = snap.positions[j, m]
                rows.append((snap.time, j, m, float(s_grid[m]), z.real, z.imag))
    path = out / "trajectory.csv"
    write_csv(path, ["t", "j", "m", "s", "re_x", "im_x"], rows)
    man.add_file(path)
    # measured rotation speed of the tracked outer filament
    jt = 1 if config.variant is HelixVariant.POLYGON_WITH_CENTER else 0
    phases = np.unwrap([np.angle(s.positions[jt, 0]) for s in traj.snapshots])
    times = traj.times
    speed = float((phases[-1] - phases[0]) / (times[-1] - times[0]))
    cov0 = center_of_vorticity(traj.snapshots[0])
    drift = max(abs(center_of_vorticity(s) - cov0) for s in traj.snapshots)
    scale = float(np.max(np.abs(traj.snapshots[0].positions)))
    report = {
        "measured_speed": speed,
        "final_phase": float(phases[-1] - phases[0]),
        "cov_drift_relative_per_time": float(
            drift / (scale * (times[-1] - times[0]))
        ),
        "snapshots": len(traj.snapshots),
    }
    rpath = out / "simulation.json"
    rpath.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    man.add_file(rpath)


def cmd_build_stream(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    eps = _epsilons(args, cfg)[0]
    man.start("build_context")
    ctx = _build_ctx(cfg, eps, cfg.get("stream", "alpha"))
    man.stop("build_context")
    s = cfg.section("stream")
    extent = s.get("out_grid.extent", 1.5)
    n = s.get("out_grid.n", 121)
    axis = np.linspace(-extent, extent, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    man.start("psi_star_grid")
    vals = stream.psi_star(pts.reshape(-1, 2), ctx)
    man.stop("psi_star_grid")
    path = out / "psi_star.csv"
    write_csv(path, ["x", "y", "psi_star"],
              zip(pts.reshape(-1, 2)[:, 0], pts.reshape(-1, 2)[:, 1], vals))
    man.add_file(path)
    spec = ctx.h2.spec
    rr, tt = np.meshgrid(spec.radial_nodes(), spec.theta_nodes(), indexing="ij")
    rows = np.stack([rr, tt, ctx.h2.grid - ctx.h2.offset], axis=-1).reshape(-1, 3)
    path2 = out / "h2_correction.csv"
    write_csv(path2, ["rho", "theta", "h2"], rows.tolist())
    man.add_file(path2)
    context = {
        "eps": ctx.eps,
        "log_eps": math.log(ctx.eps),
        "mu": ctx.core.profile.mu,
        "log_mu": ctx.core.log_mu,
        "alpha": ctx.alpha,
        "c1": ctx.core.profile.c1,
        "c2": ctx.core.profile.c2,
        "delta": ctx.delta,
        "d_eps": ctx.d_eps,
        "vertices": [list(map(float, f.P)) for f in ctx.frames],
    }
    path3 = out / "context.json"
    path3.write_text(json.dumps(context, indent=2, sort_keys=True) + "\n")
    man.add_file(path3)


def cmd_residual_scan(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    eps_values = _epsilons(args, cfg)
    if len(set(eps_values)) < 2:
        raise ConfigError("residual-scan needs at least two distinct epsilon values")
    s = cfg.require("stream", "r", "h", "n")
    alpha = s.get("alpha", stream.generic_scan_alpha(s["r"], s["h"], s["n"]))

    def one(eps):
        ctx = _build_ctx(cfg, eps, alpha)
        return {
            "eps": eps,
            "outer_norm": stream.outer_residual_norm(ctx),
            "inner_norm": stream.inner_residual_norm(ctx),
        }

    man.start("scan")
    rows = _map(args, one, eps_values)
    man.stop("scan")
    slope = stream.fit_loglog_slope([r["eps"] for r in rows], [r["outer_norm"] for r in rows])
    path = out / "residual_scan.csv"
    write_csv(
        path, ["epsilon", "outer_norm", "inner_norm", "slope"],
        [(r["eps"], r["outer_norm"], r["inner_norm"], slope) for r in rows],
    )
    man.add_file(path)


def cmd_alpha_solve(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    eps_values = _epsilons(args, cfg)

    def one(eps):
        # solve_alpha projects first at the leading-order speed on the context
        # it is given, so `[stream] alpha` is not used here
        ctx = _build_ctx(cfg, eps, None)
        _, diag = stream.solve_alpha(ctx)
        diag["epsilon"] = eps
        return diag

    man.start("alpha_solve")
    results = _map(args, one, eps_values)
    man.stop("alpha_solve")
    path = out / "alpha_solve.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    man.add_file(path)


def cmd_lift_3d(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    eps = _epsilons(args, cfg)[0]
    man.start("build_context")
    ctx = _build_ctx(cfg, eps, cfg.get("stream", "alpha"))
    man.stop("build_context")
    g = cfg.section("grid")
    extent = g.get("extent", 0.8)
    nx, ny, nz = g.get("nx", 17), g.get("ny", 17), g.get("nz", 9)
    xs = np.linspace(-extent, extent, nx)
    ys = np.linspace(-extent, extent, ny)
    zs = np.linspace(0.0, 2.0 * np.pi * abs(ctx.h), nz, endpoint=False)
    field = lifted_field(stream_vorticity(ctx), ctx.h)
    man.start("box_sampling")
    # the whole box in one call, rows ordered by x, then y, then z
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    rows = np.concatenate([pts, field(pts)], axis=1).tolist()
    man.stop("box_sampling")
    path = out / "omega_box.csv"
    write_csv(path, ["x", "y", "z", "w1", "w2", "w3"], rows)
    man.add_file(path)
    # defects: divergence on a smooth analytic proxy, symmetry on the field
    man.start("diagnostics")
    wfun = lambda xp: np.exp(-np.einsum("...i,...i->...", xp, xp) / 2.0)
    proxy = lifted_field(wfun, ctx.h)
    rng = np.random.default_rng(0)
    sample_pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    div_defect = float(np.max(np.abs(fd_divergence(proxy, sample_pts))))
    sym_defect = helical_symmetry_defect(field, ctx.h, 0.37, normalized=True)
    phi = bump_test_field(np.zeros(2), 0.7, np.pi * abs(ctx.h), np.pi * abs(ctx.h) * 0.8)
    gap = weak_convergence_gap(ctx, phi, n_axial=96)
    man.stop("diagnostics")
    report = {
        "divergence_defect": div_defect,
        "symmetry_defect_normalized": sym_defect,
        "weak_convergence_gap": float(gap),
        "epsilon": eps,
    }
    rpath = out / "lift_report.json"
    rpath.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    man.add_file(rpath)


def cmd_verify(args, cfg: ExperimentConfig, out: Path, man: RunManifest) -> None:
    # only this command runs verify and linear_theory: import them here
    from .verify import SEED, run_checks

    man.seed = SEED
    man.start("verify")
    checks = run_checks()
    man.stop("verify")
    failures = sum(not c["passed"] for c in checks)
    (out / "verify.json").write_text(
        json.dumps({"failures": failures, "checks": checks}, indent=2) + "\n"
    )
    man.add_file(out / "verify.json")
    if failures:
        raise HelixKmdError(f"{failures} verification checks failed")


_COMMANDS = {
    "simulate-kmd": cmd_simulate_kmd,
    "build-stream": cmd_build_stream,
    "residual-scan": cmd_residual_scan,
    "alpha-solve": cmd_alpha_solve,
    "lift-3d": cmd_lift_3d,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helix-kmd",
        description="Helical vortex filament dynamics and stream construction",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config file (INI sections)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory for artifacts")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel sweep workers (default 1); results do not "
                             "depend on it")
    parser.add_argument("--epsilon-override", type=str, default=None,
                        help="comma list of epsilon values, e.g. 'e^-10,e^-20'")
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.subcommand == "verify":
            cfg = ExperimentConfig()
        else:
            raise ConfigError("--config is required for this subcommand")
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {out}: {exc.strerror}") from None
        man = RunManifest(cfg.source_bytes)
        _COMMANDS[args.subcommand](args, cfg, out, man)
        man.write(out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HelixKmdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
