"""The three benchmark workloads: inputs from a seed, CLI steps, output checks.

Every workload uses the stream geometry r = h = 1, N = 3 and the default
512 x 256 polar grid at seed 0.  Other seeds perturb r and h by up to
PERTURB (relative) and keep every work size fixed; ``diagnostics`` keeps
r = h = 1, because its point is that the ``lift-3d`` and ``verify``
contexts are identical, and moves the lift box extent instead.

The "tiny" size shrinks the grids for the benchmark's own smoke tests.
Checks that compare with the values recorded at the seed commit
(``expected.json``) apply at seed 0 and full size; every other run is
checked against what needs no stored value.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

PERTURB = 0.02          # relative perturbation of r, h (or box extent)
SCAN_EPS = "e^-10,e^-20,e^-40,e^-80"
ALPHA_XTOL = 1e-8       # solve_alpha's own root tolerance


@dataclass(frozen=True)
class Size:
    grid: str           # [stream] grid keys, empty for the default grid
    box: tuple[int, int, int]


SIZES = {
    "full": Size("", (17, 17, 9)),
    "tiny": Size("grid.radial = 64\ngrid.angular = 24\n", (5, 5, 3)),
}


def _factors(seed: int) -> tuple[float, float]:
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    return (1.0 + rng.uniform(-PERTURB, PERTURB),
            1.0 + rng.uniform(-PERTURB, PERTURB))


def _stream_ini(eps: str, r: float, h: float, size: Size) -> str:
    return (f"[stream]\nepsilon = {eps}\nr = {r!r}\nh = {h!r}\nn = 3\n"
            + size.grid)


@dataclass(frozen=True)
class Inputs:
    files: dict         # file name -> text, written into the sample directory
    steps: list         # CLI argv lists; "{dir}" stands for the sample directory
    threads: int        # CLI pool size (1: no pool)
    r: float
    h: float


def inputs(workload: str, seed: int, size_name: str = "full") -> Inputs:
    size = SIZES[size_name]
    fr, fh = _factors(seed)
    if workload == "scan":
        return Inputs(
            {"stream.ini": _stream_ini(SCAN_EPS, fr, fh, size)},
            [["residual-scan", "--config", "{dir}/stream.ini", "--threads", "2",
              "--out", "{dir}/out"]],
            2, fr, fh,
        )
    if workload == "alpha":
        return Inputs(
            {"stream.ini": _stream_ini("e^-20", fr, fh, size)},
            [["alpha-solve", "--config", "{dir}/stream.ini", "--threads", "1",
              "--out", "{dir}/out"]],
            1, fr, fh,
        )
    if workload == "diagnostics":
        nx, ny, nz = size.box
        ini = (_stream_ini("e^-20", 1.0, 1.0, size)
               + f"\n[grid]\nextent = {0.8 * fr!r}\nnx = {nx}\nny = {ny}\nnz = {nz}\n")
        return Inputs(
            {"lift.ini": ini},
            [["lift-3d", "--config", "{dir}/lift.ini", "--out", "{dir}/out"],
             ["verify", "--out", "{dir}/out"]],
            1, 1.0, 1.0,
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan", "alpha", "diagnostics")


# -- output checks -----------------------------------------------------------

def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _check_scan(out: Path, exact: bool) -> list[str]:
    rows = list(csv.DictReader((out / "residual_scan.csv").open()))
    if len(rows) != 4:
        return [f"residual_scan.csv has {len(rows)} rows, expected 4"]
    problems = []
    for row in rows:
        vals = {k: float(v) for k, v in row.items()}
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"non-finite value in {row}")
        if vals["outer_norm"] <= 0.0 or vals["inner_norm"] <= 0.0:
            problems.append(f"non-positive norm in {row}")
    if exact and not problems:
        for row, ref in zip(rows, EXPECTED["scan"]):
            for key, want in ref.items():
                got = float(row[key])
                # the construction claims full relative precision down to
                # e^-80, so every norm is held to the same relative tolerance
                if not _close(got, want, 1e-9):
                    problems.append(f"scan {key} at eps={ref['epsilon']:.3e}: "
                                    f"{got!r} != seed {want!r}")
    return problems


def _check_alpha(out: Path, exact: bool) -> list[str]:
    diag = json.loads((out / "alpha_solve.json").read_text())
    if len(diag) != 1:
        return [f"alpha_solve.json has {len(diag)} entries, expected 1"]
    root = diag[0]["alpha_root"]
    if not math.isfinite(root):
        return [f"alpha root {root!r} is not finite"]
    if exact and abs(root - EXPECTED["alpha_root"]) > ALPHA_XTOL:
        return [f"alpha root {root!r} != seed {EXPECTED['alpha_root']!r} "
                f"within xtol {ALPHA_XTOL}"]
    return []


def _check_diagnostics(out: Path, exact: bool) -> list[str]:
    problems = []
    failures = json.loads((out / "verify.json").read_text())["failures"]
    if failures != 0:
        problems.append(f"verify reports {failures} failures")
    rep = json.loads((out / "lift_report.json").read_text())
    if not all(math.isfinite(v) for v in rep.values()):
        problems.append(f"non-finite value in lift_report.json: {rep}")
    # a rounding-level quantity: held to the threshold of the symmetry
    # identity in `verify`, not to its recorded digits
    if not rep["symmetry_defect_normalized"] <= 1e-12:
        problems.append(f"symmetry defect {rep['symmetry_defect_normalized']!r}")
    if exact:
        ref = EXPECTED["lift_report"]
        if rep["epsilon"] != ref["epsilon"]:
            problems.append(f"lift epsilon {rep['epsilon']!r} != {ref['epsilon']!r}")
        if not _close(rep["weak_convergence_gap"], ref["weak_convergence_gap"], 1e-9):
            problems.append(f"weak convergence gap {rep['weak_convergence_gap']!r} "
                            f"!= seed {ref['weak_convergence_gap']!r}")
        # a 4th-order difference quotient with step 1e-3: rounding moves
        # its last ~5 digits
        if not _close(rep["divergence_defect"], ref["divergence_defect"], 1e-5):
            problems.append(f"divergence defect {rep['divergence_defect']!r} "
                            f"!= seed {ref['divergence_defect']!r}")
    return problems


def check(workload: str, out: Path, seed: int, size_name: str = "full") -> list[str]:
    """Problems found in one run's outputs; empty when they are correct."""
    exact = size_name == "full" and seed == 0
    try:
        if workload == "scan":
            return _check_scan(out, exact)
        if workload == "alpha":
            return _check_alpha(out, exact)
        # the lift report does not depend on the box extent the seed moves
        return _check_diagnostics(out, size_name == "full")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
