"""Re-measure the basis of the point blocks in `helix_kmd.stream`.

Usage:

    python3 scripts/thread_scaling.py [<repo>] [--repeats 15] [--table 1|2|3]

imports helix_kmd from `<repo>/src` (default: this checkout) and prints
the three tables below, or only the one `--table` names.

1. Two threads against one on a loop of element-wise numpy ops (the mix
   of products, quotients, log1p and exp the stream kernels run) at
   4,096, 18,480 and 55,440 elements per op.  The same total work runs
   on one thread, then split over two; the speedup is the ratio of the
   two wall times.  Below about 1.0x the threads only trade the GIL.
2. `stream.error_g` on the defect grid of the default build (one
   dihedral half-sector at e^-20, r = h = 1, N = 3): the median wall time
   of one whole-array call and of `stream.solve_H2`'s blocks of about
   `_POINT_BLOCK` points (whole rows), on one thread and with two threads
   each evaluating it once, plus each evaluation's tracemalloc peak.
   Whole and blocked runs alternate.
3. `residual-scan` end to end over e^-10, e^-20, e^-40, e^-80 (r = h = 1,
   N = 3, default grid: the benchmark's seed-0 `scan`) at `--threads 1`
   and `--threads 2`, each run in a fresh interpreter that imports
   helix_kmd and then times `helix_kmd.cli.main` alone: the median and
   range of its wall time, its CPU time (all threads), the interpreter's
   peak RSS and its minor page faults.  The two pool sizes alternate.

`stream.solve_H2` blocks only while the main thread is the only Python
thread; table 2 times both evaluations directly, so the two-thread rows
show what the rule avoids.  The numbers depend on the machine: run it
with nothing else busy and compare rows within one run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = (4096, 18480, 55440)
TOTAL = 55440 * 400             # elements per op summed over the loop


def _ops(a: np.ndarray, b: np.ndarray, reps: int) -> None:
    for _ in range(reps):
        c = a * b + 1.0
        c = np.log1p(c * c) / (a + 2.0)
        np.exp(-c, out=c)


def _wall(jobs) -> float:
    """Wall time of running every job, each on its own thread when several."""
    t0 = time.perf_counter()
    if len(jobs) == 1:
        jobs[0]()
    else:
        threads = [threading.Thread(target=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return time.perf_counter() - t0


def op_table(repeats: int) -> None:
    rng = np.random.default_rng(0)
    print("numpy op loop, two threads against one (median of "
          f"{repeats} interleaved pairs)")
    print(f"  {'elements/op':>11}  {'1 thread ms':>11}  {'2 threads ms':>12}  speedup")
    for n in SIZES:
        reps = TOTAL // n
        arrays = [(rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)) for _ in range(2)]
        one, two = [], []
        for _ in range(repeats):
            one.append(_wall([lambda: _ops(*arrays[0], reps)]))
            two.append(_wall([lambda ab=ab: _ops(*ab, reps // 2) for ab in arrays]))
        t1, t2 = statistics.median(one), statistics.median(two)
        print(f"  {n:>11}  {1e3 * t1:>11.1f}  {1e3 * t2:>12.1f}  {t1 / t2:.2f}x")


def error_g_table(repeats: int) -> None:
    from helix_kmd import stream
    from helix_kmd.elliptic import _polar_points

    ctx = stream.build_context(np.exp(-20.0), 1.0, 1.0, 3)
    grid, n = ctx.grid, ctx.n
    rows = grid.radial_nodes()
    rows = rows[rows <= 1.02]
    theta = grid.theta_nodes()[: grid.n_angular // n // 2 + 1]
    x = _polar_points(rows, theta)
    step = max(1, stream._POINT_BLOCK // theta.size)

    def whole():
        return stream.error_g(x, ctx.core)

    def blocked():
        # solve_H2's blocks of rows without its single-thread rule
        out = np.empty(x.shape[:-1])
        for lo in range(0, rows.size, step):
            b = slice(lo, min(lo + step, rows.size))
            out[b] = stream.error_g(_polar_points(rows[b], theta), ctx.core)
        return out

    assert np.array_equal(blocked(), whole())
    peaks = {}
    for name, fn in (("whole", whole), ("blocked", blocked)):
        tracemalloc.start()
        fn()
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    times = {(name, k): [] for name in ("whole", "blocked") for k in (1, 2)}
    for _ in range(repeats):
        for name, fn in (("whole", whole), ("blocked", blocked)):
            for k in (1, 2):
                times[name, k].append(_wall([fn] * k))
    print(f"\nerror_g on the e^-20 half-sector: {x[..., 0].size} points, "
          f"blocks of {step} rows, {step * theta.size} points "
          f"(median of {repeats} interleaved runs)")
    print(f"  {'evaluation':>10}  {'1 thread ms':>11}  {'2 threads x 1 call ms':>21}"
          "  tracemalloc peak MB")
    for name in ("whole", "blocked"):
        print(f"  {name:>10}  {1e3 * statistics.median(times[name, 1]):>11.1f}"
              f"  {1e3 * statistics.median(times[name, 2]):>21.1f}"
              f"  {peaks[name] / 1e6:.2f}")


SCAN_INI = "[stream]\nepsilon = e^-10, e^-20, e^-40, e^-80\nr = 1.0\nh = 1.0\nn = 3\n"

# one residual-scan in this interpreter; prints its measurements as JSON.  The
# peak RSS is VmHWM (Linux): ru_maxrss survives exec, so each run would report
# this script's own peak whenever that is the larger
_SCAN_CHILD = """
import json, re, resource, sys, time
from pathlib import Path
import helix_kmd.cli as cli
t0, c0 = time.perf_counter(), time.process_time()
code = cli.main(sys.argv[1:])
wall, cpu = time.perf_counter() - t0, time.process_time() - c0
hwm = re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())
print(json.dumps({"exit": code, "wall_s": wall, "cpu_s": cpu,
                  "peak_rss_mb": int(hwm[1]) / 1024.0,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}))
"""


def _scan_once(src: Path, work: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("HELIX_KMD_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", _SCAN_CHILD, "residual-scan", "--config",
         str(work / "scan.ini"), "--threads", str(threads), "--out", str(work / f"t{threads}")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if result["exit"]:
        raise RuntimeError(f"residual-scan --threads {threads} exited {result['exit']}")
    return result


def _spread(values: list, fmt: str) -> str:
    return f"{statistics.median(values):{fmt}} [{min(values):{fmt}}, {max(values):{fmt}}]"


def scan_table(repeats: int, src: Path) -> None:
    runs = {1: [], 2: []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scan.ini").write_text(SCAN_INI)
        for _ in range(repeats):
            for threads in runs:
                runs[threads].append(_scan_once(src, work, threads))
    print(f"\nresidual-scan e^-10..e^-80 end to end, fresh interpreter per run "
          f"(median [min, max] of {repeats} interleaved runs)")
    print(f"  {'threads':>7}  {'wall s':>19}  {'cpu s':>19}  {'peak RSS MiB':>19}"
          f"  {'minor faults':>12}")
    for threads, rs in runs.items():
        cols = [_spread([r[key] for r in rs], fmt)
                for key, fmt in (("wall_s", ".3f"), ("cpu_s", ".3f"), ("peak_rss_mb", ".1f"))]
        faults = statistics.median(r["minflt"] for r in rs)
        print(f"  {threads:>7}  {cols[0]:>19}  {cols[1]:>19}  {cols[2]:>19}  {faults:>12.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repo", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--table", type=int, choices=(1, 2, 3),
                        help="print only this table (default: all three)")
    args = parser.parse_args(argv)
    src = args.repo.resolve() / "src"
    sys.path.insert(0, str(src))
    tables = (lambda: op_table(args.repeats), lambda: error_g_table(args.repeats),
              lambda: scan_table(args.repeats, src))
    for k, table in enumerate(tables, 1):
        if args.table in (None, k):
            table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
