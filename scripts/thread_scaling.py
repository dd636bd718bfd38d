"""Re-measure the basis of the point blocks in `helix_kmd.stream`.

Usage:

    python3 scripts/thread_scaling.py [<repo>] [--repeats 15]

imports helix_kmd from `<repo>/src` (default: this checkout) and prints
two tables.

1. Two threads against one on a loop of element-wise numpy ops (the mix
   of products, quotients, log1p and exp the stream kernels run) at
   4,096, 18,480 and 55,440 elements per op.  The same total work runs
   on one thread, then split over two; the speedup is the ratio of the
   two wall times.  Below about 1.0x the threads only trade the GIL.
2. `stream.error_g` on the defect grid of the default build (one
   dihedral half-sector at e^-20, r = h = 1, N = 3): the median wall time
   of the whole-array evaluation and of the `_POINT_BLOCK` blocks, on one
   thread and with two threads each evaluating it once, plus each
   evaluation's tracemalloc peak.  Whole and blocked runs alternate.

`stream.error_g` blocks only while the main thread is the only Python
thread; table 2 times both evaluations directly, so the two-thread rows
show what the rule avoids.  The numbers depend on the machine: run it
with nothing else busy and compare rows within one run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
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
    rho = grid.radial_nodes()
    theta = grid.theta_nodes()[: grid.n_angular // n // 2 + 1]
    x = _polar_points(rho[rho <= 1.02], theta)
    args = (ctx.profile, ctx.frames)
    block = stream._POINT_BLOCK

    def whole():
        return stream._error_g(x, *args)

    def blocked():
        # stream._blockwise without its single-thread rule
        out = np.empty(x.shape[:-1])
        flat, pts = out.reshape(-1), x.reshape(-1, 2)
        for lo in range(0, flat.size, block):
            flat[lo:lo + block] = stream._error_g(pts[lo:lo + block], *args)
        return out

    assert np.array_equal(blocked(), whole())
    assert np.array_equal(stream.error_g(x, *args), whole())
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
          f"blocks of {block} (median of {repeats} interleaved runs)")
    print(f"  {'evaluation':>10}  {'1 thread ms':>11}  {'2 threads x 1 call ms':>21}"
          "  tracemalloc peak MB")
    for name in ("whole", "blocked"):
        print(f"  {name:>10}  {1e3 * statistics.median(times[name, 1]):>11.1f}"
              f"  {1e3 * statistics.median(times[name, 2]):>21.1f}"
              f"  {peaks[name] / 1e6:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repo", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    op_table(args.repeats)
    error_g_table(args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
