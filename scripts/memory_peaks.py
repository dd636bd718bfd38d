"""Where the benchmark workloads hold their memory, stage by stage.

Usage:

    python3 scripts/memory_peaks.py [<repo>] [--repeats 3]

imports helix_kmd from `<repo>/src` (default: this checkout) and runs the
seed-0 `alpha`, `scan` and `diagnostics` CLI steps of this checkout's
`bench/workloads.py`, each in fresh interpreters with the benchmark's
single-threaded BLAS.  Per workload it prints:

  * for each stage of the construction that ran (`error_g`,
    `solve_k_poisson`, the outer and inner residual norms, `calA`,
    `weak_convergence_gap`, `projected_solve`, `simulate`): its calls,
    the largest tracemalloc peak while one call ran, and the traced
    memory live when that call began, from one run under tracemalloc
    started just before `helix_kmd.cli.main`;
  * the interpreter's `ru_maxrss` after the steps, as `bench/child.py`
    reads it for `peak_rss_mb`: the median and range over `--repeats`
    untraced runs.

A stage's peak is the peak of all traced memory while it ran, so it
includes what is live at its entry and what its callers hold.  On `scan`
the two pool threads run stages at once, so a stage's peak there also
includes what the other thread holds.  Run it on two checkouts and
compare the tables to see where a change moves memory.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
WORKLOADS = ("alpha", "scan", "diagnostics")
STAGES = (
    ("helix_kmd.stream", "error_g"),
    ("helix_kmd.elliptic", "solve_k_poisson"),
    ("helix_kmd.stream", "outer_residual_norm"),
    ("helix_kmd.stream", "inner_residual_norm"),
    ("helix_kmd.stream", "calA"),
    ("helix_kmd.lift", "weak_convergence_gap"),
    ("helix_kmd.linear_theory", "projected_solve"),
    ("helix_kmd.filaments", "simulate"),
)
MIB = 2**20


class _Call:
    __slots__ = ("name", "entry", "peak")

    def __init__(self, name: str, entry: int):
        self.name, self.entry, self.peak = name, entry, entry


class _Probe:
    """Traced peak and entry memory of every stage call.

    tracemalloc keeps one peak for the process, so each call entry folds
    the peak so far into every open call before resetting it; a call's
    peak is then the largest traced memory over its own interval, whether
    the other calls open at the time are its callers or run on another
    thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open: list[_Call] = []
        self.stages: dict[str, dict] = {}

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for call in self._open:
            call.peak = max(call.peak, peak)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            with self._lock:
                self._fold()
                tracemalloc.reset_peak()
                call = _Call(name, tracemalloc.get_traced_memory()[0])
                self._open.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._fold()
                    self._open = [c for c in self._open if c is not call]
                    stage = self.stages.setdefault(name, {"calls": 0, "peak": 0, "entry": 0})
                    stage["calls"] += 1
                    if call.peak > stage["peak"]:
                        stage["peak"], stage["entry"] = call.peak, call.entry

        return probed

    def install(self) -> None:
        """Wrap every loaded stage at each helix_kmd module attribute bound to it."""
        for module, attr in STAGES:
            if module not in sys.modules:
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(attr, original)
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.startswith("helix_kmd"):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)


def _child(workload: str, trace: bool) -> dict:
    """Run one workload's steps in this interpreter; what the parent prints."""
    sys.path.insert(0, str(BENCH))
    import workloads

    inp = workloads.inputs(workload, 0)
    import helix_kmd.cli as cli

    probe = None
    if trace:
        # verify is imported by its command alone: load it before wrapping,
        # so that its bindings of the stages are wrapped too
        if any(argv[0] == "verify" for argv in inp.steps):
            importlib.import_module("helix_kmd.verify")
        probe = _Probe()
        probe.install()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inp.files.items():
            Path(tmp, name).write_text(text)
        if trace:
            tracemalloc.start()
        for argv in inp.steps:
            code = cli.main([a.replace("{dir}", tmp) for a in argv])
            if code:
                raise SystemExit(f"{workload}: {argv[0]} exited {code}")
        if trace:
            tracemalloc.stop()
    return {
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": probe.stages if trace else {},
    }


def _run(repo: Path, workload: str, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo.resolve() / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("HELIX_KMD_THREADS", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload,
         "--trace", str(int(trace))],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", nargs="?", type=Path, default=HERE.parent)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, bool(args.trace))))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"helix_kmd from {args.repo.resolve() / 'src'}; seed-0 workloads")
    for workload in WORKLOADS:
        traced = _run(args.repo, workload, True)
        rss = [_run(args.repo, workload, False)["maxrss_mib"] for _ in range(args.repeats)]
        print(f"\n{workload}: ru_maxrss {statistics.median(rss):.2f} MiB "
              f"(median of {len(rss)}, range {min(rss):.2f}-{max(rss):.2f})")
        print(f"  {'stage':<22}{'calls':>6}{'traced peak MiB':>17}{'live at entry MiB':>19}")
        for _, name in STAGES:
            stage = traced["stages"].get(name)
            if stage:
                print(f"  {name:<22}{stage['calls']:>6}{stage['peak'] / MIB:>17.2f}"
                      f"{stage['entry'] / MIB:>19.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
