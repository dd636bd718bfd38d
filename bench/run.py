"""helix-kmd benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Each sample is one fresh interpreter (bench/child.py) that imports
helix_kmd from ./src and calls helix_kmd.cli.main(argv) in-process, so it
pays what a CLI user pays.  Samples repeat, one after another, until the
next one would end after --seconds (at least two samples); every sample's
outputs are checked.

--trace 0 reports the end-to-end metrics: median wall_s, cpu_s, setup_s
and peak_rss_mb over the samples (set-up also over a few import-only
probes).  --trace 1 alternates untraced and traced samples and reports
the per-layer metrics of layers.py plus the tracing overhead.  The last
stdout line is one JSON object; human-readable lines come before it.
Exits 1 if any output check failed and 2 if the repository is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0     # one invocation ends well within 180 s
PROBES = 2              # import-only set-up probes per untraced run
MIN_SAMPLES = 2         # a median of at least two, even when one fills --seconds

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # scan's two pool threads are the only parallelism
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env.pop("HELIX_KMD_THREADS", None)
    return env


def run_child(sample_dir: Path, spec: dict, env: dict, timeout: float) -> dict | None:
    """Launch one child and wait for it.  Returns its result with the exit
    code under "exit", or None when it left no result."""
    spec_path = sample_dir / "spec.json"
    log_path = sample_dir / "child.log"
    with log_path.open("w") as log:
        spec["launched"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT), env=env,
        )
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log_path.read_text()[-2000:]
        print(f"sample exited with code {code}:\n{tail}", file=sys.stderr)
    result_path = sample_dir / "result.json"
    if not result_path.is_file():
        return None
    return dict(json.loads(result_path.read_text()), exit=code)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_sample(workload: str, seed: int, size: str, traced: bool, env: dict,
               deadline: float) -> dict:
    """One workload sample: write inputs, run the child, check outputs."""
    inp = workloads.inputs(workload, seed, size)
    sample_dir = fresh_dir(WORK / workload / ("traced" if traced else "sample"))
    for name, text in inp.files.items():
        (sample_dir / name).write_text(text)
    steps = [[a.replace("{dir}", str(sample_dir)) for a in argv] for argv in inp.steps]
    t0 = time.monotonic()
    res = run_child(sample_dir, {"steps": steps, "trace": traced}, env,
                    deadline - t0)
    duration = time.monotonic() - t0
    if res is None or res["exit"] != 0:
        problems = ["run failed"]
    else:
        problems = workloads.check(workload, sample_dir / "out", seed, size)
    for p in problems:
        print(f"check failed ({workload}, seed {seed}): {p}", file=sys.stderr)
    return {"traced": traced, "result": res, "ok": not problems,
            "duration_s": duration, "threads": inp.threads}


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                else "no percentile with >= 10 samples beyond it")
    return f"  {name:<12} {med:12.6g} {unit:<4} median of {len(values)}; {tail_txt}"


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "loadavg_start": os.getloadavg()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="'tiny' shrinks the grids (smoke tests only)")
    args = ap.parse_args(argv)
    if not (SRC / "helix_kmd" / "cli.py").is_file():
        print(f"no helix_kmd sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = child_env()
    info = environment()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups: list[float] = []
    probe_failures = 0
    if not args.trace:
        probe_dir = fresh_dir(WORK / args.workload / "probe")
        for i in range(PROBES + 1):          # the first one only warms caches
            res = run_child(probe_dir, {"probe": True}, env, deadline - time.monotonic())
            if res is None or res["exit"] != 0:
                probe_failures += 1
            elif i:
                setups.append(res["setup_s"])
    bench_start = time.monotonic()
    samples: list[dict] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(run_sample(args.workload, args.seed, args.size, traced,
                                  env, deadline))
        now = time.monotonic()
        if now >= deadline:
            break
        if len(samples) < MIN_SAMPLES or (args.trace and len(samples) % 2):
            continue                          # whole untraced/traced pairs
        per_round = statistics.median(s["duration_s"] for s in samples) * (
            2 if args.trace else 1)
        if now - bench_start + per_round > args.seconds:
            break

    failed = sum(not s["ok"] for s in samples) + probe_failures
    attempted = len(samples) + probe_failures
    good = [s for s in samples if s["ok"]]
    untraced = [s["result"] for s in good if not s["traced"]]
    # failed traced samples count too: their spans carry the errors
    traced = [s for s in samples if s["traced"] and s["result"]]
    info["loadavg_end"] = os.getloadavg()
    info["versions"] = next((s["result"]["versions"] for s in good), None)

    print(f"helix-kmd benchmark: workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace}")
    print(f"  machine: nproc={info['nproc']} cpu={info['cpu_model']!r} "
          f"versions={info['versions']}")
    print(f"  loadavg: start={info['loadavg_start']} end={info['loadavg_end']}")
    print(f"  failed_frac  {failed / attempted:12.6g} 1    "
          f"({failed} failed of {attempted} attempted)")
    metrics: dict[str, dict] = {}
    if not args.trace:
        setups += [r["setup_s"] for r in untraced]
        for name, unit in END_TO_END:
            values = setups if name == "setup_s" else [r[name] for r in untraced]
            if values:
                print(describe(name, unit, values))
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    elif traced:
        per_sample = [layers.evaluate(s["result"]["trace"], s["result"]["wall_s"],
                                      s["threads"]) for s in traced]
        for m in layers.METRICS:
            value = statistics.median(p[m.name] for p in per_sample)
            metrics[m.name] = {"value": value, "unit": m.unit}
            print(f"  {m.name:<46} {value:14.6g} {m.unit}")
        traced_ok = [s["result"] for s in traced if s["ok"]]
        if untraced and traced_ok:
            overhead = (statistics.median(r["wall_s"] for r in traced_ok)
                        - statistics.median(r["wall_s"] for r in untraced))
            metrics[layers.OVERHEAD.name] = {"value": overhead, "unit": "s"}
            print(f"  {layers.OVERHEAD.name:<46} {overhead:14.6g} s")
        for s in traced:
            for name in s["result"].get("missing_targets", []):
                print(f"warning: traced function {name} not found", file=sys.stderr)

    record = {"args": vars(args), "environment": info, "attempted": attempted,
              "failed": failed, "setup_probes_s": setups, "samples": samples,
              "metrics": metrics}
    (WORK / args.workload / "record.json").write_text(json.dumps(record, indent=1))
    correct = failed == 0 and bool(metrics) and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
