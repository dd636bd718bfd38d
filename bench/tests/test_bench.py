"""The benchmark's own tests.

A tiny-grid smoke run of every workload, a coverage check that every
per-layer metric reads above zero on the workloads layers.py names for it,
byte-identical scan CSVs with one and two threads, and a run without the
sources that must fail.  Together they stop a rename under src/ from
silently zeroing a layer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    out = last_json(bench(workload, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0.0


def test_benchmark_json_lists_every_layer_metric():
    want = {(m.name, m.unit, m.better) for m in layers.ALL_METRICS}
    got = {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert got == want
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced():
    return {w: last_json(bench(w, 1)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_coverage(traced, workload):
    metrics = traced[workload]["metrics"]
    assert set(metrics) == {m.name for m in layers.ALL_METRICS}
    idle = [m.name for m in layers.METRICS
            if workload in m.active and not metrics[m.name]["value"] > 0.0]
    assert idle == []
    errors = {k: v["value"] for k, v in metrics.items() if k.endswith(".errors")}
    assert set(errors.values()) == {0.0}


def test_scan_csv_identical_across_threads():
    inp = workloads.inputs("scan", 0, "tiny")
    outputs = []
    for threads in ("1", "2"):
        work = ROOT / ".bench_work" / "tests" / f"threads{threads}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for name, text in inp.files.items():
            (work / name).write_text(text)
        subprocess.run(
            [sys.executable, "-m", "helix_kmd", "residual-scan", "--config",
             str(work / "stream.ini"), "--threads", threads, "--out", str(work / "out")],
            check=True, cwd=ROOT, env=run.child_env(), timeout=170,
        )
        outputs.append((work / "out" / "residual_scan.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("diagnostics", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_hold_outputs_to_the_seed_values(tmp_path):
    ref = workloads.EXPECTED

    def write(root_shift: float, norm_factor: float):
        (tmp_path / "alpha_solve.json").write_text(
            json.dumps([{"alpha_root": ref["alpha_root"] + root_shift}]))
        rows = ["epsilon,outer_norm,inner_norm,slope"] + [
            f"{r['epsilon']!r},{r['outer_norm'] * norm_factor!r},"
            f"{r['inner_norm']!r},{r['slope']!r}" for r in ref["scan"]]
        (tmp_path / "residual_scan.csv").write_text("\n".join(rows) + "\n")

    write(0.0, 1.0)
    assert workloads.check("alpha", tmp_path, 0) == []
    assert workloads.check("scan", tmp_path, 0) == []
    write(1e-7, 1.0 + 1e-6)
    assert workloads.check("alpha", tmp_path, 0)
    assert workloads.check("scan", tmp_path, 0)
    (tmp_path / "lift_report.json").write_text(json.dumps(ref["lift_report"]))
    (tmp_path / "verify.json").write_text('{"failures": 0}')
    assert workloads.check("diagnostics", tmp_path, 0) == []
    (tmp_path / "verify.json").write_text('{"failures": 1}')
    assert workloads.check("diagnostics", tmp_path, 0)
