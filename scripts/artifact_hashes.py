"""Print the sha256 of every artifact of a fixed set of CLI runs.

Usage:

    python3 scripts/artifact_hashes.py <repo>

runs the helix-kmd CLI from `<repo>/src` in a temporary directory and
prints one line `<run>/<file> <sha256>` per artifact.  The runs use the
default grids and, unless said otherwise, r = h = 1, N = 3:

  * build-stream and lift-3d at e^-20;
  * residual-scan with --threads 1 and --threads 2, and alpha-solve, over
    e^-10, e^-20, e^-40, e^-80;
  * residual-scan at r = 1.3, h = -0.8, N = 5 over e^-20, e^-40, e^-80,
    and build-stream and lift-3d there at e^-20, where s/h and 1/h round
    differently; that build-stream's h2_correction.csv holds H2 on the
    whole solver grid to 17 digits, a direct byte check of the defect
    density g and its cutoff-ring term away from r = h = 1;
  * verify;
  * simulate-kmd on a 32-mode PolygonHelix, and on a 32-mode
    PolygonWithCenter (the paper's N + 1 filaments) with the same [kmd].

`manifest.json` is hashed without its `timings_s`, the only part that
changes from run to run.  Running the script on two checkouts and
comparing the outputs shows whether a change kept every artifact
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STREAM = "[stream]\nepsilon = {eps}\nr = 1.0\nh = 1.0\nn = 3\n"
SWEEP = "e^-10, e^-20, e^-40, e^-80"
STREAM_N5 = "[stream]\nepsilon = {eps}\nr = 1.3\nh = -0.8\nn = 5\n"
KMD = """[config]
variant = {variant}
r = 1.0
h = 1.0
n_outer = 3
periods = 1

[kmd]
modes = 32
dt = 1e-3
t_final = 0.1
stride = 10
"""

# run name -> (subcommand, config text or None, CLI arguments after the subcommand)
RUNS = {
    "build-stream": ("build-stream", STREAM.format(eps="e^-20"), []),
    "lift-3d": ("lift-3d", STREAM.format(eps="e^-20"), []),
    "residual-scan-t1": ("residual-scan", STREAM.format(eps=SWEEP), ["--threads", "1"]),
    "residual-scan-t2": ("residual-scan", STREAM.format(eps=SWEEP), ["--threads", "2"]),
    "residual-scan-n5": ("residual-scan", STREAM_N5.format(eps="e^-20, e^-40, e^-80"), []),
    "build-stream-n5": ("build-stream", STREAM_N5.format(eps="e^-20"), []),
    "lift-3d-n5": ("lift-3d", STREAM_N5.format(eps="e^-20"), []),
    "alpha-solve": ("alpha-solve", STREAM.format(eps=SWEEP), ["--threads", "1"]),
    "verify": ("verify", None, []),
    "simulate-kmd": ("simulate-kmd", KMD.format(variant="PolygonHelix"), []),
    "simulate-kmd-center": ("simulate-kmd", KMD.format(variant="PolygonWithCenter"), []),
}


def normalized_bytes(path: Path) -> bytes:
    """The artifact's bytes; for `manifest.json`, without its `timings_s`."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("timings_s", None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return data


def run_all(repo: Path, dest: Path) -> dict[str, Path]:
    """Run every entry of RUNS from `<repo>/src` under `dest`;
    {"<run>/<file>": path} for every artifact written."""
    env = dict(os.environ, PYTHONPATH=str(repo.resolve() / "src"))
    out = {}
    for run, (subcommand, config, extra) in RUNS.items():
        work = dest / run
        work.mkdir(parents=True)
        argv = [sys.executable, "-m", "helix_kmd", subcommand,
                "--out", str(work / "out"), *extra]
        if config is not None:
            (work / "run.ini").write_text(config)
            argv += ["--config", str(work / "run.ini")]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{run} exited {proc.returncode}:\n{proc.stderr}")
        for path in sorted((work / "out").iterdir()):
            out[f"{run}/{path.name}"] = path
    return out


def artifact_hashes(repo: Path) -> dict[str, str]:
    """{"<run>/<file>": sha256} for every run in RUNS."""
    with tempfile.TemporaryDirectory() as tmp:
        return {key: hashlib.sha256(normalized_bytes(path)).hexdigest()
                for key, path in run_all(repo, Path(tmp)).items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/artifact_hashes.py <repo>", file=sys.stderr)
        return 2
    for key, digest in artifact_hashes(Path(argv[0])).items():
        print(f"{key} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
