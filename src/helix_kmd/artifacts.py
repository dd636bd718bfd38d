"""Deterministic result files and the run manifest."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__


def fmt(x) -> str:
    """Shortest round-trip decimal; keeps CSV output bit-identical."""
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


class RunManifest:
    """Config hash, version, per-operation timings, produced files."""

    def __init__(self, config_bytes: bytes):
        self.config_sha256 = hashlib.sha256(config_bytes).hexdigest()
        self.version = __version__
        self.seed: int | None = None
        self.timings: dict[str, float] = {}
        self.files: list[str] = []
        self._t0: dict[str, float] = {}

    def start(self, op: str) -> None:
        self._t0[op] = time.perf_counter()

    def stop(self, op: str) -> None:
        self.timings[op] = round(time.perf_counter() - self._t0.pop(op), 6)

    def add_file(self, path: Path) -> None:
        self.files.append(path.name)

    def write(self, out_dir: Path) -> Path:
        payload = {
            "config_sha256": self.config_sha256,
            "library_version": self.version,
            "format_version": 1,
            "seed": self.seed,
            "timings_s": self.timings,
            "files": sorted(self.files),
        }
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
