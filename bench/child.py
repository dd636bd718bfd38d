"""One benchmark sample in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC holds the launch time (time.monotonic() of the parent just before
the launch; the clock is system-wide), the CLI steps and whether to trace.
The child imports helix_kmd as a CLI user would, then calls
``helix_kmd.cli.main(argv)`` once per step and writes RESULT next to SPEC.
A spec with ``"probe": true`` stops after the import: it measures set-up
only.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    import helix_kmd.cli as cli

    result = {"setup_s": time.monotonic() - spec["launched"]}
    codes = []
    if not spec.get("probe"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer, install

            tracer = Tracer()
            result["missing_targets"] = install(tracer)
        t0 = time.perf_counter()
        try:
            for argv in spec["steps"]:
                codes.append(cli.main(argv))
                if codes[-1]:
                    break
        except Exception:
            # keep the spans of a failed run: they say which layer raised
            traceback.print_exc()
            codes.append(-1)
        result["wall_s"] = time.perf_counter() - t0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = ru.ru_utime + ru.ru_stime
        result["peak_rss_mb"] = ru.ru_maxrss / 1024.0       # KiB on Linux
        if tracer is not None:
            result["trace"] = tracer.summary(threading.get_ident())
            tracer.dump(spec_path.parent / "spans.jsonl")
    result["exit_codes"] = codes
    result["versions"] = _versions()
    spec_path.with_name("result.json").write_text(json.dumps(result))
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
