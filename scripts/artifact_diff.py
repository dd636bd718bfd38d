"""Compare the artifacts of two checkouts, number by number.

Usage:

    python3 scripts/artifact_diff.py <repo-a> <repo-b>

runs the CLI runs of `scripts/artifact_hashes.py` (its `RUNS`) from
`<repo-a>/src` and from `<repo-b>/src`, each in a temporary directory,
and prints one line per artifact:

    <run>/<file> same|differs|layout  rel <r>  of-max <m>  (<k> of <n> numbers)

`same` means the bytes match (`manifest.json` without its `timings_s`).
Otherwise the numbers of both files are read in order; `rel` is the
largest |a - b|/max(|a|, |b|) over them, `of-max` the largest |a - b| over
the largest |b| of the file, and `k` how many numbers differ.  `layout`
means the files hold different counts of numbers.  A change that moves
artifacts at rounding level can state by how much.  Exit 0 when every
artifact is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import normalized_bytes, run_all  # noqa: E402

# a decimal number standing alone: not part of a name such as "h2_grad"
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def numbers(data: bytes) -> list[float]:
    """Every finite number of an artifact's text, in order."""
    return [float(t) for t in _NUMBER.findall(data)]


def compare(a: bytes, b: bytes) -> str:
    """One line of the report for the normalized bytes a and b."""
    if a == b:
        return "same"
    xa, xb = numbers(a), numbers(b)
    if len(xa) != len(xb):
        return f"layout  ({len(xa)} against {len(xb)} numbers)"
    rel, diff, top, moved = 0.0, 0.0, 0.0, 0
    for p, q in zip(xa, xb):
        top = max(top, abs(q))
        if p == q:
            continue
        moved += 1
        d = abs(p - q)
        diff = max(diff, d)
        rel = max(rel, d / max(abs(p), abs(q)))
    of_max = diff / top if top else 0.0
    return f"differs  rel {rel:.2e}  of-max {of_max:.2e}  ({moved} of {len(xa)} numbers)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/artifact_diff.py <repo-a> <repo-b>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [run_all(Path(repo), Path(tmp) / side)
                 for repo, side in zip(argv, ("a", "b"))]
        all_same = True
        for key in [*paths[0], *(k for k in paths[1] if k not in paths[0])]:
            if key not in paths[0] or key not in paths[1]:
                line = "only in " + ("b" if key not in paths[0] else "a")
            else:
                line = compare(*(normalized_bytes(p[key]) for p in paths))
            all_same &= line == "same"
            print(f"{key} {line}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
