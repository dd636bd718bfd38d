"""Per-layer metrics of the traced run, with the prediction for each.

Every metric is read from the span summary of one traced sample (see
tracer.py).  ``s`` is inclusive time unless the entry says ``self``: self
time is a span's duration minus its child spans on the same thread.
``moves`` is the end-to-end metric and workload the layer metric should
move; ``active`` lists the workloads on which it must read above zero
(the coverage test holds the tracer to that).  The counts quoted in
``moves`` are the values at seed 0 on the seed commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

STREAM = ("scan", "alpha", "diagnostics")
CSV = ("scan", "diagnostics")          # alpha-solve writes JSON only
ERROR_LAYERS = ("stream", "screw_operator", "liouville", "elliptic", "lift",
                "linear_theory", "filaments", "artifacts", "verify", "cli")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[["Trace"], float] | None
    moves: str
    active: tuple = ()


class Trace:
    """Accessors over one traced sample's summary."""

    def __init__(self, summary: dict, wall_s: float, threads: int):
        self.layers = summary["layers"]
        self.worker_busy_s = summary["worker_busy_s"]
        self.wall_s = wall_s
        self.threads = threads

    def get(self, span: str, field: str) -> float:
        return self.layers.get(span, {}).get(field, 0)

    def extra(self, span: str) -> list:
        return self.layers.get(span, {}).get("extra", [])

    def ratio(self, a: float, b: float) -> float:
        return a / b if b else 0.0


def _calls(span):
    return lambda t: t.get(span, "calls")


def _incl(span):
    return lambda t: t.get(span, "s")


def _self(span):
    return lambda t: t.get(span, "self_s")


def _points(span):
    return lambda t: t.get(span, "points")


def _distinct_ratio(t: Trace) -> float:
    keys = t.extra("stream.build_context")
    return t.ratio(len(set(keys)), len(keys))


def _modes_kept(t: Trace) -> float:
    kept = t.extra("elliptic.solve_k_poisson")
    return t.ratio(sum(kept), len(kept))


def _csv(field):
    return lambda t: sum(e[field] for e in t.extra("artifacts.write_csv"))


def _parallel_efficiency(t: Trace) -> float:
    """Busy time of the pool's worker threads over threads x body wall."""
    if t.threads < 2:
        return 0.0
    return t.ratio(t.worker_busy_s, t.threads * t.wall_s)


def _errors(layer):
    return lambda t: sum(d["errors"] for name, d in t.layers.items()
                         if name.startswith(layer + "."))


_PROFILE = ("value", "grad", "hess", "laplacian", "delta_value")

METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("stream.build_context.calls", "count", "lower",
                _calls("stream.build_context"),
                "wall_s, cpu_s on alpha (7 calls); no change on scan (4)", STREAM),
    LayerMetric("stream.build_context.distinct_ratio", "ratio", "higher",
                _distinct_ratio,
                "distinct argument tuples / calls: 5/7 on alpha, 1/2 on "
                "diagnostics (a context cache saves there), 4/4 on scan", STREAM),
    LayerMetric("stream.calA.calls", "count", "lower", _calls("stream.calA"),
                "wall_s, cpu_s on alpha (7 calls)", ("alpha",)),
    LayerMetric("stream.solve_alpha.s", "s", "lower", _incl("stream.solve_alpha"),
                "wall_s, cpu_s on alpha", ("alpha",)),
    LayerMetric("stream.error_g.s", "s", "lower", _self("stream.error_g"),
                "self time; wall_s on scan and alpha", STREAM),
    LayerMetric("stream.error_g.points", "count", "lower", _points("stream.error_g"),
                "434,472 on scan, 760,326 on alpha", STREAM),
    LayerMetric("screw_operator.b_operator.s", "s", "lower",
                _self("screw_operator.b_operator"),
                "self time; wall_s on scan and alpha", STREAM),
    LayerMetric("screw_operator.b_operator.points", "count", "lower",
                _points("screw_operator.b_operator"),
                "wall_s on scan and alpha", STREAM),
    *(LayerMetric(f"liouville.LocalProfile.{m}.s", "s", "lower",
                  _self(f"liouville.LocalProfile.{m}"),
                  "self time; wall_s on scan and alpha"
                  + ("; about 60% of error_g" if m == "hess" else ""), STREAM)
      for m in _PROFILE),
    *(LayerMetric(f"liouville.LocalProfile.{m}.points", "count", "lower",
                  _points(f"liouville.LocalProfile.{m}"),
                  "wall_s on scan and alpha", STREAM)
      for m in _PROFILE),
    LayerMetric("elliptic.solve_k_poisson.s", "s", "lower",
                _incl("elliptic.solve_k_poisson"),
                "wall_s on scan and alpha", STREAM),
    LayerMetric("elliptic.modes_kept", "count", "lower", _modes_kept,
                "angular modes in the returned H2Correction, mean per solve "
                "(44 at e^-20)", STREAM),
    LayerMetric("elliptic.H2Correction.value.s", "s", "lower",
                _incl("elliptic.H2Correction.value"),
                "wall_s on diagnostics (small batches) and scan (bulk); "
                "helping one must not slow the other", STREAM),
    LayerMetric("elliptic.H2Correction.value.calls", "count", "lower",
                _calls("elliptic.H2Correction.value"),
                "wall_s on diagnostics and scan", STREAM),
    LayerMetric("elliptic.H2Correction.value.points_per_call", "count", "higher",
                lambda t: t.ratio(t.get("elliptic.H2Correction.value", "points"),
                                  t.get("elliptic.H2Correction.value", "calls")),
                "~10 on diagnostics' psi_star calls against ~17k on scan", STREAM),
    LayerMetric("elliptic.H2Correction.gradient.s", "s", "lower",
                _incl("elliptic.H2Correction.gradient"),
                "wall_s on diagnostics and scan", STREAM),
    LayerMetric("stream.outer_residual_norm.s", "s", "lower",
                _incl("stream.outer_residual_norm"), "wall_s on scan", ("scan",)),
    LayerMetric("stream.inner_residual_norm.s", "s", "lower",
                _incl("stream.inner_residual_norm"), "wall_s on scan", ("scan",)),
    LayerMetric("stream.psi_star.s", "s", "lower", _incl("stream.psi_star"),
                "wall_s on diagnostics", ("scan", "diagnostics")),
    LayerMetric("stream.psi_star.calls", "count", "lower", _calls("stream.psi_star"),
                "wall_s on diagnostics (about 293 calls)", ("scan", "diagnostics")),
    LayerMetric("lift.weak_convergence_gap.s", "s", "lower",
                _incl("lift.weak_convergence_gap"), "wall_s on diagnostics",
                ("diagnostics",)),
    LayerMetric("linear_theory.projected_solve.s", "s", "lower",
                _incl("linear_theory.projected_solve"),
                "wall_s on diagnostics (3,072-node radial solve)", ("diagnostics",)),
    LayerMetric("filaments.step.calls", "count", "lower", _calls("filaments.step"),
                "wall_s on diagnostics (verify's KMD checks, 100 steps)", ("diagnostics",)),
    LayerMetric("filaments.step.s", "s", "lower", _incl("filaments.step"),
                "wall_s on diagnostics", ("diagnostics",)),
    LayerMetric("filaments.steps_per_s", "1/s", "higher",
                lambda t: t.ratio(t.get("filaments.step", "calls"),
                                  t.get("filaments.step", "s")),
                "wall_s on diagnostics", ("diagnostics",)),
    LayerMetric("artifacts.write_csv.s", "s", "lower", _incl("artifacts.write_csv"),
                "wall_s on diagnostics (omega_box.csv) and scan", CSV),
    LayerMetric("artifacts.write_csv.rows", "count", "lower", _csv("rows"),
                "2,601 omega_box.csv rows on diagnostics, 4 on scan", CSV),
    LayerMetric("artifacts.write_csv.bytes", "B", "lower", _csv("bytes"),
                "wall_s on diagnostics", CSV),
    LayerMetric("cli.pool.parallel_efficiency", "ratio", "higher",
                _parallel_efficiency,
                "pool-thread busy time / (threads x body wall); wall_s on scan",
                ("scan",)),
    *(LayerMetric(f"{layer}.errors", "count", "lower", _errors(layer),
                  "exceptions leaving a span; failed runs on every workload")
      for layer in ERROR_LAYERS),
)

# computed by run.py from the traced and untraced samples of one run
OVERHEAD = LayerMetric(
    "trace.overhead_s", "s", "lower", None,
    "median traced wall_s minus median untraced wall_s in the traced run",
)

ALL_METRICS = METRICS + (OVERHEAD,)


def evaluate(summary: dict, wall_s: float, threads: int) -> dict[str, float]:
    t = Trace(summary, wall_s, threads)
    return {m.name: float(m.value(t)) for m in METRICS}
