"""Outside-in span tracer for helix_kmd.

The tracer wraps public functions and methods of the library from the
outside; nothing under ``src/`` changes.  A function is replaced at every
point of use: each loaded ``helix_kmd`` module attribute (and each value
of a module-level dict) that *is* the original function gets the wrapper.
That covers ``from .elliptic import solve_k_poisson`` bindings in
``stream``, the re-exports in the package ``__init__`` that ``verify``
imports lazily, and the ``cli`` command table.  Methods are wrapped on
their class.

Each call becomes a span: name, start, end, parent span and thread id.
Parents are tracked per thread, so the worker threads of the CLI pool
keep their own stacks.  Spans stay in memory until ``summary()``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "error",
                 "points", "extra", "child_s")

    def __init__(self, name, parent, tid):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = self.end = 0.0
        self.error = False
        self.points = 0
        self.extra = None
        self.child_s = 0.0

    def as_dict(self, index_of) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": index_of.get(id(self.parent)) if self.parent else None,
            "tid": self.tid, "error": self.error, "points": self.points,
            "extra": self.extra,
        }


def _n_points(x) -> int:
    """Number of planar points in an array of shape (..., 2)."""
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, points_arg=None, before=None, after=None):
        """Wrapper recording one span per call of ``fn``.

        points_arg: index of the positional argument whose leading shape
        gives the point count.  before(span, args, kwargs) may return new
        (args, kwargs); after(span, args, kwargs, result) fills span.extra.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            if points_arg is not None and len(args) > points_arg:
                span.points = _n_points(args[points_arg])
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def summary(self, main_tid: int) -> dict:
        """Per-span-name aggregates plus the busy time of non-main threads."""
        out: dict[str, dict] = {}
        worker_busy = 0.0
        for s in self.spans:
            d = out.setdefault(s.name, {
                "calls": 0, "s": 0.0, "self_s": 0.0, "points": 0,
                "errors": 0, "extra": [],
            })
            dur = s.end - s.start
            d["calls"] += 1
            d["s"] += dur
            d["self_s"] += dur - s.child_s
            d["points"] += s.points
            d["errors"] += int(s.error)
            if s.extra is not None:
                d["extra"].append(s.extra)
            if s.tid != main_tid and s.parent is None:
                worker_busy += dur
        return {"layers": out, "worker_busy_s": worker_busy}

    def dump(self, path: Path) -> None:
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(index_of)) + "\n")


# -- what gets traced --------------------------------------------------------

def _context_key(span, args, kwargs, ctx):
    """Effective build arguments, read back from the returned context, so
    that a default spelled as None and the same value spelled out agree."""
    span.extra = repr(tuple(
        getattr(ctx, k, None)
        for k in ("eps", "r", "h", "n", "alpha", "delta", "delta1", "grid")
    ))


def _modes_kept(span, args, kwargs, h2):
    span.extra = len(getattr(h2, "_k", ()))


def _count_rows(span, args, kwargs):
    """write_csv(path, header, rows): count the rows as they are consumed."""
    def counted(rows):
        n = 0
        for row in rows:
            n += 1
            yield row
        span.extra = {"rows": n, "bytes": 0}

    return (*args[:2], counted(args[2]), *args[3:]), kwargs


def _csv_bytes(span, args, kwargs, result):
    span.extra["bytes"] = Path(args[0]).stat().st_size


@dataclass(frozen=True)
class Target:
    module: str          # module that defines the function or class
    attr: str            # "func" or "Class.method"
    points_arg: int | None = None
    before: Callable | None = None     # see Tracer.wrap
    after: Callable | None = None

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.attr}"


TARGETS = (
    Target("helix_kmd.stream", "build_context", after=_context_key),
    Target("helix_kmd.stream", "calA"),
    Target("helix_kmd.stream", "solve_alpha"),
    Target("helix_kmd.stream", "error_g", points_arg=0),
    Target("helix_kmd.stream", "outer_residual_norm"),
    Target("helix_kmd.stream", "inner_residual_norm"),
    Target("helix_kmd.stream", "psi_star", points_arg=0),
    Target("helix_kmd.screw_operator", "b_operator", points_arg=1),
    Target("helix_kmd.liouville", "LocalProfile.value", points_arg=1),
    Target("helix_kmd.liouville", "LocalProfile.grad", points_arg=1),
    Target("helix_kmd.liouville", "LocalProfile.hess", points_arg=1),
    Target("helix_kmd.liouville", "LocalProfile.laplacian", points_arg=1),
    Target("helix_kmd.liouville", "LocalProfile.delta_value", points_arg=1),
    Target("helix_kmd.elliptic", "solve_k_poisson", after=_modes_kept),
    Target("helix_kmd.elliptic", "H2Correction.value", points_arg=1),
    Target("helix_kmd.elliptic", "H2Correction.gradient", points_arg=1),
    Target("helix_kmd.lift", "weak_convergence_gap"),
    Target("helix_kmd.linear_theory", "projected_solve"),
    Target("helix_kmd.filaments", "step"),
    Target("helix_kmd.artifacts", "write_csv", before=_count_rows,
           after=_csv_bytes),
    Target("helix_kmd.verify", "run_checks"),
    Target("helix_kmd.cli", "cmd_residual_scan"),
    Target("helix_kmd.cli", "cmd_alpha_solve"),
    Target("helix_kmd.cli", "cmd_lift_3d"),
    Target("helix_kmd.cli", "cmd_verify"),
)


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Patch every target at its points of use; return the missing ones."""
    missing = []
    for t in targets:
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            missing.append(t.span_name)
            continue
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(t.span_name)
                continue
            setattr(cls, meth, tracer.wrap(t.span_name, vars(cls)[meth],
                                           t.points_arg, t.before, t.after))
            continue
        original = getattr(module, t.attr, None)
        if original is None:
            missing.append(t.span_name)
            continue
        wrapped = tracer.wrap(t.span_name, original, t.points_arg, t.before, t.after)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "helix_kmd" or name.startswith("helix_kmd.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapped
    return missing
