"""Spans around lpindex's public layer functions, recorded from outside the package.

``Tracer.installed()`` replaces each layer function at every ``lpindex``
module attribute that holds it (``lpindex.norms.maximize_1d``,
``lpindex.index.op_norm``, ``lpindex.cli.compute_mp``, ...), so calls between
modules are seen where the callers look them up.  Spans stay in memory as
(name, start, end, parent) records and are reduced to per-layer figures when
the run ends.  Self time is a span's duration minus its children's durations;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

from lpindex import cli, core, critical, index, norms, radius

# (span name, module, function); verify_claim_region is split by claim id.
LAYERS = (
    ("core.maximize_1d", core, "maximize_1d"),
    ("norms.op_norm", norms, "op_norm"),
    ("norms.riesz_thorin_bound", norms, "riesz_thorin_bound"),
    ("radius.numerical_radius", radius, "numerical_radius"),
    ("radius.radius_oracle", radius, "radius_oracle"),
    ("critical.compute_mp", critical, "compute_mp"),
    ("critical.lemma21_bounds", critical, "lemma21_bounds"),
    ("index.estimate_index", index, "estimate_index"),
    ("index.verify_claim_region", index, "verify_claim_region"),
    ("index.remark_counterexample", index, "remark_counterexample"),
    ("cli.main", cli, "main"),
    ("cli.verify_row", cli, "_verify_row"),
)
SPAN_NAMES = tuple(
    n for name, _, _ in LAYERS
    for n in ([f"{name}.claim{c}" for c in (1, 2, 3)] if name == "index.verify_claim_region" else [name])
)
REEVAL_CHILDREN = ("radius.numerical_radius", "norms.op_norm", "critical.compute_mp")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    error: bool = False
    evaluations: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "index.verify_claim_region":
                span_name = f"{name}.claim{kwargs.get('claim_id', args[0] if args else None)}"
            span = Span(span_name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if isinstance(result, core.BracketedMax):
                span.evaluations = result.evaluations
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function at each lpindex module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lpindex" or n.startswith("lpindex.")]
        patched = []
        for name, home, attr in LAYERS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)

    def layer_stats(self) -> dict[str, float]:
        """calls, total_s, self_s and errors per span name, plus maximize_1d evals and reeval_s."""
        child_s = [0.0] * len(self.spans)
        reeval_s = 0.0
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
                if s.name in REEVAL_CHILDREN and self.spans[s.parent].name == "index.estimate_index":
                    reeval_s += s.end - s.start
        stats = {}
        for name in SPAN_NAMES:
            stats.update({f"{name}.calls": 0, f"{name}.total_s": 0.0,
                          f"{name}.self_s": 0.0, f"{name}.errors": 0})
        stats["core.maximize_1d.evals"] = 0
        for s, covered in zip(self.spans, child_s):
            stats[f"{s.name}.calls"] += 1
            stats[f"{s.name}.total_s"] += s.end - s.start
            stats[f"{s.name}.self_s"] += s.end - s.start - covered
            stats[f"{s.name}.errors"] += s.error
            if s.name == "core.maximize_1d":
                stats["core.maximize_1d.evals"] += s.evaluations
        stats["index.estimate_index.reeval_s"] = reeval_s
        return stats
