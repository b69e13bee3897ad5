"""Span recorder and boundary wrappers for the benchmark's traced run.

The traced run replaces public uncstat functions with timing wrappers where
the calling module looks them up (``uncstat.multi.fit_and_verify``, not
``uncstat.testing.fit_and_verify``), so no source file is edited.  Each call
becomes a span: name, start, end, parent span and the work counted from its
arguments and return value.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


def _emit_report_name(args) -> str:
    fmt = args[1] if len(args) > 1 else "text"
    return f"pipeline.emit_report.{fmt}"


def _plot_rows(args, result) -> dict[str, int]:
    pops = args[0].populations
    return {"pipeline.emit_plot_data.rows": len(pops) * sum(p.sample.size for p in pops)}


# (module, attribute looked up by the caller, span name, work counters)
BOUNDARIES = (
    ("uncstat.testing", "fit_moments", "udist.fit_moments", None),
    ("uncstat.pooling", "fit_moments", "udist.fit_moments", None),
    ("uncstat.pipeline", "fit_and_verify", "testing.fit_and_verify", None),
    ("uncstat.multi", "fit_and_verify", "testing.fit_and_verify", None),
    ("uncstat.testing", "acceptance_interval", "testing.acceptance_interval", None),
    ("uncstat.multi", "acceptance_interval", "testing.acceptance_interval", None),
    ("uncstat.testing", "count_outliers", "testing.count_outliers",
     lambda args, result: {"testing.count_outliers.points": len(args[0].values)}),
    ("uncstat.multi", "pairwise_test", "multi.pairwise_test", None),
    ("uncstat.pipeline", "homogeneity_test", "multi.homogeneity_test", None),
    ("uncstat.multi", "homogeneous_groups", "multi.homogeneous_groups",
     lambda args, result: {"multi.graph_edges": sum(p.homogeneous for p in args[1]),
                          "multi.cliques": len(result)}),
    ("uncstat.pipeline", "common_test", "pooling.common_test",
     lambda args, result: {"pooling.merged_points": result.merged.n}),
    ("uncstat.cli", "ingest", "pipeline.ingest",
     lambda args, result: {"pipeline.ingest.rows": sum(s.size for s in result[0])}),
    ("uncstat.cli", "run_pipeline", "pipeline.run_pipeline",
     lambda args, result: {"pipeline.populations": len(args[0])}),
    ("uncstat.cli", "emit_report", _emit_report_name,
     lambda args, result: {_emit_report_name(args) + ".bytes": len(result.encode("utf-8"))}),
    ("uncstat.cli", "emit_plot_data", "pipeline.emit_plot_data", _plot_rows),
    ("uncstat.pipeline", "parse_report", "pipeline.parse_report", None),
    ("uncstat.cli", "main", "cli.main", None),
)


class Recorder:
    """In-memory spans of one traced round: ``[name, start, end, parent, work]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, work=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    self._open[-1] if self._open else None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, work in BOUNDARIES:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Calls, busy seconds, self seconds and work counts per span name.

        Self time is a span's duration minus its direct children's.  Calls
        are single-threaded, so children never overlap one another.
        """
        calls, busy, own, work = Counter(), Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, _, counts) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[index]
            work.update(counts or {})
        return calls, busy, own, work

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "work": counts}) + "\n")
