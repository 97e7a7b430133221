"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and item id, plus the
work counts measured at that boundary.  Spans stay in memory and are
written out once, when the run ends.  The untraced run uses NullTracer,
whose spans record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Boundary -> extra counts it records.  Every boundary also reports
# `.calls` and `.busy_s`; derived rates are added in layer_metrics().
BOUNDARIES = {
    "sampler.sample_presentation": ("relators",),
    "cancellation.satisfies_cprime": ("accepted",),
    "cancellation.max_piece_length": ("letters",),
    "cancellation.dehn_reduce": ("letters", "steps"),
    "cayley.build_ball": ("vertices", "identified"),
    "cayley.single_layer_scan": ("pairs", "digons"),
    "cayley.minimizer_scan": ("triples",),
    "diagrams.diagram_from_dehn_trace": ("faces",),
    "diagrams.verify_diagram": (),
    "sentences.refute_on_ball_group": ("refuted",),
    "harness.run_experiment": ("trials",),
    "harness.emit": ("bytes",),
}

# Derived per-unit costs: boundary -> (metric suffix, count, seconds-to-unit factor).
RATES = {
    "sampler.sample_presentation": ("us_per_relator", "relators", 1e6),
    "cancellation.max_piece_length": ("ns_per_letter", "letters", 1e9),
    "cancellation.dehn_reduce": ("us_per_letter", "letters", 1e6),
    "cayley.build_ball": ("us_per_vertex", "vertices", 1e6),
    "cayley.minimizer_scan": ("us_per_triple", "triples", 1e6),
}


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **counts):
        yield {}

    def item(self, item_id):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._item = None

    def item(self, item_id):
        """Set the item id that new spans are tagged with."""
        self._item = item_id

    @contextmanager
    def span(self, name: str, **counts):
        rec = dict(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            item=self._item,
            counts=dict(counts),
        )
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-boundary totals over every span: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name, extras in BOUNDARIES.items():
        spans = [s for s in tr.spans if s["name"] == name]
        busy = sum(s["end"] - s["start"] for s in spans)
        totals = {k: sum(s["counts"].get(k, 0) for s in spans) for k in extras}
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.busy_s"] = (busy, "s")
        for k in extras:
            if k == "accepted":
                ratio = totals[k] / len(spans) if spans else 0.0
                out[f"{name}.accept_ratio"] = (ratio, "ratio")
            else:
                out[f"{name}.{k}"] = (totals[k], "count" if k != "bytes" else "bytes")
        if name in RATES:
            metric, count, scale = RATES[name]
            n = totals[count]
            out[f"{name}.{metric}"] = (busy / n * scale if n else 0.0, metric.split("_per_")[0])
    return out
