"""Deterministic observability: metrics, traces, exporters.

The fourth pillar of the reproduction (after correctness tooling,
robustness and serving): every subsystem reports through one pipeline —

* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges and fixed-bucket histograms, registered once by
  canonical name and stamped with **simulation** time;
* :mod:`~repro.obs.trace` — sim-time spans with parent/child nesting
  and identities derived from ``(stream, sequence)``, never wall clock;
* :mod:`~repro.obs.export` — Prometheus text exposition and
  Perfetto-loadable Chrome trace JSON, both canonical: same seed + same
  fault plan ⇒ byte-identical ``metrics.prom`` and equal
  :func:`~repro.obs.export.trace_digest`;
* :mod:`~repro.obs.observer` — the nullable :class:`Observer` hook hot
  paths carry (``obs=None`` costs one attribute check);
* :mod:`~repro.obs.naming` — the canonical metric/stream taxonomy.

``repro.obs`` is a *leaf*: it imports nothing from the rest of the
package, so ``core``, ``serve``, ``cluster`` and ``faults`` can all
instrument themselves without a cycle.  See ``docs/OBSERVABILITY.md``.
"""

from repro import _lazy_exports

__all__ = [
    "Observer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "Tracer",
    "Span",
    "SpanNestingError",
    "UnclosedSpanError",
    "prometheus_text",
    "chrome_trace",
    "chrome_trace_json",
    "trace_digest",
    "format_value",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "chrome_trace": ".export",
    "chrome_trace_json": ".export",
    "format_value": ".export",
    "prometheus_text": ".export",
    "trace_digest": ".export",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricError": ".metrics",
    "MetricsRegistry": ".metrics",
    "Observer": ".observer",
    "Span": ".trace",
    "SpanNestingError": ".trace",
    "Tracer": ".trace",
    "UnclosedSpanError": ".trace",
})
