"""Deterministic observability: metrics, traces, exporters.

The fourth pillar of the reproduction (after correctness tooling,
robustness and serving).  No subsystem holds an observer: each keeps
its own plain logs while it runs, and one pipeline reads the finished
run —

* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges and fixed-bucket histograms, registered once by
  canonical name and stamped with **simulation** time;
* :mod:`~repro.obs.trace` — complete sim-time spans with identities
  derived from ``(stream, sequence)``, never wall clock;
* :mod:`~repro.obs.export` — Prometheus text exposition and
  Perfetto-loadable Chrome trace JSON, both canonical: same seed + same
  fault plan ⇒ byte-identical ``metrics.prom`` and equal
  :func:`~repro.obs.export.trace_digest`;
* :mod:`~repro.obs.reader` — turns a finished run's logs into those
  metrics and spans; :meth:`Observer.finalize` is its front end;
* :mod:`~repro.obs.observer` — the :class:`Observer`: registry + tracer
  a run is read into, and its exports;
* :mod:`~repro.obs.naming` — the canonical metric/stream taxonomy.

``repro.obs`` is a *leaf*: it imports nothing from the rest of the
package (the reader reads the run it is handed), and only the CLI
imports it.  See ``docs/OBSERVABILITY.md``.
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
    "Tracer": ".trace",
})
