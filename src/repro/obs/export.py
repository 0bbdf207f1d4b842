"""Exporters: Prometheus text exposition and Chrome trace-event JSON.

Both outputs are *canonical*: families sorted by name, samples sorted by
label values, spans sorted by ``(begin, stream, seq)``, floats printed
through one formatter, JSON with sorted keys.  Two same-seed runs
therefore produce byte-identical artifacts, which is exactly what
:func:`trace_digest` (a sha256 over the canonical trace JSON) and the
CI determinism check assert.

``trace.json`` follows the Chrome trace-event format (complete ``"X"``
events plus thread-name metadata), so it opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``; timestamps are
simulation *micro*seconds (the format's unit), durations likewise.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry, _HistogramChild
from repro.obs.trace import Tracer

__all__ = [
    "format_value",
    "prometheus_text",
    "chrome_trace",
    "chrome_trace_json",
    "trace_digest",
]


def format_value(value: float) -> str:
    """Canonical number rendering: integral floats print as integers,
    the rest through ``repr`` (shortest round-trip form)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _ts(time: Optional[float]) -> str:
    """Optional sample timestamp (sim-time milliseconds), with a
    leading space, or the empty string when the sample was never
    stamped."""
    if time is None:
        return ""
    return f" {int(round(time * 1000.0))}"


def _labels(names, values, extra: str = "") -> str:
    """``{a="x",b="y"}`` (or empty) for one sample's labels."""
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, Histogram):
            for values, child in family.samples():
                assert isinstance(child, _HistogramChild)
                cumulative = child.cumulative()
                for bound, count in zip(family.buckets, cumulative):
                    le = _labels(
                        family.labelnames, values,
                        extra=f'le="{format_value(bound)}"',
                    )
                    lines.append(
                        f"{family.name}_bucket{le} {count}{_ts(child.time)}"
                    )
                base = _labels(family.labelnames, values)
                lines.append(
                    f"{family.name}_sum{base} "
                    f"{format_value(child.sum)}{_ts(child.time)}"
                )
                lines.append(
                    f"{family.name}_count{base} {child.count}{_ts(child.time)}"
                )
        else:
            for values, child in family.samples():
                base = _labels(family.labelnames, values)
                lines.append(
                    f"{family.name}{base} "
                    f"{format_value(child.value)}{_ts(child.time)}"  # type: ignore[union-attr]
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto-loadable)
# ----------------------------------------------------------------------

def chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """The tracer's spans as a Chrome trace-event object."""
    streams = tracer.streams()
    tids = {stream: i + 1 for i, stream in enumerate(streams)}
    events: List[Dict[str, object]] = []
    for stream in streams:
        events.append({
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tids[stream],
            "args": {"name": stream},
        })
    for span in sorted(tracer.spans, key=lambda s: (s.begin, s.stream, s.seq)):
        args: Dict[str, object] = {"span_id": span.span_id, **span.args}
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.stream,
            "pid": 1,
            "tid": tids[span.stream],
            "ts": int(round(span.begin * 1_000_000)),
            "dur": int(round(span.duration * 1_000_000)),
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulation-seconds"},
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Canonical (sorted-keys, fixed-separator) trace JSON."""
    return json.dumps(
        chrome_trace(tracer), sort_keys=True, separators=(",", ":")
    ) + "\n"


def trace_digest(tracer: Tracer) -> str:
    """sha256 over the canonical trace JSON.

    Same seed + same fault plan ⇒ same spans ⇒ equal digests; CI
    asserts exactly this across two runs.
    """
    return hashlib.sha256(chrome_trace_json(tracer).encode()).hexdigest()
