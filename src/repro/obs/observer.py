"""The one handle a finished run is read into: registry + tracer.

No subsystem holds an observer.  Each keeps its own plain logs and
counts while it runs; :meth:`Observer.finalize` reads them once the
run is over (:mod:`repro.obs.reader`), the way
:meth:`repro.trace.TraceRecorder.finalize` reads a run into a trace.
An observed and an unobserved run therefore execute the same code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

from repro.obs.export import chrome_trace_json, prometheus_text, trace_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.reader import read_run
from repro.obs.trace import Tracer

__all__ = ["Observer"]


class Observer:
    """Bundles a fresh :class:`MetricsRegistry` and :class:`Tracer`."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    def finalize(self, run: object) -> "Observer":
        """Read a finished run into the registry and tracer (what
        :func:`~repro.obs.reader.read_run` accepts); returns ``self``."""
        read_run(self, run)
        return self

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """``metrics.prom`` content (Prometheus text exposition)."""
        return prometheus_text(self.registry)

    def trace_json(self) -> str:
        """``trace.json`` content (Chrome trace events, Perfetto-loadable)."""
        return chrome_trace_json(self.tracer)

    def trace_digest(self) -> str:
        """sha256 of the canonical trace (the CI determinism handle)."""
        return trace_digest(self.tracer)

    def write(self, out_dir: Union[str, Path]) -> Tuple[Path, Path]:
        """Write ``metrics.prom`` + ``trace.json`` under ``out_dir``.

        Returns the two paths (metrics first).
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics_path = out / "metrics.prom"
        trace_path = out / "trace.json"
        metrics_path.write_text(self.metrics_text())
        trace_path.write_text(self.trace_json())
        return metrics_path, trace_path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observer(families={len(self.registry)}, "
            f"spans={len(self.tracer)})"
        )
