"""Sim-time tracing spans with deterministic identities.

A :class:`Span` is one named interval on a *stream* (the Perfetto
"thread": ``serve``, ``cluster``, ``faults``, ``node:<id>``).  Span ids
are derived from ``(stream, per-stream sequence)`` — never wall clock,
never ``id()`` — so two same-seed runs produce identical traces byte
for byte.

The reader knows each span's whole window once the run is over, so
:meth:`Tracer.record` takes it in one call: a point span (a pump round)
or an interval (a fault's ``[start, recover)`` window).  No span is
ever open, and none nests in another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:  # lint: disable=CG013 -- exported via the obs trace, not the fleet digest
    """One traced interval.

    ``seq`` is the span's position in its stream's record order; the
    identity ``"<stream>#<seq>"`` is therefore a pure function of the
    run's event sequence.  ``args`` land in the Chrome trace's ``args``
    object.
    """

    name: str
    stream: str
    seq: int
    begin: float
    end: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def span_id(self) -> str:
        """Deterministic identity: stream + per-stream sequence."""
        return f"{self.stream}#{self.seq}"

    @property
    def duration(self) -> float:
        """Span length in (sim) seconds; 0 for point spans."""
        return self.end - self.begin


class Tracer:
    """Collects spans over one run.

    All times are simulation seconds supplied by the caller; the tracer
    never reads a clock of its own.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._next_seq: Dict[str, int] = {}

    def record(
        self,
        name: str,
        begin: float,
        end: Optional[float] = None,
        *,
        stream: str = "main",
        **args: object,
    ) -> Span:
        """Record a complete span; ``end`` defaults to ``begin`` (a
        point span) and may not precede it."""
        seq = self._next_seq.get(stream, 0)
        begin = float(begin)
        end = begin if end is None else float(end)
        if end < begin:
            raise ValueError(
                f"span {stream}#{seq} ({name}) cannot end at {end} "
                f"< begin {begin}"
            )
        self._next_seq[stream] = seq + 1
        span = Span(name, stream, seq, begin, end, dict(args))
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in record order (copy)."""
        return list(self._spans)

    def streams(self) -> List[str]:
        """Streams that recorded at least one span, sorted."""
        return sorted(self._next_seq)

    def __len__(self) -> int:
        return len(self._spans)
