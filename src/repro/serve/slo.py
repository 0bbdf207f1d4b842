"""Admission SLO accounting: time-in-queue percentiles per category.

"Games Are Not Equal" (PAPERS.md) motivates treating request classes
differently at the edge; the first step is *measuring* them separately.
:class:`SloTracker` accumulates every gateway outcome with the time the
request spent queued before it, and summarizes per game category with
deterministic nearest-rank percentiles — no interpolation, so two
identical runs print identical summaries to full precision.

The tracker keeps one record per outcome, in record order;
:mod:`repro.obs.reader` replays the records into
``serve_queue_wait_seconds`` (a fixed-bucket histogram per category)
and ``serve_slo_outcomes_total`` after the run, so the Prometheus export
tells the same story as :meth:`SloTracker.summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["CategorySlo", "SloTracker", "percentile_nearest_rank"]


def percentile_nearest_rank(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list.

    ``q`` is in ``[0, 100]``.  Nearest-rank (ceil(q/100 · n)) is exact
    on the recorded samples — deterministic and monotone in ``q``.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    n = len(sorted_values)
    rank = max(1, -(-int(q * n) // 100))  # ceil(q*n/100), at least 1
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class CategorySlo:
    """Queue-time summary of one game category.

    ``outcomes`` counts every gateway verdict; the wait percentiles
    cover *all* recorded outcomes (a shed request waited 0 s; a
    dead-lettered one waited its whole patience window — both belong in
    the latency story the gateway tells).
    """

    category: str
    count: int
    outcomes: Dict[str, int]
    wait_mean: float
    wait_p50: float
    wait_p90: float
    wait_p99: float
    wait_max: float


class SloTracker:
    """Per-category admission-outcome and time-in-queue accounting."""

    def __init__(self) -> None:
        #: ``(category, outcome, wait seconds, sim time or None)`` per
        #: :meth:`record`, in record order.
        self.records: List[Tuple[str, str, float, Optional[float]]] = []

    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        outcome: str,
        wait_seconds: float,
        *,
        time: Optional[float] = None,
    ) -> None:
        """Record one gateway outcome with its time-in-queue."""
        if not wait_seconds >= 0:  # NaN fails too
            raise ValueError(f"wait_seconds must be >= 0, got {wait_seconds}")
        self.records.append((category, outcome, float(wait_seconds), time))

    # ------------------------------------------------------------------
    @property
    def categories(self) -> List[str]:
        """Recorded categories, sorted for stable iteration."""
        return sorted({r[0] for r in self.records})

    def summary(self, category: str) -> CategorySlo:
        """Percentile summary of one category."""
        waits: List[float] = []
        outcomes: Dict[str, int] = {}
        for cat, outcome, wait, _time in self.records:
            if cat == category:
                waits.append(wait)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if not waits:
            raise KeyError(f"no SLO samples for category {category!r}")
        ordered = sorted(waits)
        return CategorySlo(
            category=category,
            count=len(ordered),
            outcomes=outcomes,
            wait_mean=sum(ordered) / len(ordered),
            wait_p50=percentile_nearest_rank(ordered, 50.0),
            wait_p90=percentile_nearest_rank(ordered, 90.0),
            wait_p99=percentile_nearest_rank(ordered, 99.0),
            wait_max=ordered[-1],
        )

    def summaries(self) -> List[CategorySlo]:
        """Every category's summary, in sorted category order."""
        return [self.summary(cat) for cat in self.categories]

    def summary_lines(self) -> List[str]:
        """Human-readable per-category lines (for examples/CLI)."""
        lines: List[str] = []
        for s in self.summaries():
            outcome_str = " ".join(
                f"{k}={v}" for k, v in sorted(s.outcomes.items())
            )
            lines.append(
                f"{s.category:<8} n={s.count:<7} wait p50={s.wait_p50:.1f}s "
                f"p90={s.wait_p90:.1f}s p99={s.wait_p99:.1f}s "
                f"max={s.wait_max:.1f}s  [{outcome_str}]"
            )
        return lines
