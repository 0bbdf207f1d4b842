"""The regulator — spike resolution at runtime (paper §IV-C2).

Two strategies:

* **Extend loading time.**  Users tolerate a longer loading screen far
  better than dropped frames at a peak.  When a session is about to
  leave loading into a stage whose ceiling does not fit next to the
  other sessions' current demand, the regulator throttles the loading
  CPU grant — loading progress is CPU-bound, so the stage stretches —
  and re-checks every detection tick until the peak passes or the
  extension budget runs out.
* **Distinguish game length.**  Manufacturers publish expected play
  times, so long and short games are separable at coarse granularity.
  When picking the next pending request, the regulator prefers a short
  game if the server is inside (or approaching) a long game's peak
  window, filling the gap between peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.platform_.resources import ResourceVector
from repro.util.validation import check_fraction

__all__ = ["RegulatorConfig", "Regulator"]


@dataclass(frozen=True)
class RegulatorConfig:
    """Regulator tuning.

    Parameters
    ----------
    max_extension_seconds:
        Budget for holding one loading stage beyond its natural end.
    steal_fraction:
        CPU fraction granted to a held loading stage (progress rate ≈
        this fraction, so the stretch factor is its inverse).
    prefer_short_when_headroom_below:
        When the server's free fraction of budget drops below this, the
        request picker prefers short games.
    enabled:
        Master switch (the ablation benches turn it off).
    """

    max_extension_seconds: float = 60.0
    steal_fraction: float = 0.2
    prefer_short_when_headroom_below: float = 0.35
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_extension_seconds < 0:
            raise ValueError(
                f"max_extension_seconds must be >= 0, got {self.max_extension_seconds}"
            )
        check_fraction("steal_fraction", self.steal_fraction, inclusive=False)
        check_fraction(
            "prefer_short_when_headroom_below", self.prefer_short_when_headroom_below
        )


class Regulator:
    """Runtime spike resolution over one server's budget.

    Parameters
    ----------
    budget:
        The scheduler's capacity × cap vector.
    config:
        Tuning knobs.
    """

    def __init__(self, budget: ResourceVector, *, config: Optional[RegulatorConfig] = None):
        self.budget = budget
        self.config = config if config is not None else RegulatorConfig()
        self.holds_started = 0
        self.hold_seconds_total = 0.0

    # ------------------------------------------------------------------
    def should_hold_in_loading(
        self,
        next_stage_plan: ResourceVector,
        others_allocation: ResourceVector,
        held_seconds: float,
    ) -> bool:
        """Whether to keep stealing time from this loading stage.

        True when the next stage's ceiling does not fit beside the other
        sessions *and* the extension budget is not exhausted.
        """
        if not self.config.enabled:
            return False
        if held_seconds >= self.config.max_extension_seconds:
            return False
        fits = (others_allocation + next_stage_plan).fits_within(self.budget)
        return not fits

    def start_hold(self) -> None:
        """Account the start of one loading hold (bench statistics)."""
        self.holds_started += 1

    def note_hold(self, seconds: float) -> None:
        """Account time spent holding (bench statistics)."""
        self.hold_seconds_total += max(float(seconds), 0.0)

    # ------------------------------------------------------------------
    def pick_request(
        self,
        pending: Sequence,
        current_allocation: ResourceVector,
        *,
        long_term_of: Callable[[object], bool] = lambda request: True,
    ) -> Optional[int]:
        """Index of the pending request to try next (§IV-C2 length rule).

        Prefers short games when headroom is tight, long games otherwise;
        falls back to FIFO.  Returns ``None`` when nothing is pending.
        """
        if not pending:
            return None
        if not self.config.enabled:
            return 0
        free = (self.budget - current_allocation).values
        headroom = min(f / c for f, c in zip(free, self.budget.values))
        tight = headroom < self.config.prefer_short_when_headroom_below
        for i, request in enumerate(pending):
            is_long = bool(long_term_of(request))
            if tight and not is_long:
                return i
            if not tight and is_long:
                return i
        return 0
