"""Scheduling strategies: CoCG and the paper's comparison points.

All strategies implement :class:`~repro.baselines.base.SchedulingStrategy`
so the experiment driver can swap them:

* :class:`~repro.baselines.cocg.CoCGStrategy` — the paper's system
  (§IV): fine-grained stage prediction + complementary scheduling.
* :class:`~repro.baselines.reactive.ReactiveStrategy` — the paper's
  "improved version": stage-aware but reactive, no prediction; ceilings
  follow observed usage with a margin.
* :class:`~repro.baselines.gaugur.GAugurStrategy` — GAugur-like
  profiling baseline (HPDC'19): offline pairwise co-location test plus a
  *fixed* per-game limit for the whole run.
* :class:`~repro.baselines.vbp.VBPStrategy` — vector bin packing: a game
  "can run normally at 90 % of its maximum consumption"; placed only
  when the remaining resources exceed its peak.
* :class:`~repro.baselines.maxstatic.MaxStaticStrategy` — the modest
  baseline: every game reserved at its whole-run maximum.
"""

from repro import _lazy_exports

__all__ = [
    "SchedulingStrategy",
    "CoCGStrategy",
    "ReactiveStrategy",
    "GAugurStrategy",
    "VBPStrategy",
    "MaxStaticStrategy",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "SchedulingStrategy": ".base",
    "CoCGStrategy": ".cocg",
    "GAugurStrategy": ".gaugur",
    "MaxStaticStrategy": ".maxstatic",
    "ReactiveStrategy": ".reactive",
    "VBPStrategy": ".vbp",
})
