"""CoCG core: the paper's contribution.

Three cooperating components (paper Fig 3):

* the **frame-grained game profiler**
  (:class:`~repro.core.profiler.FrameGrainedProfiler`) clusters 5-second
  frames and segments the timeline into loading/execution stages, giving
  each game a :class:`~repro.core.stages.StageLibrary`;
* the **ML-based stage predictor**
  (:class:`~repro.core.predictor.StagePredictor`) judges the current
  stage every 5 s and predicts the next execution stage at each loading,
  with the §IV-B2 dynamic adjustments (rehearsal callback, Eq-1
  redundancy, model replacement);
* the **complementary resource scheduler**
  (:class:`~repro.core.scheduler.CoCGScheduler`) combining the
  Algorithm-1 distributor and the time-stealing regulator.
"""

from repro import _lazy_exports

__all__ = [
    "frame_matrix",
    "frames_of_series",
    "StageTypeId",
    "StageStats",
    "Segment",
    "StageLibrary",
    "FrameGrainedProfiler",
    "ProfilerConfig",
    "StageDatasetBuilder",
    "StagePredictor",
    "PredictionCostModel",
    "Judgment",
    "JudgmentKind",
    "DynamicAdjuster",
    "redundancy_allocation",
    "AllocationPlanner",
    "Distributor",
    "AdmissionDecision",
    "Regulator",
    "RegulatorConfig",
    "GameProfile",
    "CoCGScheduler",
    "CoCGConfig",
    "SessionControl",
    "BreakerState",
    "PredictorHealth",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "frame_matrix": ".frames",
    "frames_of_series": ".frames",
    "BreakerState": ".health",
    "PredictorHealth": ".health",
    "StageLibrary": ".stages",
    "StageStats": ".stages",
    "StageTypeId": ".stages",
    "Segment": ".stages",
    "FrameGrainedProfiler": ".profiler",
    "ProfilerConfig": ".profiler",
    "StageDatasetBuilder": ".dataset",
    "Judgment": ".predictor",
    "JudgmentKind": ".predictor",
    "PredictionCostModel": ".predictor",
    "StagePredictor": ".predictor",
    "DynamicAdjuster": ".adjustment",
    "redundancy_allocation": ".adjustment",
    "AllocationPlanner": ".allocation",
    "Distributor": ".distributor",
    "AdmissionDecision": ".distributor",
    "Regulator": ".regulator",
    "RegulatorConfig": ".regulator",
    "GameProfile": ".pipeline",
    "CoCGConfig": ".scheduler",
    "CoCGScheduler": ".scheduler",
    "SessionControl": ".scheduler",
})
