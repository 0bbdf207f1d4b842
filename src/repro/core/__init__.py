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

from repro.core.frames import frame_matrix, frames_of_series
from repro.core.health import BreakerState, PredictorHealth
from repro.core.stages import StageLibrary, StageStats, StageTypeId, Segment
from repro.core.profiler import FrameGrainedProfiler, ProfilerConfig
from repro.core.dataset import StageDatasetBuilder
from repro.core.predictor import (
    Judgment,
    JudgmentKind,
    PredictionCostModel,
    StagePredictor,
)
from repro.core.adjustment import DynamicAdjuster, redundancy_allocation
from repro.core.allocation import AllocationPlanner
from repro.core.distributor import Distributor, AdmissionDecision
from repro.core.regulator import Regulator, RegulatorConfig
from repro.core.pipeline import GameProfile
from repro.core.scheduler import CoCGConfig, CoCGScheduler, SessionControl

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
