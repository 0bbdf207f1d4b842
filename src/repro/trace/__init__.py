"""Workload record/replay: ``.cgtrace`` traces and the scenario corpus.

Record any gateway-fronted fleet run into a versioned, digest-sealed
``.cgtrace`` file (:class:`TraceRecorder` via the ``trace=`` handle),
then replay it bit-for-bit later (:class:`TraceReplayer`) — the replay
must reproduce the recorded fleet telemetry digest or it raises
:class:`ReplayDivergence` naming the first divergent record.  The
shipped corpus (:data:`SCENARIOS`) packages four canonical cloud-gaming
workload shapes as regenerable traces; scripted players
(:data:`BEHAVIOURS`) shape their load.  See ``docs/TRACE.md``.
"""

from repro.trace.corpus import (
    SCENARIOS,
    RateEnvelope,
    ScenarioArrivals,
    ScenarioSpec,
    generate_scenario,
    get_scenario,
    scenario_names,
)
from repro.trace.events import (
    KNOWN_SCHEMAS,
    SCHEMA,
    ArrivalEvent,
    FaultScheduleEvent,
    StageEvent,
    TraceHeader,
    TraceTrailer,
)
from repro.trace.format import (
    TraceDigestError,
    TraceDocument,
    TraceError,
    TraceFormatError,
    TraceSchemaError,
    TraceTruncatedError,
    config_fingerprint,
)
from repro.trace.harness import (
    RunConfig,
    build_cluster,
    build_profiles,
    experiment_seed,
    record_run,
)
from repro.trace.players import (
    BEHAVIOURS,
    PlayerBehaviour,
    ScriptedPlayer,
    behaviour_names,
    behaviour_of,
    get_behaviour,
    make_player,
    register_behaviour,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replayer import (
    ReplayDivergence,
    ReplayedArrivals,
    ReplayReport,
    TraceReplayer,
    replay_document,
    replay_path,
)

__all__ = [
    "SCHEMA",
    "KNOWN_SCHEMAS",
    "TraceHeader",
    "ArrivalEvent",
    "StageEvent",
    "FaultScheduleEvent",
    "TraceTrailer",
    "TraceDocument",
    "TraceError",
    "TraceSchemaError",
    "TraceFormatError",
    "TraceTruncatedError",
    "TraceDigestError",
    "config_fingerprint",
    "PlayerBehaviour",
    "ScriptedPlayer",
    "BEHAVIOURS",
    "register_behaviour",
    "get_behaviour",
    "behaviour_names",
    "behaviour_of",
    "make_player",
    "TraceRecorder",
    "ReplayDivergence",
    "ReplayedArrivals",
    "ReplayReport",
    "TraceReplayer",
    "RunConfig",
    "experiment_seed",
    "build_profiles",
    "build_cluster",
    "record_run",
    "replay_document",
    "replay_path",
    "RateEnvelope",
    "ScenarioSpec",
    "ScenarioArrivals",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
    "generate_scenario",
]
