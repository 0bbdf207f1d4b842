"""Workload record/replay: ``.cgtrace`` traces and the scenario corpus.

Record any finished fleet run into a versioned, digest-sealed
``.cgtrace`` file (:func:`record_run`, or :meth:`TraceRecorder.finalize`
over a run you drove yourself: it reads the arrivals, fault schedule,
gateway verdicts and node stage logs the run already keeps), then
replay it bit-for-bit later (:class:`TraceReplayer`) — the replay
must reproduce the recorded fleet telemetry digest or it raises
:class:`ReplayDivergence` naming the first divergent record.  The
shipped corpus (:data:`SCENARIOS`) packages four canonical cloud-gaming
workload shapes as regenerable traces; scripted players
(:data:`BEHAVIOURS`) shape their load.  See ``docs/TRACE.md``.
"""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "SCENARIOS": ".corpus",
    "RateEnvelope": ".corpus",
    "ScenarioArrivals": ".corpus",
    "ScenarioSpec": ".corpus",
    "generate_scenario": ".corpus",
    "get_scenario": ".corpus",
    "scenario_names": ".corpus",
    "KNOWN_SCHEMAS": ".events",
    "SCHEMA": ".events",
    "ArrivalEvent": ".events",
    "FaultScheduleEvent": ".events",
    "StageEvent": ".events",
    "TraceHeader": ".events",
    "TraceTrailer": ".events",
    "TraceDigestError": ".format",
    "TraceDocument": ".format",
    "TraceError": ".format",
    "TraceFormatError": ".format",
    "TraceSchemaError": ".format",
    "TraceTruncatedError": ".format",
    "config_fingerprint": ".format",
    "RunConfig": ".harness",
    "build_cluster": ".harness",
    "build_profiles": ".harness",
    "experiment_seed": ".harness",
    "record_run": ".harness",
    "BEHAVIOURS": ".players",
    "PlayerBehaviour": ".players",
    "ScriptedPlayer": ".players",
    "behaviour_names": ".players",
    "behaviour_of": ".players",
    "get_behaviour": ".players",
    "make_player": ".players",
    "register_behaviour": ".players",
    "TraceRecorder": ".recorder",
    "ReplayDivergence": ".replayer",
    "ReplayedArrivals": ".replayer",
    "ReplayReport": ".replayer",
    "TraceReplayer": ".replayer",
    "replay_document": ".replayer",
    "replay_path": ".replayer",
})
