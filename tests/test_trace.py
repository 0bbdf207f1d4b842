"""Tests for :mod:`repro.trace` — format, players, record/replay, corpus.

The load-bearing property is the round trip: ``write -> read -> write``
is byte-identity, and replaying a recorded run reproduces the recorded
fleet telemetry digest exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.fleet import ClusterScheduler, FleetNode
from repro.cli import main
from repro.cluster.provisioner import Provisioner
from repro.faults.chaos import reclaim_storm_plan
from repro.faults.plan import FaultPlan
from repro.games.category import GameCategory
from repro.games.player import PlayerModel
from repro.trace import (
    SCENARIOS,
    ReplayDivergence,
    RunConfig,
    ScenarioArrivals,
    TraceDigestError,
    TraceDocument,
    TraceFormatError,
    TraceRecorder,
    TraceReplayer,
    TraceSchemaError,
    TraceTruncatedError,
    behaviour_names,
    behaviour_of,
    build_profiles,
    config_fingerprint,
    generate_scenario,
    get_behaviour,
    get_scenario,
    make_player,
    record_run,
    register_behaviour,
    replay_document,
    replay_path,
    scenario_names,
)
from repro.trace.corpus import RateEnvelope
from repro.trace.events import FaultScheduleEvent
from repro.trace.harness import build_experiment
from repro.trace.players import BEHAVIOURS, PlayerBehaviour, ScriptedPlayer


@pytest.fixture(scope="module")
def recorded():
    """One short recorded run shared by the whole module (runs once)."""
    config = RunConfig(games=("contra",), nodes=2, horizon=150, seed=3)
    result, recorder = record_run(config)
    return config, result, recorder


@pytest.fixture(scope="module")
def document(recorded):
    return recorded[2].document


# ---------------------------------------------------------------------------
# Format: round trip + strict rejection
# ---------------------------------------------------------------------------

class TestFormatRoundTrip:
    def test_write_read_write_is_byte_identity(self, document):
        text = document.dumps()
        assert TraceDocument.loads(text).dumps() == text

    def test_save_load_round_trip(self, document, tmp_path):
        path = document.save(tmp_path / "run.cgtrace")
        assert TraceDocument.load(path).dumps() == document.dumps()

    def test_body_is_sorted_and_counted(self, document):
        lines = document.body_lines()
        assert document.trailer.records == len(lines)
        assert document.trailer.payload_digest == document.payload_digest()

    def test_fingerprint_matches_config(self, document):
        assert document.header.fingerprint == config_fingerprint(
            document.header.config
        )


class TestFormatRejection:
    def test_empty_text_is_truncated(self):
        with pytest.raises(TraceTruncatedError, match="no header"):
            TraceDocument.loads("")

    def test_missing_trailer_is_truncated(self, document):
        lines = document.dumps().rstrip("\n").split("\n")
        with pytest.raises(TraceTruncatedError, match="truncated"):
            TraceDocument.loads("\n".join(lines[:-1]) + "\n")

    def test_removed_body_record_is_truncation(self, document):
        lines = document.dumps().rstrip("\n").split("\n")
        del lines[2]  # a body record; the trailer count now disagrees
        with pytest.raises(TraceTruncatedError, match="truncated or spliced"):
            TraceDocument.loads("\n".join(lines) + "\n")

    def test_unknown_schema_rejected_by_name(self, document):
        text = document.dumps().replace(
            '"schema":"cocg-trace/1"', '"schema":"cocg-trace/99"', 1
        )
        with pytest.raises(TraceSchemaError, match="cocg-trace/99") as info:
            TraceDocument.loads(text)
        assert "cocg-trace/1" in str(info.value)  # lists what it understands

    def test_unknown_field_rejected_by_name(self, document):
        lines = document.dumps().rstrip("\n").split("\n")
        payload = json.loads(lines[1])
        payload["zzz_extra"] = 1
        lines[1] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with pytest.raises(TraceFormatError, match="zzz_extra"):
            TraceDocument.loads("\n".join(lines) + "\n")

    def test_unknown_record_kind_rejected_by_name(self, document):
        lines = document.dumps().rstrip("\n").split("\n")
        lines.insert(1, '{"record":"teleport","t":0.0}')
        with pytest.raises(TraceFormatError, match="teleport"):
            TraceDocument.loads("\n".join(lines) + "\n")

    def test_out_of_order_body_rejected(self, document):
        lines = document.dumps().rstrip("\n").split("\n")
        assert len(lines) > 4, "need at least two body records"
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(TraceFormatError, match="out of order"):
            TraceDocument.loads("\n".join(lines) + "\n")

    def test_payload_digest_mismatch_raises(self, document):
        text = document.dumps().replace(
            f'"payload_digest":"{document.trailer.payload_digest}"',
            '"payload_digest":"' + "0" * 64 + '"',
        )
        with pytest.raises(TraceDigestError, match="payload digest"):
            TraceDocument.loads(text)

    def test_edited_config_breaks_fingerprint(self, document):
        text = document.dumps().replace('"seed":3', '"seed":4', 1)
        with pytest.raises(TraceDigestError, match="fingerprint"):
            TraceDocument.loads(text)

    def test_garbage_after_trailer_rejected(self, document):
        with pytest.raises(TraceFormatError, match="not the last"):
            TraceDocument.loads(document.dumps() + '{"record":"header"}\n')


@pytest.fixture(scope="module")
def every_kind(document):
    """The recorded trace plus one fault record: every record kind."""
    spec = FaultPlan(seed=1).session_kill(60.0).scheduled()[0]
    return TraceDocument(
        header=document.header,
        arrivals=list(document.arrivals),
        stages=list(document.stages),
        faults=[FaultScheduleEvent(60.0, 0, spec.to_dict())],
    ).sealed(document.trailer.fleet_digest).dumps()


def _retyped(text, kind, name, value):
    """``text`` with ``name`` of the first ``kind`` record carrying it
    set to ``value``; returns the new text and that record's line."""
    lines = text.rstrip("\n").split("\n")
    for index, line in enumerate(lines):
        payload = json.loads(line)
        if payload["record"] == kind and name in payload:
            payload[name] = value
            lines[index] = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            return "\n".join(lines) + "\n", index + 1
    raise AssertionError(f"no {kind} record carries {name!r}")


#: One wrongly typed value per field of every record kind.
WRONG_TYPES = [
    ("header", "schema", 1), ("header", "scenario", None),
    ("header", "seed", "z"), ("header", "seed", True),
    ("header", "seed", 1.5), ("header", "config", []),
    ("header", "fingerprint", 0), ("header", "meta", "m"),
    ("arrival", "t", "x"), ("arrival", "t", False), ("arrival", "id", "a"),
    ("arrival", "game", 3), ("arrival", "script", None),
    ("arrival", "player", []), ("arrival", "behaviour", 1),
    ("arrival", "category", {}),
    ("stage", "t", None), ("stage", "session", 1), ("stage", "stage", 2),
    ("stage", "start", None), ("stage", "end", "9"), ("stage", "node", 7),
    ("fault", "t", "x"), ("fault", "index", "0"), ("fault", "spec", []),
    ("trailer", "records", "many"), ("trailer", "payload_digest", 0),
    ("trailer", "fleet_digest", None),
]


class TestFieldTypes:
    """A field of the wrong JSON type fails by name, never as a raw
    ``ValueError``/``TypeError`` from a conversion."""

    @pytest.mark.parametrize(
        "kind,name,value", WRONG_TYPES,
        ids=[f"{k}.{n}={v!r}" for k, n, v in WRONG_TYPES],
    )
    def test_wrong_type_names_line_kind_and_field(
        self, every_kind, kind, name, value
    ):
        text, lineno = _retyped(every_kind, kind, name, value)
        with pytest.raises(
            TraceFormatError, match=f"line {lineno}: {kind} field '{name}'"
        ):
            TraceDocument.loads(text)

    def test_number_fields_accept_ints(self, every_kind):
        # ``t``/``start``/``end`` are numbers: ``5`` reads as ``5.0``,
        # so the re-serialized body still hashes to the trailer.
        first = TraceDocument.loads(every_kind).stages[0]
        text, _ = _retyped(every_kind, "stage", "end", int(first.end))
        assert text != every_kind
        assert TraceDocument.loads(text).stages[0] == first

    def test_cli_replay_exits_2_naming_the_field(self, every_kind, tmp_path,
                                                 capsys):
        text, lineno = _retyped(every_kind, "stage", "start", None)
        path = tmp_path / "bad.cgtrace"
        path.write_text(text, encoding="utf-8")
        assert main(["replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"line {lineno}: stage field 'start' must be a number, got null"
            in captured.err
        )


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_round_trip_elides_defaults(self):
        config = RunConfig(games=("contra",))
        assert config.to_dict() == {"games": ["contra"]}
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_round_trip_keeps_overrides(self):
        config = RunConfig(
            games=("contra", "dota2"), nodes=4, horizon=300, warm_pool=2
        )
        payload = config.to_dict()
        assert payload["nodes"] == 4 and payload["warm_pool"] == 2
        assert "policy" not in payload  # still default
        assert RunConfig.from_dict(payload) == config

    def test_fleet_flags_elided_at_defaults(self):
        # --heterogeneous and --no-batching ride in the config without
        # changing any shipped header or fingerprint.
        payload = RunConfig(games=("contra",)).to_dict()
        assert "heterogeneous" not in payload
        assert "micro_batching" not in payload
        config = RunConfig(
            games=("contra",), heterogeneous=True, micro_batching=False
        )
        assert config.to_dict() == {
            "games": ["contra"], "heterogeneous": True,
            "micro_batching": False,
        }
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="zzz"):
            RunConfig.from_dict({"games": ["contra"], "zzz": 1})

    def test_validation(self):
        with pytest.raises(ValueError, match="games"):
            RunConfig(games=())
        with pytest.raises(ValueError, match="nodes"):
            RunConfig(games=("contra",), nodes=0)
        with pytest.raises(ValueError, match="strategy"):
            RunConfig(games=("contra",), strategy="magic")


# ---------------------------------------------------------------------------
# Scripted players
# ---------------------------------------------------------------------------

class TestScriptedPlayers:
    def test_builtin_registry(self):
        assert list(behaviour_names()) == sorted(
            ["organic", "afk", "grinder", "tourist", "raider"]
        )
        with pytest.raises(KeyError, match="afk"):
            get_behaviour("speedrunner")  # message lists known names

    def test_organic_matches_live_loadgen_player(self):
        scripted = make_player("arr-contra-0", GameCategory.WEB, "organic")
        live = PlayerModel("arr-contra-0", GameCategory.WEB, seed=0)
        assert type(scripted) is PlayerModel
        assert scripted.duration_sigma == live.duration_sigma
        assert scripted.deviate_probability == live.deviate_probability
        assert behaviour_of(scripted) == "organic"

    def test_scripted_player_scales_knobs(self):
        base = PlayerModel("p", GameCategory.MMO, seed=0)
        afk = make_player("p", GameCategory.MMO, "afk")
        raider = make_player("p", GameCategory.MMO, "raider")
        assert isinstance(afk, ScriptedPlayer)
        assert afk.duration_sigma > base.duration_sigma  # dawdles
        assert afk.burst_rate < base.burst_rate
        assert raider.burst_rate > base.burst_rate  # raid spikes
        assert behaviour_of(raider) == "raider"

    def test_probabilities_stay_clamped(self):
        for name in behaviour_names():
            player = make_player("p", GameCategory.MMO, name)
            assert 0.0 <= player.deviate_probability <= 1.0
            assert 0.0 <= player.burst_rate <= 1.0

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="afk") as excinfo:
            register_behaviour(PlayerBehaviour("afk", "dup"))
        # The collision error names every registered behaviour, sorted,
        # so the caller can see what is taken without a second query.
        assert f"known: {', '.join(behaviour_names())}" in str(excinfo.value)
        assert list(behaviour_names()) == sorted(behaviour_names())
        assert "afk" in BEHAVIOURS

    def test_behaviour_validation(self):
        with pytest.raises(ValueError):
            PlayerBehaviour("bad", "negative", duration_scale=-1.0)


# ---------------------------------------------------------------------------
# Recorder + replay: the digest contract
# ---------------------------------------------------------------------------

class TestRecordReplay:
    def test_replay_reproduces_fleet_digest(self, recorded, document):
        _, result, _ = recorded
        assert document.trailer.fleet_digest == result.telemetry_digest
        report = replay_document(document)
        assert report.matched
        assert report.replayed_digest == result.telemetry_digest

    def test_replay_path_round_trip(self, document, tmp_path):
        path = document.save(tmp_path / "run.cgtrace")
        assert replay_path(path).matched

    def test_tampered_fleet_digest_raises_named_error(self, document):
        tampered = TraceDocument(
            header=document.header,
            arrivals=list(document.arrivals),
            stages=list(document.stages),
            faults=list(document.faults),
        ).sealed("f" * 64)
        with pytest.raises(ReplayDivergence, match="does not match"):
            replay_document(tampered)
        report = replay_document(tampered, strict=False)
        assert not report.matched
        # The timelines agree record-for-record; only the sealed digest
        # was forged, so no divergent record can be named.
        assert report.divergence == ""

    def test_recorder_requires_finalize(self):
        recorder = TraceRecorder(seed=0, config={"games": ["contra"]})
        assert not recorder.finalized
        with pytest.raises(RuntimeError, match="finalize"):
            recorder.document

    def test_second_finalize_raises(self):
        config = RunConfig(games=("contra",), nodes=2, horizon=150, seed=3)
        experiment = build_experiment(config, build_profiles(config))
        result = experiment.run()
        recorder = TraceRecorder(seed=3, config=config.to_dict())
        text = recorder.finalize(experiment, result).dumps()
        with pytest.raises(RuntimeError, match="already finalized"):
            recorder.finalize(experiment, result)
        assert recorder.document.dumps() == text

    def test_faulted_run_replays(self):
        plan = FaultPlan(seed=9).session_kill(60.0, requeue=False)
        config = RunConfig(games=("contra",), nodes=2, horizon=150, seed=3)
        _, recorder = record_run(config, plan=plan)
        doc = recorder.document
        assert len(doc.faults) == 1
        assert doc.header.config["fault_seed"] == 9
        assert replay_document(doc).matched


# ---------------------------------------------------------------------------
# Recording reads the finished run: byte pins
# ---------------------------------------------------------------------------

#: sha256 of the trace text of an elastic, faulted run (two standbys
#: promoted mid-run, so stage records land on nodes added during it).
ELASTIC_PINS = {
    True: "64e0ef6de13e01ed8f794d6c5d32d6730a9d519fd653b699acb0d0b5e9c62519",
    False: "d28179906b61622137cac7fcd4ac8eeac30ca77ea76da255f313c3394cf40edd",
}


class TestRecordingPins:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_regenerates_byte_identical(self, name):
        path = Path(__file__).resolve().parents[1] / "corpus" / f"{name}.cgtrace"
        _, recorder = generate_scenario(name)
        assert recorder.document.dumps() == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("gateway", [True, False])
    def test_elastic_run_pins(self, gateway):
        config = RunConfig(
            games=("contra", "dota2"), nodes=3, horizon=600, seed=11,
            warm_pool=2, gateway=gateway,
        )
        plan = reclaim_storm_plan(600, seed=5, nodes=("node-1", "node-2"))
        _, recorder = record_run(config, plan=plan)
        text = recorder.document.dumps()
        assert {"spot-2", "spot-4"} <= {
            s.node for s in recorder.document.stages
        }
        assert hashlib.sha256(text.encode()).hexdigest() == (
            ELASTIC_PINS[gateway]
        )


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class TestCorpus:
    def test_shipped_scenarios(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert set(scenario_names()) == {
            "launch-day", "diurnal-wave", "raid-night", "mobile-burst",
        }
        with pytest.raises(KeyError, match="launch-day"):
            get_scenario("nonsuch")

    def test_envelope_steps(self):
        env = RateEnvelope(((0.0, 2.0), (100.0, 10.0), (200.0, 4.0)))
        assert env.rate_at(0.0) == 2.0
        assert env.rate_at(99.9) == 2.0
        assert env.rate_at(100.0) == 10.0
        assert env.rate_at(500.0) == 4.0
        assert env.peak == 10.0

    def test_envelope_validation(self):
        with pytest.raises(ValueError, match="t=0"):
            RateEnvelope(((10.0, 2.0),))
        with pytest.raises(ValueError, match="ascend"):
            RateEnvelope(((0.0, 2.0), (50.0, 3.0), (20.0, 1.0)))
        with pytest.raises(ValueError, match="positive"):
            RateEnvelope(((0.0, 0.0),))

    def test_scenario_arrivals_deterministic(self, catalog):
        scenario = get_scenario("launch-day")
        specs = [catalog[g] for g in scenario.config.games]
        a = ScenarioArrivals(scenario, specs)
        b = ScenarioArrivals(scenario, specs)
        assert len(a.requests) > 0
        assert [
            (r.arrival, r.request_id, r.script, r.player.player_id)
            for r in a.requests
        ] == [
            (r.arrival, r.request_id, r.script, r.player.player_id)
            for r in b.requests
        ]

    def test_scenario_tracks_envelope(self, catalog):
        scenario = get_scenario("launch-day")
        specs = [catalog[g] for g in scenario.config.games]
        arrivals = ScenarioArrivals(scenario, specs)
        quiet = len(arrivals.due(0.0, 120.0))
        spike = len(arrivals.due(120.0, 240.0))
        assert spike > quiet  # the flash crowd is visible in the stream

    def test_mix_behaviours_appear(self, catalog):
        scenario = get_scenario("raid-night")
        specs = [catalog[g] for g in scenario.config.games]
        arrivals = ScenarioArrivals(scenario, specs)
        seen = {behaviour_of(r.player) for r in arrivals.requests}
        assert "raider" in seen

    @pytest.mark.parametrize("name", ["launch-day", "mobile-burst"])
    def test_replayer_resolves_elided_horizon(self, name):
        # These headers elide the default 600 s horizon: the replayer
        # reads it from the parsed RunConfig, not the raw header dict.
        path = Path(__file__).resolve().parents[1] / "corpus" / f"{name}.cgtrace"
        document = TraceDocument.load(path)
        assert "horizon" not in document.header.config
        config = RunConfig.from_dict(document.header.config)
        report = TraceReplayer(document, config, build_profiles(config)).run()
        assert report.horizon == 600
        assert report.replayed_digest == document.trailer.fleet_digest

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shipped_corpus_replays_digest_stable(self, name):
        path = Path(__file__).resolve().parents[1] / "corpus" / f"{name}.cgtrace"
        assert path.is_file(), f"shipped corpus trace missing: {path}"
        report = replay_path(path)
        assert report.matched
        assert report.divergence == ""


# ---------------------------------------------------------------------------
# Satellite: ClusterScheduler.node() diagnostics
# ---------------------------------------------------------------------------

class TestNodeLookupDiagnostics:
    def _cluster(self, contra_profile):
        from repro.baselines import CoCGStrategy

        profiles = {"contra": contra_profile}
        nodes = [
            FleetNode(f"node-{i}", CoCGStrategy(), profiles, seed=i)
            for i in range(2)
        ]
        return ClusterScheduler(nodes, policy="round-robin"), profiles

    def test_lookup_miss_lists_sorted_states(self, contra_profile):
        cluster, _ = self._cluster(contra_profile)
        with pytest.raises(KeyError) as info:
            cluster.node("node-9")
        message = str(info.value)
        assert "node-0=up" in message and "node-1=up" in message
        assert message.index("node-0") < message.index("node-1")

    def test_lookup_miss_includes_provisioning_requests(
        self, contra_profile
    ):
        from repro.baselines import CoCGStrategy

        from repro.sim.engine import SimulationEngine

        cluster, profiles = self._cluster(contra_profile)
        provisioner = Provisioner(
            cluster,
            lambda node_id: FleetNode(
                node_id, CoCGStrategy(), profiles, seed=0
            ),
        )
        provisioner.attach(SimulationEngine())
        pending = provisioner.request_node(0.0)
        assert pending is not None
        with pytest.raises(KeyError) as info:
            cluster.node("node-9")
        assert f"{pending}=provisioning" in str(info.value)

    def test_lookup_hit_still_works(self, contra_profile):
        cluster, _ = self._cluster(contra_profile)
        assert cluster.node("node-1").node_id == "node-1"


# ---------------------------------------------------------------------------
# Sharded corpus replay: the diurnal wave through the session router
# ---------------------------------------------------------------------------

class TestShardedScenarioReplay:
    """The corpus meets the fleet-of-fleets: one scenario stream split
    across regional shards must record per-region sub-traces that each
    replay clean, and the merged cross-shard digest must agree between
    the live runs and the replays."""

    def test_diurnal_wave_sharded_digest_parity(self, catalog):
        import hashlib
        from dataclasses import replace

        from repro.fleet import SessionRouter
        from repro.trace import build_profiles

        spec = get_scenario("diurnal-wave")
        specs = [catalog[g] for g in spec.config.games]
        stream = ScenarioArrivals(spec, specs)
        router = SessionRouter({"east": 1.0, "west": 1.0})
        slices = router.split(stream.requests)
        assert all(slices[name].requests for name in slices)
        profiles = build_profiles(spec.config, catalog)
        live = {}
        replayed = {}
        for name in sorted(slices):
            config = replace(spec.config, region=name)
            result, recorder = record_run(
                config,
                scenario=f"{spec.name}/{name}",
                arrivals=slices[name],
                profiles=profiles,
            )
            live[name] = result.telemetry_digest
            report = replay_document(recorder.document)
            assert report.matched, f"region {name} diverged on replay"
            replayed[name] = report.replayed_digest

        def merged(digests):
            acc = hashlib.sha256()
            for region in sorted(digests):
                acc.update(f"{region}:{digests[region]}\n".encode())
            return acc.hexdigest()

        assert live["east"] != live["west"]  # regions are byte-distinct
        assert merged(live) == merged(replayed)
