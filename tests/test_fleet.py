"""Tests for :mod:`repro.fleet` — ring, router, controller, certification.

The load-bearing properties:

* the hash ring balances keys, moves at most ~K/N of them on a region
  join/leave, and never touches Python's salted ``hash()``;
* an N=1 fleet-of-fleets reduces byte-for-byte to the classic single
  :class:`~repro.cluster.experiment.FleetExperiment` digest;
* same-seed N=4 double runs are byte-identical, and a fault plan scoped
  to one region leaves every other region's digest untouched (shard
  isolation);
* startup certification refuses a stale ``shardplan.json`` with exit 2.
"""

from __future__ import annotations

import json
import os
import signal
import warnings

import pytest

from repro.cluster.experiment import FleetExperiment, default_arrivals
from repro.fleet import (
    FleetOfFleets,
    HashRing,
    RegionSpec,
    SessionRouter,
    certify_runtime,
    load_certificate,
    region_node_id,
    region_outage_plan,
    ring_point,
    runtime_entry_points,
)
from repro.fleet.controller import ID_STRIDE
from repro.serve.loadgen import ClosedLoopLoadGen, OpenLoopLoadGen
from repro.sim import ShardError, ShardPlanError, run_partitioned
from repro.trace.harness import (
    RunConfig,
    build_cluster,
    build_profiles,
    experiment_seed,
)
from repro.util.rng import derive_seed, region_seed
from repro.workloads.requests import ContinuousBacklog, PoissonArrivals

BASE = RunConfig(
    games=("contra",),
    nodes=2,
    horizon=150,
    rate_per_minute=6.0,
    seed=7,
    players=2,
    sessions=2,
    gateway=False,
)


def _keys(n: int):
    """A deterministic uniform key population (no RNG needed)."""
    return [f"player-{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# Hash ring: balance, stability, determinism
# ---------------------------------------------------------------------------

class TestHashRing:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_balance_equal_weights(self, n):
        ring = HashRing({f"r{i}": 1.0 for i in range(n)}, replicas=128)
        keys = _keys(8000)
        counts = {name: 0 for name in ring.regions}
        for key in keys:
            counts[ring.route(key)] += 1
        expected = len(keys) / n
        for name in ring.regions:
            # Consistent hashing balances statistically, not exactly;
            # 128 vnodes keeps every region within a factor ~2 of fair.
            assert counts[name] > expected * 0.45, (name, counts)
            assert counts[name] < expected * 2.2, (name, counts)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_join_moves_bounded_fraction(self, n):
        ring = HashRing({f"r{i}": 1.0 for i in range(n)})
        keys = _keys(5000)
        before = {key: ring.route(key) for key in keys}
        grown = ring.with_region("newcomer")
        moved = sum(1 for key in keys if grown.route(key) != before[key])
        # The newcomer owns ~1/(n+1) of the circle; allow 2x slack for
        # vnode placement variance.  A naive modulo hash would move
        # ~n/(n+1) of all keys and fail this hard.
        assert moved <= 2 * len(keys) / (n + 1), (n, moved)
        # ...and every moved key moved *to* the newcomer, nowhere else.
        for key in keys:
            if grown.route(key) != before[key]:
                assert grown.route(key) == "newcomer"

    def test_leave_only_spreads_the_leavers_keys(self):
        ring = HashRing({name: 1.0 for name in ("east", "west", "south")})
        keys = _keys(4000)
        before = {key: ring.route(key) for key in keys}
        shrunk = ring.without_region("west")
        for key in keys:
            if before[key] != "west":
                assert shrunk.route(key) == before[key]

    def test_points_are_sha256_not_builtin_hash(self):
        # Pinned value: breaks if anyone swaps in the salted builtin.
        assert ring_point("east#0") == int.from_bytes(
            __import__("hashlib").sha256(b"east#0").digest()[:8], "big"
        )
        ring = HashRing({"east": 1.0, "west": 1.0})
        assert [ring.route(k) for k in _keys(32)] == [
            ring.route(k) for k in _keys(32)
        ]

    def test_weights_bias_routing(self):
        ring = HashRing({"big": 3.0, "small": 1.0}, replicas=128)
        keys = _keys(6000)
        big = sum(1 for key in keys if ring.route(key) == "big")
        assert big > len(keys) * 0.55

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one region"):
            HashRing({})
        with pytest.raises(ValueError, match="weight must be > 0"):
            HashRing({"east": 0.0})
        with pytest.raises(ValueError, match="identifier-like"):
            HashRing({"two words": 1.0})
        with pytest.raises(ValueError, match="already on the ring"):
            HashRing({"east": 1.0}).with_region("east")
        with pytest.raises(ValueError, match="last region"):
            HashRing({"east": 1.0}).without_region("east")


# ---------------------------------------------------------------------------
# Router: splitting a stream
# ---------------------------------------------------------------------------

class TestSessionRouter:
    def test_split_is_a_partition_preserving_order(self, catalog):
        stream = default_arrivals(
            [catalog["contra"]], rate_per_minute=30.0, seed=5, horizon=600.0
        )
        router = SessionRouter({"east": 1.0, "west": 1.0, "south": 1.0})
        slices = router.split(stream.requests)
        assert sorted(slices) == ["east", "south", "west"]
        rejoined = sorted(
            (r.request_id for name in slices for r in slices[name].requests)
        )
        assert rejoined == [r.request_id for r in stream.requests]
        for name in slices:
            ids = [r.request_id for r in slices[name].requests]
            assert ids == sorted(ids)  # source order preserved

    def test_same_player_always_same_region(self, catalog):
        stream = default_arrivals(
            [catalog["contra"], catalog["dota2"]],
            rate_per_minute=30.0, seed=5, horizon=600.0,
        )
        router = SessionRouter({"east": 1.0, "west": 1.0})
        seen = {}
        for request in stream.requests:
            region = router.region_of(request)
            pid = request.player.player_id
            assert seen.setdefault(pid, region) == region

    def test_routed_arrivals_due_window(self, catalog):
        stream = default_arrivals(
            [catalog["contra"]], rate_per_minute=30.0, seed=5, horizon=600.0
        )
        router = SessionRouter({"solo": 1.0})
        sliced = router.split(stream.requests)["solo"]
        assert [r.request_id for r in sliced.due(0.0, 300.0)] == [
            r.request_id for r in stream.due(0.0, 300.0)
        ]


# ---------------------------------------------------------------------------
# id_base namespacing (satellite: merged streams cannot collide)
# ---------------------------------------------------------------------------

class TestIdBase:
    def test_poisson_ids_offset(self, catalog):
        specs = [catalog["contra"]]
        a = PoissonArrivals(specs, seed=3, horizon=600.0)
        b = PoissonArrivals(specs, seed=3, horizon=600.0, id_base=1000)
        assert [r.request_id for r in b.requests] == [
            r.request_id + 1000 for r in a.requests
        ]

    def test_backlog_ids_offset(self, catalog):
        backlog = ContinuousBacklog([catalog["contra"]], id_base=500)
        assert backlog.pending(0.0)[0].request_id == 500

    def test_loadgen_ids_offset(self, catalog):
        specs = [catalog["contra"]]
        a = OpenLoopLoadGen(specs, rate_per_second=1.0, horizon=60.0)
        b = OpenLoopLoadGen(
            specs, rate_per_second=1.0, horizon=60.0, id_base=10
        )
        assert [r.request_id for r in b.requests] == [
            r.request_id + 10 for r in a.requests
        ]
        closed = ClosedLoopLoadGen(specs, id_base=77)
        assert closed.pending(0.0)[0].request_id == 77

    def test_negative_base_rejected(self, catalog):
        with pytest.raises(ValueError, match="id_base"):
            PoissonArrivals([catalog["contra"]], id_base=-1)

    def test_regional_streams_disjoint(self):
        fleet = FleetOfFleets(
            BASE,
            [RegionSpec("east"), RegionSpec("west")],
            arrival_mode="regional",
        )
        shards = fleet.build_shards()
        east = {r.request_id for r in shards["east"].arrivals.requests}
        west = {r.request_id for r in shards["west"].arrivals.requests}
        assert not east & west
        assert all(i < ID_STRIDE for i in east)
        assert all(ID_STRIDE <= i < 2 * ID_STRIDE for i in west)


# ---------------------------------------------------------------------------
# run_partitioned: the partitioned-stream seam
# ---------------------------------------------------------------------------

def _boom():
    raise ZeroDivisionError("boom")


@pytest.fixture
def two_cpus(monkeypatch):
    """Run the seam's forked path on any host, and never hang on it.

    The seam sizes its worker pool from the CPU affinity mask, so two
    usable CPUs are faked; an alarm turns a hung drain into a failure.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def hung(signum, frame):
        raise TimeoutError("run_partitioned hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunPartitioned:
    def test_sorted_execution_order(self):
        """Results come back keyed in sorted order and equal direct
        calls; a lone stream still runs in the caller, side effects
        visible (the N=1 reduction path)."""
        thunks = {"b": lambda: "B", "c": lambda: [3], "a": lambda: "A"}
        out = run_partitioned(thunks)
        assert list(out) == ["a", "b", "c"]
        assert out == {name: thunks[name]() for name in sorted(thunks)}

        seen = []
        out = run_partitioned(
            {"only": lambda: seen.append(os.getpid()) or "done"}
        )
        assert out == {"only": "done"}
        assert seen == [os.getpid()]

    def test_large_worker_payload(self, two_cpus):
        # More than the 64 KiB pipe buffer: drained before waitpid.
        blob = bytes(range(256)) * 1024
        out = run_partitioned({"a": lambda: 1, "b": lambda: blob})
        assert out == {"a": 1, "b": blob}
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_failure_names_first_failing_shard(self, two_cpus, monkeypatch,
                                               cpus):
        # The error type is the same whether the seam forks or not.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        with pytest.raises(ShardError) as info:
            run_partitioned({"a": lambda: "A", "b": _boom, "c": _boom})
        assert info.value.shard == "b"
        assert "ZeroDivisionError: boom" in str(info.value)
        _assert_no_children()

    def test_worker_exception_carries_traceback(self, two_cpus):
        # Two CPUs: the caller runs "a", the worker runs "b".
        with pytest.raises(ShardError) as info:
            run_partitioned({"a": lambda: "A", "b": _boom})
        assert info.value.shard == "b"
        assert "Traceback (most recent call last)" in str(info.value)
        assert "in _boom" in str(info.value)
        _assert_no_children()

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"killed by signal {int(signal.SIGKILL)}"),
    ])
    def test_dead_worker_reports_exit_status(self, two_cpus, die, how):
        with pytest.raises(ShardError) as info:
            run_partitioned({"a": lambda: "A", "b": die})
        assert info.value.shard == "b"
        assert how in str(info.value)
        _assert_no_children()

    def test_caller_share_failure_is_chained(self, two_cpus):
        with pytest.raises(ShardError) as info:
            run_partitioned({"a": _boom, "b": lambda: "B"})
        assert info.value.shard == "a"
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        _assert_no_children()

    def test_fork_is_warning_free(self, two_cpus):
        # Python 3.12+ warns when forking a multi-threaded process, then
        # clears the warning, so an "error" filter could never see it:
        # record every DeprecationWarning instead.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            result = FleetOfFleets(BASE, _regions(2)).run()
        assert [
            str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
        ] == []
        assert len(result.region_digests) == 2
        _assert_no_children()

    def test_rejects_empty_and_colon_names(self):
        with pytest.raises(ValueError, match="at least one"):
            run_partitioned({})
        with pytest.raises(ValueError, match="':'-free"):
            run_partitioned({"east:0": lambda: None})


# ---------------------------------------------------------------------------
# RunConfig.region + region-aware cluster building
# ---------------------------------------------------------------------------

class TestRegionConfig:
    def test_round_trip_and_validation(self):
        config = RunConfig(games=("contra",), region="east")
        assert RunConfig.from_dict(config.to_dict()) == config
        assert "region" not in RunConfig(games=("contra",)).to_dict()
        with pytest.raises(ValueError, match="region"):
            RunConfig(games=("contra",), region="no/slash")

    def test_region_prefixes_nodes_and_shifts_seeds(self):
        plain = RunConfig(games=("contra",), nodes=2, seed=7, players=2,
                          sessions=2)
        east = RunConfig(games=("contra",), nodes=2, seed=7, players=2,
                         sessions=2, region="east")
        profiles = build_profiles(plain)
        cluster = build_cluster(east, profiles)
        assert [n.node_id for n in cluster.nodes] == [
            "east/node-0", "east/node-1"
        ]
        assert experiment_seed(east) == region_seed(7, "east")
        assert experiment_seed(east) != experiment_seed(plain)
        assert experiment_seed(plain) == 7

    def test_region_namespace_single_owner(self):
        # region_seed is the one minting site of the "region" namespace.
        assert region_seed(7, "east") == derive_seed(7, "region", "east")


# ---------------------------------------------------------------------------
# FleetOfFleets: reduction, determinism, isolation
# ---------------------------------------------------------------------------

def _regions(n):
    return [RegionSpec(f"r{i}") for i in range(n)]


class TestFleetOfFleets:
    def test_n1_reduces_to_single_fleet_digest(self, catalog):
        merged = FleetOfFleets(BASE, [RegionSpec("solo")]).run()
        profiles = build_profiles(BASE, catalog)
        baseline = FleetExperiment(
            build_cluster(BASE, profiles),
            [catalog[g] for g in BASE.games],
            horizon=BASE.horizon,
            rate_per_minute=BASE.rate_per_minute,
            seed=BASE.seed,
            detect_interval=BASE.detect_interval,
        ).run()
        assert merged.merged_digest == baseline.telemetry_digest

    def test_n4_double_run_byte_identical(self):
        a = FleetOfFleets(BASE, _regions(4)).run()
        b = FleetOfFleets(BASE, _regions(4)).run()
        assert a.merged_digest == b.merged_digest
        assert a.region_digests == b.region_digests
        assert a.requests_routed == b.requests_routed

    def test_merged_digest_covers_every_region(self, catalog):
        result = FleetOfFleets(BASE, _regions(2)).run()
        assert len(result.region_digests) == 2
        assert result.merged_digest not in result.region_digests.values()
        stream = default_arrivals(
            [catalog[g] for g in BASE.games],
            rate_per_minute=BASE.rate_per_minute,
            seed=BASE.seed,
            horizon=float(BASE.horizon),
        )
        assert sum(result.requests_routed.values()) == len(stream.requests)

    def test_region_fault_is_isolated(self):
        clean = FleetOfFleets(BASE, _regions(3)).run()
        plan = region_outage_plan("r1", BASE.nodes, 30.0, recover_after=60.0)
        specs = [
            RegionSpec("r0"),
            RegionSpec("r1", fault_plan=plan),
            RegionSpec("r2"),
        ]
        faulted = FleetOfFleets(BASE, specs).run()
        # The faulted region diverges; the others are byte-untouched.
        assert (
            faulted.region_digests["r1"] != clean.region_digests["r1"]
        )
        assert faulted.region_digests["r0"] == clean.region_digests["r0"]
        assert faulted.region_digests["r2"] == clean.region_digests["r2"]
        assert faulted.merged_digest != clean.merged_digest
        assert faulted.regions["r1"].result.fault_events

    def test_region_overrides_apply(self):
        specs = [RegionSpec("r0", nodes=1), RegionSpec("r1")]
        shards = FleetOfFleets(BASE, specs).build_shards()
        assert shards["r0"].config.nodes == 1
        assert shards["r1"].config.nodes == BASE.nodes
        assert shards["r0"].config.region == "r0"

    def test_obs_counters_region_labeled(self):
        from repro.obs import Observer

        obs = Observer()
        FleetOfFleets(BASE, _regions(2), obs=obs).run()
        text = obs.metrics_text()
        assert 'fleet_requests_routed_total{region="r0"}' in text
        assert 'fleet_sessions_completed_total{region="r1"}' in text

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one region"):
            FleetOfFleets(BASE, [])
        with pytest.raises(ValueError, match="duplicate region"):
            FleetOfFleets(BASE, [RegionSpec("a"), RegionSpec("a")])
        with pytest.raises(ValueError, match="must not be region-stamped"):
            FleetOfFleets(
                RunConfig(games=("contra",), region="east"),
                [RegionSpec("a")],
            )
        with pytest.raises(ValueError, match="arrival_mode"):
            FleetOfFleets(BASE, [RegionSpec("a")], arrival_mode="chaos")
        with pytest.raises(ValueError, match="weight"):
            RegionSpec("east", weight=0.0)

    def test_recorded_subtraces_replay(self, catalog):
        from repro.trace import replay_document

        result = FleetOfFleets(
            BASE, _regions(2), record=True, scenario="fleet-test"
        ).run()
        for name in sorted(result.regions):
            outcome = result.regions[name]
            document = outcome.recorder.document
            assert document.trailer.fleet_digest == outcome.digest
            report = replay_document(document)
            assert report.matched


# ---------------------------------------------------------------------------
# Region outage plans
# ---------------------------------------------------------------------------

class TestRegionOutagePlan:
    def test_plan_targets_every_prefixed_node(self):
        plan = region_outage_plan("east", 3, 120.0, recover_after=60.0)
        targets = sorted(spec.node for spec in plan.faults)
        assert targets == [region_node_id("east", i) for i in range(3)]
        assert all(spec.time == 120.0 for spec in plan.faults)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            region_outage_plan("", 2, 0.0)
        with pytest.raises(ValueError, match="node_count"):
            region_outage_plan("east", 0, 0.0)


# ---------------------------------------------------------------------------
# Startup certification
# ---------------------------------------------------------------------------

class TestCertification:
    def test_packaged_certificate_matches_runtime(self):
        plan = certify_runtime()
        assert plan["counts"]["entry_points"] == len(runtime_entry_points())

    def test_stale_certificate_raises(self, tmp_path):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"schema": "cocg-shardplan/1", "entry_points": {}}
        ))
        with pytest.raises(ShardPlanError, match="not in the certificate"):
            certify_runtime(stale)

    def test_missing_certificate_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_certificate(tmp_path / "nope.json")

    def test_cli_exit_2_on_stale_certificate(self, tmp_path, capsys):
        from repro.cli import main

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"schema": "cocg-shardplan/1", "entry_points": {}}
        ))
        rc = main([
            "fleet", "contra", "--horizon", "60",
            "--shard-plan", str(stale),
        ])
        assert rc == 2
        assert "certification failed" in capsys.readouterr().err

    def test_cli_fleet_regions_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "fleet", "contra", "--horizon", "120", "--rate", "6",
            "--players", "2", "--sessions", "2", "--regions", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "merged digest:" in out
        assert "fleet-of-fleets: 2 regions" in out
