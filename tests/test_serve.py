"""Tests for the ``repro.serve`` subsystem and its batching contracts.

Covers the gateway (queues, shedding, patience, rate limiting), the SLO
tracker, load generation determinism, the single candidate-order/
tie-break policy, and the load-bearing equivalence property: batched
Algorithm-1 evaluation returns decisions identical to the sequential
path.
"""

import numpy as np
import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import ClusterScheduler, FleetNode
from repro.cluster.fleet import NodeHealth, dispatch_order
from repro.core.distributor import AdmissionDecision, Distributor
from repro.games.player import PlayerModel
from repro.platform_.resources import N_DIMS, ResourceVector
from repro.serve import (
    AdmissionGateway,
    GatewayConfig,
    OpenLoopLoadGen,
    SloTracker,
    TokenBucket,
    percentile_nearest_rank,
)
from repro.serve.loadgen import ClosedLoopLoadGen
from repro.workloads.requests import GameRequest, PoissonArrivals


def uniform(value):
    return ResourceVector.from_array([value] * N_DIMS)


def make_request(spec, rid=0):
    player = PlayerModel(f"p{rid}", spec.category, seed=0)
    return GameRequest(
        spec, spec.scripts[0].name, player, arrival=0.0, request_id=rid
    )


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(1.0, 3)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)

    def test_refills_on_sim_time(self):
        bucket = TokenBucket(2.0, 4)
        for _ in range(4):
            bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 1 second at 2 tokens/s -> exactly two more takes.
        assert bucket.try_take(1.0)
        assert bucket.try_take(1.0)
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(100.0, 5)
        assert bucket.try_take(0.0)
        # A long idle stretch refills to the burst depth, not beyond.
        assert sum(bucket.try_take(1000.0) for _ in range(10)) == 5

    def test_replay_determinism(self):
        def drain(times):
            bucket = TokenBucket(0.5, 2)
            return [bucket.try_take(t) for t in times]

        times = [0.0, 0.0, 0.0, 3.0, 3.0, 10.0]
        assert drain(times) == drain(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0)


# ----------------------------------------------------------------------
# SLO tracker
# ----------------------------------------------------------------------

class TestSlo:
    def test_nearest_rank_percentiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile_nearest_rank(values, 0.0) == 1.0
        assert percentile_nearest_rank(values, 50.0) == 3.0
        assert percentile_nearest_rank(values, 90.0) == 5.0
        assert percentile_nearest_rank(values, 100.0) == 5.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1.0], 101.0)

    def test_summary_counts_every_outcome(self):
        slo = SloTracker()
        slo.record("FPS", "admitted", 2.0)
        slo.record("FPS", "admitted", 4.0)
        slo.record("FPS", "shed", 0.0)
        slo.record("MOBA", "dead-lettered", 30.0)
        s = slo.summary("FPS")
        assert s.count == 3
        assert s.outcomes == {"admitted": 2, "shed": 1}
        assert s.wait_max == 4.0
        assert slo.summary("MOBA").outcomes == {"dead-lettered": 1}
        assert slo.categories == ["FPS", "MOBA"]
        assert len(slo.summary_lines()) == 2

    def test_missing_category_and_negative_wait(self):
        slo = SloTracker()
        with pytest.raises(KeyError):
            slo.summary("nope")
        with pytest.raises(ValueError):
            slo.record("FPS", "admitted", -1.0)
        with pytest.raises(ValueError):
            slo.record("FPS", "admitted", float("nan"))
        assert slo.records == []


# ----------------------------------------------------------------------
# Gateway behaviour on a real (toy) fleet
# ----------------------------------------------------------------------

def make_gateway(toy_profile, *, n_nodes=2, policy="round-robin", config=None):
    nodes = [
        FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i)
        for i in range(n_nodes)
    ]
    cluster = ClusterScheduler(nodes, policy=policy)
    gateway = AdmissionGateway(cluster, config=config)
    cluster.attach_gateway(gateway)
    return cluster, gateway


class TestAdmissionGateway:
    def test_offer_queues_and_records_event(self, toy_spec, toy_profile):
        _, gateway = make_gateway(toy_profile)
        outcome = gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        assert outcome.accepted and outcome.kind == "queued"
        assert gateway.depth == 1
        assert gateway.telemetry.gateway_events[0].outcome == "queued"

    def test_full_queue_sheds(self, toy_spec, toy_profile):
        config = GatewayConfig(queue_capacity=2)
        _, gateway = make_gateway(toy_profile, config=config)
        for rid in range(2):
            assert gateway.offer(make_request(toy_spec, rid=rid), time=0.0).accepted
        outcome = gateway.offer(make_request(toy_spec, rid=2), time=0.0)
        assert outcome.kind == "shed"
        assert gateway.stats()["shed"] == 1 and gateway.depth == 2
        assert gateway.telemetry.gateway_events[-1].outcome == "shed"

    def test_pump_admits_and_clears_queue(self, toy_spec, toy_profile):
        cluster, gateway = make_gateway(toy_profile)
        cluster.submit(make_request(toy_spec, rid=0), time=0.0)
        started = cluster.pump(0.0, lambda req, inc: 7)
        assert [r.request_id for r in started] == [0]
        assert gateway.stats()["admitted"] == 1 and gateway.depth == 0
        assert gateway.telemetry.gateway_events[-1].outcome == "admitted"
        assert cluster.nodes[0].n_running + cluster.nodes[1].n_running == 1

    def test_patience_dead_letters(self, toy_spec, toy_profile):
        config = GatewayConfig(max_queue_seconds=10.0)
        cluster, gateway = make_gateway(toy_profile, n_nodes=1, config=config)
        # Crash the only node so nothing can ever start.
        cluster.nodes[0].health = NodeHealth.DOWN
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        gateway.pump(5.0, lambda req, inc: 0)
        assert gateway.stats()["dead_lettered"] == 0
        gateway.pump(11.0, lambda req, inc: 0)
        assert gateway.stats()["dead_lettered"] == 1 and gateway.depth == 0
        assert len(cluster.dead_letters) == 1
        assert "patience" in cluster.dead_letters[0].reason

    def test_retries_exhausted_dead_letters(self, toy_spec, toy_profile):
        config = GatewayConfig(max_retries=2, max_queue_seconds=1e9)
        cluster, gateway = make_gateway(toy_profile, n_nodes=1, config=config)
        cluster.nodes[0].health = NodeHealth.DOWN
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        for k in range(1, 4):
            gateway.pump(float(k), lambda req, inc: 0)
        assert gateway.stats()["dead_lettered"] == 1
        assert "retries" in cluster.dead_letters[0].reason

    def test_token_bucket_throttles_round(self, toy_spec, toy_profile):
        config = GatewayConfig(rate_per_second=1.0, burst=2)
        cluster, gateway = make_gateway(toy_profile, config=config)
        for rid in range(5):
            gateway.offer(make_request(toy_spec, rid=rid), time=0.0)
        started = gateway.pump(0.0, lambda req, inc: 0)
        # Two tokens -> at most two dispatch attempts this round.
        assert len(started) <= 2
        assert gateway.stats()["throttled_rounds"] == 1
        assert gateway.depth == 5 - len(started)

    def test_stats_shape(self, toy_profile):
        _, gateway = make_gateway(toy_profile)
        stats = gateway.stats()
        assert set(stats) == {
            "queued", "admitted", "shed", "dead_lettered", "deferrals",
            "depth", "throttled_rounds", "backpressure_sheds",
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_seconds=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(max_retries=-1)

    def test_gateway_events_change_the_digest(self, toy_spec, toy_profile):
        _, gw_a = make_gateway(toy_profile)
        _, gw_b = make_gateway(toy_profile)
        empty = gw_b.telemetry.digest()
        gw_a.offer(make_request(toy_spec, rid=0), time=0.0)
        assert gw_a.telemetry.digest() != empty


# ----------------------------------------------------------------------
# Batched dispatch == naive dispatch (satellite: equivalence on a fleet)
# ----------------------------------------------------------------------

def naive_dispatch(cluster, entry, *, time, seed_for):
    """The reference: per-request ``ClusterScheduler.dispatch``, with the
    batcher's ``dispatch_one`` signature."""
    return cluster.dispatch(
        entry.request,
        time=time,
        seed=seed_for(entry.request, entry.incarnation),
        incarnation=entry.incarnation,
    )


class TestBatchedDispatchEquivalence:
    def drive(self, toy_spec, toy_profile, *, batched):
        config = GatewayConfig(
            queue_capacity=16, rate_per_second=2.0, burst=8,
            max_queue_seconds=120.0,
        )
        cluster, gateway = make_gateway(
            toy_profile, n_nodes=2, policy="round-robin", config=config
        )
        if not batched:
            gateway.batcher.dispatch_one = naive_dispatch
        arrivals = PoissonArrivals(
            [toy_spec], rate_per_minute=20.0, seed=42, horizon=120.0
        )
        for request in arrivals.requests:
            cluster.submit(request, time=request.arrival)
        for t in range(0, 121, 5):
            cluster.pump(float(t), lambda req, inc: 1000 + req.request_id)
            cluster.control(float(t))
        return gateway

    def test_outcomes_identical(self, toy_spec, toy_profile):
        naive = self.drive(toy_spec, toy_profile, batched=False)
        batched = self.drive(toy_spec, toy_profile, batched=True)
        assert naive.stats() == batched.stats()
        assert naive.telemetry.digest() == batched.telemetry.digest()
        # The batched run actually shared evaluation passes.
        assert batched.batcher.stats()["rounds"] > 0


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

class TestOpenLoopLoadGen:
    def test_deterministic_stream(self, toy_spec):
        def build():
            gen = OpenLoopLoadGen(
                [toy_spec], rate_per_second=5.0, seed=9, horizon=200.0
            )
            return [(r.request_id, r.arrival, r.script) for r in gen.requests]

        assert build() == build()

    def test_stream_local_sequential_ids(self, toy_spec):
        gen = OpenLoopLoadGen(
            [toy_spec], rate_per_second=5.0, seed=9, horizon=200.0
        )
        assert [r.request_id for r in gen.requests] == list(range(len(gen)))

    def test_due_is_a_half_open_window(self, toy_spec):
        gen = OpenLoopLoadGen(
            [toy_spec], rate_per_second=5.0, seed=9, horizon=100.0
        )
        windows = [gen.due(float(t), float(t + 10)) for t in range(0, 100, 10)]
        assert sum(len(w) for w in windows) == len(gen)
        assert [r.request_id for w in windows for r in w] == list(range(len(gen)))

    def test_player_pool_is_bounded(self, toy_spec):
        gen = OpenLoopLoadGen(
            [toy_spec], rate_per_second=5.0, seed=9, horizon=400.0,
            player_pool=4,
        )
        players = {id(r.player) for r in gen.requests}
        assert len(players) <= 4

    def test_validation(self, toy_spec):
        with pytest.raises(ValueError):
            OpenLoopLoadGen([], rate_per_second=1.0)
        with pytest.raises(ValueError):
            OpenLoopLoadGen([toy_spec], rate_per_second=0.0)
        with pytest.raises(ValueError):
            OpenLoopLoadGen([toy_spec], player_pool=0)


class TestClosedLoopLoadGen:
    def test_holds_concurrency_target(self, toy_spec):
        gen = ClosedLoopLoadGen([toy_spec], seed=3, target=2)
        first = gen.pending(0.0)
        assert len(first) == 2
        for request in first:
            gen.started(request)
        assert gen.pending(1.0) == []
        gen.finished(toy_spec.name)
        assert len(gen.pending(2.0)) == 1
        assert gen.generated == 3


# ----------------------------------------------------------------------
# Satellite: per-stream request ids
# ----------------------------------------------------------------------

class TestStreamLocalRequestIds:
    def test_poisson_streams_are_independent(self, toy_spec):
        a = PoissonArrivals([toy_spec], rate_per_minute=30.0, seed=1,
                            horizon=300.0)
        b = PoissonArrivals([toy_spec], rate_per_minute=30.0, seed=1,
                            horizon=300.0)
        # Identical construction args give identical ids regardless of
        # what other streams were built earlier in the process.
        assert [r.request_id for r in a.requests] == \
               [r.request_id for r in b.requests]
        assert [r.request_id for r in a.requests] == list(range(len(a.requests)))


# ----------------------------------------------------------------------
# Satellite: the single candidate-order / tie-break policy
# ----------------------------------------------------------------------

class FakeNode:
    def __init__(self, node_id, headroom, health=NodeHealth.UP):
        self.node_id = node_id
        self.health = health
        self._headroom = headroom

    def headroom(self):
        return self._headroom


class TestDispatchOrder:
    def test_first_fit_preserves_construction_order(self):
        nodes = [FakeNode("b", 0.2), FakeNode("a", 0.9)]
        assert [n.node_id for n in dispatch_order(nodes, "first-fit")] == \
               ["b", "a"]

    def test_best_fit_fullest_first(self):
        nodes = [FakeNode("a", 0.9), FakeNode("b", 0.1), FakeNode("c", 0.5)]
        assert [n.node_id for n in dispatch_order(nodes, "best-fit")] == \
               ["b", "c", "a"]

    def test_best_fit_ties_break_on_node_id(self):
        nodes = [FakeNode("z", 0.5), FakeNode("a", 0.5), FakeNode("m", 0.5)]
        assert [n.node_id for n in dispatch_order(nodes, "best-fit")] == \
               ["a", "m", "z"]

    def test_round_robin_rotates_by_offset(self):
        nodes = [FakeNode(f"n{i}", 0.5) for i in range(3)]
        assert [n.node_id for n in
                dispatch_order(nodes, "round-robin", rr_offset=1)] == \
               ["n1", "n2", "n0"]
        assert [n.node_id for n in
                dispatch_order(nodes, "round-robin", rr_offset=3)] == \
               ["n0", "n1", "n2"]

    def test_down_nodes_are_excluded(self):
        nodes = [
            FakeNode("a", 0.5),
            FakeNode("b", 0.5, health=NodeHealth.DOWN),
            FakeNode("c", 0.5),
        ]
        assert [n.node_id for n in
                dispatch_order(nodes, "round-robin", rr_offset=1)] == \
               ["c", "a"]
        assert dispatch_order([nodes[1]], "round-robin") == []

    def test_candidate_order_advances_round_robin_cursor(self, toy_profile):
        cluster, _ = make_gateway(toy_profile, n_nodes=3)
        first = [n.node_id for n in cluster.candidate_order(None)]
        second = [n.node_id for n in cluster.candidate_order(None)]
        assert first == ["n0", "n1", "n2"]
        assert second == ["n1", "n2", "n0"]


# ----------------------------------------------------------------------
# Satellite: batched evaluation == sequential Algorithm 1 (property)
# ----------------------------------------------------------------------

class StaticTask:
    """A RunningTaskView with fixed allocation and peak schedule."""

    def __init__(self, alloc, peaks):
        self._alloc = alloc
        self._peaks = peaks

    @property
    def current_allocation(self):
        return self._alloc

    def predicted_peaks(self, horizon):
        return list(self._peaks)


class TestBatchedEvaluationProperty:
    def test_batch_decisions_match_sequential(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            capacity = uniform(float(rng.uniform(50.0, 120.0)))
            distributor = Distributor(
                capacity,
                horizon=int(rng.integers(1, 5)),
                overshoot_tolerance=float(rng.choice([0.0, 0.1, 0.25])),
            )
            running = [
                StaticTask(
                    uniform(float(rng.uniform(1.0, 30.0))),
                    [uniform(float(rng.uniform(1.0, 40.0)))
                     for _ in range(int(rng.integers(1, 4)))],
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            candidates = [
                (uniform(float(rng.uniform(1.0, 40.0))),
                 uniform(float(rng.uniform(1.0, 60.0))))
                for _ in range(int(rng.integers(1, 6)))
            ]
            sequential = [
                distributor.can_admit(entry, steady, running)
                for entry, steady in candidates
            ]
            batch = distributor.begin_batch(running)
            batched = [batch.evaluate(entry, steady)
                       for entry, steady in candidates]
            assert batched == sequential

    def test_batch_shares_one_rollout_per_task(self):
        calls = {"n": 0}

        class CountingTask(StaticTask):
            def predicted_peaks(self, horizon):
                calls["n"] += 1
                return super().predicted_peaks(horizon)

        distributor = Distributor(uniform(100.0), horizon=3)
        running = [
            CountingTask(uniform(5.0), [uniform(10.0)]) for _ in range(3)
        ]
        batch = distributor.begin_batch(running)
        for _ in range(10):
            batch.evaluate(uniform(5.0), uniform(10.0))
        assert calls["n"] == 3  # one rollout per task, shared by all 10

    def test_decision_reasons_are_the_algorithm_1_strings(self):
        distributor = Distributor(uniform(10.0))
        empty = distributor.can_admit(uniform(1.0), uniform(5.0), [])
        assert empty.admitted and empty.reason == "empty server"
        too_big = distributor.can_admit(uniform(1.0), uniform(50.0), [])
        assert not too_big.admitted
        assert too_big.reason == "game exceeds server capacity alone"
        running = [StaticTask(uniform(9.5), [uniform(9.5)])]
        no_room = distributor.can_admit(uniform(1.0), uniform(1.0), running)
        assert not no_room.admitted
        assert no_room.reason == (
            "current co-consumption leaves no room even to boot"
        )
        collide = distributor.can_admit(uniform(0.2), uniform(5.0), running)
        assert not collide.admitted
        assert collide.reason == "predicted stage peaks collide beyond tolerance"
        fits = distributor.can_admit(uniform(0.2), uniform(0.2), running)
        assert fits.admitted
        assert fits.reason == "predicted co-consumption fits"
        assert isinstance(fits, AdmissionDecision)
