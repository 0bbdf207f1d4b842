"""Tests for ``repro.cluster.provisioner``: the elastic capacity plane.

Lifecycle transitions, warm pools, retry/timeout behaviour, spot
reclamation with graceful drain, the session-accountability ledger, the
gateway's capacity-coupled backpressure, and byte-identical replay of
the whole capacity history.
"""

import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import (
    ClusterScheduler,
    FleetExperiment,
    FleetNode,
    NodeHealth,
    Provisioner,
    ProvisionerConfig,
)
from repro.cluster.fleet import dispatch_order
from repro.cluster.provisioner import LIFECYCLE_PRIORITY
from repro.faults import FaultPlan, reclaim_storm_plan
from repro.games.player import PlayerModel
from repro.serve import AdmissionGateway, GatewayConfig
from repro.sim.engine import SimulationEngine
from repro.workloads.requests import GameRequest


def make_request(spec, rid=0, script=None):
    player = PlayerModel(f"p{rid}", spec.category, seed=0)
    return GameRequest(
        spec, script or spec.scripts[0].name, player, arrival=0.0,
        request_id=rid,
    )


def make_cluster(toy_profile, n=2, policy="round-robin", **kwargs):
    nodes = [
        FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i)
        for i in range(n)
    ]
    return ClusterScheduler(nodes, policy=policy, **kwargs)


def make_provisioner(cluster, toy_profile, *, seed=0, **cfg):
    return Provisioner(
        cluster,
        lambda node_id: FleetNode(
            node_id, CoCGStrategy(), {"toygame": toy_profile}, seed=0
        ),
        config=ProvisionerConfig(**cfg),
        seed=seed,
    )


class TestProvisionerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProvisionerConfig(warm_pool_size=-1)
        with pytest.raises(ValueError):
            ProvisionerConfig(target_up=-1)
        with pytest.raises(ValueError):
            ProvisionerConfig(timeout=0.0)
        with pytest.raises(ValueError):
            ProvisionerConfig(retry_factor=0.5)
        with pytest.raises(ValueError):
            ProvisionerConfig(check_interval=0.0)
        with pytest.raises(ValueError):
            ProvisionerConfig(max_pending=0)
        with pytest.raises(ValueError):
            ProvisionerConfig(max_retries=-1)

    def test_defaults_are_valid(self):
        config = ProvisionerConfig()
        assert config.warm_pool_size == 1
        assert config.target_up is None


class TestLifecycle:
    def test_attach_pre_boots_the_warm_pool(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(cluster, toy_profile, warm_pool_size=2)
        assert cluster.provisioner is prov
        assert cluster.capacity_target == 2  # the two UP seed nodes
        engine = SimulationEngine()
        prov.attach(engine)
        assert prov.ready_count == 2
        assert cluster.warm_count == 2
        standby = cluster.node("spot-0")
        assert standby.health is NodeHealth.WARMING

    def test_attach_twice_rejected(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(cluster, toy_profile)
        prov.attach(SimulationEngine())
        with pytest.raises(RuntimeError):
            prov.attach(SimulationEngine())

    def test_request_node_needs_attachment(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(cluster, toy_profile)
        with pytest.raises(RuntimeError):
            prov.request_node(0.0)

    def test_provision_latency_is_seeded(self, toy_profile):
        def boot_times(seed):
            cluster = make_cluster(toy_profile)
            prov = make_provisioner(
                cluster, toy_profile, seed=seed, warm_pool_size=0
            )
            engine = SimulationEngine()
            prov.attach(engine)
            prov.request_node(0.0)
            engine.run_until(600.0)
            return [
                (e.time, e.node, e.state) for e in prov.events
                if e.state == "warm"
            ]

        assert boot_times(7) == boot_times(7)
        assert boot_times(7) != boot_times(8)

    def test_warm_standby_promotes_on_capacity_loss(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(cluster, toy_profile, warm_pool_size=1)
        engine = SimulationEngine()
        prov.attach(engine)
        engine.at(10.0, lambda e: cluster.crash_node("n0", e.now))
        engine.run_until(20.0)
        # The standby was promoted well before a cold boot could land.
        assert cluster.node("spot-0").health is NodeHealth.UP
        assert cluster.up_count == 2
        assert prov.counts["warm_promoted"] == 1

    def test_cold_boot_takes_base_latency(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0,
            latency_base=30.0, latency_jitter=0.0, warming_seconds=5.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        engine.at(0.0, lambda e: cluster.crash_node("n0", e.now))
        engine.run_until(100.0)
        warm = [e for e in prov.events if e.state == "warm"]
        assert len(warm) == 1
        # The crash lands after the t=0 maintenance tick, so the request
        # fires at the next tick (t=5); ready base + warming later.
        assert warm[0].time == pytest.approx(40.0)
        assert cluster.up_count == 2

    def test_provision_failures_retry_with_backoff(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0,
            latency_base=10.0, latency_jitter=0.0,
            retry_base=5.0, retry_factor=2.0, max_retries=3,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        prov.inject_provision_fail(0.0, 30.0)
        engine.at(0.0, lambda e: cluster.crash_node("n0", e.now))
        engine.run_until(300.0)
        assert prov.counts["retried"] >= 1
        assert prov.counts["failed"] == 0
        assert cluster.up_count == 2  # recovered after the window

    def test_retries_exhaust_into_failed(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0,
            latency_base=10.0, latency_jitter=0.0,
            retry_base=1.0, max_retries=2, check_interval=1000.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        prov.inject_provision_fail(0.0, float("inf"))
        engine.at(0.0, lambda e: prov.request_node(e.now),
                  priority=LIFECYCLE_PRIORITY)
        engine.run_until(500.0)
        assert prov.counts["failed"] == 1
        assert prov.counts["retried"] == 2
        assert prov.pending_count == 0

    def test_stall_window_delays_completion(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0,
            latency_base=10.0, latency_jitter=0.0, warming_seconds=0.0,
            check_interval=1000.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        prov.inject_provision_stall(0.0, 11.0, 25.0)
        engine.at(0.0, lambda e: prov.request_node(e.now),
                  priority=LIFECYCLE_PRIORITY)
        engine.run_until(100.0)
        warm = [e for e in prov.events if e.state == "warm"]
        assert prov.counts["stalled"] == 1
        assert warm and warm[0].time == pytest.approx(35.0)  # 10 + 25

    def test_request_times_out(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0,
            latency_base=10.0, latency_jitter=0.0, timeout=30.0,
            retry_base=60.0, max_retries=10, check_interval=1000.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        prov.inject_provision_fail(0.0, float("inf"))
        engine.at(0.0, lambda e: prov.request_node(e.now),
                  priority=LIFECYCLE_PRIORITY)
        engine.run_until(500.0)
        assert prov.counts["timed_out"] == 1
        assert prov.pending_count == 0

    def test_max_pending_rejects_loudly(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=0, max_pending=1,
            check_interval=1000.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        assert prov.request_node(0.0) is not None
        assert prov.request_node(0.0) is None
        assert prov.counts["rejected"] == 1

    def test_warm_pool_exhaust_withdraws_and_suppresses(self, toy_profile):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=1,
            latency_base=10.0, latency_jitter=0.0, warming_seconds=1.0,
            check_interval=5.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        taken = prov.exhaust_warm_pool(0.0, duration=50.0)
        assert taken == 1
        assert cluster.node("spot-0").health is NodeHealth.DOWN
        engine.run_until(40.0)
        # Refills stay suppressed inside the window...
        assert prov.counts["requested"] == 0
        engine.run_until(200.0)
        # ...and resume after it: the pool is rebuilt.
        assert prov.ready_count == 1
        assert prov.counts["withdrawn"] == 1

    def test_digest_replays_byte_identically(self, toy_profile):
        def run():
            cluster = make_cluster(toy_profile)
            prov = make_provisioner(
                cluster, toy_profile, seed=3, warm_pool_size=1
            )
            engine = SimulationEngine()
            prov.attach(engine)
            engine.at(10.0, lambda e: cluster.crash_node("n0", e.now))
            engine.at(30.0, lambda e: prov.reclaim(
                "n1", e.now, notice=20.0
            ))
            engine.run_until(300.0)
            return prov.digest()

        assert run() == run()


class TestReclaim:
    def start_session(self, cluster, toy_spec, rid=1):
        return cluster.dispatch(
            make_request(toy_spec, rid, "full"), time=0, seed=rid
        )

    def test_notice_window_keeps_sessions_and_blocks_dispatch(
        self, toy_spec, toy_profile
    ):
        cluster = make_cluster(toy_profile)
        node = self.start_session(cluster, toy_spec)
        assert cluster.begin_reclaim(node.node_id, 10.0, notice=60.0)
        assert node.health is NodeHealth.RECLAIM_NOTICE
        assert node.n_running == 1  # sessions live through the notice
        other = cluster.dispatch(
            make_request(toy_spec, 2, "full"), time=11, seed=2
        )
        assert other is None or other.node_id != node.node_id

    def test_begin_reclaim_refuses_down_and_warming(self, toy_profile):
        cluster = make_cluster(toy_profile)
        cluster.crash_node("n0", 0.0)
        assert not cluster.begin_reclaim("n0", 1.0, notice=10.0)
        warm = FleetNode("w0", CoCGStrategy(), {"toygame": toy_profile})
        warm.warm(0.0)
        cluster.add_node(warm)
        assert not cluster.begin_reclaim("w0", 1.0, notice=10.0)

    def test_finish_reclaim_requeues_survivors(self, toy_spec, toy_profile):
        cluster = make_cluster(toy_profile)
        node = self.start_session(cluster, toy_spec)
        cluster.begin_reclaim(node.node_id, 10.0, notice=30.0)
        killed = cluster.finish_reclaim(node.node_id, 40.0, fault_index=2)
        assert len(killed) == 1
        assert node.health is NodeHealth.DOWN
        assert cluster.requeues == 1
        assert cluster.reclaimed_nodes == 1
        assert cluster.queue_depth == 1
        assert cluster.unaccounted_sessions() == 0

    def test_finish_reclaim_dead_letters_with_reason_and_index(
        self, toy_spec, toy_profile
    ):
        cluster = make_cluster(toy_profile)
        node = self.start_session(cluster, toy_spec)
        cluster.begin_reclaim(node.node_id, 10.0, notice=30.0)
        cluster.finish_reclaim(
            node.node_id, 40.0, requeue=False, fault_index=5
        )
        (dead,) = cluster.dead_letters
        assert dead.reason == "reclaim"
        assert dead.fault_index == 5
        assert cluster.unaccounted_sessions() == 0

    def test_provisioner_reclaim_replaces_capacity(
        self, toy_spec, toy_profile
    ):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, warm_pool_size=1,
            latency_base=10.0, latency_jitter=0.0,
        )
        engine = SimulationEngine()
        prov.attach(engine)
        self.start_session(cluster, toy_spec)
        engine.at(10.0, lambda e: prov.reclaim("n0", e.now, notice=20.0))
        engine.run_until(120.0)
        assert cluster.node("n0").health is NodeHealth.DOWN
        assert cluster.up_count == 2  # standby promoted to cover the loss
        assert prov.counts["reclaimed"] == 1
        states = [e.state for e in prov.events]
        assert "reclaim-notice" in states and "reclaimed" in states
        assert cluster.unaccounted_sessions() == 0


class TestDrainRetryInterplay:
    def test_no_double_requeue_while_backoff_pending(
        self, toy_spec, toy_profile
    ):
        cluster = make_cluster(toy_profile)
        request = make_request(toy_spec, 9, "full")
        node = cluster.dispatch(request, time=0, seed=9)
        # The same request is already waiting out a retry backoff (as
        # after a prior displacement)...
        cluster.submit(request, time=5.0)
        depth_before = cluster.queue_depth
        # ...when a reclaim drain kills its running session.
        cluster.begin_reclaim(node.node_id, 6.0, notice=1.0)
        cluster.finish_reclaim(node.node_id, 7.0)
        assert cluster.queue_depth == depth_before  # not enqueued twice
        assert cluster.requeue_dupes == 1
        assert cluster.requeues == 0
        assert cluster.unaccounted_sessions() == 0

    def test_no_double_requeue_through_gateway(self, toy_spec, toy_profile):
        cluster = make_cluster(toy_profile)
        gateway = AdmissionGateway(cluster)
        cluster.attach_gateway(gateway)
        request = make_request(toy_spec, 9, "full")
        node = cluster.dispatch(request, time=0, seed=9)
        cluster.submit(request, time=5.0)  # queued in the gateway
        cluster.kill_session(6.0, session="toygame-")
        assert cluster.requeue_dupes == 1
        assert gateway.has_pending(9)
        assert not gateway.has_pending(10)
        _ = node

    def test_crash_requeue_carries_fault_index_to_dead_letter(
        self, toy_spec, toy_profile
    ):
        cluster = make_cluster(toy_profile, n=1, max_retries=1)
        request = make_request(toy_spec, 3, "full")
        cluster.dispatch(request, time=0, seed=3)
        cluster.crash_node("n0", 10.0, fault_index=4)
        t = 10.0
        while cluster.queue_depth and t < 500:
            cluster.pump(t, seed_for=lambda r, inc: 1)
            t += 5.0
        (dead,) = cluster.dead_letters
        assert dead.reason == "retries exhausted"
        assert dead.fault_index == 4
        assert cluster.unaccounted_sessions() == 0


class TestBackpressureCoupling:
    def make_gated(self, toy_profile, **gw):
        cluster = make_cluster(toy_profile)
        gateway = AdmissionGateway(
            cluster,
            config=GatewayConfig(queue_capacity=8, capacity_floor=0.5, **gw),
        )
        cluster.attach_gateway(gateway)
        return cluster, gateway

    def test_floor_shrinks_effective_capacity(self, toy_profile):
        cluster, gateway = self.make_gated(toy_profile)
        assert gateway.effective_capacity() == 8
        cluster.crash_node("n0", 0.0)
        cluster.crash_node("n1", 0.0)
        assert cluster.usable_fraction() == 0.0
        assert gateway.effective_capacity() == 1
        cluster.recover_node("n0", 1.0)
        assert gateway.effective_capacity() == 8  # usable == floor again

    def test_backpressure_shed_is_explicit(self, toy_spec, toy_profile):
        cluster, gateway = self.make_gated(toy_profile)
        cluster.crash_node("n0", 0.0)
        cluster.crash_node("n1", 0.0)
        first = gateway.offer(make_request(toy_spec, 1), time=1.0)
        second = gateway.offer(make_request(toy_spec, 2), time=1.0)
        assert first.accepted
        assert second.kind == "shed" and second.detail == "capacity floor"
        assert gateway.stats()["backpressure_sheds"] == 1

    def test_warm_promotion_releases_backpressure(self, toy_profile):
        cluster, gateway = self.make_gated(toy_profile)
        prov = make_provisioner(cluster, toy_profile, warm_pool_size=1)
        engine = SimulationEngine()
        prov.attach(engine)
        cluster.crash_node("n0", 0.0)
        cluster.crash_node("n1", 0.0)
        assert gateway.effective_capacity() == 1
        engine.run_until(10.0)  # maintenance promotes the standby
        assert cluster.up_count >= 1
        assert gateway.effective_capacity() == 8

    def test_floor_zero_is_off(self, toy_profile):
        cluster = make_cluster(toy_profile)
        gateway = AdmissionGateway(
            cluster, config=GatewayConfig(queue_capacity=8)
        )
        cluster.attach_gateway(gateway)
        cluster.crash_node("n0", 0.0)
        cluster.crash_node("n1", 0.0)
        assert gateway.effective_capacity() == 8

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(capacity_floor=1.5)
        with pytest.raises(ValueError):
            GatewayConfig(capacity_floor=-0.1)


class TestElasticExperiment:
    HORIZON = 300

    def run_once(self, toy_spec, toy_profile, *, plan=None, prov_seed=3):
        cluster = make_cluster(toy_profile)
        prov = make_provisioner(
            cluster, toy_profile, seed=prov_seed, warm_pool_size=1,
            latency_base=10.0, latency_jitter=5.0,
        )
        result = FleetExperiment(
            cluster,
            [toy_spec],
            horizon=self.HORIZON,
            rate_per_minute=4.0,
            seed=3,
            fault_plan=plan,
            provisioner=prov,
        ).run()
        return result, cluster, prov

    def storm(self):
        return reclaim_storm_plan(
            self.HORIZON, seed=3, nodes=("n0", "n1"), notice=30.0
        )

    def test_reclamation_storm_replays_byte_identically(
        self, toy_spec, toy_profile
    ):
        a, _, _ = self.run_once(toy_spec, toy_profile, plan=self.storm())
        b, _, _ = self.run_once(toy_spec, toy_profile, plan=self.storm())
        assert a.telemetry_digest == b.telemetry_digest
        assert a.session_accounting == b.session_accounting

    def test_reclamation_storm_leaves_zero_unaccounted_sessions(
        self, toy_spec, toy_profile
    ):
        result, cluster, prov = self.run_once(
            toy_spec, toy_profile, plan=self.storm()
        )
        assert result.unaccounted_sessions == 0
        assert cluster.reclaimed_nodes == 2
        assert result.session_accounting["evicted"] > 0
        assert prov.counts["warm_promoted"] >= 1
        # The fleet recovered: replacement capacity came up.
        assert cluster.up_count >= 1

    def test_lifecycle_events_are_part_of_the_digest(
        self, toy_spec, toy_profile
    ):
        # Different provisioner seeds change only provision latencies;
        # the digest must see the difference.
        a, _, _ = self.run_once(
            toy_spec, toy_profile, plan=self.storm(), prov_seed=3
        )
        b, _, _ = self.run_once(
            toy_spec, toy_profile, plan=self.storm(), prov_seed=4
        )
        assert a.telemetry_digest != b.telemetry_digest

    def test_provisioner_stats_surface_in_the_result(
        self, toy_spec, toy_profile
    ):
        result, _, _ = self.run_once(toy_spec, toy_profile, plan=self.storm())
        assert result.provisioner_stats["reclaimed"] == 2
        assert result.provisioner_stats["requested"] >= 1

    def test_injector_spot_reclaim_attributes_dead_letters(
        self, toy_spec, toy_profile
    ):
        plan = FaultPlan(seed=3).spot_reclaim(
            60.0, "n0", notice=10.0, requeue=False
        )
        cluster = make_cluster(toy_profile)
        result = FleetExperiment(
            cluster, [toy_spec], horizon=self.HORIZON,
            rate_per_minute=6.0, seed=3, fault_plan=plan,
        ).run()
        reclaim_dead = [
            d for d in result.dead_letters if d.reason == "reclaim"
        ]
        assert reclaim_dead, "the reclaimed node hosted no session to drain"
        assert all(d.fault_index == 0 for d in reclaim_dead)
        assert result.unaccounted_sessions == 0

    def test_provision_faults_without_provisioner_are_noops(
        self, toy_spec, toy_profile
    ):
        plan = (
            FaultPlan(seed=3)
            .provision_fail(10.0, duration=30.0)
            .warm_pool_exhaust(20.0, duration=30.0)
        )
        cluster = make_cluster(toy_profile)
        result = FleetExperiment(
            cluster, [toy_spec], horizon=120, rate_per_minute=2.0,
            seed=3, fault_plan=plan,
        ).run()
        assert any("no-op" in event for event in result.fault_events)
        assert result.unaccounted_sessions == 0


class TestNodeLookupAndDispatchOrder:
    def test_key_error_lists_lifecycle_states(self, toy_profile):
        cluster = make_cluster(toy_profile)
        cluster.crash_node("n1", 0.0)
        with pytest.raises(KeyError) as err:
            cluster.node("ghost")
        message = str(err.value)
        assert "ghost" in message
        assert "n0=up" in message and "n1=down" in message

    @pytest.mark.parametrize("policy", ["first-fit", "best-fit", "round-robin"])
    def test_warming_and_reclaim_notice_are_non_candidates(
        self, toy_profile, policy
    ):
        nodes = [
            FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile})
            for i in range(4)
        ]
        nodes[1].warm(0.0)
        nodes[2].reclaim_notice(0.0, notice=60.0)
        nodes[3].drain(0.0)
        for offset in range(3):
            order = dispatch_order(nodes, policy, rr_offset=offset)
            assert [n.node_id for n in order] == ["n0"]
