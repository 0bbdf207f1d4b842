"""Tests for the ``repro.obs`` deterministic observability subsystem.

Covers the metrics registry (get-or-create by canonical name, label
handling, counter monotonicity, fixed-bucket histograms), the sim-time
tracer (deterministic span ids, complete windows only), the canonical
exporters against inline golden
strings, the post-run reader (``Observer.finalize``), and the headline
acceptance property: two `FleetExperiment` runs from the same seed and
fault plan read into a byte-identical ``metrics.prom`` and an equal
``trace_digest()``.
"""

import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import ClusterScheduler, FleetNode
from repro.cluster.experiment import FleetExperiment
from repro.faults.plan import FaultPlan
from repro.obs import (
    MetricError,
    MetricsRegistry,
    Observer,
    Tracer,
    chrome_trace_json,
    format_value,
    prometheus_text,
    trace_digest,
)
from repro.serve import AdmissionGateway, GatewayConfig


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", "Requests.", ("outcome",))
        b = reg.counter("requests_total", "ignored on refetch", ("outcome",))
        assert a is b
        assert len(reg) == 1

    def test_conflicting_signature_raises(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", labelnames=("outcome",))
        with pytest.raises(MetricError):
            reg.counter("requests_total", labelnames=("node",))
        with pytest.raises(MetricError):
            reg.gauge("requests_total")
        reg.histogram("wait_seconds", buckets=(1.0, 5.0))
        with pytest.raises(MetricError):
            reg.histogram("wait_seconds", buckets=(1.0, 2.0))

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", labelnames=("outcome",))
        with pytest.raises(MetricError):
            c.labels(node="n0")
        with pytest.raises(MetricError):
            c.labels()
        with pytest.raises(MetricError):
            c.inc()  # labeled family has no unlabeled child
        with pytest.raises(MetricError):
            c.value

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        c.inc(2.0)
        with pytest.raises(MetricError):
            c.inc(-1.0)
        assert c.value == 2.0

    def test_gauge_set_and_add(self):
        # A gauge moves only by set: the last value wins, up or down.
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5.0)
        g.set(3.0)
        assert g.value == 3.0

    def test_histogram_buckets_validated_and_cumulative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("bad", buckets=())
        with pytest.raises(MetricError):
            reg.histogram("bad", buckets=(5.0, 1.0))
        h = reg.histogram("wait_seconds", buckets=(1.0, 5.0))
        assert h.buckets == (1.0, 5.0, math.inf)
        h.observe(0.5)
        h.observe(7.0)
        (_, child), = h.samples()
        assert child.cumulative() == [1, 1, 2]
        assert child.sum == 7.5 and child.count == 2

    def test_samples_take_the_time_of_their_update(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        c.inc(time=3.0)
        c.inc(time=10.0)
        assert c._default_child().time == 10.0
        c2 = reg.counter("m_total")
        c2.inc()  # no time: the sample stays unstamped
        assert c2._default_child().time is None
        assert prometheus_text(reg).splitlines()[-1] == "n_total 2 10000"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_ids_are_deterministic(self):
        def run():
            tr = Tracer()
            tr.record("a", 1.0, stream="serve")
            tr.record("b", 2.0, stream="cluster")
            tr.record("c", 3.0, stream="serve")
            return [s.span_id for s in tr.spans]

        assert run() == run() == ["serve#0", "cluster#0", "serve#1"]

    def test_double_close_and_backwards_end_raise(self):
        # A span is closed once, when it is recorded; a window that ends
        # before it begins is refused and takes no sequence number.
        tr = Tracer()
        with pytest.raises(ValueError, match="main#0"):
            tr.record("a", 5.0, 4.0)
        assert len(tr) == 0 and tr.streams() == []
        s = tr.record("a", 5.0, 6.0)
        assert (s.span_id, s.duration) == ("main#0", 1.0)

    def test_record_defaults_to_a_point_span(self):
        tr = Tracer()
        s = tr.record("tick", 2.0)
        assert s.duration == 0.0
        assert tr.streams() == ["main"]


# ----------------------------------------------------------------------
# Exporters (golden files inline)
# ----------------------------------------------------------------------

GOLDEN_PROM = (
    "# HELP queue_depth Live queue depth.\n"
    "# TYPE queue_depth gauge\n"
    "queue_depth 3 2000\n"
    "# HELP requests_total Requests by outcome.\n"
    "# TYPE requests_total counter\n"
    'requests_total{outcome="err"} 1 2500\n'
    'requests_total{outcome="ok"} 2 1000\n'
    "# HELP wait_seconds Admission waits.\n"
    "# TYPE wait_seconds histogram\n"
    'wait_seconds_bucket{le="1"} 1 4000\n'
    'wait_seconds_bucket{le="5"} 1 4000\n'
    'wait_seconds_bucket{le="+Inf"} 2 4000\n'
    "wait_seconds_sum 7.5 4000\n"
    "wait_seconds_count 2 4000\n"
)

GOLDEN_TRACE = (
    '{"displayTimeUnit":"ms",'
    '"otherData":{"clock":"simulation-seconds"},'
    '"traceEvents":['
    '{"args":{"name":"faults"},"name":"thread_name","ph":"M","pid":1,"tid":1},'
    '{"args":{"name":"serve"},"name":"thread_name","ph":"M","pid":1,"tid":2},'
    '{"args":{"span_id":"serve#0"},"cat":"serve","dur":2000000,'
    '"name":"outer","ph":"X","pid":1,"tid":2,"ts":1000000},'
    '{"args":{"n":1,"span_id":"serve#1"},"cat":"serve",'
    '"dur":500000,"name":"inner","ph":"X","pid":1,"tid":2,"ts":1500000},'
    '{"args":{"kind":"node_crash","span_id":"faults#0"},"cat":"faults",'
    '"dur":2500000,"name":"window","ph":"X","pid":1,"tid":1,"ts":2000000}'
    "]}\n"
)


def golden_registry(reg=None):
    reg = reg if reg is not None else MetricsRegistry()
    c = reg.counter("requests_total", "Requests by outcome.", ("outcome",))
    c.labels(outcome="ok").inc(2, time=1.0)
    c.labels(outcome="err").inc(time=2.5)
    reg.gauge("queue_depth", "Live queue depth.").set(3, time=2.0)
    h = reg.histogram("wait_seconds", "Admission waits.", buckets=(1.0, 5.0))
    h.observe(0.5, time=1.0)
    h.observe(7.0, time=4.0)
    return reg


def golden_tracer(tr=None):
    tr = tr if tr is not None else Tracer()
    tr.record("outer", 1.0, 3.0, stream="serve")
    tr.record("inner", 1.5, 2.0, stream="serve", n=1)
    tr.record("window", 2.0, 4.5, stream="faults", kind="node_crash")
    return tr


class TestExporters:
    def test_format_value_is_canonical(self):
        assert format_value(3.0) == "3"
        assert format_value(7.5) == "7.5"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"
        assert format_value(0.1) == "0.1"

    def test_prometheus_text_matches_golden(self):
        assert prometheus_text(golden_registry()) == GOLDEN_PROM

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_chrome_trace_json_matches_golden(self):
        assert chrome_trace_json(golden_tracer()) == GOLDEN_TRACE

    def test_trace_json_is_valid_and_perfetto_shaped(self):
        doc = json.loads(chrome_trace_json(golden_tracer()))
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and isinstance(e["ts"], int) for e in xs)

    def test_trace_digest_stability_and_sensitivity(self):
        assert trace_digest(golden_tracer()) == trace_digest(golden_tracer())
        perturbed = golden_tracer()
        perturbed.record("extra", 9.0, stream="serve")
        assert trace_digest(perturbed) != trace_digest(golden_tracer())


# ----------------------------------------------------------------------
# Observer
# ----------------------------------------------------------------------

class TestObserver:
    def test_write_emits_both_artifacts(self, tmp_path):
        obs = Observer()
        golden_registry(obs.registry)
        golden_tracer(obs.tracer)
        metrics_path, trace_path = obs.write(tmp_path / "out")
        assert metrics_path.read_text() == GOLDEN_PROM
        assert trace_path.read_text() == GOLDEN_TRACE
        assert obs.trace_digest() == trace_digest(golden_tracer())

    def test_shared_registry_across_subsystems(self):
        # Two readers register the same canonical family — they get
        # one counter, regardless of order.
        obs = Observer()
        a = obs.registry.counter("shared_total", "Shared.", ("who",))
        b = obs.registry.counter("shared_total", "Shared.", ("who",))
        a.labels(who="x").inc(time=1.0)
        b.labels(who="x").inc(time=2.0)
        assert a is b
        assert a.labels(who="x").value == 2.0

    def test_finalize_rejects_what_it_cannot_read(self):
        with pytest.raises(TypeError, match="cannot read a dict"):
            Observer().finalize({})


# ----------------------------------------------------------------------
# The gateway keeps plain records; the reader builds the serve families
# ----------------------------------------------------------------------

def build_fleet(toy_profile, *, n_nodes=2):
    nodes = [
        FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i)
        for i in range(n_nodes)
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(cluster, config=GatewayConfig(queue_capacity=64))
    cluster.attach_gateway(gateway)
    return cluster


class TestGatewayViews:
    def test_unobserved_gateway_counts_through_private_registry(
        self, toy_spec, toy_profile
    ):
        # The gateway's private records are its event log and tallies;
        # stats() counts verdicts from the log.
        from tests.test_serve import make_request

        gateway = build_fleet(toy_profile).gateway
        assert gateway.stats()["queued"] == 0
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        queued = gateway.stats()["queued"]
        assert queued == 1 and isinstance(queued, int)
        assert gateway.stats()["shed"] == 0
        assert [e.outcome for e in gateway.telemetry.gateway_events] == [
            "queued"
        ]
        gateway.pump(0.0, lambda request, incarnation: 1)
        assert gateway.pumps == [(0.0, 1)]
        assert gateway.pump_depths == {"web": 0}

    def test_observed_gateway_lands_in_the_shared_registry(
        self, toy_spec, toy_profile
    ):
        from repro.obs.naming import GATEWAY_OUTCOMES
        from tests.test_serve import make_request

        gateway = build_fleet(toy_profile).gateway
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        gateway.pump(5.0, lambda request, incarnation: 1)
        obs = Observer().finalize(gateway)
        family = obs.registry.get(GATEWAY_OUTCOMES)
        assert family.labels(outcome="queued").value == 1.0
        assert family.labels(outcome="admitted").value == 1.0
        (span,) = obs.tracer.spans
        assert (span.name, span.stream, span.begin) == (
            "gateway.pump", "serve", 5.0
        )
        assert span.args == {"started": 1}


#: sha256 of the metrics text :func:`every_counter_gateway` reads into.
EVERY_COUNTER_METRICS_SHA256 = (
    "8c1577fc37de2c82c3420d4cc7beb566"
    "2c9033698fb920c30ee368b14c5cb60e"
)


def every_counter_gateway(toy_spec, toy_profile):
    """A gateway driven through every serve counter.

    ``n0`` runs CoCG (the batcher's pre-screen path) and ``n1`` the
    max-static baseline (the fallback-probe path).  The run sheds on a
    full queue and, once ``n1`` drains, on the capacity floor; throttles
    two rounds; defers and retries until one request dead-letters on
    retries and two on patience; and a second category is first offered
    after the last pump, so the depth gauge has no sample for it.
    """
    import dataclasses

    from repro.baselines.maxstatic import MaxStaticStrategy
    from repro.games.category import GameCategory
    from tests.test_serve import make_request

    nodes = [
        FleetNode("n0", CoCGStrategy(), {"toygame": toy_profile}, seed=0),
        FleetNode("n1", MaxStaticStrategy(), {"toygame": toy_profile}, seed=1),
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(cluster, config=GatewayConfig(
        queue_capacity=3, rate_per_second=1.0, burst=3,
        max_queue_seconds=40.0, max_retries=1, capacity_floor=0.9,
    ))
    cluster.attach_gateway(gateway)

    def seed_for(request, incarnation):
        return request.request_id

    for rid in range(4):
        gateway.offer(make_request(toy_spec, rid), time=0.0)
    gateway.pump(0.0, seed_for)
    for rid in range(4, 7):
        gateway.offer(make_request(toy_spec, rid), time=1.25)
    for time in (1.5, 2.75, 4.0):
        gateway.pump(time, seed_for)
    cluster.drain_node("n1", 5.0)
    for rid in range(7, 9):
        gateway.offer(make_request(toy_spec, rid), time=5.5)
    gateway.pump(47.5, seed_for)
    mmo = dataclasses.replace(
        toy_spec, name="toymmo", category=GameCategory.MMO
    )
    gateway.offer(make_request(mmo, 99), time=60.0)
    return gateway


class TestEveryCounterGateway:
    def test_the_run_reaches_every_counter(self, toy_spec, toy_profile):
        gateway = every_counter_gateway(toy_spec, toy_profile)
        assert gateway.stats() == {
            "queued": 7, "admitted": 3, "shed": 3, "dead_lettered": 3,
            "deferrals": 4, "depth": 1, "throttled_rounds": 2,
            "backpressure_sheds": 2,
        }
        assert gateway.batcher.stats() == {
            "rounds": 5, "evaluations": 6, "prescreen_rejects": 4,
            "admissions": 3, "fallback_probes": 5,
        }
        sheds = [
            e.detail.split(": ")[1]
            for e in gateway.telemetry.gateway_events if e.outcome == "shed"
        ]
        assert sheds == ["queue full", "capacity floor", "capacity floor"]
        assert [d.reason for d in gateway.scheduler.dead_letters] == [
            "retries exhausted",
            "queue patience exhausted",
            "queue patience exhausted",
        ]
        assert gateway.slo.categories == ["web"]
        assert sorted(gateway._queues) == ["mmo", "web"]

    def test_metrics_text_is_pinned(self, toy_spec, toy_profile):
        gateway = every_counter_gateway(toy_spec, toy_profile)
        text = Observer().finalize(gateway).metrics_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            EVERY_COUNTER_METRICS_SHA256
        )


class TestObserverReachesGateway:
    """Reading a finished experiment reaches its gateway, and reading
    leaves the gateway's records as they were."""

    def test_experiment_observer_reaches_harness_gateway(self):
        from repro.trace.harness import (
            RunConfig,
            build_cluster,
            build_profiles,
            game_specs,
        )

        config = RunConfig(
            games=("contra",), players=2, sessions=2, horizon=120
        )
        experiment = FleetExperiment(
            build_cluster(config, build_profiles(config)),
            game_specs(config.games),
            horizon=config.horizon,
            rate_per_minute=config.rate_per_minute,
            seed=config.seed,
        )
        experiment.run()
        obs = Observer().finalize(experiment)
        assert "serve_gateway_outcomes_total" in obs.metrics_text()
        assert "serve" in obs.tracer.streams()

    def test_reading_leaves_the_gateway_registry_untouched(
        self, toy_spec, toy_profile
    ):
        # The gateway has no registry: reading builds a fresh one from
        # its records each time and changes none of them.
        from tests.test_serve import make_request

        gateway = build_fleet(toy_profile).gateway
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        before = (gateway.stats(), gateway.batcher.stats(),
                  list(gateway.slo.records))
        first = Observer().finalize(gateway)
        second = Observer().finalize(gateway)
        assert (gateway.stats(), gateway.batcher.stats(),
                list(gateway.slo.records)) == before
        assert first.metrics_text() == second.metrics_text()
        assert not hasattr(gateway, "registry")


# ----------------------------------------------------------------------
# Nothing below the composition root holds an observer
# ----------------------------------------------------------------------

def _src_modules():
    import repro

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text())


def test_only_obs_and_the_cli_name_the_observer():
    offenders = set()
    for rel, tree in _src_modules():
        if rel.parts[0] == "obs" or rel == Path("cli.py"):
            continue
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "Observer")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "Observer")
                or (isinstance(node, ast.alias) and node.name == "Observer")
                or (isinstance(node, ast.FunctionDef)
                    and node.name == "attach_observer")
                or (isinstance(node, ast.arg) and node.arg == "obs")
            )
            if named:
                offenders.add(str(rel))
    assert not offenders


def test_only_obs_and_the_cli_import_repro_obs():
    importers = set()
    for rel, tree in _src_modules():
        for node in ast.walk(tree):
            modules = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [a.name for a in node.names]
                if isinstance(node, ast.Import) else []
            )
            if any(m == "repro.obs" or m.startswith("repro.obs.")
                   for m in modules):
                importers.add(rel.parts[0])
    assert importers == {"obs", "cli.py"}


def test_only_obs_constructs_a_metrics_registry():
    builders = set()
    for rel, tree in _src_modules():
        if rel.parts[0] == "obs":
            continue
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == "MetricsRegistry") or (
                isinstance(func, ast.Attribute)
                and func.attr == "MetricsRegistry"
            ):
                builders.add(str(rel))
    assert not builders


# ----------------------------------------------------------------------
# Acceptance: same seed + fault plan => byte-identical artifacts
# ----------------------------------------------------------------------

def fault_plan(horizon):
    return (
        FaultPlan(seed=5)
        .node_crash(horizon / 3.0, "n1", recover_after=horizon / 6.0)
        .telemetry_dropout(0.0, duration=float(horizon), rate=0.02)
        .predictor_failure(horizon / 4.0, recover_after=horizon / 4.0)
    )


def observed_run(toy_spec, toy_profile, horizon=400):
    experiment = FleetExperiment(
        build_fleet(toy_profile),
        [toy_spec],
        horizon=horizon,
        rate_per_minute=2.0,
        seed=9,
        detect_interval=5,
        fault_plan=fault_plan(horizon),
    )
    result = experiment.run()
    return result, Observer().finalize(experiment)


def provisioned_run(toy_spec, toy_profile, horizon=300):
    """A retry-queue fleet with a capacity plane under a reclaim storm."""
    from repro.cluster.provisioner import Provisioner, ProvisionerConfig
    from repro.faults.chaos import reclaim_storm_plan

    def node(node_id, seed):
        return FleetNode(
            node_id, CoCGStrategy(), {"toygame": toy_profile}, seed=seed
        )

    cluster = ClusterScheduler([node("n0", 0), node("n1", 1)])
    provisioner = Provisioner(
        cluster, lambda node_id: node(node_id, 7),
        config=ProvisionerConfig(warm_pool_size=1), seed=3,
    )
    experiment = FleetExperiment(
        cluster, [toy_spec], horizon=horizon, rate_per_minute=4.0, seed=9,
        fault_plan=reclaim_storm_plan(horizon, seed=1, nodes=("n0", "n1")),
        provisioner=provisioner,
    )
    experiment.run()
    return experiment


class TestReader:
    @pytest.fixture(scope="class")
    def experiment(self, toy_spec, toy_profile):
        return provisioned_run(toy_spec, toy_profile)

    def test_provisioner_families_come_from_its_events(self, experiment):
        from repro.obs.naming import PROVISION_EVENTS, PROVISION_LATENCY

        provisioner = experiment.provisioner
        obs = Observer().finalize(experiment)
        events = obs.registry.get(PROVISION_EVENTS)
        assert {
            values[0]: child.value for values, child in events.samples()
        } == {k: v for k, v in provisioner.counts.items() if v}
        requested = {
            ev.node: ev.time for ev in provisioner.events
            if ev.state == "requested"
        }
        booted = [
            ev.time - requested[ev.node] for ev in provisioner.events
            if ev.state == "warm" and ev.node in requested
        ]
        assert booted  # the storm provisions replacement capacity
        latency = obs.registry.get(PROVISION_LATENCY).labels()
        assert latency.count == len(booted)
        assert latency.sum == pytest.approx(sum(booted))
        lifecycle = [
            s for s in obs.tracer.spans if s.name.endswith(".lifecycle")
        ]
        assert {s.stream for s in lifecycle} == {"cluster"}
        assert {
            s.name for s in lifecycle if s.args["state"] == "provisioning"
        } == {f"node.{n}.lifecycle" for n in requested}
        notices = [
            s for s in lifecycle if s.args["state"] == "reclaim-notice"
        ]
        assert len(notices) == len(experiment.cluster.reclaims) > 0
        assert all(s.args["fault_index"] >= 0 for s in notices)

    def test_counters_equal_the_layers_own_counts(self, experiment):
        from repro.obs.naming import (
            ALGO1_EVALUATIONS, CLUSTER_DISPATCH, CLUSTER_PUMP_ROUNDS,
        )

        cluster = experiment.cluster
        obs = Observer().finalize(experiment)
        dispatch = obs.registry.get(CLUSTER_DISPATCH)
        assert dispatch.labels(outcome="dispatched").value == (
            cluster.dispatched
        )
        assert dispatch.labels(outcome="deferred").value == cluster.deferred
        assert obs.registry.get(CLUSTER_PUMP_ROUNDS).value == len(
            cluster.pumps
        )
        evaluations = obs.registry.get(ALGO1_EVALUATIONS)
        scheds = [node.strategy.scheduler for node in cluster.nodes]
        for verdict in (True, False):
            assert evaluations.labels(
                admitted=str(verdict).lower()
            ).value == sum(s.distributor.verdicts[verdict] for s in scheds)
        for node, sched in zip(cluster.nodes, scheds):
            spans = [
                s for s in obs.tracer.spans
                if s.stream == f"node:{node.node_id}"
            ]
            assert [(s.begin, s.args["sessions"]) for s in spans] == (
                sched.cycles
            )

    def test_lifecycle_counts_every_warming_node(self, experiment):
        from repro.obs.naming import CLUSTER_LIFECYCLE

        warmed = [
            ev for node in experiment.cluster.nodes
            for ev in node.telemetry.fault_events if ev.kind == "node-warming"
        ]
        # Every provisioned node, pre-booted or replacement, warmed once.
        provisioned = [
            n.node_id for n in experiment.cluster.nodes
            if n.node_id not in ("n0", "n1")
        ]
        assert sorted(ev.detail for ev in warmed) == sorted(provisioned)
        assert warmed
        obs = Observer().finalize(experiment)
        sample = obs.registry.get(CLUSTER_LIFECYCLE).labels(state="warming")
        assert sample.value == len(warmed)

    def test_reading_twice_gives_identical_artifacts(self, experiment):
        first = Observer().finalize(experiment)
        second = Observer().finalize(experiment)
        assert first.metrics_text() == second.metrics_text()
        assert first.trace_digest() == second.trace_digest()


class TestEndToEndDeterminism:
    def test_double_run_is_byte_identical(self, toy_spec, toy_profile):
        result_a, obs_a = observed_run(toy_spec, toy_profile)
        result_b, obs_b = observed_run(toy_spec, toy_profile)
        assert obs_a.metrics_text() == obs_b.metrics_text()
        assert obs_a.trace_digest() == obs_b.trace_digest()
        assert result_a.telemetry_digest == result_b.telemetry_digest
        # observation changed nothing about the run itself
        assert result_a.completed_runs == result_b.completed_runs

    def test_streams_and_fault_spans_present(self, toy_spec, toy_profile):
        _, obs = observed_run(toy_spec, toy_profile)
        streams = obs.tracer.streams()
        assert "serve" in streams and "faults" in streams
        assert "node:n0" in streams and "node:n1" in streams
        names = {s.name for s in obs.tracer.spans}
        assert "gateway.pump" in names
        assert "fault.node_crash" in names
        # the crash window is a real interval, not a point
        crash = next(
            s for s in obs.tracer.spans if s.name == "fault.node_crash"
        )
        assert crash.duration > 0

    def test_observation_does_not_change_the_run(self, toy_spec, toy_profile):
        def bare_run():
            cluster = build_fleet(toy_profile)
            return FleetExperiment(
                cluster,
                [toy_spec],
                horizon=400,
                rate_per_minute=2.0,
                seed=9,
                detect_interval=5,
                fault_plan=fault_plan(400),
            ).run()

        observed, _ = observed_run(toy_spec, toy_profile)
        bare = bare_run()
        assert bare.telemetry_digest == observed.telemetry_digest
        assert bare.completed_runs == observed.completed_runs
        assert bare.degraded_seconds == observed.degraded_seconds
