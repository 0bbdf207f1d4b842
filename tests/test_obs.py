"""Tests for the ``repro.obs`` deterministic observability subsystem.

Covers the metrics registry (get-or-create by canonical name, label
handling, counter monotonicity, fixed-bucket histograms), the sim-time
tracer (deterministic span ids, per-stream nesting, loud failure on
structural misuse), the canonical exporters against inline golden
strings, and the headline acceptance property: two `FleetExperiment`
runs from the same seed and fault plan produce a byte-identical
``metrics.prom`` and an equal ``trace_digest()``.
"""

import json
import math

import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import ClusterScheduler, FleetNode
from repro.cluster.experiment import FleetExperiment
from repro.faults.plan import FaultPlan
from repro.obs import (
    MetricError,
    MetricsRegistry,
    Observer,
    SpanNestingError,
    Tracer,
    UnclosedSpanError,
    chrome_trace,
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
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5.0)
        g.add(-2.0)
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

    def test_set_time_is_monotone_and_stamps_samples(self):
        reg = MetricsRegistry()
        reg.set_time(10.0)
        reg.set_time(4.0)  # the clock never goes backwards
        assert reg.now == 10.0
        c = reg.counter("n_total")
        c.inc()  # inherits registry.now
        c2 = reg.counter("m_total")
        c2.inc(time=3.0)  # explicit stamp wins
        assert c._default_child().time == 10.0
        assert c2._default_child().time == 3.0


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

    def test_nesting_tracks_parents_per_stream(self):
        tr = Tracer()
        with tr.span("outer", 1.0, stream="serve") as outer:
            tr.record("other-stream", 1.0, stream="faults")
            with tr.span("inner", 1.5, stream="serve") as inner:
                pass
        assert outer.parent is None
        assert inner.parent == "serve#0"
        by_name = {s.name: s for s in tr.spans}
        assert by_name["other-stream"].parent is None

    def test_setting_end_inside_the_block_stretches_the_span(self):
        tr = Tracer()
        with tr.span("pump", 1.0, stream="serve") as s:
            s.end = 3.0
        tr.require_closed()
        assert s.duration == 2.0

    def test_out_of_order_close_raises(self):
        tr = Tracer()
        outer = tr.begin("outer", 1.0, stream="serve")
        tr.begin("inner", 2.0, stream="serve")
        with pytest.raises(SpanNestingError):
            tr.end(outer, 3.0)

    def test_double_close_and_backwards_end_raise(self):
        tr = Tracer()
        s = tr.begin("a", 5.0)
        with pytest.raises(ValueError):
            tr.end(s, 4.0)
        tr.end(s, 6.0)
        with pytest.raises(SpanNestingError):
            tr.end(s, 7.0)

    def test_require_closed_names_the_open_spans(self):
        tr = Tracer()
        tr.begin("stuck", 1.0, stream="serve")
        assert [s.name for s in tr.open_spans()] == ["stuck"]
        with pytest.raises(UnclosedSpanError, match="serve#0"):
            tr.require_closed()

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
    '{"args":{"n":1,"parent":"serve#0","span_id":"serve#1"},"cat":"serve",'
    '"dur":500000,"name":"inner","ph":"X","pid":1,"tid":2,"ts":1500000},'
    '{"args":{"kind":"node_crash","span_id":"faults#0"},"cat":"faults",'
    '"dur":2500000,"name":"window","ph":"X","pid":1,"tid":1,"ts":2000000}'
    "]}\n"
)


def golden_registry():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "Requests by outcome.", ("outcome",))
    c.labels(outcome="ok").inc(2, time=1.0)
    c.labels(outcome="err").inc(time=2.5)
    reg.gauge("queue_depth", "Live queue depth.").set(3, time=2.0)
    h = reg.histogram("wait_seconds", "Admission waits.", buckets=(1.0, 5.0))
    h.observe(0.5, time=1.0)
    h.observe(7.0, time=4.0)
    return reg


def golden_tracer():
    tr = Tracer()
    with tr.span("outer", 1.0, stream="serve") as s:
        s.end = 3.0
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

    def test_export_refuses_open_spans(self):
        tr = Tracer()
        tr.begin("stuck", 1.0)
        with pytest.raises(UnclosedSpanError):
            chrome_trace(tr)

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
        obs = Observer(registry=golden_registry(), tracer=golden_tracer())
        metrics_path, trace_path = obs.write(tmp_path / "out")
        assert metrics_path.read_text() == GOLDEN_PROM
        assert trace_path.read_text() == GOLDEN_TRACE
        assert obs.trace_digest() == trace_digest(golden_tracer())

    def test_shared_registry_across_subsystems(self):
        # Two "subsystems" register the same canonical family — they get
        # one counter, regardless of construction order.
        obs = Observer()
        a = obs.counter("shared_total", "Shared.", ("who",))
        b = obs.counter("shared_total", "Shared.", ("who",))
        a.labels(who="x").inc(time=1.0)
        b.labels(who="x").inc(time=2.0)
        assert a is b
        assert a.labels(who="x").value == 2.0


# ----------------------------------------------------------------------
# Instrumented gateway: counters stay usable without an Observer
# ----------------------------------------------------------------------

def build_fleet(toy_profile, *, obs=None, n_nodes=2):
    nodes = [
        FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i)
        for i in range(n_nodes)
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(cluster, config=GatewayConfig(queue_capacity=64))
    if obs is not None:
        gateway.attach_observer(obs)
    cluster.attach_gateway(gateway)
    return cluster


class TestGatewayViews:
    def test_unobserved_gateway_counts_through_private_registry(
        self, toy_spec, toy_profile
    ):
        from repro.serve import SloTracker
        from tests.test_serve import make_request

        cluster = build_fleet(toy_profile, obs=None)
        gateway = cluster.gateway
        assert gateway.stats()["queued"] == 0
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        queued = gateway.stats()["queued"]
        assert queued == 1 and isinstance(queued, int)
        assert gateway.stats()["shed"] == 0
        # no spans recorded when unobserved — pump still works
        gateway.pump(0.0, lambda request, incarnation: 1)
        assert isinstance(SloTracker(), SloTracker)  # registry optional

    def test_observed_gateway_lands_in_the_shared_registry(
        self, toy_spec, toy_profile
    ):
        from repro.obs.naming import GATEWAY_OUTCOMES
        from tests.test_serve import make_request

        obs = Observer()
        cluster = build_fleet(toy_profile, obs=obs)
        cluster.gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        family = obs.registry.get(GATEWAY_OUTCOMES)
        assert family is not None
        assert family.labels(outcome="queued").value == 1.0


class TestObserverReachesGateway:
    """An observer wired into the cluster reaches its gateway, whichever
    of the two is attached first."""

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
        obs = Observer()
        FleetExperiment(
            build_cluster(config, build_profiles(config)),
            game_specs(config.games),
            horizon=config.horizon,
            rate_per_minute=config.rate_per_minute,
            seed=config.seed,
            obs=obs,
        ).run()
        assert "serve_gateway_outcomes_total" in obs.metrics_text()
        assert "serve" in obs.tracer.streams()

    def test_gateway_attached_after_observer_inherits_it(
        self, toy_spec, toy_profile
    ):
        from repro.obs.naming import GATEWAY_OUTCOMES
        from tests.test_serve import make_request

        obs = Observer()
        cluster = ClusterScheduler(
            [FleetNode("n0", CoCGStrategy(), {"toygame": toy_profile})]
        )
        cluster.attach_observer(obs)
        gateway = AdmissionGateway(cluster)
        cluster.attach_gateway(gateway)
        assert gateway.obs is obs
        gateway.offer(make_request(toy_spec, rid=0), time=0.0)
        family = obs.registry.get(GATEWAY_OUTCOMES)
        assert family.labels(outcome="queued").value == 1.0


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
    obs = Observer()
    cluster = build_fleet(toy_profile, obs=obs)
    result = FleetExperiment(
        cluster,
        [toy_spec],
        horizon=horizon,
        rate_per_minute=2.0,
        seed=9,
        detect_interval=5,
        fault_plan=fault_plan(horizon),
        obs=obs,
    ).run()
    return result, obs


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
            cluster = build_fleet(toy_profile, obs=None)
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
