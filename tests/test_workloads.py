"""Tests for request streams, Eq-2 throughput, and the experiment driver."""

import numpy as np
import pytest

from repro.baselines import CoCGStrategy, MaxStaticStrategy
from repro.cluster.experiment import ColocationExperiment
from repro.workloads.metrics import throughput_eq2
from repro.workloads.requests import ContinuousBacklog, PoissonArrivals


class TestThroughputEq2:
    def test_formula(self):
        t = throughput_eq2({"a": 3, "b": 2}, {"a": 100.0, "b": 50.0})
        assert t == 400.0

    def test_missing_duration(self):
        with pytest.raises(KeyError):
            throughput_eq2({"a": 1}, {})

    def test_negative_count(self):
        with pytest.raises(ValueError):
            throughput_eq2({"a": -1}, {"a": 1.0})

    def test_empty_is_zero(self):
        assert throughput_eq2({}, {}) == 0.0


class TestContinuousBacklog:
    def test_always_one_pending_per_game(self, toy_spec, catalog):
        backlog = ContinuousBacklog([toy_spec, catalog["contra"]], seed=0)
        pending = backlog.pending(0.0)
        assert {r.spec.name for r in pending} == {"toygame", "contra"}

    def test_started_consumes_slot(self, toy_spec):
        backlog = ContinuousBacklog([toy_spec], seed=0)
        (req,) = backlog.pending(0.0)
        backlog.started(req)
        assert backlog.pending(1.0) == []

    def test_finished_reopens_slot(self, toy_spec):
        backlog = ContinuousBacklog([toy_spec], seed=0)
        (req,) = backlog.pending(0.0)
        backlog.started(req)
        backlog.finished("toygame")
        assert len(backlog.pending(2.0)) == 1

    def test_finish_without_running_raises(self, toy_spec):
        with pytest.raises(RuntimeError):
            ContinuousBacklog([toy_spec]).finished("toygame")

    def test_max_concurrent(self, toy_spec):
        backlog = ContinuousBacklog([toy_spec], seed=0, max_concurrent=3)
        assert len(backlog.pending(0.0)) == 3

    def test_script_choice_is_seeded(self, catalog):
        a = ContinuousBacklog([catalog["contra"]], seed=4).pending(0.0)[0]
        b = ContinuousBacklog([catalog["contra"]], seed=4).pending(0.0)[0]
        assert a.script == b.script

    def test_request_builds_session(self, toy_spec):
        backlog = ContinuousBacklog([toy_spec], seed=0)
        (req,) = backlog.pending(0.0)
        session = req.make_session(7)
        assert session.spec is toy_spec
        assert session.script.name == req.script


class TestPoissonArrivals:
    def test_rate_roughly_respected(self, toy_spec):
        arr = PoissonArrivals([toy_spec], rate_per_minute=2.0, seed=0, horizon=3600)
        assert 80 <= len(arr.requests) <= 160  # 2/min over 60 min ± slack

    def test_due_window(self, toy_spec):
        arr = PoissonArrivals([toy_spec], rate_per_minute=2.0, seed=0, horizon=600)
        first = arr.due(0, 300)
        second = arr.due(300, 600)
        assert len(first) + len(second) == len(arr.requests)

    def test_arrival_times_sorted(self, toy_spec):
        arr = PoissonArrivals([toy_spec], seed=1, horizon=1000)
        times = [r.arrival for r in arr.requests]
        assert times == sorted(times)

    def test_invalid_rate(self, toy_spec):
        with pytest.raises(ValueError):
            PoissonArrivals([toy_spec], rate_per_minute=0)


class TestColocationExperiment:
    def test_short_run_completes(self, toy_profile):
        profiles = {"toygame": toy_profile}
        result = ColocationExperiment(
            profiles, CoCGStrategy(), horizon=600, seed=0
        ).run()
        assert result.completed_runs["toygame"] >= 2
        assert result.throughput > 0
        assert result.horizon == 600
        assert result.total_usage.shape == (600, 4)

    def test_usage_never_exceeds_cap(self, toy_profile):
        profiles = {"toygame": toy_profile}
        result = ColocationExperiment(
            profiles, CoCGStrategy(), horizon=600, seed=1, max_concurrent=3
        ).run()
        assert result.over_cap_seconds == 0
        assert np.all(result.peak_total_usage <= 95 + 1e-6)

    def test_same_seed_same_outcome(self, toy_profile):
        profiles = {"toygame": toy_profile}
        a = ColocationExperiment(profiles, MaxStaticStrategy(), horizon=400, seed=9).run()
        b = ColocationExperiment(profiles, MaxStaticStrategy(), horizon=400, seed=9).run()
        assert a.completed_runs == b.completed_runs
        np.testing.assert_array_equal(a.total_usage, b.total_usage)

    def test_colocation_counted(self, toy_profile):
        profiles = {"toygame": toy_profile}
        result = ColocationExperiment(
            profiles, CoCGStrategy(), horizon=600, seed=2, max_concurrent=2
        ).run()
        assert result.colocated_seconds > 0

    def test_qos_aggregates_present(self, toy_profile):
        profiles = {"toygame": toy_profile}
        result = ColocationExperiment(
            profiles, CoCGStrategy(), horizon=400, seed=3
        ).run()
        assert 0 <= result.fraction_of_best["toygame"] <= 1
        assert 0 <= result.violation_fraction["toygame"] <= 1

    def test_invalid_horizon(self, toy_profile):
        with pytest.raises(ValueError):
            ColocationExperiment({"toygame": toy_profile}, CoCGStrategy(), horizon=0)
