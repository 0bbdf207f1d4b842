"""Tests for the Algorithm-1 distributor and the regulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributor import AdmissionDecision, Distributor
from repro.core.regulator import Regulator, RegulatorConfig
from repro.platform_.resources import ResourceVector


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class FakeTask:
    """A scripted RunningTaskView."""

    def __init__(self, current, peaks, minimum=None):
        self.current_allocation = current
        self._peaks = peaks
        self._min = minimum

    def predicted_peaks(self, horizon):
        return self._peaks[:horizon]

    def min_allocation(self):
        return self._min if self._min is not None else self.current_allocation


BUDGET = ResourceVector.full(95.0)


class TestDistributor:
    def test_empty_server_admits_fitting_game(self):
        d = Distributor(BUDGET)
        assert d.can_admit(rv(cpu=30), rv(gpu=60), []).admitted

    def test_empty_server_rejects_oversized_game(self):
        d = Distributor(BUDGET)
        assert not d.can_admit(rv(cpu=30), rv(gpu=99), []).admitted

    def test_no_room_to_boot(self):
        d = Distributor(BUDGET)
        task = FakeTask(rv(cpu=90), [rv(cpu=90)])
        decision = d.can_admit(rv(cpu=10), rv(cpu=5), [task])
        assert not decision.admitted
        assert "boot" in decision.reason

    def test_predicted_peaks_gate_admission(self):
        d = Distributor(BUDGET, horizon=2)
        # currently cheap but predicted to peak at 80 gpu
        task = FakeTask(rv(gpu=20), [rv(gpu=20), rv(gpu=80)])
        ok = d.can_admit(rv(gpu=5), rv(gpu=10), [task])
        assert ok.admitted  # 80 + 10 fits
        bad = d.can_admit(rv(gpu=5), rv(gpu=30), [task])
        assert not bad.admitted  # 80 + 30 > 95

    def test_horizon_limits_lookahead(self):
        task = FakeTask(rv(gpu=10), [rv(gpu=10), rv(gpu=10), rv(gpu=90)])
        near = Distributor(BUDGET, horizon=2)
        far = Distributor(BUDGET, horizon=3)
        steady = rv(gpu=30)
        assert near.can_admit(rv(gpu=5), steady, [task]).admitted
        assert not far.can_admit(rv(gpu=5), steady, [task]).admitted

    def test_overshoot_tolerance_admits_borderline(self):
        task = FakeTask(rv(gpu=50), [rv(gpu=60)])
        strict = Distributor(BUDGET, overshoot_tolerance=0.0)
        loose = Distributor(BUDGET, overshoot_tolerance=0.10)
        steady = rv(gpu=40)  # 100 > 95, but < 95 * 1.1
        assert not strict.can_admit(rv(gpu=1), steady, [task]).admitted
        assert loose.can_admit(rv(gpu=1), steady, [task]).admitted

    def test_min_allocation_used_for_boot_room(self):
        # A loading task is compressible: counted at its throttled footprint.
        task = FakeTask(rv(cpu=90), [rv(cpu=50)], minimum=rv(cpu=20))
        d = Distributor(BUDGET)
        decision = d.can_admit(rv(cpu=30), rv(cpu=30), [task])
        assert decision.admitted

    def test_multiple_tasks_summed(self):
        d = Distributor(BUDGET)
        tasks = [FakeTask(rv(gpu=30), [rv(gpu=30)]) for _ in range(2)]
        assert d.can_admit(rv(gpu=5), rv(gpu=30), tasks).admitted
        assert not d.can_admit(rv(gpu=5), rv(gpu=40), tasks).admitted

    def test_decision_is_truthy(self):
        assert AdmissionDecision(True, "ok")
        assert not AdmissionDecision(False, "no")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Distributor(BUDGET, horizon=0)
        with pytest.raises(ValueError):
            Distributor(BUDGET, overshoot_tolerance=-0.1)


_terms = st.builds(
    rv,
    cpu=st.sampled_from([0.0, 5.0, 20.0, 40.0]),
    gpu=st.sampled_from([0.0, 10.0, 30.0, 60.0]),
    ram=st.sampled_from([0.0, 15.0]),
)
_tasks = st.builds(
    FakeTask,
    current=_terms,
    peaks=st.lists(_terms, min_size=1, max_size=3),
    minimum=st.one_of(st.none(), _terms),
)


@settings(max_examples=120, deadline=None)
@given(
    running=st.lists(_tasks, max_size=4),
    # Few distinct terms, so candidates repeat and share an entry or a
    # steady peak with different partners.
    entries=st.lists(_terms, min_size=1, max_size=3),
    steadies=st.lists(_terms, min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=12),
    horizon=st.integers(1, 3),
    tolerance=st.sampled_from([0.0, 0.1]),
)
def test_batch_decides_like_per_candidate_calls(
    running, entries, steadies, picks, horizon, tolerance
):
    """A batch decides each distinct candidate once, yet answers and
    counts every call exactly as one ``can_admit`` per candidate does."""
    candidates = [
        (entries[i % len(entries)], steadies[j % len(steadies)])
        for i, j in picks
    ]
    batched = Distributor(BUDGET, horizon=horizon, overshoot_tolerance=tolerance)
    single = Distributor(BUDGET, horizon=horizon, overshoot_tolerance=tolerance)
    batch = batched.begin_batch(running)
    for entry, steady in candidates:
        got = batch.evaluate(entry, steady)
        want = single.can_admit(entry, steady, running)
        assert (got.admitted, got.reason, got.predicted_peak.values) == (
            want.admitted, want.reason, want.predicted_peak.values
        )
    assert batched.verdicts == single.verdicts
    assert sum(batched.verdicts.values()) == len(candidates)


class TestRegulator:
    def test_holds_when_next_stage_does_not_fit(self):
        reg = Regulator(BUDGET)
        assert reg.should_hold_in_loading(rv(gpu=60), rv(gpu=50), 0.0)

    def test_releases_when_it_fits(self):
        reg = Regulator(BUDGET)
        assert not reg.should_hold_in_loading(rv(gpu=40), rv(gpu=50), 0.0)

    def test_extension_budget_expires(self):
        cfg = RegulatorConfig(max_extension_seconds=30)
        reg = Regulator(BUDGET, config=cfg)
        assert reg.should_hold_in_loading(rv(gpu=60), rv(gpu=50), 29.0)
        assert not reg.should_hold_in_loading(rv(gpu=60), rv(gpu=50), 30.0)

    def test_disabled_never_holds(self):
        reg = Regulator(BUDGET, config=RegulatorConfig(enabled=False))
        assert not reg.should_hold_in_loading(rv(gpu=99), rv(gpu=99), 0.0)

    def test_hold_accounting(self):
        reg = Regulator(BUDGET)
        reg.start_hold()
        reg.note_hold(5)
        reg.note_hold(5)
        assert reg.holds_started == 1
        assert reg.hold_seconds_total == 10

    def test_pick_request_prefers_short_when_tight(self):
        reg = Regulator(BUDGET)
        pending = ["long", "short"]
        idx = reg.pick_request(
            pending,
            rv(gpu=80),  # tight: 15/95 headroom
            long_term_of=lambda r: r == "long",
        )
        assert pending[idx] == "short"

    def test_pick_request_prefers_long_when_free(self):
        reg = Regulator(BUDGET)
        pending = ["short", "long"]
        idx = reg.pick_request(
            pending,
            rv(gpu=10),
            long_term_of=lambda r: r == "long",
        )
        assert pending[idx] == "long"

    def test_pick_request_empty(self):
        assert Regulator(BUDGET).pick_request([], rv()) is None

    def test_pick_request_fifo_when_disabled(self):
        reg = Regulator(BUDGET, config=RegulatorConfig(enabled=False))
        assert reg.pick_request(["a", "b"], rv(gpu=80)) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegulatorConfig(max_extension_seconds=-1)
        with pytest.raises(ValueError):
            RegulatorConfig(steal_fraction=0.0)
