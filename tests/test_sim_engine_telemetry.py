"""Tests for the discrete-event engine and the telemetry recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform_.resources import N_DIMS, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.telemetry import (_DROPPED_ROW, _NOISE_BLOCK, TelemetryPerturbation,
                                 TelemetryRecorder)


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine()
        order = []
        eng.at(5, lambda e: order.append("b"))
        eng.at(2, lambda e: order.append("a"))
        eng.run()
        assert order == ["a", "b"]
        assert eng.now == 5

    def test_priority_breaks_ties(self):
        eng = SimulationEngine()
        order = []
        eng.at(1, lambda e: order.append("low"), priority=5)
        eng.at(1, lambda e: order.append("high"), priority=0)
        eng.run()
        assert order == ["high", "low"]

    def test_fifo_within_same_priority(self):
        eng = SimulationEngine()
        order = []
        eng.at(1, lambda e: order.append(1))
        eng.at(1, lambda e: order.append(2))
        eng.run()
        assert order == [1, 2]

    def test_after_is_relative(self):
        eng = SimulationEngine(start_time=10)
        seen = []
        eng.after(5, lambda e: seen.append(e.now))
        eng.run()
        assert seen == [15]

    def test_cancel(self):
        eng = SimulationEngine()
        hits = []
        ev = eng.at(1, lambda e: hits.append(1))
        ev.cancel()
        eng.run()
        assert hits == []
        assert eng.processed == 0

    def test_every_repeats_until_cancelled(self):
        eng = SimulationEngine()
        hits = []
        cancel = eng.every(2, lambda e: hits.append(e.now))
        eng.run_until(7)
        cancel()
        eng.run_until(20)
        assert hits == [2, 4, 6]

    def test_run_until_advances_clock(self):
        eng = SimulationEngine()
        eng.run_until(42)
        assert eng.now == 42

    def test_events_can_schedule_events(self):
        eng = SimulationEngine()
        seen = []

        def first(e):
            seen.append("first")
            e.after(1, lambda e2: seen.append("second"))

        eng.at(1, first)
        eng.run()
        assert seen == ["first", "second"]

    def test_cannot_schedule_in_past(self):
        eng = SimulationEngine(start_time=10)
        with pytest.raises(ValueError):
            eng.at(5, lambda e: None)

    def test_invalid_every_interval(self):
        with pytest.raises(ValueError):
            SimulationEngine().every(0, lambda e: None)

    def test_pending_counts_noncancelled(self):
        eng = SimulationEngine()
        ev = eng.at(1, lambda e: None)
        eng.at(2, lambda e: None)
        ev.cancel()
        assert eng.pending == 1


    def test_equal_time_events_fire_by_priority_then_fifo(self):
        eng = SimulationEngine()
        order = []
        for name, priority in [("a", 2), ("b", 0), ("c", 1), ("d", 0),
                               ("e", 2), ("f", 1)]:
            eng.at(3, lambda e, name=name: order.append(name),
                   priority=priority)
        eng.at(1, lambda e: order.append("early"), priority=9)
        eng.run()
        assert order == ["early", "b", "d", "c", "f", "a", "e"]

    def test_cancelled_head_and_buried_events_are_skipped(self):
        eng = SimulationEngine()
        fired = []
        events = [
            eng.at(t, lambda e, t=t: fired.append(t)) for t in range(1, 7)
        ]
        events[0].cancel()  # the heap head
        events[3].cancel()  # buried
        eng.run_until(3)
        assert fired == [2, 3]
        events[4].cancel()  # the new head, before run_until reaches it
        eng.run()
        assert fired == [2, 3, 6]
        assert eng.processed == 3

    def test_pending_stays_exact(self):
        eng = SimulationEngine()
        events = [eng.at(t, lambda e: None) for t in (1, 2, 3, 4)]
        assert eng.pending == 4
        events[2].cancel()
        events[2].cancel()  # idempotent
        assert eng.pending == 3
        eng.step()
        assert eng.pending == 2
        eng.run_until(3)
        assert eng.pending == 1
        eng.run()
        assert eng.pending == 0

    def test_cancel_after_firing_is_a_noop(self):
        eng = SimulationEngine()
        first = eng.at(1, lambda e: None)
        eng.at(2, lambda e: None)
        eng.step()
        first.cancel()
        assert not first.cancelled
        assert eng.pending == 1
        eng.run()
        assert eng.processed == 2


class TestTelemetry:
    def test_observed_is_clipped_at_allocation(self):
        rec = TelemetryRecorder(noise_std=0.0, seed=0)
        obs = rec.record(0, "s", rv(gpu=80), rv(gpu=50))
        assert obs.gpu == 50

    def test_noise_is_bounded_and_deterministic(self):
        a = TelemetryRecorder(noise_std=1.0, seed=3).record(0, "s", rv(gpu=50), rv(gpu=100))
        b = TelemetryRecorder(noise_std=1.0, seed=3).record(0, "s", rv(gpu=50), rv(gpu=100))
        assert a == b
        assert 0 <= a.gpu <= 100

    def test_observed_window_needs_full_window(self):
        rec = TelemetryRecorder(noise_std=0.0)
        for t in range(4):
            rec.record(t, "s", rv(gpu=10), rv(gpu=100))
        assert rec.observed_window("s", 5) is None
        rec.record(4, "s", rv(gpu=10), rv(gpu=100))
        win = rec.observed_window("s", 5)
        np.testing.assert_allclose(win, [0, 10, 0, 0])

    @pytest.mark.parametrize("seconds", [0, -1, -3])
    def test_observed_window_rejects_nonpositive_seconds(self, seconds):
        rec = TelemetryRecorder(noise_std=0.0)
        for t in range(6):
            rec.record(t, "s", rv(gpu=10 * t), rv(gpu=100))
        with pytest.raises(ValueError, match="seconds must be >= 1"):
            rec.observed_window("s", seconds)

    def test_series_roundtrip(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(7, "s", rv(cpu=30), rv(cpu=20))
        demand = rec.true_demand_series("s")
        usage = rec.true_usage_series("s")
        alloc = rec.allocation_series("s")
        assert demand.column("cpu")[0] == 30
        assert usage.column("cpu")[0] == 20
        assert alloc.column("cpu")[0] == 20
        assert demand.start == 7.0

    def test_total_usage_matrix_sums_sessions(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(0, "a", rv(gpu=30), rv(gpu=100))
        rec.record(0, "b", rv(gpu=40), rv(gpu=100))
        total = rec.total_usage_matrix(2)
        assert total[0, 1] == 70
        assert total[1, 1] == 0

    def test_peak_total(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(0, "a", rv(gpu=30), rv(gpu=100))
        rec.record(1, "a", rv(gpu=90), rv(gpu=100))
        assert rec.peak_total_usage(2)[1] == 90

    def test_missing_session(self):
        with pytest.raises(KeyError):
            TelemetryRecorder().observed_series("ghost")


#: Observed rows: percentages with both signed zeros among them.
_rows = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 100.0]),
            st.floats(0.0, 100.0, allow_nan=False),
        ),
        min_size=4, max_size=4,
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=_rows)
def test_observed_window_is_numpy_mean_of_kept_rows(data, rows):
    """The running window equals ``np.mean(rows[valid], axis=0)`` bit for
    bit: dropout NaN rows masked, signed zeros kept, ``None`` for an
    all-dropped window or one longer than the history."""
    n = len(rows)
    dropped = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    seconds = data.draw(st.integers(1, n + 3))
    rec = TelemetryRecorder(noise_std=0.0)
    for t, lost in enumerate(dropped):
        if lost:
            rec.add_perturbation(
                TelemetryPerturbation(kind="dropout", start=t, end=t + 1)
            )
    for t, row in enumerate(rows):
        # Under a 100 % ceiling the noise-free observation is the row.
        rec.record(t, "s", ResourceVector.from_array(row),
                   ResourceVector.full(100.0))
    got = rec.observed_window("s", seconds)
    kept = np.array(rows)[-seconds:][~np.array(dropped)[-seconds:]]
    if seconds > n or not len(kept):
        assert got is None
    else:
        assert got.tobytes() == np.mean(kept, axis=0).tobytes()


def _perturbations():
    """A dropout on one session and noise with spikes on another, each
    with its own seeded stream (fresh objects per call)."""
    return [
        TelemetryPerturbation(kind="dropout", start=40, end=160, rate=0.4,
                              session="b", seed=5),
        TelemetryPerturbation(kind="noise", start=90, end=230, std=3.0,
                              spike_prob=0.2, session="c", seed=6),
    ]


def _reference_rows(samples, *, noise_std, seed, perturbations):
    """Observed rows of the per-record algorithm: one
    ``normal(scale=noise_std, size=4)`` draw per noisy sample."""
    from repro.util.rng import as_rng

    rng = as_rng(seed)
    rows = {}
    for time, sid, demand, allocation in samples:
        usage = [x if x < y else y for x, y in zip(demand, allocation)]
        if noise_std > 0:
            noise = rng.normal(scale=noise_std, size=4).tolist()
            usage = [u + n for u, n in zip(usage, noise)]
        row = np.array(
            [100.0 if x > 100.0 else 0.0 if x < 0.0 else x for x in usage]
        )
        for pert in perturbations:
            if row is not None and pert.applies(time, sid):
                row = pert.apply(row)
        if row is None:
            row = np.full(4, np.nan)
        rows.setdefault(sid, []).append(np.clip(row, 0.0, 100.0))
    return {sid: np.array(r) for sid, r in rows.items()}


def _reference_digest(rec):
    """The session part of :meth:`TelemetryRecorder.digest`, one rounded
    row per ``update`` (the recorder hashes a drop-free matrix at once)."""
    import hashlib

    h = hashlib.sha256()
    for sid in sorted(rec._columns):
        cols = rec._columns[sid]
        h.update(sid.encode())
        h.update(np.array(cols.times, dtype=np.int64).tobytes())
        h.update(np.asarray(cols.valid, dtype=np.bool_).tobytes())
        observed = np.array(cols.observed).reshape(-1, N_DIMS)
        for row, ok in zip(np.round(observed, 6), cols.valid):
            h.update(row.tobytes() if ok else b"<dropped>")
    return h.hexdigest()


@pytest.mark.parametrize("noise_std", [0.8, 2.5, 0.0])
@pytest.mark.parametrize("perturbed", [False, True])
def test_block_drawn_noise_matches_per_record_draws(noise_std, perturbed):
    """Over 900 noisy samples — more than three blocks of draws — the
    recorder's observed rows equal the per-record reference bit for bit."""
    gen = np.random.default_rng(2)
    samples = [
        (t, sid, tuple(gen.uniform(0, 110, 4)), tuple(gen.uniform(0, 100, 4)))
        for t in range(300) for sid in ("a", "b", "c")
    ]
    rec = TelemetryRecorder(noise_std=noise_std, seed=17)
    for pert in _perturbations() if perturbed else []:
        rec.add_perturbation(pert)
    for time, sid, demand, allocation in samples:
        rec.record(time, sid, ResourceVector.from_array(demand),
                   ResourceVector.from_array(allocation))
    want = _reference_rows(
        samples, noise_std=noise_std, seed=17,
        perturbations=_perturbations() if perturbed else [],
    )
    assert rec.session_ids == list(want)
    for sid, rows in want.items():
        assert rec.observed_series(sid).values.tobytes() == rows.tobytes()
    if perturbed:
        assert 0 < rec.dropped_samples < 300
    # No fault or gateway event: the digest is the sessions' part alone.
    assert rec.digest() == _reference_digest(rec)


def _clipped_percent(values):
    """The deleted ``resources._clipped_percent``: 4 floats clipped to [0, 100]."""
    return ResourceVector.from_array(
        [100.0 if x > 100.0 else 0.0 if x < 0.0 else x for x in values])


class ReferenceRecorder(TelemetryRecorder):
    """``TelemetryRecorder.record`` as it was before it was unrolled over
    the four dimensions: a vector minimum, a noise slice and a clip."""

    def record(self, time, session_id, demand, allocation):
        cols = self._columns[session_id]
        d, a = demand.values, allocation.values
        cols.times.append(int(time))
        cols.demand.extend(d)
        cols.allocation.extend(a)
        if self.noise_std > 0:
            i = self._noise_at
            if i == len(self._noise):
                z = self._rng.standard_normal(_NOISE_BLOCK)
                self._noise = (0.0 + self.noise_std * z).tolist()
                i = 0
            self._noise_at = i + N_DIMS
            noise = self._noise[i:i + N_DIMS]
            observed = _clipped_percent([
                (x if x < y else y) + n for x, y, n in zip(d, a, noise)
            ])
            row = observed.values
        else:
            observed = demand.minimum(allocation)
            row = observed.clip(0.0, 100.0).values
        perturbed = None
        valid = True
        for pert in self._perturbations:
            if not pert.applies(time, session_id):
                continue
            perturbed = pert.apply(observed.array if perturbed is None else perturbed)
            if perturbed is None:
                valid = False
                break
        if not valid:
            self.dropped_samples += 1
            row = _DROPPED_ROW
        elif perturbed is not None:
            row = np.clip(perturbed, 0.0, 100.0).tolist()
        cols.observed.extend(row)
        cols.valid.append(valid)
        return observed


#: A recorded component: signed zeros, the 0/100 edges and beyond 100.
_component = st.one_of(
    st.sampled_from([0.0, -0.0, 100.0, 130.0]),
    st.floats(0.0, 120.0, allow_nan=False),
)
_sample = st.tuples(
    st.sampled_from(["a", "b"]),
    st.lists(_component, min_size=4, max_size=4),
    st.lists(_component, min_size=4, max_size=4),
)
#: Fresh perturbations by name; every window covers times 0..79.
_PERTURBATIONS = {
    "dropout": lambda: TelemetryPerturbation(
        kind="dropout", start=0, end=80, rate=0.3, session="a", seed=3),
    "noise": lambda: TelemetryPerturbation(
        kind="noise", start=5, end=80, std=2.0, seed=4),
    "spike": lambda: TelemetryPerturbation(
        kind="noise", start=0, end=60, spike_prob=0.5, session="b", seed=5),
}


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(_sample, min_size=1, max_size=80),
    noise_std=st.sampled_from([0.0, 0.8, 40.0]),
    installed=st.lists(st.sampled_from(sorted(_PERTURBATIONS)), unique=True),
)
def test_unrolled_record_matches_the_reference(samples, noise_std, installed):
    """Stored columns and returned observations equal the pre-unrolling
    ``record`` bit for bit, noise draws and perturbations included."""
    recorders = []
    for cls in (TelemetryRecorder, ReferenceRecorder):
        rec = cls(noise_std=noise_std, seed=9)
        for name in installed:
            rec.add_perturbation(_PERTURBATIONS[name]())
        recorders.append(rec)
    fast, slow = recorders
    for t, (sid, demand, allocation) in enumerate(samples):
        d = ResourceVector.from_array(demand)
        a = ResourceVector.from_array(allocation)
        got, want = fast.record(t, sid, d, a), slow.record(t, sid, d, a)
        assert got.array.tobytes() == want.array.tobytes()
    assert fast.session_ids == slow.session_ids
    for sid in slow.session_ids:
        f, s = fast._columns[sid], slow._columns[sid]
        for column in ("times", "demand", "allocation", "observed"):
            assert getattr(f, column).tobytes() == getattr(s, column).tobytes()
        assert f.valid == s.valid
    assert fast.dropped_samples == slow.dropped_samples
    assert ([p.hits for p in fast._perturbations]
            == [p.hits for p in slow._perturbations])
