"""Serving-scale benchmark: micro-batched + memoized vs naive admission.

Drives ≥100k open-loop requests through the *real* serve stack —
:class:`~repro.serve.gateway.AdmissionGateway`,
:class:`~repro.serve.batching.MicroBatcher`,
:class:`~repro.core.distributor.Distributor` — over synthetic nodes
whose running tasks count every predictor rollout they are asked for.
Real game sessions would spend the benchmark's budget simulating frames;
the synthetic tasks keep the admission arithmetic (and its cost
structure) while making the rollout count the only moving part.

Claims checked (the ISSUE's acceptance bar):

* the batched gateway, whose tasks memoize one rollout per epoch like
  ``SessionControl``, performs **≥ 5× fewer** predictor rollout
  evaluations than naive per-request ``ClusterScheduler.dispatch``
  over memo-less tasks;
* admission outcomes are **identical** — the gateway telemetry digests
  of both modes match event for event;
* replays are digest-stable — the batched run repeated from the same
  seed reproduces its digest byte for byte.

The decision-count stats land in ``BENCH_serve.json`` (the CI
``serve-smoke`` artifact).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cluster.fleet import ClusterScheduler, NodeHealth
from repro.core.distributor import Distributor
from repro.platform_.resources import N_DIMS, ResourceVector
from repro.serve import AdmissionGateway, GatewayConfig
from repro.serve.loadgen import OpenLoopLoadGen


def uniform(value):
    """A ResourceVector with every dimension at ``value``."""
    return ResourceVector.from_array([value] * N_DIMS)

SEED = 17
HORIZON = 2000          # simulated seconds
RATE_PER_SECOND = 55.0  # arrivals — ~110k requests over the horizon
PUMP_INTERVAL = 5
N_NODES = 3
DIST_HORIZON = 3
GAMES = ("contra", "dota2", "genshin", "csgo")
MIN_REQUESTS = 100_000
MIN_RATIO = 5.0


class SyntheticTask:
    """A running task whose rollout cost is observable.

    Implements the distributor's ``RunningTaskView``.  With ``memo`` it
    keeps ``SessionControl``'s discipline — one memoized rollout per
    horizon, dropped by :meth:`invalidate_rollouts` at every epoch
    change; every unmemoized ``predicted_peaks`` call counts one rollout
    evaluation.
    """

    def __init__(self, alloc, peak, end_time, counter, memo):
        self.end_time = end_time
        self._alloc = alloc
        self._peak = peak
        self._counter = counter
        self._peaks_cache = {} if memo else None

    @property
    def current_allocation(self):
        return self._alloc

    def invalidate_rollouts(self):
        if self._peaks_cache is not None:
            self._peaks_cache.clear()

    def predicted_peaks(self, horizon):
        if self._peaks_cache is not None and horizon in self._peaks_cache:
            return self._peaks_cache[horizon]
        self._counter.rollouts += 1
        peaks = [self._peak] * horizon
        if self._peaks_cache is not None:
            self._peaks_cache[horizon] = peaks
        return peaks


class SyntheticScheduler:
    """The duck-typed CoCG surface the micro-batcher probes for."""

    def __init__(self, capacity, memo):
        self.distributor = Distributor(capacity, horizon=DIST_HORIZON)
        self.memo = memo
        self.tasks = []  # lint: disable=CG009 - bounded by admission capacity
        self._batch = None

    def task_views(self):
        return list(self.tasks)

    def admission_batch(self):
        """One Algorithm-1 snapshot per running set, as ``CoCGScheduler``
        keeps; :meth:`set_tasks` drops it."""
        if self._batch is None:
            self._batch = self.distributor.begin_batch(self.tasks)
        return self._batch

    def set_tasks(self, tasks):
        self.tasks = tasks
        self._batch = None

    def admission_terms(self, profile):
        return profile.entry_min, profile.steady


class SyntheticNode:
    """Duck-types the ``FleetNode`` surface cluster dispatch uses."""

    def __init__(self, node_id, profiles, counter, memo):
        self.node_id = node_id
        self.health = NodeHealth.UP
        self.profiles = profiles
        self._counter = counter
        self.strategy = SimpleNamespace(
            scheduler=SyntheticScheduler(uniform(95.0), memo)
        )

    def try_admit(self, request, *, time, seed, incarnation=0):
        sched = self.strategy.scheduler
        profile = self.profiles.get(request.spec.name)
        if profile is None:
            return False
        decision = sched.distributor.can_admit(
            profile.entry_min, profile.steady, sched.task_views()
        )
        if not decision.admitted:
            return False
        duration = 45.0 + (request.request_id % 60)
        sched.set_tasks(sched.tasks + [
            SyntheticTask(
                profile.steady, profile.steady, time + duration,
                self._counter, sched.memo,
            )
        ])
        return True

    def headroom(self):
        return 1.0 - min(1.0, len(self.strategy.scheduler.tasks) / 4.0)

    def advance(self, time):
        """Expire finished tasks and start a new epoch for survivors (the
        stand-in for a control tick's stage transitions)."""
        sched = self.strategy.scheduler
        keep = []
        for task in sched.tasks:
            if task.end_time > time:
                task.invalidate_rollouts()
                keep.append(task)
        sched.set_tasks(keep)


def synthetic_profiles(specs):
    """Per-game admission terms: heavy enough that nodes saturate."""
    out = {}
    for k, spec in enumerate(specs):
        steady = 24.0 + 4.0 * (k % 3)
        out[spec.name] = SimpleNamespace(
            entry_min=uniform(6.0),
            steady=uniform(steady),
        )
    return out


@pytest.fixture(scope="module")
def loadgen():
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    specs = [catalog[name] for name in GAMES]
    gen = OpenLoopLoadGen(
        specs,
        rate_per_second=RATE_PER_SECOND,
        seed=SEED,
        horizon=float(HORIZON),
        player_pool=16,
    )
    assert len(gen) >= MIN_REQUESTS
    return gen


def naive_dispatch(cluster, entry, *, time, seed_for):
    """The reference: per-request ``ClusterScheduler.dispatch``, with the
    batcher's ``dispatch_one`` signature."""
    return cluster.dispatch(
        entry.request,
        time=time,
        seed=seed_for(entry.request, entry.incarnation),
        incarnation=entry.incarnation,
    )


def drive(loadgen, *, batched, horizon=HORIZON):
    """One full gateway run; returns (gateway, counter).

    ``batched=False`` is the naive reference: the gateway dispatches each
    request through ``ClusterScheduler.dispatch`` and tasks memoize
    nothing.  ``horizon`` lets callers shorten the run.
    """
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    specs = [catalog[name] for name in GAMES]
    profiles = synthetic_profiles(specs)
    counter = SimpleNamespace(rollouts=0)
    nodes = [
        SyntheticNode(f"node-{i}", profiles, counter, memo=batched)
        for i in range(N_NODES)
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(
        cluster,
        config=GatewayConfig(
            queue_capacity=48,
            rate_per_second=4.0,
            burst=24,
            max_queue_seconds=120.0,
        ),
    )
    if not batched:
        gateway.batcher.dispatch_one = naive_dispatch
    cluster.attach_gateway(gateway)

    def seed_for(request, incarnation):
        return 0  # synthetic tasks draw nothing

    prev = 0.0
    for t in range(0, horizon, PUMP_INTERVAL):
        now = float(t)
        for node in nodes:
            node.advance(now)
        for request in loadgen.due(prev, now + 1e-9):
            cluster.submit(request, time=now)
        prev = now + 1e-9
        gateway.pump(now, seed_for)
    return gateway, counter


def test_serve_throughput(loadgen):
    naive_gw, naive_counter = drive(loadgen, batched=False)
    batched_gw, batched_counter = drive(loadgen, batched=True)
    replay_gw, replay_counter = drive(loadgen, batched=True)

    # Identical admission outcomes: the gateway event streams (queued /
    # shed / admitted@node / dead-lettered, in order) must match.
    assert (
        naive_gw.telemetry.digest() == batched_gw.telemetry.digest()
    ), "batched dispatch changed admission outcomes"
    assert naive_gw.stats() == batched_gw.stats()

    # Digest-stable replay: same seed, same digest, same work.
    assert batched_gw.telemetry.digest() == replay_gw.telemetry.digest()
    assert batched_counter.rollouts == replay_counter.rollouts

    ratio = naive_counter.rollouts / max(1, batched_counter.rollouts)
    stats = {
        "requests": len(loadgen),
        "rollouts_naive": naive_counter.rollouts,
        "rollouts_batched": batched_counter.rollouts,
        "rollout_ratio": round(ratio, 2),
        "gateway": batched_gw.stats(),
        "batching": batched_gw.batcher.stats(),
        "digest": batched_gw.telemetry.digest(),
        "slo": {
            s.category: {
                "count": s.count,
                "outcomes": s.outcomes,
                "wait_p50": s.wait_p50,
                "wait_p90": s.wait_p90,
                "wait_p99": s.wait_p99,
            }
            for s in batched_gw.slo.summaries()
        },
    }
    Path("BENCH_serve.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    print(f"\nrequests driven:     {stats['requests']:,}")
    print(f"rollouts (naive):    {naive_counter.rollouts:,}")
    print(f"rollouts (batched):  {batched_counter.rollouts:,}")
    print(f"ratio:               {ratio:.1f}x")

    assert stats["requests"] >= MIN_REQUESTS
    assert ratio >= MIN_RATIO, (
        f"expected >= {MIN_RATIO}x fewer rollouts, got {ratio:.2f}x "
        f"({naive_counter.rollouts} vs {batched_counter.rollouts})"
    )
