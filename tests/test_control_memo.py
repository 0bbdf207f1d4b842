"""Differential checks of the control plane's memos and float arithmetic.

:class:`AllocationPlanner` memoizes its plans, :class:`StageLibrary` its
whole-game peak and :class:`StagePredictor` its next-stage answers; the
:class:`Allocator` computes budgets on plain floats.  Each is checked
here against the uncached computation it replaced: a fresh planner, a
straight-line single-row inference, and the :class:`ResourceVector`
formula of the allocator — bit for bit (``float.hex``), so a signed zero
or a last-bit difference fails.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationPlanner
from repro.core.pipeline import GameProfile
from repro.core.predictor import PredictorBackendError, StagePredictor
from repro.core.stages import Segment, StageTypeId
from repro.games.category import GameCategory
from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.resources import ResourceVector, _wrap
from repro.platform_.server import CapacityError, Server
from repro.streaming.encoder import EncoderModel


def bits(vec: ResourceVector) -> List[str]:
    return [x.hex() for x in vec.values]


@pytest.fixture(scope="module")
def profiles(catalog, contra_profile, genshin_profile):
    """One trained profile per category: WEB, MOBILE, MMO, CONSOLE."""
    small = {
        name: GameProfile.build(
            catalog[name], n_players=2, sessions_per_player=2, seed=7,
            backends=backends,
        )
        for name, backends in (("dota2", ("dtc", "gbdt")), ("devil_may_cry", ("dtc",)))
    }
    return {"contra": contra_profile, "genshin": genshin_profile, **small}


# ---------------------------------------------------------------------------
# AllocationPlanner
# ---------------------------------------------------------------------------

_planner_ops = st.lists(
    st.one_of(
        st.tuples(st.just("exec"), st.integers(0, 50), st.booleans()),
        st.tuples(st.just("loading")),
        st.tuples(st.just("throttled"), st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0])),
        st.tuples(st.just("peak")),
        st.tuples(st.just("accuracy"), st.floats(0.0, 1.0)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_planner_ops, game=st.sampled_from(["contra", "genshin", "dota2"]),
       encoder=st.booleans())
def test_memoized_plans_equal_a_fresh_planner(profiles, ops, game, encoder):
    library = profiles[game].library
    types = library.stage_types
    options = dict(encoder=EncoderModel() if encoder else None, accuracy=0.8)
    memo = AllocationPlanner(library, **options)
    for op in ops:
        if op[0] == "accuracy":
            memo.set_accuracy(op[1])
            options["accuracy"] = op[1]
            continue
        fresh = AllocationPlanner(library, **options)
        if op[0] == "exec":
            t = types[op[1] % len(types)]
            got = memo.for_execution(t, redundancy=op[2])
            want = fresh.for_execution(t, redundancy=op[2])
        elif op[0] == "loading":
            got, want = memo.for_loading(), fresh.for_loading()
        elif op[0] == "throttled":
            got = memo.throttled_loading(op[1])
            want = fresh.throttled_loading(op[1])
        else:
            got, want = memo.peak_plan(), fresh.peak_plan()
        assert bits(got) == bits(want)


def test_max_peak_is_recomputed_after_new_observations(profiles):
    source = profiles["contra"].library
    library = type(source).from_dict(source.to_dict())  # an independent copy
    before = library.max_peak()
    assert library.max_peak() is before  # served from the memo
    peak = np.full(4, 99.0)
    library.observe_segments(
        [Segment(library.execution_types[0], 0, 4, False, peak, peak, peak)]
    )
    want = np.zeros(4)
    for t in library.stage_types:
        want = np.maximum(want, library.stats(t).peak)
    after = library.max_peak()
    assert bits(after) == bits(ResourceVector.from_array(want))
    assert after != before


# ---------------------------------------------------------------------------
# StagePredictor.predict_next
# ---------------------------------------------------------------------------

def uncached_predict_next(
    predictor: StagePredictor,
    history: Sequence[StageTypeId],
    player_id: Optional[str],
    group_hist: Optional[np.ndarray],
):
    """The single-row inference exactly as it ran before the memo."""
    builder = predictor.builder
    seq = [i for t in history if (i := builder.type_index(t)) is not None]
    if predictor.category is GameCategory.MMO:
        if group_hist is None:
            group_hist = np.zeros(builder.n_types)
    else:
        group_hist = None
    if not seq:
        return predictor.prior_prediction()
    feats = builder.encode_history(seq, len(seq), group_hist=group_hist)
    models = predictor._models
    if predictor.category is GameCategory.MOBILE:
        if player_id is not None and player_id in models:
            model = models[player_id]
        elif predictor._fallback is not None:
            model = predictor._fallback
        else:
            model = next(iter(models.values()))
    else:
        model = models["*"]
    proba = model.predict_proba(feats[None, :])[0]
    best = int(np.argmax(proba))
    return builder.types[int(model.classes_[best])], float(proba[best])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    game=st.sampled_from(["contra", "genshin", "dota2", "devil_may_cry"]),
    backend=st.sampled_from(["dtc", "gbdt"]),
)
def test_memoized_prediction_equals_uncached(profiles, data, game, backend):
    predictors = profiles[game].predictors
    predictor = predictors.get(backend, predictors["dtc"])
    known = list(predictor.builder.types)
    # An unknown type is skipped by the feature encoder.
    pool = known + [StageTypeId([60])]
    players = [None, "ghost"] + sorted(k for k in predictor._models if k != "*")
    calls = data.draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(pool), max_size=30),
            st.sampled_from(players),
            st.sampled_from([None, "zeros", "random"]),
        ),
        min_size=1, max_size=12,
    ))
    for history, player_id, group in calls * 2:  # the second pass hits the memo
        group_hist = None
        if group == "zeros":
            group_hist = np.zeros(predictor.builder.n_types)
        elif group == "random":
            group_hist = np.arange(predictor.builder.n_types, dtype=float)
        got = predictor.predict_next(history, player_id=player_id, group_hist=group_hist)
        want = uncached_predict_next(predictor, history, player_id, group_hist)
        assert got[0] == want[0]
        assert got[1].hex() == want[1].hex()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    game=st.sampled_from(["contra", "genshin", "dota2", "devil_may_cry"]),
)
def test_equal_memo_keys_mean_equal_features(profiles, data, game):
    """The memo key determines the feature vector.  The second history
    shares the first's length and last ``history`` stages but differs
    earlier, so only the clipped per-type counts can tell them apart."""
    predictor = profiles[game].predictors["dtc"]
    builder = predictor.builder
    n = builder.n_types
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    other = list(seq)
    for pos in data.draw(st.lists(st.integers(0, len(seq) - 1), max_size=12)):
        if pos < len(seq) - builder.history:
            other[pos] = data.draw(st.integers(0, n - 1))
    group = np.zeros(n) if game == "dota2" else None
    for a, b in ((seq, other), (seq, seq[: len(seq) // 2 + 1])):
        same_key = (predictor._feature_key("*", a, group)
                    == predictor._feature_key("*", b, group))
        fa = builder.encode_history(a, len(a), group_hist=group)
        fb = builder.encode_history(b, len(b), group_hist=group)
        assert same_key == (fa.tobytes() == fb.tobytes())


def test_injected_failure_raises_after_a_memo_hit(profiles):
    predictor = profiles["contra"].predictors["dtc"]
    history = predictor.builder.types[:2]
    answer = predictor.predict_next(history)
    assert predictor.predict_next(history) == answer  # memo hit
    predictor.inject_failure(True)
    try:
        with pytest.raises(PredictorBackendError):
            predictor.predict_next(history)
    finally:
        predictor.inject_failure(False)
    assert predictor.predict_next(history) == answer


# ---------------------------------------------------------------------------
# Allocator budgets on floats
# ---------------------------------------------------------------------------

def reference_budget(allocator: Allocator, gpu_index: int) -> ResourceVector:
    """``capped_available`` as the ResourceVector formula it replaced."""
    server = allocator.server
    used = server.capacity_vector(gpu_index) - server.available(gpu_index)
    return (allocator.capped_capacity(gpu_index) - used).clip(lo=0.0)


def reference_retune_clamped(
    allocator: Allocator, session_id: str, allocation: ResourceVector
) -> ResourceVector:
    """The granted ceiling of ``retune_clamped`` by the vector formula."""
    placement = allocator.server.placements[session_id]
    budget = (
        reference_budget(allocator, placement.gpu_index) + placement.allocation
    ).clip(lo=0.0)
    return allocation.minimum(budget).clip(lo=0.0)


_component = st.one_of(
    st.sampled_from([0.0, -0.0, 47.5, 50.0, 100.0]),
    st.floats(0.0, 100.0, allow_nan=False),
)
_vector = st.lists(_component, min_size=4, max_size=4).map(ResourceVector.from_array)


@settings(max_examples=150, deadline=None)
@given(
    held=st.lists(st.tuples(_vector, st.integers(0, 1)), min_size=1, max_size=4),
    requests=st.lists(st.tuples(st.integers(0, 3), _vector), min_size=1, max_size=8),
    cap=st.sampled_from([0.5, 0.9, 0.95]),
)
def test_float_budget_matches_the_vector_formula(held, requests, cap):
    server = Server("s")
    allocator = Allocator(server, utilization_cap=cap)
    placed = []
    for i, (vec, gi) in enumerate(held):
        # Placed on the server directly, so the cap can be oversubscribed
        # and some budgets clip to zero.
        vec = vec * 0.25
        if server.fits(vec, gi):
            server.place(f"s{i}", gi, vec)
            placed.append(f"s{i}")
    for gi in range(server.n_gpus):
        assert bits(allocator.capped_available(gi)) == bits(reference_budget(allocator, gi))
    if not placed:
        return
    for which, request in requests:
        sid = placed[which % len(placed)]
        placement = server.placements[sid]
        budget = (
            reference_budget(allocator, placement.gpu_index) + placement.allocation
        ).clip(lo=0.0)
        if request.fits_within(budget):
            allocator.retune(sid, request)
            assert allocator.allocation_of(sid) is request
        else:
            with pytest.raises(AllocationError):
                allocator.retune(sid, request)
        want = reference_retune_clamped(allocator, sid, request)
        assert bits(allocator.retune_clamped(sid, request)) == bits(want)
        assert bits(allocator.allocation_of(sid)) == bits(want)


# ---------------------------------------------------------------------------
# One allocator pass per control cycle
# ---------------------------------------------------------------------------

def reference_retune_clamped_call(
    allocator: Allocator, session_id: str, allocation: ResourceVector,
    *, time: float = 0.0,
) -> ResourceVector:
    """``Allocator.retune_clamped`` as it was before the one-pass grant:
    the budget from ``Server.available``, then the server's own checks."""
    server = allocator.server
    placement = allocator._placement(session_id)
    gi, cap = placement.gpu_index, allocator.utilization_cap
    free = server.available(gi).values
    out = [max(c * cap - (c - a), 0.0)
           for c, a in zip(server.capacity_vector(gi).values, free)]
    budget = [max(x + h, 0.0) for x, h in zip(out, placement.allocation.values)]
    granted = ResourceVector.from_array(
        [max(a if a < b else b, 0.0) for a, b in zip(allocation.values, budget)])
    server.set_allocation(session_id, granted)
    allocator._audit(time, "retune", placement, granted)
    return granted


def _state(allocator: Allocator) -> tuple:
    """Ceilings, audit trail and summed totals, every float by its bits."""
    server = allocator.server
    cpu, ram, devices = server._totals()
    return (
        {sid: bits(p.allocation) for sid, p in server.placements.items()},
        [(e.time, e.action, e.session_id, e.gpu_index, bits(e.allocation))
         for e in allocator.events],
        [float(x).hex() for x in (cpu, ram, *(v for dev in devices for v in dev))],
    )


def _twin_allocators(held, cap, shrink):
    """Two allocators over equal servers holding the same placements;
    ``shrink`` then lowers GPU 0's core capacity under what it holds."""
    twins = []
    for _ in range(2):
        server = Server("s")
        allocator = Allocator(server, utilization_cap=cap)
        for i, (vec, gi) in enumerate(held):
            # Placed on the server directly, so the cap can be
            # oversubscribed and some budgets clip to zero.
            vec = vec * 0.3
            if server.fits(vec, gi):
                server.place(f"s{i}", gi, vec)
        if shrink is not None:
            server.gpus[0].gpu_capacity = shrink
        twins.append(allocator)
    return twins


def _apply(run, cycle):
    """``None`` once ``run(cycle)`` returns, or the ``CapacityError`` it raised."""
    try:
        run(cycle)
    except CapacityError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    held=st.lists(st.tuples(_vector, st.integers(0, 1)), min_size=1, max_size=5),
    cycles=st.lists(
        st.lists(st.tuples(st.integers(0, 4), _vector), min_size=1, max_size=6),
        min_size=1, max_size=4),
    cap=st.sampled_from([0.5, 0.9, 0.95]),
    shrink=st.one_of(st.none(), st.floats(1.0, 60.0)),
)
def test_one_pass_grant_equals_sequential_retune_clamped(held, cycles, cap, shrink):
    """Each cycle's one-pass grant leaves what sequential calls of the old
    ``retune_clamped`` leave: bit-identical ceilings and totals, equal
    audit events in equal order, and the same refusal on an overcommit."""
    fast, slow = _twin_allocators(held, cap, shrink)
    sids = list(fast.server.placements)
    if not sids:
        return
    for t, cycle in enumerate(cycles):
        grants = [(sids[k % len(sids)], vec.values) for k, vec in cycle]

        def sequential(grants, t=t):
            for sid, vec in grants:
                reference_retune_clamped_call(slow, sid, _wrap(vec), time=t)

        got = _apply(lambda g: fast.retune_all_clamped(g, time=t), grants)
        assert got == _apply(sequential, grants)
        assert _state(fast) == _state(slow)


def test_one_pass_grant_rolls_back_an_overcommitted_grant():
    server = Server("s")
    allocator = Allocator(server)
    allocator.place("a", ResourceVector(cpu=10, gpu=40), gpu_index=0)
    allocator.place("b", ResourceVector(cpu=10, gpu=40), gpu_index=0)
    server.gpus[0].gpu_capacity = 50.0  # the device now holds 80 of 50
    before = _state(allocator)
    with pytest.raises(CapacityError):
        allocator.retune_all_clamped(
            [("a", (10.0, 15.0, 0.0, 0.0)), ("b", (10.0, 5.0, 0.0, 0.0))])
    assert _state(allocator) == before  # "a" rolled back, "b" never reached
    # A shrink that clears the overcommit lands, and the next grant's
    # budget reads the totals it left: 50 × 0.95 − 45 + 40 held.
    allocator.retune_all_clamped(
        [("a", (10.0, 5.0, 0.0, 0.0)), ("b", (10.0, 45.0, 0.0, 0.0))], time=7.0)
    assert _state(allocator)[0] == {"a": bits(ResourceVector(cpu=10, gpu=5)),
                                    "b": bits(ResourceVector(cpu=10, gpu=42.5))}
    assert [(e.time, e.session_id) for e in allocator.events[-2:]] == [
        (7.0, "a"), (7.0, "b")]
