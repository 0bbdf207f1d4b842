"""Tests for the player model and the runtime game session."""

import hashlib
import struct

import numpy as np
import pytest

from repro.games.category import GameCategory
from repro.games.player import PlayerModel
from repro.games.session import GameSession
from repro.games.spec import ClusterSpec, GameSpec, ScriptSpec, StageKind, StageSpec
from repro.platform_.profile import (
    BIG_SERVER_PLATFORM,
    REFERENCE_PLATFORM,
    WEAK_GPU_PLATFORM,
)
from repro.platform_.resources import ResourceVector


FULL = ResourceVector.full(100.0)


class TestPlayerModel:
    def test_preferred_order_is_stable(self):
        p = PlayerModel("alice", GameCategory.MOBILE)
        assert p.preferred_order((3, 5, 7)) == p.preferred_order((3, 5, 7))

    def test_preferred_order_is_permutation(self):
        p = PlayerModel("bob", GameCategory.MOBILE)
        assert sorted(p.preferred_order((3, 5, 7))) == [3, 5, 7]

    def test_different_players_have_different_preferences(self):
        orders = {
            PlayerModel(f"p{i}", GameCategory.MOBILE).preferred_order((0, 1, 2))
            for i in range(12)
        }
        assert len(orders) > 1

    def test_realized_order_mostly_preferred_for_console(self, rng):
        p = PlayerModel("carol", GameCategory.CONSOLE)
        pref = p.preferred_order((0, 1))
        same = sum(p.realized_order((0, 1), rng) == pref for _ in range(200))
        assert same > 150

    def test_web_durations_are_tight(self, rng):
        p = PlayerModel("dave", GameCategory.WEB)
        mults = [p.duration_multiplier(1.0, rng) for _ in range(200)]
        assert np.std(mults) < 0.1

    def test_mobile_durations_vary_more_than_web(self, rng):
        web = PlayerModel("w", GameCategory.WEB)
        mob = PlayerModel("m", GameCategory.MOBILE)
        sw = np.std([web.duration_multiplier(1.0, rng) for _ in range(300)])
        sm = np.std([mob.duration_multiplier(1.0, rng) for _ in range(300)])
        assert sm > sw

    def test_zero_duration_scale_pins(self, rng):
        p = PlayerModel("e", GameCategory.MMO)
        assert p.duration_multiplier(0.0, rng) == 1.0

    def test_bursts_eventually_happen(self, rng):
        p = PlayerModel("f", GameCategory.MMO)
        bursts = [b for _ in range(5000) if (b := p.maybe_burst(rng))]
        assert bursts
        for b in bursts:
            assert b.extra.is_nonnegative()
            assert b.remaining >= 1

    def test_burst_tick_expires(self):
        from repro.games.player import BurstEvent

        b = BurstEvent(ResourceVector(gpu=5), 2)
        assert b.active
        b = b.tick().tick()
        assert not b.active


class TestGameSession:
    def test_runs_to_completion(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=0)
        ticks = 0
        while not s.finished:
            s.advance(FULL)
            ticks += 1
            assert ticks < 10_000
        assert s.finished
        # history covers the full timeline contiguously
        assert s.history[0][1] == 0
        assert s.history[-1][2] == s.elapsed

    def test_stage_order_matches_script_without_permutation(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=1)
        assert s.resolved_stage_names == ("boot", "quiet", "mid", "heavy", "exit")

    def test_starts_in_loading(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=0)
        assert s.is_loading
        assert s.current_stage.name == "boot"

    def test_demand_stays_in_bounds(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=2)
        while not s.finished:
            tick = s.advance(FULL)
            assert tick.demand.is_nonnegative()
            assert tick.demand.fits_within(FULL)

    def test_loading_stretches_under_starvation(self, toy_spec):
        fast = GameSession(toy_spec, "full", seed=3)
        slow = GameSession(toy_spec, "full", seed=3)
        starved = ResourceVector(cpu=10, gpu=100, gpu_mem=100, ram=100)

        def boot_seconds(session, alloc):
            n = 0
            while not session.finished and session.current_stage.name == "boot":
                session.advance(alloc)
                n += 1
            return n

        assert boot_seconds(slow, starved) > boot_seconds(fast, FULL) * 2

    def test_execution_progresses_regardless_of_supply(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=4)
        while s.is_loading:
            s.advance(FULL)
        start = s.elapsed
        zero = ResourceVector.zeros()
        # Starved play still advances wall time and eventually ends.
        while not s.finished and s.current_stage.name == "quiet":
            s.advance(zero)
            assert s.elapsed - start < 500
        assert True

    def test_advance_after_finish_raises(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=5)
        while not s.finished:
            s.advance(FULL)
        with pytest.raises(RuntimeError):
            s.advance(FULL)

    def test_usage_is_demand_clipped(self, toy_spec):
        s = GameSession(toy_spec, "full", seed=6)
        tick = s.advance(ResourceVector(cpu=5, gpu=5, gpu_mem=5, ram=5))
        usage = tick.usage(ResourceVector(cpu=5, gpu=5, gpu_mem=5, ram=5))
        assert usage.fits_within(ResourceVector.full(5.0))

    def test_reproducible_under_seed(self, toy_spec):
        a = GameSession(toy_spec, "full", seed=9)
        b = GameSession(toy_spec, "full", seed=9)
        for _ in range(30):
            ta, tb = a.advance(FULL), b.advance(FULL)
            assert ta.demand == tb.demand
            assert ta.stage_name == tb.stage_name

    def test_random_script_selection_is_seeded(self, catalog):
        a = GameSession(catalog["contra"], None, seed=11)
        b = GameSession(catalog["contra"], None, seed=11)
        assert a.script.name == b.script.name

    def test_genshin_permutation_respects_player(self, catalog):
        spec = catalog["genshin"]
        player = PlayerModel("perma", GameCategory.MOBILE)
        orders = set()
        for seed in range(6):
            s = GameSession(spec, "run-battle-fly", player=player, seed=seed)
            orders.add(s.resolved_stage_names)
        # Mostly the player's preferred order → few distinct realizations.
        assert len(orders) <= 3

    def test_frame_lock_propagates(self, catalog):
        s = GameSession(catalog["genshin"], "run-battle-fly", seed=0)
        tick = s.advance(FULL)
        assert tick.frame_lock == 60


# ----------------------------------------------------------------------
# Bit-exact demand streams on non-unit platforms
# ----------------------------------------------------------------------
#: sha256 of 600 s of demand per (game, platform), captured before the
#: resource substrate moved from numpy arrays to float tuples.  Any
#: change to float operation order in demand sampling, platform scaling
#: or clipping shows up here: the corpus traces all run on the
#: reference platform, whose unit factors hide it.
DEMAND_STREAM_SHA256 = {
    ('contra', 'i7-7700+gtx2080'): "ea8f99ee722399140463d0d6fc9c189da635b4cc579022b3cd2bf3263f52338a",
    ('csgo', 'i7-7700+gtx2080'): "d98aa417ddc5c8a6fd1ff22ec6c37f23c52936ffa08b9a3eae348eee8e54e9b5",
    ('devil_may_cry', 'i7-7700+gtx2080'): "27d51db44eaecf3374504036354900f89e004b80d8635f4684b16a9223099afc",
    ('dota2', 'i7-7700+gtx2080'): "74a56dfb561236635c0271bd1e2c866a42e0cdbed74e5955b39f0b414104835c",
    ('genshin', 'i7-7700+gtx2080'): "2e8412cc6624e6209b650a6381a7002d92ba690fb2ae2c76ad23e2c202abdea0",
    ('contra', 'weak-gpu'): "b40c113cd6f88ad04ac94883a3dbf055826ee24965e6dae10897389e89877730",
    ('csgo', 'weak-gpu'): "32270a8c32a8bcafdb61e9489df215979068134a8a3a3801d6eb7eb1187cd176",
    ('devil_may_cry', 'weak-gpu'): "5a98b41e043865c3ea81d10298ec76e2be089116fe44518329beed15e4b52cb7",
    ('dota2', 'weak-gpu'): "84e404179ebff76923b6d2b1356ab33a28cd10fb2d4e81b7ca0aa30998152c11",
    ('genshin', 'weak-gpu'): "2bbfde65b45eaca851dc00530c946a222a76b9b45cfec517358fa185d279ae4b",
    ('contra', 'big-server'): "7a7525ddf6b4d8721b0d88d0b5c3f8204a47e840934b8cb473ff12cecb844875",
    ('csgo', 'big-server'): "33c55ee9d841ebfbf136e27f6020b31bd17ab5837f35dcce0047e3540d8080b5",
    ('devil_may_cry', 'big-server'): "a60d9d83b3269735faf26a553acb9df6000aaebb204fb11a3317ad34315fbd8e",
    ('dota2', 'big-server'): "6d56526891d4eaa3a49ad5921a958fdc5333a81c013987de42cf2bbea786a833",
    ('genshin', 'big-server'): "b88841f6e3365d232632534eadf02da78f61dd9433e7d11763c1e39493779d17",
}


def demand_stream_digest(spec, platform, seconds=600):
    """sha256 over the raw float64 bytes of ``seconds`` of demand.

    Sessions are replayed back to back (seed 0, 1, …) until the budget
    is spent.  Every third second the CPU ceiling drops to 15 %, so
    loading stages progress at a fractional rate.
    """
    throttled = ResourceVector(cpu=15.0, gpu=100.0, gpu_mem=100.0, ram=100.0)
    h = hashlib.sha256()
    t = 0
    run = 0
    while t < seconds:
        session = GameSession(
            spec, seed=run, platform=platform, session_id=f"{spec.name}#{run}"
        )
        run += 1
        while not session.finished and t < seconds:
            tick = session.advance(throttled if t % 3 == 0 else FULL)
            h.update(tick.demand.array.tobytes())
            t += 1
    return h.hexdigest()


@pytest.mark.parametrize(
    "platform", [REFERENCE_PLATFORM, WEAK_GPU_PLATFORM, BIG_SERVER_PLATFORM],
    ids=lambda p: p.name,
)
def test_demand_streams_are_pinned(catalog, platform):
    for name in sorted(catalog):
        digest = demand_stream_digest(catalog[name], platform)
        assert digest == DEMAND_STREAM_SHA256[(name, platform.name)], name


def tick_stream_digest(spec, platform, seconds=600):
    """sha256 over every field of ``seconds`` of :class:`SessionTick` s.

    The same back-to-back replay as :func:`demand_stream_digest`; after
    each session its ``history`` and the final state of its generator
    are hashed too, so a reordered or extra draw shows even when it
    leaves the demand floats alone.
    """
    throttled = ResourceVector(cpu=15.0, gpu=100.0, gpu_mem=100.0, ram=100.0)
    h = hashlib.sha256()
    t = 0
    run = 0
    while t < seconds:
        session = GameSession(
            spec, seed=run, platform=platform, session_id=f"{spec.name}#{run}"
        )
        run += 1
        while not session.finished and t < seconds:
            tick = session.advance(throttled if t % 3 == 0 else FULL)
            h.update(struct.pack("<4d", *tick.demand.values))
            lock = None if tick.frame_lock is None else float(tick.frame_lock).hex()
            h.update(repr((
                tick.time, tick.stage_name, tick.stage_kind.name,
                sorted(tick.stage_type), tick.cluster,
                float(tick.nominal_fps).hex(), lock,
                tick.stage_completed, tick.finished,
            )).encode())
            t += 1
        h.update(repr((session.elapsed, session.history)).encode())
        h.update(repr(session._rng.bit_generator.state).encode())
    return h.hexdigest()


#: sha256 of 600 s of full tick records per (game, platform), captured
#: before ``GameSession.advance`` absorbed its demand and dwell helpers.
TICK_STREAM_SHA256 = {
    ('contra', 'i7-7700+gtx2080'): "ac66342e92e0a5a861e01891f311be03dd36753babbf3eaaac4517a17c93ce47",
    ('csgo', 'i7-7700+gtx2080'): "3921e3185685f545744a1c9febad4ae014e4bf1162f5fd99c2aa6a0b4772c912",
    ('devil_may_cry', 'i7-7700+gtx2080'): "f7f1d0a90249cdd4989ef4d1e124442608d9e2ec64c1b290a4d60352d9562b1b",
    ('dota2', 'i7-7700+gtx2080'): "e43996196c8d32a55108db2cce770b7d31161781f71596df886f1630d3b7e7eb",
    ('genshin', 'i7-7700+gtx2080'): "d6949a288602f2ef108fae4808644878731904b50bcee2e70a2f22bde7620157",
    ('contra', 'weak-gpu'): "6e0dbc176ee2fb9a9df1c41bae73cbf9bbbcccb7c2d9fd7f7e9899a730ee8d6d",
    ('csgo', 'weak-gpu'): "281cf53c119e6ff25e45f11655ce204e647f04649c2e83a36af94010541c1132",
    ('devil_may_cry', 'weak-gpu'): "af157e2937794c55332f3d061268dc7b255d7747d97dfb441b0558ea21a5f709",
    ('dota2', 'weak-gpu'): "49b3f1a80246fcc7a6b799aea5da1958e2654af3fe4b67fdb5cff2017c3f1db4",
    ('genshin', 'weak-gpu'): "c7961c185fe388f11bc73d5e24e0b83d40bf85b1df8b1d9ec6a4a6ec5b7b2596",
}


@pytest.mark.parametrize(
    "platform", [REFERENCE_PLATFORM, WEAK_GPU_PLATFORM], ids=lambda p: p.name
)
def test_tick_streams_are_pinned(catalog, platform):
    for name in sorted(catalog):
        digest = tick_stream_digest(catalog[name], platform)
        assert digest == TICK_STREAM_SHA256[(name, platform.name)], name


def _triad_spec():
    """One short loading stage, then a long execution stage over three
    clusters with short dwells: every cluster switch draws the next
    cluster from two others (``integers(2)``), which advances the
    generator, so the switch's draw order shows in the stream.  No
    catalog stage has more than two clusters."""
    def cluster(name, cpu, gpu):
        return ClusterSpec(
            name,
            ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=20.0, ram=15.0),
            ResourceVector(cpu=1.5, gpu=1.5, gpu_mem=0.5, ram=0.5),
        )
    return GameSpec(
        name="triad",
        category=GameCategory.WEB,
        clusters={
            "load": cluster("load", 45.0, 5.0),
            "walk": cluster("walk", 20.0, 25.0),
            "fight": cluster("fight", 35.0, 55.0),
            "menu": cluster("menu", 15.0, 10.0),
        },
        stages={
            "boot": StageSpec("boot", StageKind.LOADING, ("load",), 6.0),
            "play": StageSpec(
                "play", StageKind.EXECUTION, ("walk", "fight", "menu"), 150.0,
                cluster_dwell=8.0, duration_scale=0.3,
            ),
        },
        scripts=(ScriptSpec("play", "three-cluster stage", ("boot", "play")),),
        long_term=False,
    )


#: sha256 of :func:`tick_stream_digest` for :func:`_triad_spec`, captured
#: before ``StageSpec.stage_type`` was computed once per spec.
TRIAD_TICK_STREAM_SHA256 = (
    "809960661935b2d2e46d62e51f6f19000e492be00a6cbb648c05169b67961f12"
)


def test_three_cluster_tick_stream_is_pinned():
    spec = _triad_spec()
    assert len(spec.stages["play"].clusters) == 3
    digest = tick_stream_digest(spec, REFERENCE_PLATFORM)
    assert digest == TRIAD_TICK_STREAM_SHA256
