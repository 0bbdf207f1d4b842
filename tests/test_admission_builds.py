"""A session is built only once its admission said yes.

Every strategy decides on what a request already names (the session id
and the game's profile) and calls the session factory only after its
admission test and the placement both said yes.  These tests count
``GameSession`` constructions over runs with many refusals and require
exactly one per admission.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    CoCGStrategy,
    GAugurStrategy,
    MaxStaticStrategy,
    ReactiveStrategy,
    VBPStrategy,
)
from repro.cluster.experiment import ColocationExperiment
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.server import GPUDevice, Server

from tests.test_control_guard import control_experiment

STRATEGIES = [
    CoCGStrategy, GAugurStrategy, MaxStaticStrategy, ReactiveStrategy,
    VBPStrategy,
]


@pytest.fixture
def builds(monkeypatch):
    """A one-item list counting ``GameSession`` constructions; reset it
    to 0 where counting should start."""
    count = [0]
    init = GameSession.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GameSession, "__init__", counting_init)
    return count


@pytest.mark.parametrize("gateway", [False, True], ids=["faulted", "gateway"])
def test_fleet_builds_one_session_per_admission(builds, gateway):
    experiment = control_experiment(gateway=gateway)
    builds[0] = 0  # profiling builds sessions of its own
    experiment.run()
    strategies = [node.strategy for node in experiment.cluster.nodes]
    admissions = sum(s.admissions for s in strategies)
    assert sum(s.rejections for s in strategies) > 0
    assert builds[0] == admissions > 0


@pytest.mark.parametrize("strategy_cls", STRATEGIES)
def test_colocation_builds_one_session_per_admission(
    contra_profile, genshin_profile, builds, strategy_cls
):
    experiment = ColocationExperiment(
        {"contra": contra_profile, "genshin": genshin_profile},
        strategy_cls(), horizon=600, seed=11, max_concurrent=2,
    )
    builds[0] = 0
    result = experiment.run()
    assert result.rejections > 0
    assert builds[0] == result.admissions > 0


def test_colocation_takes_a_session_seed_per_offer(
    contra_profile, genshin_profile
):
    """A refused offer still advances the seed counter, so each admitted
    session gets the seed it got when every offer built a session."""
    experiment = ColocationExperiment(
        {"contra": contra_profile, "genshin": genshin_profile},
        VBPStrategy(), horizon=300, seed=11, max_concurrent=2,
    )
    offers = []
    host = experiment.node.host

    def counting_host(session_id, request, make_session, *, time):
        offers.append(session_id)
        return host(session_id, request, make_session, time=time)

    experiment.node.host = counting_host
    result = experiment.run()
    assert experiment._session_seeds == len(offers) > result.admissions


@pytest.mark.parametrize("strategy_cls", STRATEGIES)
def test_refusals_never_call_the_factory(toy_spec, toy_profile, strategy_cls):
    strategy = strategy_cls()
    strategy.attach(
        Allocator(Server("s", gpus=[GPUDevice()])), {toy_spec.name: toy_profile}
    )
    built = []

    def make_session():
        built.append(GameSession(toy_spec, "full", seed=len(built)))
        return built[-1]

    results = [
        strategy.try_admit(f"toy-{i}", toy_spec.name, make_session, time=0)
        for i in range(12)
    ]
    admitted = [s for s in results if s is not None]
    assert 0 < len(admitted) < len(results)
    assert admitted == built
    assert strategy.admissions == len(built)
    assert strategy.rejections == len(results) - len(built)
