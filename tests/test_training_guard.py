"""Guard rail for offline profile training (corpus → profiler → models).

Every catalog game is profiled on a reduced corpus and each trained
predictor backend is hashed: :meth:`StagePredictor.to_dict` carries
``model_to_dict`` of every per-key model and of the pooled fallback,
plus the held-out ``accuracy_``.  The pinned table is the output of the
code before the CART split search scored all candidate features of a
node in one pass; any change to a split choice, a threshold, an
impurity, a leaf value or an RNG draw moves at least one entry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.pipeline import GameProfile
from repro.games.catalog import build_catalog

SEED = 3

PINS = {
    ("contra", "dtc"): "eaf50bd22fec7d6e729a254d1759e3a641706774d60a19fb50fce390a4302221",
    ("contra", "rf"): "061c050c0742148e1a2ceb9f971a39a7d3022bad229f49e0b8aaf1e5387d6073",
    ("contra", "gbdt"): "e166f592a77176b2e6550abb0d29982e0c5a7ad66c764a329c880ba117b7e9dd",
    ("csgo", "dtc"): "fab5ce8e6d07003d6a4d5dc6f458fe22224c55dfdd8e6aeac5177a6841af97aa",
    ("csgo", "rf"): "ba2344cdf9e0249bc4f52e4aeba335378e08870fd284797205ca409d8b6948ee",
    ("csgo", "gbdt"): "e229ba1e040bc6a91f0581347be10be042face3d80e7fcde8baaf3263fc8032e",
    ("devil_may_cry", "dtc"): "00bfb6c6ea01ef0848ebf818a60ee8e783beaf5b28bcb9fd528e1dddb07bcf3a",
    ("devil_may_cry", "rf"): "90c8be3621918b224f8b903645b78492d69f7e3587fbb587cf4bbda69a7e793b",
    ("devil_may_cry", "gbdt"): "4f21ed805ccf8efc480fd2f52d6b9211b1e7ee87fb9fee1907b267b084f55e7b",
    ("dota2", "dtc"): "1e998d8c923ce9c4bd99a8b3f16c102ed9543e97b42986c921d8f66ddf803627",
    ("dota2", "rf"): "bb0b25036cd0fd4a92e41b11ef038451245f02753905700c80594b8a2de1ce29",
    ("dota2", "gbdt"): "46c1080e43c0d7711bba6c80514d629d7b2fcb96ce7fa4b544110a06bc2c97a4",
    ("genshin", "dtc"): "44278dcc585ac6e7de81e8f78f259a287759368beb5a4b60cf50f33d1414ecc1",
    ("genshin", "rf"): "73f2a26e6bf05e1fa4dadec6bb321b8d5070c4a8da886cf26f1a5b787517d2ed",
    ("genshin", "gbdt"): "16427b603a048c0abd5ddaa0cd25327b38187a7bf2432b80d2e11efe2c89adbb",
}


def predictor_digest(predictor) -> str:
    payload = json.dumps(predictor.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


@pytest.mark.parametrize("game", sorted(build_catalog()))
def test_trained_models_are_pinned(catalog, game):
    profile = GameProfile.build(
        catalog[game], n_players=2, sessions_per_player=2, seed=SEED
    )
    got = {
        (game, backend): predictor_digest(predictor)
        for backend, predictor in sorted(profile.predictors.items())
    }
    assert got == {key: pin for key, pin in PINS.items() if key[0] == game}
