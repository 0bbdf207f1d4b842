"""Offline training cost — the five paper games, all three backends.

§IV-B trains a DTC, RF and GBDT stage predictor per game once, offline
(Fig 12 counts it as overhead the online scheduler never pays).  This
bench builds every paper game's full :class:`GameProfile` (default
corpus, harness seed 3), prints the seconds per game, and checks each
trained predictor against a hash pinned before the CART split search
scored all candidate features of a node in one pass: a faster build
must train the very same models.  The hash covers
:meth:`StagePredictor.to_dict` — ``model_to_dict`` of every per-key
model and of the pooled fallback, plus ``accuracy_``.
"""

import hashlib
import json
import time

from benchmarks.conftest import GAMES, HARNESS_SEED, print_block
from repro.analysis.report import format_table
from repro.core.pipeline import GameProfile

PINS = {
    ("contra", "dtc"): "c8addd1e1951a81bcbd27d006814ef0065b82f1dbc04b70c05e9b62a76d92966",
    ("contra", "rf"): "23eafe0e63956dedfcf91f99981bc40abd3f95a256998e788e1ffc0656294b62",
    ("contra", "gbdt"): "1e338b3563e4a9dacd5ab37db6da5476b589954672bd5c9df76b301ab7f15ed7",
    ("csgo", "dtc"): "6756f06412924a8c8d789e7573bc64e92ff3853949ce4da2ac3e09336503d6bd",
    ("csgo", "rf"): "ce762c69697c81c380360617042b7cfb714731b3236d81b8fe210892c2006038",
    ("csgo", "gbdt"): "0d2a188618807d3f381d627894e6913019538fb007daa679c75b0fa001e1be4c",
    ("devil_may_cry", "dtc"): "9b0cfc940fb2fd60fcb91d589a30b1e62d11dbe718a6ccc42480ff6626dfdc7e",
    ("devil_may_cry", "rf"): "da79423a2b78c120c457f29fa625b5fccd87e4f4323ae50db888a3b337837135",
    ("devil_may_cry", "gbdt"): "a35e76ef4b2eda78a465bab2d703e4e962dfca22d10a4db4afd55acfa3cd3c5a",
    ("dota2", "dtc"): "e24f173a5e44e44902029c5b5391011a7796252dfb6f5288ee7b3e6246d041f4",
    ("dota2", "rf"): "a85c3a3b4c508f7dba7f9e4951af2884ea114f1642c8a13a9375c7b697220adc",
    ("dota2", "gbdt"): "5eee731f5e4ab6e4400aa0406651ce8186b751aa1d6c441e6abec4d72a9232b3",
    ("genshin", "dtc"): "de1b685ce30175d2cd0e8aec8ca5ce1ae62c2ee3a811bd018ce033d5f94217b3",
    ("genshin", "rf"): "7495ded8ef0627fbdb3c2e31edd55aecab2eebcdf8211c91356cee2432d5c784",
    ("genshin", "gbdt"): "6aeb3305c0f1f5a40bf8bccd099c17468532dce897ba5a91b12fdd04cfb1cb8d",
}


def predictor_digest(predictor) -> str:
    payload = json.dumps(predictor.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_profile_training(catalog):
    rows, digests = [], {}
    for game in GAMES:
        t0 = time.perf_counter()
        profile = GameProfile.build(catalog[game], seed=HARNESS_SEED)
        seconds = time.perf_counter() - t0
        rows.append([game, seconds] + [
            profile.accuracy(b) * 100 for b in ("dtc", "rf", "gbdt")
        ])
        for backend, predictor in profile.predictors.items():
            digests[(game, backend)] = predictor_digest(predictor)
    rows.append(["total", sum(r[1] for r in rows), "", "", ""])
    print_block(
        format_table(
            ["game", "build (s)", "DTC %", "RF %", "GBDT %"],
            rows,
            title="Offline profile training (seed 3, all three backends)",
        )
    )
    assert digests == PINS
