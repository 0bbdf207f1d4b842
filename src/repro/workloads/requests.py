"""Game request streams.

The §V-B2 protocol: "During these two hours, the selected game will
continuously run requests until the distributor passes the request and
starts running" — i.e. each evaluated game always has one pending
request; a fresh one appears the moment the previous run completes.
:class:`ContinuousBacklog` models that; :class:`PoissonArrivals` provides
an open-loop alternative for the multi-game examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.games.player import PlayerModel
from repro.games.session import GameSession
from repro.games.spec import GameSpec
from repro.util.rng import Seed, as_rng, derive_seed

__all__ = ["GameRequest", "ContinuousBacklog", "PoissonArrivals"]


@dataclass
class GameRequest:
    """One pending launch request.

    The platform knows which game (and mode/script — the player clicked
    it) is requested; everything else about the playthrough is the
    player's.
    """

    spec: GameSpec
    script: Optional[str]
    player: PlayerModel
    arrival: float
    request_id: int

    def run_id(self, incarnation: int = 0) -> str:
        """``<game>-r<id>[.<incarnation>]``, the id of this request's run
        (a fleet node appends ``@<node>``); ``incarnation > 0`` marks a
        crash-requeued relaunch."""
        run = f"{self.spec.name}-r{self.request_id}"
        return f"{run}.{incarnation}" if incarnation else run

    def make_session(self, seed: Seed) -> GameSession:
        """Instantiate the session this request launches."""
        return GameSession(
            self.spec,
            self.script,
            player=self.player,
            seed=seed,
            session_id=self.run_id(),
        )

    @property
    def long_term(self) -> bool:
        """The game's coarse length class (§IV-C2)."""
        return self.spec.long_term


class ContinuousBacklog:
    """One always-pending request per game, per concurrent slot.

    Parameters
    ----------
    specs:
        The games under test.
    seed:
        Randomness for script choice and players.
    max_concurrent:
        Concurrent runs allowed per game (paper pair experiments: 1).
    id_base:
        First request id this stream issues.  Streams that may be
        merged (one per regional shard) must be given disjoint bases —
        request ids seed sessions and name them, so two shards both
        issuing id 0 would collide in the merged digest.
    """

    def __init__(
        self,
        specs: Sequence[GameSpec],
        *,
        seed: Seed = 0,
        max_concurrent: int = 1,
        id_base: int = 0,
    ):
        if not specs:
            raise ValueError("specs must be non-empty")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if id_base < 0:
            raise ValueError(f"id_base must be >= 0, got {id_base}")
        self.specs = list(specs)
        self.max_concurrent = int(max_concurrent)
        self._base = seed if isinstance(seed, int) or seed is None else 0
        # Per-stream id counter: request ids are a pure function of this
        # stream's call history, never of process-global state, so two
        # identical runs in one process replay identical ids (and hence
        # identical session ids, seeds, and telemetry digests).
        self._next_id = itertools.count(int(id_base))
        self._running: Dict[str, int] = {s.name: 0 for s in self.specs}
        self._players: Dict[str, PlayerModel] = {
            s.name: PlayerModel(f"live-{s.name}", s.category, seed=0) for s in self.specs
        }
        self._counters: Dict[str, int] = {s.name: 0 for s in self.specs}

    # ------------------------------------------------------------------
    def pending(self, time: float) -> List[GameRequest]:
        """Requests eligible to start now (slots not exhausted)."""
        out: List[GameRequest] = []
        for spec in self.specs:
            free = self.max_concurrent - self._running[spec.name]
            for slot in range(free):
                n = self._counters[spec.name] + slot
                rng = as_rng(derive_seed(self._base, "req", spec.name, str(n)))
                script = spec.scripts[int(rng.integers(len(spec.scripts)))].name
                out.append(
                    GameRequest(
                        spec=spec,
                        script=script,
                        player=self._players[spec.name],
                        arrival=time,
                        request_id=next(self._next_id),
                    )
                )
        return out

    def started(self, request: GameRequest) -> None:
        """A request was admitted."""
        self._running[request.spec.name] += 1
        self._counters[request.spec.name] += 1

    def finished(self, spec_name: str) -> None:
        """A run of the game completed."""
        if self._running.get(spec_name, 0) <= 0:
            raise RuntimeError(f"no running session of {spec_name!r} to finish")
        self._running[spec_name] -= 1


class PoissonArrivals:
    """Open-loop Poisson request arrivals over a game mix.

    Parameters
    ----------
    specs:
        Games to draw from (uniformly).
    rate_per_minute:
        Expected arrivals per minute.
    seed:
        Stream seed.
    horizon:
        Total seconds to generate.
    id_base:
        First request id (and player-name suffix) of the stream.
        Regional shards generating their own load pass disjoint bases
        so merged streams keep globally unique ids.
    """

    def __init__(
        self,
        specs: Sequence[GameSpec],
        *,
        rate_per_minute: float = 1.0,
        seed: Seed = 0,
        horizon: float = 7200.0,
        id_base: int = 0,
    ):
        if not specs:
            raise ValueError("specs must be non-empty")
        if rate_per_minute <= 0:
            raise ValueError(f"rate_per_minute must be > 0, got {rate_per_minute}")
        if id_base < 0:
            raise ValueError(f"id_base must be >= 0, got {id_base}")
        rng = as_rng(seed)
        self.requests: List[GameRequest] = []
        t = 0.0
        i = int(id_base)
        while True:
            t += rng.exponential(60.0 / rate_per_minute)
            if t >= horizon:
                break
            spec = specs[int(rng.integers(len(specs)))]
            script = spec.scripts[int(rng.integers(len(spec.scripts)))].name
            player = PlayerModel(f"arr-{spec.name}-{i}", spec.category, seed=0)
            # Stream-local ids (id_base..id_base+n-1): identical
            # construction args give identical ids no matter what ran
            # earlier in the process.
            self.requests.append(GameRequest(spec, script, player, t, i))
            i += 1

    def due(self, t0: float, t1: float) -> List[GameRequest]:
        """Requests arriving in ``[t0, t1)``."""
        return [r for r in self.requests if t0 <= r.arrival < t1]
