"""Offline trace generation for profiling and predictor training.

The paper collects training data in two ways — cloud-platform telemetry
and repeated laboratory runs (§V-D2).  Both reduce to the same artifact:
a resource time series with (for evaluation only) ground-truth stage
annotations.  :func:`generate_trace` runs one session to completion under
unconstrained supply; :func:`generate_corpus` produces a population of
playthroughs across players and scripts, honouring the per-category
sampling rules of §IV-B1 (e.g. many sessions of the *same* player for
MOBILE games).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.games.player import PlayerModel
from repro.games.session import GameSession
from repro.games.spec import GameSpec
from repro.platform_.profile import PlatformProfile, REFERENCE_PLATFORM
from repro.platform_.resources import DIMENSIONS, ResourceVector
from repro.util.rng import Seed, as_rng, derive_seed
from repro.util.timeseries import ResourceSeries

__all__ = ["GroundTruth", "TraceBundle", "generate_trace", "generate_corpus"]

#: The paper's frame length: resource behaviour is summarised per 5 s.
FRAME_SECONDS = 5


@dataclass(frozen=True)
class GroundTruth:
    """Per-second annotations of a generated trace (evaluation only).

    Attributes
    ----------
    stage_names:
        Stage name active in each second.
    stage_types:
        The cluster-combination type of that stage.
    clusters:
        The active frame cluster in each second.
    loading_mask:
        True for seconds spent in a loading stage.
    """

    stage_names: Tuple[str, ...]
    stage_types: Tuple[FrozenSet[str], ...]
    clusters: Tuple[str, ...]
    loading_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.stage_names)

    def stage_boundaries(self) -> List[Tuple[str, int, int]]:
        """Contiguous (stage_name, start, end) runs."""
        out: List[Tuple[str, int, int]] = []
        if not self.stage_names:
            return out
        start = 0
        for i in range(1, len(self.stage_names) + 1):
            if i == len(self.stage_names) or self.stage_names[i] != self.stage_names[start]:
                out.append((self.stage_names[start], start, i))
                start = i
        return out


@dataclass(frozen=True)
class TraceBundle:
    """One playthrough: 1-second telemetry plus ground truth.

    Attributes
    ----------
    game:
        Game name.
    script:
        Script name played.
    player_id:
        Player who played it.
    series:
        1-second demand telemetry (columns = resource dimensions).
    truth:
        Ground-truth annotations aligned with ``series``.
    """

    game: str
    script: str
    player_id: str
    series: ResourceSeries
    truth: GroundTruth

    def frames(self, *, frame_seconds: int = FRAME_SECONDS) -> ResourceSeries:
        """The paper's 5-second frame aggregation of the telemetry."""
        return self.series.resample(float(frame_seconds), reduce="mean")

    def frame_truth_stage_types(
        self, *, frame_seconds: int = FRAME_SECONDS
    ) -> Tuple[FrozenSet[str], ...]:
        """Majority ground-truth stage type per complete frame."""
        n_frames = len(self.series) // frame_seconds
        out: List[FrozenSet[str]] = []
        for f in range(n_frames):
            window = self.truth.stage_types[f * frame_seconds : (f + 1) * frame_seconds]
            # Majority vote; ties go to the last (most recent) type.
            counts: dict[FrozenSet[str], int] = {}
            for t in window:
                counts[t] = counts.get(t, 0) + 1
            out.append(max(counts, key=lambda t: (counts[t], window[::-1].index(t) * -1)))
        return tuple(out)


def generate_trace(
    spec: GameSpec,
    script: Optional[str] = None,
    *,
    player: Optional[PlayerModel] = None,
    seed: Seed = None,
    platform: PlatformProfile = REFERENCE_PLATFORM,
    max_seconds: int = 4 * 3600,
) -> TraceBundle:
    """Play one session to completion under unconstrained supply.

    Parameters
    ----------
    spec, script, player, seed, platform:
        Session parameters (see :class:`~repro.games.session.GameSession`).
    max_seconds:
        Safety bound on trace length.

    Returns
    -------
    TraceBundle
        Telemetry plus ground-truth annotations.
    """
    rng = as_rng(seed)
    if player is None:
        player = PlayerModel(f"profiling-{spec.name}", spec.category, seed=0)
    session = GameSession(
        spec, script, player=player, seed=rng, platform=platform
    )
    unconstrained = ResourceVector.full(100.0)

    demands: List[Tuple[float, ...]] = []
    stage_names: List[str] = []
    stage_types: List[FrozenSet[str]] = []
    clusters: List[str] = []
    loading: List[bool] = []
    while not session.finished:
        tick = session.advance(unconstrained)
        demands.append(tick.demand.values)
        stage_names.append(tick.stage_name)
        stage_types.append(tick.stage_type)
        clusters.append(tick.cluster)
        loading.append(tick.is_loading)
        if len(demands) >= max_seconds:
            break

    series = ResourceSeries(np.array(demands), DIMENSIONS, period=1.0)
    truth = GroundTruth(
        stage_names=tuple(stage_names),
        stage_types=tuple(stage_types),
        clusters=tuple(clusters),
        loading_mask=np.asarray(loading, dtype=bool),
    )
    return TraceBundle(
        game=spec.name,
        script=session.script.name,
        player_id=player.player_id,
        series=series,
        truth=truth,
    )


def generate_corpus(
    spec: GameSpec,
    *,
    n_players: int = 8,
    sessions_per_player: int = 4,
    seed: Seed = 0,
    platform: PlatformProfile = REFERENCE_PLATFORM,
    scripts: Optional[Sequence[str]] = None,
    group_size: int = 3,
    favorite_probability: float = 0.9,
    group_script_correlation: float = 0.97,
) -> List[TraceBundle]:
    """Generate a population of playthroughs for training/evaluation.

    Script selection mirrors how real players of each Fig-7 quadrant
    behave — the very structure the §IV-B1 dataset policies exploit:

    * **WEB** — each session picks a script uniformly (casual players).
    * **MOBILE** — a player mostly replays their favorite task order
      (``favorite_probability``), the rest uniform: per-player models
      pay off.
    * **CONSOLE** — a player progresses through the campaign: session
      ``s`` plays script ``s mod n_scripts`` in order, so campaign
      concatenation carries signal.
    * **MMO** — players log in as parties of ``group_size`` (consecutive
      sessions within a round); a party usually queues for the same mode
      (``group_script_correlation``): co-login grouping carries signal.

    Sessions are ordered round by round (all players' session 0, then
    session 1, …) so consecutive bundles are the co-login groups the MMO
    dataset policy expects.
    """
    if n_players < 1 or sessions_per_player < 1:
        raise ValueError("n_players and sessions_per_player must be >= 1")
    base = seed if isinstance(seed, int) or seed is None else 0
    script_names = tuple(scripts) if scripts is not None else tuple(
        s.name for s in spec.scripts
    )
    for name in script_names:
        spec.script(name)  # validate
    n_scripts = len(script_names)

    players = [
        PlayerModel(f"{spec.name}-player-{p}", spec.category, seed=0)
        for p in range(n_players)
    ]
    favorites = [
        int(as_rng(derive_seed(0, "favorite", spec.name, pl.player_id)).integers(n_scripts))
        for pl in players
    ]

    bundles: List[TraceBundle] = []
    for s in range(sessions_per_player):
        group_scripts: dict[int, int] = {}
        for p in range(n_players):
            run_rng = as_rng(derive_seed(base, spec.name, f"p{p}", f"s{s}"))
            cat = spec.category.value
            if cat == "web":
                idx = int(run_rng.integers(n_scripts))
            elif cat == "mobile":
                if run_rng.random() < favorite_probability:
                    idx = favorites[p]
                else:
                    idx = int(run_rng.integers(n_scripts))
            elif cat == "console":
                idx = s % n_scripts
            else:  # mmo: parties queue for the same mode
                g = p // group_size
                if g not in group_scripts:
                    lead_rng = as_rng(derive_seed(base, spec.name, f"g{g}", f"s{s}"))
                    group_scripts[g] = int(lead_rng.integers(n_scripts))
                if run_rng.random() < group_script_correlation:
                    idx = group_scripts[g]
                else:
                    idx = int(run_rng.integers(n_scripts))
            bundles.append(
                generate_trace(
                    spec,
                    script_names[idx],
                    player=players[p],
                    seed=run_rng,
                    platform=platform,
                )
            )
    return bundles
