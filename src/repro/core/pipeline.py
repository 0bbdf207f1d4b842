"""Offline profiling pipeline: game → :class:`GameProfile`.

"Contention feature profiling and model training only need to be
performed once" (§IV-B1).  :meth:`GameProfile.build` runs the whole
offline side — corpus generation, frame clustering, stage segmentation,
and training all three predictor backends — and returns the artifact the
online scheduler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.predictor import BACKENDS, StagePredictor
from repro.core.profiler import FrameGrainedProfiler, ProfilerConfig
from repro.core.stages import Segment, StageLibrary
from repro.games.spec import GameSpec
from repro.games.tracegen import TraceBundle, generate_corpus
from repro.util.rng import Seed

if TYPE_CHECKING:
    from repro.platform_.profile import PlatformProfile

__all__ = ["GameProfile"]


@dataclass
class GameProfile:
    """Everything the online system knows about one game.

    Attributes
    ----------
    spec:
        The game (used for category, frame lock, length class — all
        public, manufacturer-published facts).
    library:
        Profiled stage library.
    predictors:
        One trained :class:`~repro.core.predictor.StagePredictor` per
        backend name.
    corpus_segments:
        The profiled training sessions (kept for ablations/benches).
    """

    spec: GameSpec
    library: StageLibrary
    predictors: Dict[str, StagePredictor]
    corpus_segments: List[Tuple[str, List[Segment]]]

    @classmethod
    def build(
        cls,
        spec: GameSpec,
        *,
        n_players: int = 8,
        sessions_per_player: int = 4,
        seed: Seed = 0,
        backends: Sequence[str] = BACKENDS,
        profiler_config: Optional[ProfilerConfig] = None,
        history: int = 3,
        corpus: Optional[Sequence[TraceBundle]] = None,
        auto_k: bool = False,
    ) -> "GameProfile":
        """Run the full offline pipeline for one game.

        Parameters
        ----------
        spec:
            The game to profile.
        n_players, sessions_per_player, seed:
            Corpus-generation parameters (ignored when ``corpus`` given).
        backends:
            Which predictor backends to train.
        profiler_config:
            Profiler tuning; defaults are the paper's settings.
        history:
            Stage-history length of the predictor features.
        corpus:
            Pre-generated traces, e.g. from a non-reference platform.
        auto_k:
            Select K with the Fig-14 elbow sweep instead of the game's
            published cluster count.  The paper itself chose K per game
            by inspecting the Fig-14 curves once offline ("guides us to
            choose the appropriate k value") and then fixed it — the
            default reproduces that workflow; ``auto_k=True`` runs the
            fully automatic criterion (see the Fig-14 bench for how the
            two compare).
        """
        bundles = (
            list(corpus)
            if corpus is not None
            else generate_corpus(
                spec,
                n_players=n_players,
                sessions_per_player=sessions_per_player,
                seed=seed,
            )
        )
        if profiler_config is None:
            profiler_config = ProfilerConfig(
                n_clusters=None if auto_k else len(spec.clusters)
            )
        profiler = FrameGrainedProfiler(spec.name, config=profiler_config)
        library = profiler.fit(bundles)

        corpus_segments: List[Tuple[str, List[Segment]]] = [
            (b.player_id, profiler.segment_with(library, b.frames().values))
            for b in bundles
        ]
        predictors: Dict[str, StagePredictor] = {}
        for backend in backends:
            predictor = StagePredictor(
                library, spec.category, backend=backend, history=history, seed=seed
            )
            predictor.train(corpus_segments)
            predictors[backend] = predictor
        return cls(
            spec=spec,
            library=library,
            predictors=predictors,
            corpus_segments=corpus_segments,
        )

    # ------------------------------------------------------------------
    def predictor(self, backend: str) -> StagePredictor:
        """The trained predictor for a backend."""
        try:
            return self.predictors[backend]
        except KeyError:
            raise KeyError(
                f"no {backend!r} predictor trained for {self.spec.name!r}; "
                f"have {sorted(self.predictors)}"
            ) from None

    def accuracy(self, backend: str) -> float:
        """Held-out accuracy of one backend (Eq-1's P)."""
        acc = self.predictor(backend).accuracy_
        return float(acc) if acc is not None else 0.0

    # ------------------------------------------------------------------
    # Persistence: "profiling and model training only need to be
    # performed once" — so the artifact must survive the process.
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the profile (library + trained predictors) as JSON.

        The game spec itself is not serialized — it is code, identified
        by name; :meth:`load` takes the spec to rebind.  Corpus segments
        are profiling intermediates and are not persisted.
        """
        import json

        payload = {
            "format": "cocg-game-profile/1",
            "game": self.spec.name,
            "library": self.library.to_dict(),
            "predictors": {
                backend: predictor.to_dict()
                for backend, predictor in self.predictors.items()
            },
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path], spec: GameSpec) -> "GameProfile":
        """Reload a saved profile, rebinding it to its game spec."""
        import json

        from repro.core.predictor import StagePredictor
        from repro.core.stages import StageLibrary

        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "cocg-game-profile/1":
            raise ValueError(f"{path} is not a CoCG game profile")
        if payload["game"] != spec.name:
            raise ValueError(
                f"profile is for game {payload['game']!r}, not {spec.name!r}"
            )
        library = StageLibrary.from_dict(payload["library"])
        predictors = {
            backend: StagePredictor.from_dict(data, library)
            for backend, data in payload["predictors"].items()
        }
        return cls(
            spec=spec, library=library, predictors=predictors, corpus_segments=[]
        )

    def rescaled(self, platform: "PlatformProfile") -> "GameProfile":
        """This profile migrated to another platform (§IV-D).

        The stage structure (types, transitions, trained predictors) is
        platform-invariant; only the demand magnitudes change, by the
        platform's factors.  This is exactly the paper's argument for why
        one profiling pass suffices across a heterogeneous fleet.

        Parameters
        ----------
        platform:
            A :class:`~repro.platform_.profile.PlatformProfile`.
        """
        import copy

        library = self.library.rescaled(platform.factors)
        predictors = {}
        for backend, predictor in self.predictors.items():
            clone = copy.copy(predictor)
            clone.library = library  # judge/classify against scaled centers
            predictors[backend] = clone
        return GameProfile(
            spec=self.spec,
            library=library,
            predictors=predictors,
            corpus_segments=self.corpus_segments,
        )
