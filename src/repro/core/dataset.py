"""Training-set construction for the stage predictor (paper §IV-B1).

"How to minimise user impact in prediction requires us to classify the
game and select different data as samples for training based on
different game types."  The builder turns profiled traces into
(features, next-stage) samples and applies the category policy:

* **WEB** — pool every player's records into one dataset ("train all
  player's game records as a training set").
* **MOBILE** — one dataset per player ("finely establish a training set
  for each individual player").
* **CONSOLE** — concatenate each player's sessions into one campaign
  sequence before sampling ("connect all the processes of the player
  playing the game").
* **MMO** — group sessions that co-logged and add the group's stage
  context to the features ("package the data of several players who log
  in … at the same time").

Features per sample: one-hot of the last ``history`` execution stage
types, the normalised count of each type seen so far, the stage index —
plus, for MMO, the co-login group's current type histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stages import Segment, StageLibrary, StageTypeId
from repro.games.category import GameCategory

__all__ = ["StageDataset", "StageDatasetBuilder"]


@dataclass
class StageDataset:
    """A dataset ready for an mlkit classifier."""

    X: np.ndarray
    y: np.ndarray
    players: Tuple[str, ...]

    @property
    def n_samples(self) -> int:
        """Number of samples in the dataset."""
        return self.X.shape[0]


class StageDatasetBuilder:
    """Builds per-category datasets over a fitted stage library.

    Parameters
    ----------
    library:
        The game's profiled stage library; its execution types define the
        label space.
    history:
        Number of recent stages one-hot-encoded into the features.
    group_size:
        MMO co-login group size.
    """

    def __init__(self, library: StageLibrary, *, history: int = 3, group_size: int = 3):
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        self.library = library
        self.history = int(history)
        self.group_size = int(group_size)
        self.types: List[StageTypeId] = library.execution_types
        if not self.types:
            raise ValueError(
                f"library for {library.game!r} has no execution types"
            )
        self._index: Dict[StageTypeId, int] = {t: i for i, t in enumerate(self.types)}

    # ------------------------------------------------------------------
    @property
    def n_types(self) -> int:
        """Size of the label space (execution stage types)."""
        return len(self.types)

    @property
    def n_base_features(self) -> int:
        """Feature width without the MMO group block."""
        return self.history * self.n_types + self.n_types + 1

    def type_index(self, type_id: StageTypeId) -> Optional[int]:
        """Label index of a type, or ``None`` for unknown types."""
        return self._index.get(type_id)

    def sequence_of(self, segments: Sequence[Segment]) -> List[int]:
        """Execution-type index sequence of one trace (unknowns skipped)."""
        out: List[int] = []
        for seg in segments:
            if seg.is_loading:
                continue
            idx = self._index.get(seg.type_id)
            if idx is not None:
                out.append(idx)
        return out

    # ------------------------------------------------------------------
    def encode_history(
        self,
        seq: Sequence[int],
        position: int,
        *,
        group_hist: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Features for predicting ``seq[position]`` from ``seq[:position]``.

        Layout: ``history`` one-hot blocks (most recent first, zero
        padding beyond the start), normalised per-type counts, then the
        normalised position — plus the group histogram when given.
        """
        k = self.n_types
        feats = np.zeros(self.n_base_features + (k if group_hist is not None else 0))
        for h in range(self.history):
            j = position - 1 - h
            if j >= 0:
                feats[h * k + seq[j]] = 1.0
        counts = np.bincount(seq[:position], minlength=k).astype(float)
        feats[self.history * k : self.history * k + k] = np.minimum(counts, 10.0) / 10.0
        feats[self.history * k + k] = min(position, 20) / 20.0
        if group_hist is not None:
            g = np.asarray(group_hist, dtype=float)
            if g.shape != (k,):
                raise ValueError(f"group_hist must have shape ({k},), got {g.shape}")
            total = g.sum()
            feats[-k:] = g / total if total > 0 else 0.0
        return feats

    # ------------------------------------------------------------------
    def _per_session_sequences(
        self, corpus_segments: Sequence[Tuple[str, Sequence[Segment]]]
    ) -> List[Tuple[str, List[int]]]:
        """(player_id, type-index sequence) per session, order preserved."""
        out: List[Tuple[str, List[int]]] = []
        for player_id, segments in corpus_segments:
            seq = self.sequence_of(segments)
            if len(seq) >= 2:
                out.append((player_id, seq))
        return out

    def build(
        self,
        corpus_segments: Sequence[Tuple[str, Sequence[Segment]]],
        category: GameCategory,
    ) -> Dict[str, StageDataset]:
        """Build the category's dataset(s).

        Parameters
        ----------
        corpus_segments:
            ``(player_id, segments)`` per profiled session, in collection
            order (the order defines CONSOLE campaign concatenation and
            MMO co-login grouping).
        category:
            Fig-7 quadrant selecting the policy.

        Returns
        -------
        dict
            ``{"*": dataset}`` for pooled policies (WEB, CONSOLE, MMO) or
            ``{player_id: dataset}`` for MOBILE.  MMO feature vectors are
            wider (group histogram block appended).
        """
        sessions = self._per_session_sequences(corpus_segments)
        if not sessions:
            raise ValueError("no usable sessions (need >= 2 execution stages each)")
        if category is GameCategory.WEB:
            return {"*": self._pool(sessions)}
        if category is GameCategory.MOBILE:
            return self._per_player(sessions)
        if category is GameCategory.CONSOLE:
            return {"*": self._campaign(sessions)}
        if category is GameCategory.MMO:
            return {"*": self._grouped(sessions)}
        raise ValueError(f"unknown category {category!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _samples_of(self, seq: Sequence[int]) -> List[Tuple[np.ndarray, int]]:
        return [
            (self.encode_history(seq, i), seq[i]) for i in range(1, len(seq))
        ]

    def _pool(self, sessions) -> StageDataset:
        X, y, players = [], [], []
        for player_id, seq in sessions:
            for feats, label in self._samples_of(seq):
                X.append(feats)
                y.append(label)
                players.append(player_id)
        return StageDataset(np.stack(X), np.asarray(y), tuple(players))

    def _per_player(self, sessions) -> Dict[str, StageDataset]:
        by_player: Dict[str, List[Tuple[str, List[int]]]] = {}
        for player_id, seq in sessions:
            by_player.setdefault(player_id, []).append((player_id, seq))
        out: Dict[str, StageDataset] = {}
        for player_id, subset in by_player.items():
            ds = self._pool(subset)
            if ds.n_samples >= 2:
                out[player_id] = ds
        if not out:
            raise ValueError("no player has enough samples for a per-player model")
        return out

    def _campaign(self, sessions) -> StageDataset:
        # Concatenate each player's sessions (collection order) into one
        # long sequence, then sample across session boundaries too.
        by_player: Dict[str, List[int]] = {}
        for player_id, seq in sessions:
            by_player.setdefault(player_id, []).extend(seq)
        X, y, players = [], [], []
        for player_id, seq in by_player.items():
            for feats, label in self._samples_of(seq):
                X.append(feats)
                y.append(label)
                players.append(player_id)
        return StageDataset(np.stack(X), np.asarray(y), tuple(players))

    def _grouped(self, sessions) -> StageDataset:
        # A co-logged party transitions scenes around the same time: when
        # one member is still loading, most of the party has often already
        # entered the next scene.  The group histogram therefore mixes the
        # peers' previous and next stages (deterministically seeded), which
        # is exactly the signal the paper's "package co-logged players into
        # one sample" policy exploits — a peer already in the match reveals
        # which mode the party queued for.
        from repro.util.rng import as_rng, derive_seed

        k = self.n_types
        X, y, players = [], [], []
        for g0 in range(0, len(sessions), self.group_size):
            group = sessions[g0 : g0 + self.group_size]
            for m, (player_id, seq) in enumerate(group):
                others = [s for j, (_, s) in enumerate(group) if j != m]
                for i in range(1, len(seq)):
                    rng = as_rng(derive_seed(0, "colog", f"g{g0}", f"m{m}", f"i{i}"))
                    hist = np.zeros(k)
                    for other in others:
                        ahead = rng.random() < 0.75 and i < len(other)
                        pos = min(i if ahead else i - 1, len(other) - 1)
                        hist[other[pos]] += 1.0
                    feats = self.encode_history(seq, i, group_hist=hist)
                    X.append(feats)
                    y.append(seq[i])
                    players.append(player_id)
        return StageDataset(np.stack(X), np.asarray(y), tuple(players))
