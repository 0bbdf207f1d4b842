"""Stage types and the per-game stage library.

A *stage type* is a combination of frame clusters (§IV-A1): with N
clusters a game has at most 2^N types, empirically no more than ~2N.
:class:`StageTypeId` canonicalises a cluster set as a sorted tuple of
cluster indices, so types hash and compare structurally.

:class:`StageLibrary` is the profiler's output and everything downstream
consumes it: cluster centroids, which clusters are loading, per-type
statistics (peak demand, typical duration) and the empirical transition
structure between types.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform_.resources import N_DIMS, ResourceVector

__all__ = ["StageTypeId", "Segment", "StageStats", "StageLibrary"]


class StageTypeId(tuple):
    """Canonical stage type: a sorted tuple of cluster indices.

    ``StageTypeId([2, 0]) == StageTypeId((0, 2))`` and prints as
    ``<0+2>``.
    """

    def __new__(cls, clusters: Iterable[int]) -> "StageTypeId":
        values = tuple(sorted(set(int(c) for c in clusters)))
        if not values:
            raise ValueError("a stage type needs at least one cluster")
        if values[0] < 0:
            raise ValueError(f"cluster indices must be >= 0, got {values}")
        return super().__new__(cls, values)

    @property
    def clusters(self) -> Tuple[int, ...]:
        """The member cluster indices."""
        return tuple(self)

    def contains(self, cluster: int) -> bool:
        """Whether a cluster belongs to this type."""
        return int(cluster) in self

    def __repr__(self) -> str:
        return "<" + "+".join(str(c) for c in self) + ">"


@dataclass(frozen=True)
class Segment:
    """One observed stage instance in a frame sequence.

    Attributes
    ----------
    type_id:
        The stage type (cluster combination) of the segment.
    start_frame, end_frame:
        Frame range ``[start, end)``.
    is_loading:
        Whether the segment is a loading stage.
    peak, mean:
        Per-dimension max / mean over the member frames.
    q95:
        Per-dimension 95th-percentile frame demand — the *planning* peak
        (a ceiling at this level satisfies ~95 % of frames without the
        double-counted safety of hard maxima).
    """

    type_id: StageTypeId
    start_frame: int
    end_frame: int
    is_loading: bool
    peak: np.ndarray
    mean: np.ndarray
    q95: np.ndarray = None

    def __post_init__(self) -> None:
        if self.q95 is None:
            object.__setattr__(self, "q95", np.asarray(self.peak, dtype=float))

    @property
    def n_frames(self) -> int:
        """Segment length in frames."""
        return self.end_frame - self.start_frame


@dataclass
class StageStats:
    """Aggregated statistics of one stage type across observations.

    ``peak`` is a *robust* peak — the 90th percentile of per-segment
    peaks — so a single player-burst outlier in the corpus does not
    inflate every future allocation of the type.  ``hard_peak`` keeps
    the absolute maximum.
    """

    #: Quantile of per-segment peaks reported as the planning peak.
    PEAK_QUANTILE = 0.9

    type_id: StageTypeId
    occurrences: int = 0
    total_frames: int = 0
    segment_peaks: List[np.ndarray] = field(default_factory=list)
    q95_sum: np.ndarray = field(default_factory=lambda: np.zeros(N_DIMS))
    mean_sum: np.ndarray = field(default_factory=lambda: np.zeros(N_DIMS))
    is_loading: bool = False

    def update(self, segment: Segment) -> None:
        """Fold one observed segment into the statistics."""
        if segment.type_id != self.type_id:
            raise ValueError(
                f"segment type {segment.type_id!r} != stats type {self.type_id!r}"
            )
        self.occurrences += 1
        self.total_frames += segment.n_frames
        self.segment_peaks.append(np.asarray(segment.peak, dtype=float))
        self.q95_sum += np.asarray(segment.q95, dtype=float) * segment.n_frames
        self.mean_sum += segment.mean * segment.n_frames
        self.is_loading = self.is_loading or segment.is_loading

    @property
    def peak(self) -> np.ndarray:
        """Robust planning peak: frame-weighted mean of segment q95s.

        A ceiling at this level covers ~95 % of the type's frames; it is
        deliberately *not* the hard maximum — two co-located stages never
        sit at their simultaneous worst, and planning with maxima would
        double-count safety (and block admissions that are fine in
        practice).
        """
        if self.total_frames == 0:
            return np.zeros(N_DIMS)
        return self.q95_sum / self.total_frames

    @property
    def hard_peak(self) -> np.ndarray:
        """Absolute maximum ever observed."""
        if not self.segment_peaks:
            return np.zeros(N_DIMS)
        return np.stack(self.segment_peaks).max(axis=0)

    @property
    def mean(self) -> np.ndarray:
        """Frame-weighted mean demand."""
        if self.total_frames == 0:
            return np.zeros(N_DIMS)
        return self.mean_sum / self.total_frames

    def mean_duration_seconds(self, frame_seconds: int = 5) -> float:
        """Average observed stage length."""
        if self.occurrences == 0:
            return 0.0
        return self.total_frames * frame_seconds / self.occurrences

    @property
    def peak_vector(self) -> ResourceVector:
        """Planning peak as a :class:`ResourceVector`."""
        return ResourceVector.from_array(self.peak)


class StageLibrary:
    """The profiled model of one game.

    Parameters
    ----------
    game:
        Game name.
    centers:
        ``(K, 4)`` cluster centroids in demand space.
    loading_clusters:
        Indices of the clusters identified as loading behaviour.
    frame_seconds:
        Frame length the library was built at.
    """

    def __init__(
        self,
        game: str,
        centers: np.ndarray,
        loading_clusters: Sequence[int],
        *,
        frame_seconds: int = 5,
    ):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != N_DIMS:
            raise ValueError(f"centers must be (K, {N_DIMS}), got {centers.shape}")
        self.game = str(game)
        self.centers = centers
        self.loading_clusters = frozenset(int(c) for c in loading_clusters)
        for c in self.loading_clusters:
            if not (0 <= c < centers.shape[0]):
                raise ValueError(f"loading cluster {c} out of range")
        self.frame_seconds = int(frame_seconds)
        self._stats: Dict[StageTypeId, StageStats] = {}
        self._transitions: Dict[StageTypeId, Counter] = {}
        #: :meth:`max_peak`, once computed; :meth:`observe_segments` clears it.
        self._max_peak: Optional[ResourceVector] = None

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        """Number of frame clusters (K)."""
        return self.centers.shape[0]

    @property
    def loading_type(self) -> StageTypeId:
        """The canonical loading stage type (all loading clusters)."""
        if not self.loading_clusters:
            raise RuntimeError(f"library for {self.game!r} has no loading clusters")
        return StageTypeId(self.loading_clusters)

    @property
    def stage_types(self) -> List[StageTypeId]:
        """All observed stage types, loading included, in stable order."""
        return sorted(self._stats)

    @property
    def execution_types(self) -> List[StageTypeId]:
        """Observed execution stage types."""
        return [t for t in self.stage_types if not self._stats[t].is_loading]

    def stats(self, type_id: StageTypeId) -> StageStats:
        """Statistics of one observed type."""
        try:
            return self._stats[type_id]
        except KeyError:
            raise KeyError(
                f"stage type {type_id!r} was never observed for {self.game!r}"
            ) from None

    def type_is_loading(self, type_id: StageTypeId) -> bool:
        """A type is loading when all its clusters are loading clusters."""
        return all(c in self.loading_clusters for c in type_id)

    # ------------------------------------------------------------------
    def observe_segments(self, segments: Sequence[Segment]) -> None:
        """Fold one trace's segment sequence into stats and transitions."""
        self._max_peak = None
        for segment in segments:
            stats = self._stats.get(segment.type_id)
            if stats is None:
                stats = StageStats(segment.type_id)
                self._stats[segment.type_id] = stats
            stats.update(segment)
        # Transition structure between consecutive *execution* types
        # (loading separates them; what the predictor predicts is the next
        # execution stage).
        exec_types = [s.type_id for s in segments if not s.is_loading]
        for prev, nxt in zip(exec_types[:-1], exec_types[1:]):
            self._transitions.setdefault(prev, Counter())[nxt] += 1

    def transition_counts(self, type_id: StageTypeId) -> Counter:
        """Observed successors of an execution type."""
        return Counter(self._transitions.get(type_id, Counter()))

    def most_common_successor(self, type_id: StageTypeId) -> Optional[StageTypeId]:
        """Majority-vote next type, or ``None`` if never followed."""
        counts = self._transitions.get(type_id)
        if not counts:
            return None
        return counts.most_common(1)[0][0]

    # ------------------------------------------------------------------
    # Frame classification (used online every 5 s)
    # ------------------------------------------------------------------
    def classify_frame(self, frame: np.ndarray) -> int:
        """Nearest-centroid cluster of one frame vector."""
        frame = np.asarray(frame, dtype=float).reshape(-1)
        if frame.shape != (N_DIMS,):
            raise ValueError(f"frame must have {N_DIMS} dims, got {frame.shape}")
        diff = self.centers - frame
        return int(np.einsum("kd,kd->k", diff, diff).argmin())

    def is_loading_frame(self, frame: np.ndarray) -> bool:
        """Whether a frame falls in a loading cluster."""
        return self.classify_frame(frame) in self.loading_clusters

    # ------------------------------------------------------------------
    def peak_of(self, type_id: StageTypeId) -> ResourceVector:
        """Observed peak demand of a type; falls back to centroid maxima
        (+nothing) for never-observed types built from known clusters."""
        if type_id in self._stats:
            return self._stats[type_id].peak_vector
        peak = self.centers[list(type_id)].max(axis=0)
        return ResourceVector.from_array(peak)

    def max_peak(self) -> ResourceVector:
        """Whole-game observed peak (Eq-1's M), memoized until the next
        :meth:`observe_segments`."""
        if self._max_peak is None:
            if not self._stats:
                raise RuntimeError(f"library for {self.game!r} has no observations")
            peak = np.zeros(N_DIMS)
            for stats in self._stats.values():
                peak = np.maximum(peak, stats.peak)
            self._max_peak = ResourceVector.from_array(peak)
        return self._max_peak

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form of the whole library."""
        return {
            "game": self.game,
            "centers": self.centers.tolist(),
            "loading_clusters": sorted(self.loading_clusters),
            "frame_seconds": self.frame_seconds,
            "stats": [
                {
                    "type": list(t),
                    "occurrences": s.occurrences,
                    "total_frames": s.total_frames,
                    "segment_peaks": [p.tolist() for p in s.segment_peaks],
                    "q95_sum": s.q95_sum.tolist(),
                    "mean_sum": s.mean_sum.tolist(),
                    "is_loading": s.is_loading,
                }
                for t, s in sorted(self._stats.items())
            ],
            "transitions": [
                {
                    "from": list(t),
                    "to": [[list(k), v] for k, v in counter.items()],
                }
                for t, counter in sorted(self._transitions.items())
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "StageLibrary":
        """Rebuild a library from :meth:`to_dict` output."""
        lib = StageLibrary(
            data["game"],
            np.asarray(data["centers"], dtype=float),
            data["loading_clusters"],
            frame_seconds=int(data["frame_seconds"]),
        )
        for entry in data["stats"]:
            stats = StageStats(
                type_id=StageTypeId(entry["type"]),
                occurrences=int(entry["occurrences"]),
                total_frames=int(entry["total_frames"]),
                segment_peaks=[
                    np.asarray(p, dtype=float) for p in entry["segment_peaks"]
                ],
                q95_sum=np.asarray(entry["q95_sum"], dtype=float),
                mean_sum=np.asarray(entry["mean_sum"], dtype=float),
                is_loading=bool(entry["is_loading"]),
            )
            lib._stats[stats.type_id] = stats
        for entry in data["transitions"]:
            counter = Counter(
                {StageTypeId(k): int(v) for k, v in entry["to"]}
            )
            lib._transitions[StageTypeId(entry["from"])] = counter
        return lib

    def rescaled(self, factors: ResourceVector, *, name: Optional[str] = None) -> "StageLibrary":
        """A copy of this library with demand magnitudes rescaled.

        Implements the §IV-D migration claim: "the number of stages and
        the logical relationship between the stages will not change …
        the only thing that will change is the amount of resources
        consumed, which can be obtained in a single experiment."  The
        cluster centroids and every per-type statistic are multiplied by
        the platform's demand factors (clipped at 100 %); stage types,
        counts, durations and transitions carry over untouched.
        """
        f = factors.array
        out = StageLibrary(
            name if name is not None else self.game,
            np.clip(self.centers * f[None, :], 0.0, 100.0),
            sorted(self.loading_clusters),
            frame_seconds=self.frame_seconds,
        )
        for type_id, stats in self._stats.items():
            scaled = StageStats(
                type_id=type_id,
                occurrences=stats.occurrences,
                total_frames=stats.total_frames,
                segment_peaks=[
                    np.clip(p * f, 0.0, 100.0) for p in stats.segment_peaks
                ],
                q95_sum=np.clip(stats.q95_sum * f, 0.0, 100.0 * stats.total_frames),
                mean_sum=stats.mean_sum * f,
                is_loading=stats.is_loading,
            )
            out._stats[type_id] = scaled
        for type_id, counter in self._transitions.items():
            out._transitions[type_id] = Counter(counter)
        return out

    def summary(self) -> str:
        """Human-readable multi-line description (used by the benches)."""
        lines = [
            f"StageLibrary({self.game!r}): K={self.n_clusters}, "
            f"loading clusters={sorted(self.loading_clusters)}"
        ]
        for t in self.stage_types:
            s = self._stats[t]
            kind = "loading" if s.is_loading else "execution"
            lines.append(
                f"  {t!r:12} {kind:9} n={s.occurrences:3d} "
                f"dur~{s.mean_duration_seconds(self.frame_seconds):6.1f}s "
                f"peak={np.round(s.peak, 1)}"
            )
        return "\n".join(lines)
