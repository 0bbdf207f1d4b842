"""The ML-based stage predictor (paper §IV-B).

Online, the predictor runs every 5 seconds and does two things:

1. **Stage judgment** — classify the latest frame against the current
   stage type: SAME (still in stage), LOADING (entered a loading
   screen), or MISMATCH (neither — the rehearsal-callback situation).
2. **Next-stage prediction** — on entering loading, feed the stage
   history to the trained model and return the predicted next execution
   stage type (with its confidence), which the allocation planner turns
   into the next ceiling.

Backends are the paper's three algorithms (DTC / RF / GBDT) on top of
the category-specific datasets of :mod:`repro.core.dataset`.  Accuracy
on the held-out 25 % (the paper's protocol) is retained as the Eq-1
``P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import StageDataset, StageDatasetBuilder
from repro.core.stages import StageLibrary, StageTypeId
from repro.games.category import GameCategory
from repro.mlkit.tree import DecisionTreeClassifier
from repro.util.effects import effects
from repro.util.rng import Seed, derive_seed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mlkit.forest import RandomForestClassifier
    from repro.mlkit.gbdt import GradientBoostedClassifier

__all__ = [
    "BACKENDS",
    "JudgmentKind",
    "Judgment",
    "PredictorBackendError",
    "StagePredictor",
    "PredictionCostModel",
    "make_backend",
]


class PredictorBackendError(RuntimeError):
    """A model backend failed to produce a prediction.

    Raised by :meth:`StagePredictor.predict_next` when the backend is
    broken (e.g. a fault-injected failure); callers on the control path
    catch it and walk the fallback chain (next trained backend, then the
    stage-history prior) under the
    :class:`~repro.core.health.PredictorHealth` circuit breaker.
    """

BACKENDS: Tuple[str, ...] = ("dtc", "rf", "gbdt")

BackendModel = Union[
    DecisionTreeClassifier, "RandomForestClassifier", "GradientBoostedClassifier"
]


def make_backend(name: str, seed: Seed = None) -> BackendModel:
    """Instantiate one of the paper's three model backends."""
    if name == "dtc":
        return DecisionTreeClassifier(max_depth=10, min_samples_leaf=2, seed=seed)
    if name == "rf":
        from repro.mlkit.forest import RandomForestClassifier

        return RandomForestClassifier(
            40, max_depth=10, min_samples_leaf=2, seed=seed
        )
    if name == "gbdt":
        from repro.mlkit.gbdt import GradientBoostedClassifier

        return GradientBoostedClassifier(
            80, learning_rate=0.12, max_depth=2, min_samples_leaf=2, seed=seed
        )
    raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")


class JudgmentKind(Enum):
    """Outcome of the 5-second stage judgment."""

    SAME = "same"
    LOADING = "loading"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class Judgment:
    """Stage judgment of one frame.

    ``matched_type`` is filled for MISMATCH: the known execution type the
    frame re-matches to (the rehearsal callback's jump target), or
    ``None`` when the frame matches no known type.
    """

    kind: JudgmentKind
    cluster: int
    matched_type: Optional[StageTypeId] = None


class StagePredictor:
    """Per-game next-stage predictor.

    Parameters
    ----------
    library:
        Profiled stage library.
    category:
        The game's Fig-7 quadrant (selects the dataset policy).
    backend:
        ``"dtc"`` (default), ``"rf"`` or ``"gbdt"``.
    history:
        Stage-history length in the features.
    seed:
        Training randomness.

    Attributes (after :meth:`train`)
    --------------------------------
    accuracy_:
        Held-out next-stage accuracy (Eq-1's ``P``).
    """

    def __init__(
        self,
        library: StageLibrary,
        category: GameCategory,
        *,
        backend: str = "dtc",
        history: int = 3,
        seed: Seed = 0,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.library = library
        self.category = category
        self.backend = backend
        self.builder = StageDatasetBuilder(library, history=history)
        self._seed = seed if isinstance(seed, int) or seed is None else 0
        self._models: Dict[str, object] = {}
        self._fallback: Optional[object] = None
        self.accuracy_: Optional[float] = None
        #: Fault-injection switch: while True, :meth:`predict_next`
        #: raises :class:`PredictorBackendError` (see repro.faults).
        self.failure_injected: bool = False
        #: :meth:`predict_next` answers keyed by everything its features
        #: read (see :meth:`_feature_key`); :meth:`train` starts a new table.
        self._memo: Dict[Hashable, Tuple[StageTypeId, float]] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        corpus_segments: Sequence[Tuple[str, Sequence]],
        *,
        test_size: float = 0.25,
    ) -> float:
        """Train on profiled sessions and return held-out accuracy.

        ``corpus_segments`` is ``(player_id, segments)`` per session —
        the output of running the profiler's segmentation over the
        training corpus.
        """
        datasets = self.builder.build(corpus_segments, self.category)
        accuracies: List[Tuple[float, int]] = []
        self._models = {}
        self._memo = {}
        for key, ds in sorted(datasets.items()):
            model_seed = derive_seed(self._seed, self.library.game, key, self.backend)
            model = make_backend(self.backend, seed=model_seed)
            acc, fitted = self._fit_scored(model, ds, test_size, model_seed)
            self._models[key] = fitted
            accuracies.append((acc, ds.n_samples))
        # MOBILE also trains a pooled fallback for never-seen players.
        if self.category is GameCategory.MOBILE:
            pooled = self.builder.build(corpus_segments, GameCategory.WEB)["*"]
            fb_seed = derive_seed(self._seed, self.library.game, "*fallback*", self.backend)
            fb = make_backend(self.backend, seed=fb_seed)
            _, self._fallback = self._fit_scored(fb, pooled, test_size, fb_seed)
        total = sum(n for _, n in accuracies)
        self.accuracy_ = float(sum(a * n for a, n in accuracies) / total)
        return self.accuracy_

    @staticmethod
    def _fit_scored(
        model, ds: StageDataset, test_size: float, seed: int, *, repeats: int = 5
    ):
        """Fit with repeated held-out splits when the dataset allows one.

        The paper's protocol is a random 75/25 split; with the small
        per-game datasets a single split is noisy, so the reported
        accuracy averages ``repeats`` independent splits, then the model
        is refit on everything for deployment.
        """
        classes = np.unique(ds.y)
        if ds.n_samples >= 8 and len(classes) >= 2:
            from repro.mlkit.model_selection import train_test_split

            scores = []
            for r in range(repeats):
                Xtr, Xte, ytr, yte = train_test_split(
                    ds.X, ds.y, test_size=test_size, seed=seed + r, stratify=True
                )
                model.fit(Xtr, ytr)
                scores.append(model.score(Xte, yte))
            model.fit(ds.X, ds.y)
            return float(np.mean(scores)), model
        model.fit(ds.X, ds.y)
        return float(model.score(ds.X, ds.y)), model

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has completed."""
        return bool(self._models)

    def inject_failure(self, failing: bool = True) -> None:
        """Toggle the fault-injection failure mode of this backend.

        While failing, :meth:`predict_next` raises
        :class:`PredictorBackendError`; :meth:`judge` and
        :meth:`prior_prediction` stay available (they do not touch the
        trained models), which is exactly what the degradation path
        relies on.
        """
        self.failure_injected = bool(failing)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _model_key(self, player_id: Optional[str]) -> Optional[str]:
        """Key of the model serving ``player_id`` (``None``: the pooled
        MOBILE fallback)."""
        if self.category is GameCategory.MOBILE:
            if player_id is not None and player_id in self._models:
                return player_id
            if self._fallback is not None:
                return None
            # Deterministic fallback: the first per-player model.
            return next(iter(self._models))
        return "*"

    def _feature_key(
        self, model_key: Optional[str], seq: List[int], group_hist
    ) -> Hashable:
        """Everything :meth:`StageDatasetBuilder.encode_history` reads of
        ``seq``: the last ``history`` indices, the per-type counts clipped
        at 10 and the position clipped at 20 — plus the model and the
        MMO group histogram.  Equal keys give equal feature vectors."""
        counts = [0] * self.builder.n_types
        for idx in seq:
            counts[idx] += 1
        return (
            model_key,
            tuple(seq[-self.builder.history:]),
            tuple([c if c < 10 else 10 for c in counts]),
            min(len(seq), 20),
            None if group_hist is None else (group_hist.shape, group_hist.tobytes()),
        )

    @effects(hot_path=True)
    def predict_next(
        self,
        exec_history: Sequence[StageTypeId],
        *,
        player_id: Optional[str] = None,
        group_hist: Optional[np.ndarray] = None,
    ) -> Tuple[StageTypeId, float]:
        """Predict the next execution stage type from the history so far.

        Returns ``(type, confidence)``.  Unknown history types are
        skipped; an empty usable history falls back to the library's
        most common first stage (confidence = its empirical share).
        Answers are memoized per feature vector (the model inference is
        a pure function of it); an injected failure raises before the
        memo is consulted.
        """
        if not self.is_trained:
            raise RuntimeError("predictor is not trained; call train() first")
        if self.failure_injected:
            raise PredictorBackendError(
                f"backend {self.backend!r} failure injected"
            )
        seq = [
            idx
            for t in exec_history
            if (idx := self.builder.type_index(t)) is not None
        ]
        if self.category is GameCategory.MMO:
            if group_hist is None:
                group_hist = np.zeros(self.builder.n_types)
            else:
                group_hist = np.asarray(group_hist, dtype=float)
        else:
            group_hist = None
        if not seq:
            return self.prior_prediction()
        model_key = self._model_key(player_id)
        key = self._feature_key(model_key, seq, group_hist)
        answer = self._memo.get(key)
        if answer is None:
            feats = self.builder.encode_history(seq, len(seq), group_hist=group_hist)
            model = self._fallback if model_key is None else self._models[model_key]
            proba = model.predict_proba(feats[None, :])[0]
            best = int(np.argmax(proba))
            label = int(model.classes_[best])
            answer = (self.builder.types[label], float(proba[best]))
            self._memo[key] = answer
        return answer

    @effects(hot_path=True)
    def rollout(
        self,
        exec_history: Sequence[StageTypeId],
        steps: int,
        *,
        start: Optional[StageTypeId],
        player_id: Optional[str] = None,
    ) -> List[StageTypeId]:
        """Roll the stage chain forward ``steps`` iterations.

        This is the distributor's Algorithm-1 horizon walk: starting
        from ``start`` (the believed or predicted current stage), feed
        the growing history back into :meth:`predict_next` and collect
        the visited stage types.  A broken backend degrades each step to
        :meth:`prior_prediction` — deliberately without touching any
        circuit breaker, because admission rollouts may run once per
        queued request per round and must not flap session health.

        Returns an empty chain when ``start`` is ``None`` (no stage
        belief yet); otherwise exactly ``steps`` types.
        """
        if start is None:
            return []
        chain: List[StageTypeId] = []
        hist = list(exec_history)
        current = start
        for _ in range(steps):
            chain.append(current)
            hist.append(current)
            try:
                current, _conf = self.predict_next(hist, player_id=player_id)
            except PredictorBackendError:
                current, _conf = self.prior_prediction()
        return chain

    @effects(hot_path=True)
    def prior_prediction(self) -> Tuple[StageTypeId, float]:
        """Model-free prediction from the stage-history prior.

        Returns the library's most frequently observed execution type
        with its empirical share as confidence.  This is the last link
        of the degradation chain: it needs no trained backend, so it
        keeps serving while every model is broken or the circuit breaker
        is open.
        """
        stats = [
            (self.library.stats(t).occurrences, t)
            for t in self.builder.types
        ]
        total = sum(n for n, _ in stats)
        n, t = max(stats)
        return t, (n / total if total else 1.0)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def feature_names(self) -> List[str]:
        """Human-readable names of the feature vector's positions."""
        names: List[str] = []
        for h in range(self.builder.history):
            for t in self.builder.types:
                names.append(f"hist[-{h + 1}]={t!r}")
        for t in self.builder.types:
            names.append(f"count({t!r})")
        names.append("position")
        if self.category is GameCategory.MMO:
            for t in self.builder.types:
                names.append(f"group({t!r})")
        return names

    def feature_report(self, *, top: int = 8) -> List[Tuple[str, float]]:
        """Top feature importances, averaged over the trained models.

        Shows *what the predictor looks at*: the most recent stage, the
        type counts (progress through the script), or — for MMO games —
        the co-login group's context.
        """
        if not self.is_trained:
            raise RuntimeError("predictor is not trained; call train() first")
        names = self.feature_names()
        importances = []
        for model in self._models.values():
            fi = getattr(model, "feature_importances_", None)
            if fi is not None and len(fi) == len(names):
                importances.append(fi)
        if not importances:
            return []
        mean_fi = np.mean(importances, axis=0)
        order = np.argsort(mean_fi)[::-1][:top]
        return [(names[i], float(mean_fi[i])) for i in order if mean_fi[i] > 0]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable form of a *trained* predictor.

        The stage library is serialized separately (it is shared by all
        backends); pass it back to :meth:`from_dict`.
        """
        if not self.is_trained:
            raise RuntimeError("cannot serialize an untrained predictor")
        from repro.mlkit.serialize import model_to_dict

        return {
            "category": self.category.value,
            "backend": self.backend,
            "history": self.builder.history,
            "group_size": self.builder.group_size,
            "accuracy": self.accuracy_,
            "models": {key: model_to_dict(m) for key, m in self._models.items()},
            "fallback": (
                model_to_dict(self._fallback) if self._fallback is not None else None
            ),
        }

    @staticmethod
    def from_dict(data: Dict, library: StageLibrary) -> "StagePredictor":
        """Rebuild a trained predictor against a (deserialized) library."""
        from repro.mlkit.serialize import model_from_dict

        predictor = StagePredictor(
            library,
            GameCategory(data["category"]),
            backend=data["backend"],
            history=int(data["history"]),
        )
        predictor.builder.group_size = int(data["group_size"])
        predictor._models = {
            key: model_from_dict(m) for key, m in data["models"].items()
        }
        predictor._fallback = (
            model_from_dict(data["fallback"]) if data["fallback"] else None
        )
        predictor.accuracy_ = data["accuracy"]
        return predictor

    # ------------------------------------------------------------------
    # Stage judgment (the 5-second detector)
    # ------------------------------------------------------------------
    def judge(
        self, frame: np.ndarray, current_type: Optional[StageTypeId]
    ) -> Judgment:
        """Classify the latest frame against the believed current stage."""
        cluster = self.library.classify_frame(frame)
        if cluster in self.library.loading_clusters:
            return Judgment(JudgmentKind.LOADING, cluster)
        if current_type is not None and cluster in current_type:
            return Judgment(JudgmentKind.SAME, cluster)
        # Rehearsal-callback target: the most-observed known execution
        # type containing this cluster.
        candidates = [
            t
            for t in self.library.execution_types
            if t.contains(cluster)
        ]
        if candidates:
            matched = max(
                candidates, key=lambda t: self.library.stats(t).occurrences
            )
        else:
            matched = None
        return Judgment(JudgmentKind.MISMATCH, cluster, matched)


@dataclass(frozen=True)
class PredictionCostModel:
    """Wall-clock cost of one prediction cycle (paper Fig 12).

    The paper measures 3–13 s per prediction — dominated not by model
    inference (microseconds) but by collecting a stable telemetry
    window, assembling the whole-game stage history, and applying the
    resource adjustment.  The cost model scales with the game's stage-
    type count and the backend's complexity, reproducing that range.

    Parameters
    ----------
    base_seconds:
        Fixed data-collection cost.
    per_type_seconds:
        History-assembly cost per stage type.
    backend_factors:
        Relative inference/adjustment complexity per backend.
    """

    base_seconds: float = 2.0
    per_type_seconds: float = 0.9
    backend_factors: Tuple[Tuple[str, float], ...] = (
        ("dtc", 1.0),
        ("rf", 1.35),
        ("gbdt", 1.7),
    )

    def predict_seconds(self, n_stage_types: int, backend: str = "dtc") -> float:
        """Predicted latency of one prediction cycle."""
        if n_stage_types < 1:
            raise ValueError(f"n_stage_types must be >= 1, got {n_stage_types}")
        factors = dict(self.backend_factors)
        if backend not in factors:
            raise ValueError(f"unknown backend {backend!r}")
        return (
            self.base_seconds + self.per_type_seconds * n_stage_types
        ) * factors[backend]
