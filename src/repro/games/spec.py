"""Game specifications: frame clusters, stages, scripts.

The paper's frame-grained view of a cloud game (§IV-A):

* a **frame cluster** is a region of resource space the game dwells in
  for many 5-second frames (walking the open world, fighting a boss,
  sitting in a loading screen …);
* a **stage** is a maximal timeline segment delimited by loading, and its
  **type** is the *combination of clusters* that appear inside it — one
  cluster for simple scenes, several for complex ones (the "three bosses
  in any order" secret realm);
* a **script** is a reproducible playthrough: the authored stage order
  plus the slots a player may permute (user influence).

A :class:`GameSpec` bundles clusters, stages and scripts with the game's
category, frame lock, and length class, and validates that they are
mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.games.category import GameCategory
from repro.platform_.resources import ResourceVector
from repro.util.validation import check_positive

__all__ = ["StageKind", "ClusterSpec", "StageSpec", "ScriptSpec", "GameSpec"]


class StageKind(Enum):
    """Loading stages delimit execution stages (paper Obs 2)."""

    LOADING = "loading"
    EXECUTION = "execution"


@dataclass(frozen=True)
class ClusterSpec:
    """A frame cluster: a stationary resource-demand distribution.

    Parameters
    ----------
    name:
        Cluster identifier, unique within a game.
    mean:
        Mean demand vector (percent per dimension).
    std:
        Per-dimension noise scale of 1-second samples.
    nominal_fps:
        FPS the game reaches in this cluster when demand is fully
        supplied (before any frame lock).
    """

    name: str
    mean: ResourceVector
    std: ResourceVector
    nominal_fps: float = 90.0

    def __post_init__(self) -> None:
        check_positive("nominal_fps", self.nominal_fps)
        if not self.mean.is_nonnegative() or not self.std.is_nonnegative():
            raise ValueError(f"cluster {self.name!r}: mean/std must be non-negative")
        if not self.mean.fits_within(ResourceVector.full(100.0)):
            raise ValueError(
                f"cluster {self.name!r}: mean demand {self.mean} exceeds 100 %"
            )


@dataclass(frozen=True)
class StageSpec:
    """One stage the game can be in.

    Parameters
    ----------
    name:
        Stage identifier, unique within a game.
    kind:
        Loading or execution.
    clusters:
        Names of the frame clusters composing the stage.  Loading stages
        must reference exactly one cluster; execution stages may mix
        several (the stage *type* is their set).
    base_duration:
        Execution: nominal play seconds before user scaling.  Loading:
        the work amount — seconds needed at full resource supply.
    cluster_dwell:
        Mean seconds spent in one cluster before hopping to another
        (multi-cluster stages only).
    duration_scale:
        How strongly user influence stretches/shrinks this stage
        (lognormal sigma multiplier applied by the player model; 0 pins
        the duration).
    """

    name: str
    kind: StageKind
    clusters: Tuple[str, ...]
    base_duration: float
    cluster_dwell: float = 20.0
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("base_duration", self.base_duration)
        check_positive("cluster_dwell", self.cluster_dwell)
        if self.duration_scale < 0:
            raise ValueError(f"duration_scale must be >= 0, got {self.duration_scale}")
        if not self.clusters:
            raise ValueError(f"stage {self.name!r} must reference >= 1 cluster")
        if self.kind is StageKind.LOADING and len(self.clusters) != 1:
            raise ValueError(
                f"loading stage {self.name!r} must reference exactly one cluster"
            )
        if len(set(self.clusters)) != len(self.clusters):
            raise ValueError(f"stage {self.name!r} repeats a cluster")

    @property
    def stage_type(self) -> FrozenSet[str]:
        """The cluster combination defining this stage's *type*."""
        return frozenset(self.clusters)


@dataclass(frozen=True)
class ScriptSpec:
    """A reproducible playthrough (paper Table I rows).

    Parameters
    ----------
    name:
        Script identifier, unique within a game.
    description:
        Table-I style description.
    stages:
        Stage names in authored order, loading stages included
        explicitly.
    permutable_groups:
        Tuples of indices into ``stages`` whose *contents* a player may
        reorder among themselves — the paper's user influence on stage
        order (Genshin task order, the three-boss realm).  Indices must
        reference execution stages.
    """

    name: str
    description: str
    stages: Tuple[str, ...]
    permutable_groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"script {self.name!r} has no stages")
        seen: set[int] = set()
        for group in self.permutable_groups:
            if len(group) < 2:
                raise ValueError(
                    f"script {self.name!r}: permutable group {group} needs >= 2 slots"
                )
            for idx in group:
                if not (0 <= idx < len(self.stages)):
                    raise ValueError(
                        f"script {self.name!r}: group index {idx} out of range"
                    )
                if idx in seen:
                    raise ValueError(
                        f"script {self.name!r}: index {idx} in multiple groups"
                    )
                seen.add(idx)


@dataclass(frozen=True)
class GameSpec:
    """A complete game definition.

    Parameters
    ----------
    name:
        Game title.
    category:
        Fig-7 quadrant, which selects the predictor's dataset policy.
    clusters:
        ``{name: ClusterSpec}`` for every frame cluster.
    stages:
        ``{name: StageSpec}`` for every stage.
    scripts:
        The Table-I scripts.
    frame_lock:
        Manufacturer FPS cap (Genshin/DMC lock 30/60) or ``None``.
    long_term:
        The regulator's coarse game-length class (§IV-C2 "distinguish
        game length"): ``True`` for long matches/campaigns, ``False``
        for short sessions that fit between peaks.
    description:
        Free-form notes.
    """

    name: str
    category: GameCategory
    clusters: Mapping[str, ClusterSpec]
    stages: Mapping[str, StageSpec]
    scripts: Tuple[ScriptSpec, ...]
    frame_lock: Optional[float] = None
    long_term: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError(f"game {self.name!r} has no clusters")
        if not self.scripts:
            raise ValueError(f"game {self.name!r} has no scripts")
        for cname, cluster in self.clusters.items():
            if cluster.name != cname:
                raise ValueError(
                    f"cluster key {cname!r} != cluster.name {cluster.name!r}"
                )
        for sname, stage in self.stages.items():
            if stage.name != sname:
                raise ValueError(f"stage key {sname!r} != stage.name {stage.name!r}")
            for cname in stage.clusters:
                if cname not in self.clusters:
                    raise ValueError(
                        f"stage {sname!r} references unknown cluster {cname!r}"
                    )
        names = [s.name for s in self.scripts]
        if len(set(names)) != len(names):
            raise ValueError(f"game {self.name!r} has duplicate script names")
        for script in self.scripts:
            for stage_name in script.stages:
                if stage_name not in self.stages:
                    raise ValueError(
                        f"script {script.name!r} references unknown stage "
                        f"{stage_name!r}"
                    )
            for group in script.permutable_groups:
                for idx in group:
                    if self.stages[script.stages[idx]].kind is not StageKind.EXECUTION:
                        raise ValueError(
                            f"script {script.name!r}: permutable slot {idx} is not "
                            f"an execution stage"
                        )
        if self.frame_lock is not None:
            check_positive("frame_lock", self.frame_lock)
        if not any(
            stage.kind is StageKind.LOADING for stage in self.stages.values()
        ):
            raise ValueError(
                f"game {self.name!r} needs at least one loading stage (paper Obs 2)"
            )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def script(self, name: str) -> ScriptSpec:
        """Find a script by name."""
        for script in self.scripts:
            if script.name == name:
                return script
        raise KeyError(f"game {self.name!r} has no script {name!r}")

    def loading_cluster_names(self) -> FrozenSet[str]:
        """Clusters referenced by any loading stage."""
        out: set[str] = set()
        for stage in self.stages.values():
            if stage.kind is StageKind.LOADING:
                out.update(stage.clusters)
        return frozenset(out)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def stage_peak_demand(self, stage_name: str, *, sigmas: float = 2.0) -> ResourceVector:
        """Conservative per-stage peak: max over clusters of mean + kσ."""
        stage = self.stages[stage_name]
        peak = ResourceVector.zeros()
        for cname in stage.clusters:
            cluster = self.clusters[cname]
            peak = peak.maximum(cluster.mean + cluster.std * sigmas)
        return peak.clip(0.0, 100.0)

    def peak_demand(self, *, sigmas: float = 2.0) -> ResourceVector:
        """Whole-game peak over every stage (what VBP/GAugur profile)."""
        peak = ResourceVector.zeros()
        for name in self.stages:
            peak = peak.maximum(self.stage_peak_demand(name, sigmas=sigmas))
        return peak

    def stage_type_count(self, script_name: str) -> int:
        """Number of distinct stage types in a script (Table I column)."""
        script = self.script(script_name)
        return len({self.stages[s].stage_type for s in script.stages})

    def expected_script_duration(self, script_name: str) -> float:
        """Nominal script length in seconds (base durations, no user scaling)."""
        script = self.script(script_name)
        return float(sum(self.stages[s].base_duration for s in script.stages))

    def expected_duration(self) -> float:
        """Mean nominal duration over all scripts (Eq-2's ``S_i``)."""
        return float(
            np.mean([self.expected_script_duration(s.name) for s in self.scripts])
        )
