"""The fleet-of-fleets controller: N regional shards, one result.

Topology (see ``docs/FLEET.md``)::

    arrivals ──> SessionRouter ──┬──> RegionShard "east"  ─┐
                 (consistent     ├──> RegionShard "west"  ─┼──> merge()
                  hash ring)     └──> RegionShard "south" ─┘      │
                                                                  v
                                                     FleetOfFleetsResult

Each :class:`RegionShard` is a *fully independent* partition: its own
:class:`~repro.sim.engine.SimulationEngine` event stream, its own
cluster (nodes prefixed ``<region>/``), its own provisioner and
gateway-free admission path, and RNG namespaced through
:func:`~repro.util.rng.region_seed` — nothing is shared but the trained
profiles (a pure function of the base config).  Shards therefore
execute in any order, in any process, with identical results;
:func:`~repro.util.partition.run_partitioned` runs them concurrently in
forked workers and returns their outcomes keyed by sorted name.
:meth:`FleetOfFleets.run` reads only those outcomes: the routed counts
are set in :meth:`~FleetOfFleets.build_shards` and the merge is pure.

Reduction guarantee: with a single region the controller builds the
*classic* fleet — unprefixed node ids, un-namespaced seed, the router's
split is the identity — so the merged digest equals the plain
:class:`~repro.cluster.experiment.FleetExperiment` digest byte for
byte.  With N regions the merged digest is the SHA-256 of the sorted
``<region>:<digest>`` lines, so it is independent of execution order
and any single region's digest change is visible at the top.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.cluster.experiment import FleetResult, default_arrivals
from repro.fleet.ring import DEFAULT_REPLICAS
from repro.fleet.router import RoutedArrivals, SessionRouter
from repro.games.catalog import build_catalog
from repro.trace.harness import (
    RunConfig,
    build_experiment,
    build_profiles,
    game_specs,
    record_run,
)
from repro.util.effects import shard_entry, shard_merge_point
from repro.util.partition import run_partitioned
from repro.util.rng import region_seed
from repro.workloads.metrics import throughput_eq2

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.faults.plan import FaultPlan
    from repro.trace.recorder import TraceRecorder

__all__ = [
    "RegionSpec",
    "RegionShard",
    "RegionOutcome",
    "FleetOfFleets",
    "FleetOfFleetsResult",
]

#: Regional id_base stride: region ``k`` (sorted order) issues request
#: ids from ``k << 40`` in ``regional`` arrival mode, so merged streams
#: cannot collide below a trillion requests per region.
ID_STRIDE = 1 << 40


@dataclass(frozen=True)
class RegionSpec:
    """One regional shard's declaration.

    ``weight`` scales the region's share of the hash ring (its routed
    traffic); ``nodes`` / ``warm_pool`` override the base config's
    fleet shape for this region only (``None`` = inherit);
    ``fault_plan`` is a region-scoped schedule (see
    :func:`~repro.fleet.plans.region_outage_plan`) replayed into this
    shard alone.
    """

    name: str
    weight: float = 1.0
    nodes: Optional[int] = None
    warm_pool: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "_").isidentifier():
            raise ValueError(
                f"region name must be identifier-like (dashes ok), "
                f"got {self.name!r}"
            )
        if not self.weight > 0:
            raise ValueError(
                f"region {self.name!r} weight must be > 0, "
                f"got {self.weight!r}"
            )
        if self.nodes is not None and self.nodes < 1:
            raise ValueError(
                f"region {self.name!r} nodes must be >= 1, got {self.nodes}"
            )
        if self.warm_pool is not None and self.warm_pool < 0:
            raise ValueError(
                f"region {self.name!r} warm_pool must be >= 0, "
                f"got {self.warm_pool}"
            )


@dataclass
class RegionOutcome:
    """One shard's run outcome (result + optional sealed sub-trace)."""

    name: str
    result: FleetResult
    recorder: Optional[TraceRecorder] = None

    @property
    def digest(self) -> str:
        """The shard's fleet telemetry digest."""
        return self.result.telemetry_digest


class RegionShard:
    """One fully independent regional partition, ready to run.

    Built by :class:`FleetOfFleets`; everything the shard needs —
    config (region-stamped), arrival slice, fault plan, shared
    profiles — is bound at construction, so :meth:`run` is a
    zero-argument thunk :func:`~repro.util.partition.run_partitioned` can
    execute in any order and in a forked worker; its outcome pickles.
    """

    def __init__(
        self,
        name: str,
        config: RunConfig,
        profiles: Dict,
        *,
        arrivals: Optional[object] = None,
        fault_plan: Optional[FaultPlan] = None,
        record: bool = False,
        scenario: str = "",
    ):
        self.name = name
        self.config = config
        self.profiles = profiles
        self.arrivals = arrivals
        self.fault_plan = fault_plan
        self.record = record
        self.scenario = scenario

    @shard_entry("region:shard")
    def run(self) -> RegionOutcome:
        """Execute this shard's whole event stream, in isolation.

        A recording shard goes through :func:`record_run`, which pins
        the plan's seed into the sub-trace's config so it replays.
        """
        if self.record:
            result, recorder = record_run(
                self.config,
                scenario=self.scenario,
                plan=self.fault_plan,
                arrivals=self.arrivals,
                profiles=self.profiles,
            )
            return RegionOutcome(self.name, result, recorder)
        result = build_experiment(
            self.config,
            self.profiles,
            plan=self.fault_plan,
            arrivals=self.arrivals,
        ).run()
        return RegionOutcome(self.name, result)


@dataclass
class FleetOfFleetsResult:
    """The merged cross-shard outcome.

    ``merged_digest`` is the canonical fleet-of-fleets digest: the lone
    region's digest at N=1 (the reduction guarantee), else SHA-256 over
    the sorted ``<region>:<digest>`` lines.  ``completed_runs`` and
    ``throughput`` re-aggregate across regions; per-region detail stays
    in ``regions``.
    """

    regions: Dict[str, RegionOutcome]
    merged_digest: str
    completed_runs: Dict[str, int]
    throughput: float
    requests_routed: Dict[str, int]

    @property
    def region_digests(self) -> Dict[str, str]:
        """Region name -> that shard's telemetry digest (sorted)."""
        return {
            name: self.regions[name].digest
            for name in sorted(self.regions)
        }


class FleetOfFleets:
    """N regional shards behind one consistent-hash session router.

    Parameters
    ----------
    config:
        The base :class:`~repro.trace.harness.RunConfig` every region
        inherits (region overrides apply on top).  Its ``region`` field
        must be empty — the controller stamps it per shard.
    regions:
        The shard declarations (unique names; at least one).
    arrival_mode:
        ``"routed"`` (default): one global arrival stream generated
        from the base config's seed is split across regions by player
        id — at N=1 this is exactly the classic single-fleet stream.
        ``"regional"``: each region generates its own full-rate stream
        seeded ``region_seed(seed, name)`` with a disjoint request-id
        range (``index * ID_STRIDE``).
    replicas:
        Hash-ring vnodes per unit weight.
    record:
        Attach a :class:`~repro.trace.TraceRecorder` to every shard;
        the sealed per-region sub-traces come back on the outcomes.
    scenario:
        Scenario tag stamped into recorded sub-traces.
    """

    def __init__(
        self,
        config: RunConfig,
        regions: Sequence[RegionSpec],
        *,
        arrival_mode: str = "routed",
        replicas: int = DEFAULT_REPLICAS,
        record: bool = False,
        scenario: str = "",
    ):
        if not regions:
            raise ValueError("fleet needs at least one region")
        names = [spec.name for spec in regions]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate region name(s): {dupes}")
        if config.region:
            raise ValueError(
                "the base config must not be region-stamped; the "
                f"controller does that (got region={config.region!r})"
            )
        if arrival_mode not in ("routed", "regional"):
            raise ValueError(
                f"arrival_mode must be 'routed' or 'regional', "
                f"got {arrival_mode!r}"
            )
        self.config = config
        self.specs_by_name = {
            spec.name: spec for spec in sorted(regions, key=lambda s: s.name)
        }
        self.arrival_mode = arrival_mode
        self.record = record
        self.scenario = scenario
        self.router = SessionRouter(
            {spec.name: spec.weight for spec in regions},
            replicas=replicas,
        )
        self._routed_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _region_config(self, spec: RegionSpec) -> RunConfig:
        """The base config, stamped/overridden for one region.

        A single-region fleet stays *unstamped* — classic node ids and
        seed — which is what makes the N=1 digest equal the plain
        single-fleet digest.
        """
        region = spec.name if len(self.specs_by_name) > 1 else ""
        overrides: Dict = {"region": region}
        if spec.nodes is not None:
            overrides["nodes"] = spec.nodes
        if spec.warm_pool is not None:
            overrides["warm_pool"] = spec.warm_pool
        return replace(self.config, **overrides)

    def build_shards(self) -> Dict[str, RegionShard]:
        """Construct every region's independent shard (no execution)."""
        catalog = build_catalog()
        specs = game_specs(self.config.games, catalog)
        profiles = build_profiles(self.config, catalog)
        names = sorted(self.specs_by_name)
        if self.arrival_mode == "routed":
            stream = default_arrivals(
                specs,
                rate_per_minute=self.config.rate_per_minute,
                seed=self.config.seed,
                horizon=float(self.config.horizon),
            )
            slices: Dict[str, RoutedArrivals] = (
                {names[0]: RoutedArrivals(stream.requests)}
                if len(names) == 1
                else self.router.split(stream.requests)
            )
        else:
            slices = {
                name: default_arrivals(
                    specs,
                    rate_per_minute=self.config.rate_per_minute,
                    seed=region_seed(self.config.seed, name),
                    horizon=float(self.config.horizon),
                    id_base=index * ID_STRIDE,
                )
                for index, name in enumerate(names)
            }
        self._routed_counts = {
            name: len(slices[name].requests) for name in names
        }
        return {
            name: RegionShard(
                name,
                self._region_config(self.specs_by_name[name]),
                profiles,
                arrivals=slices[name],
                fault_plan=self.specs_by_name[name].fault_plan,
                record=self.record,
                scenario=self.scenario,
            )
            for name in names
        }

    @shard_entry("region:controller")
    def run(self) -> FleetOfFleetsResult:
        """Route, run every shard, and merge (the whole fleet-of-fleets)."""
        shards = self.build_shards()
        outcomes = run_partitioned(
            {name: shards[name].run for name in sorted(shards)}
        )
        return self.merge(outcomes)

    # ------------------------------------------------------------------
    @shard_merge_point
    def merge(
        self, outcomes: Dict[str, RegionOutcome]
    ) -> FleetOfFleetsResult:
        """Fold independent regional outcomes into the canonical result.

        This is the *only* place cross-shard state meets: pure
        aggregation over sorted region names, no feedback into any
        shard, so the merged result is a function of the outcome set
        alone.
        """
        names = sorted(outcomes)
        if len(names) == 1:
            merged = outcomes[names[0]].digest
        else:
            acc = hashlib.sha256()
            for name in names:
                acc.update(f"{name}:{outcomes[name].digest}\n".encode())
            merged = acc.hexdigest()
        completed: Dict[str, int] = {}
        for name in names:
            for game in sorted(outcomes[name].result.completed_runs):
                completed[game] = (
                    completed.get(game, 0)
                    + outcomes[name].result.completed_runs[game]
                )
        catalog = build_catalog()
        durations = {
            game: catalog[game].expected_duration()
            for game in sorted(completed)
        }
        return FleetOfFleetsResult(
            regions=dict(outcomes),
            merged_digest=merged,
            completed_runs=completed,
            throughput=throughput_eq2(completed, durations),
            requests_routed=dict(self._routed_counts),
        )
