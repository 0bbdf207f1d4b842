"""Run configuration and the one composition root.

A :class:`RunConfig` is the JSON-serializable description of one fleet
run — games, fleet shape, gateway bounds, profile corpus parameters —
that a trace header carries.  It is strict both ways (defaults elided
on write, unknown keys rejected by name on read, exactly like
:class:`~repro.faults.plan.FaultSpec`), so its canonical fingerprint
pins the configuration a trace was recorded under.

:func:`build_experiment` is the one place a config becomes a running
fleet: it builds the cluster (gateway included), the optional capacity
plane and the :class:`~repro.cluster.experiment.FleetExperiment`, and
returns the experiment unrun so callers can reach ``.cluster``.
:func:`record_run`, :meth:`repro.fleet.RegionShard.run`,
:meth:`repro.trace.TraceReplayer.run` and every fleet command of the
CLI call it; :func:`build_profiles` trains the profiles it takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import (
    CoCGStrategy,
    GAugurStrategy,
    MaxStaticStrategy,
    ReactiveStrategy,
    VBPStrategy,
)
from repro.cluster.experiment import FleetExperiment, FleetResult
from repro.cluster.fleet import ClusterScheduler, FleetNode
from repro.cluster.provisioner import Provisioner, ProvisionerConfig
from repro.core.pipeline import GameProfile
from repro.faults.plan import FaultPlan
from repro.games.catalog import build_catalog
from repro.games.spec import GameSpec
from repro.obs.observer import Observer
from repro.platform_.profile import (
    BIG_SERVER_PLATFORM,
    REFERENCE_PLATFORM,
    WEAK_GPU_PLATFORM,
)
from repro.serve.gateway import AdmissionGateway, GatewayConfig
from repro.trace.recorder import TraceRecorder
from repro.util.rng import region_seed
from repro.util.validation import check_in

__all__ = [
    "STRATEGIES",
    "RunConfig",
    "make_strategy",
    "experiment_seed",
    "game_specs",
    "build_profiles",
    "build_cluster",
    "make_provisioner_factory",
    "build_experiment",
    "record_run",
]

#: Scheduling strategies by CLI name, in the order the CLI lists them.
STRATEGIES = {
    "cocg": CoCGStrategy,
    "reactive": ReactiveStrategy,
    "gaugur": GAugurStrategy,
    "vbp": VBPStrategy,
    "max-static": MaxStaticStrategy,
}

#: Node platforms a heterogeneous fleet cycles through.
_HETEROGENEOUS_PLATFORMS = (
    REFERENCE_PLATFORM, WEAK_GPU_PLATFORM, BIG_SERVER_PLATFORM,
)


def make_strategy(name: str):
    """One fresh scheduling strategy instance by CLI name."""
    check_in("strategy", name, tuple(sorted(STRATEGIES)))
    return STRATEGIES[name]()


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to rebuild a recorded run's fleet.

    Profile-building parameters (``players``/``sessions``/``backends``)
    are part of the config because the trained predictors influence
    admission decisions: a replay must train byte-identical profiles.

    ``fault_seed`` pins the fault plan's stochastic streams; the faults
    themselves live in the trace body.  ``warm_pool`` attaches a
    :class:`~repro.cluster.provisioner.Provisioner` with that many
    pre-booted standbys (``None`` = no capacity plane).

    ``heterogeneous`` cycles node platforms through reference, weak-GPU
    and big-server; ``micro_batching`` switches the gateway's shared
    Algorithm-1 pass (off = naive per-request dispatch).  Both are
    elided at their defaults, like every other optional field.

    ``region`` names the regional shard this run belongs to (empty =
    the classic unsharded fleet).  A region prefixes every node id
    (``east/node-0``) and namespaces the experiment seed through
    :func:`~repro.util.rng.region_seed`, so per-region sub-traces of a
    sharded run replay through the ordinary machinery while staying
    byte-distinct across regions; ``seed`` stays the fleet-wide base so
    profile training is shared.
    """

    games: Tuple[str, ...]
    nodes: int = 2
    policy: str = "round-robin"
    strategy: str = "cocg"
    horizon: int = 600
    rate_per_minute: float = 2.0
    seed: int = 0
    detect_interval: int = 5
    players: int = 3
    sessions: int = 2
    backends: Tuple[str, ...] = ("dtc",)
    gateway: bool = True
    queue_capacity: int = 64
    rate_limit: float = 4.0
    burst: int = 8
    max_queue_seconds: float = 300.0
    fault_seed: int = 0
    warm_pool: Optional[int] = None
    region: str = ""
    heterogeneous: bool = False
    micro_batching: bool = True

    #: Keys that may be elided from the payload (everything but games),
    #: in declaration order — one tuple serves serialization and strict
    #: deserialization.
    OPTIONAL_FIELDS = (
        "nodes", "policy", "strategy", "horizon", "rate_per_minute",
        "seed", "detect_interval", "players", "sessions", "backends",
        "gateway", "queue_capacity", "rate_limit", "burst",
        "max_queue_seconds", "fault_seed", "warm_pool", "region",
        "heterogeneous", "micro_batching",
    )

    def __post_init__(self) -> None:
        if not self.games:
            raise ValueError("games must be non-empty")
        object.__setattr__(self, "games", tuple(self.games))
        object.__setattr__(self, "backends", tuple(self.backends))
        check_in("policy", self.policy, ClusterScheduler.POLICIES)
        check_in(
            "strategy", self.strategy, tuple(sorted(STRATEGIES))
        )
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.warm_pool is not None and self.warm_pool < 0:
            raise ValueError(
                f"warm_pool must be >= 0, got {self.warm_pool}"
            )
        if self.region and not self.region.replace("-", "_").isidentifier():
            raise ValueError(
                f"region must be an identifier-like name (dashes ok), "
                f"got {self.region!r}"
            )

    def to_dict(self) -> Dict:
        """JSON payload (defaults elided — byte-stable fingerprint)."""
        out: Dict = {"games": list(self.games)}
        defaults = RunConfig(games=self.games)
        for name in self.OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_dict(data: Dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown keys rejected by name."""
        payload = dict(data)
        if "games" not in payload:
            raise ValueError(f"run config has no 'games': {data!r}")
        games = tuple(str(g) for g in payload.pop("games"))
        unknown = sorted(set(payload) - set(RunConfig.OPTIONAL_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown run-config key(s) {unknown}; known keys: games, "
                f"{', '.join(RunConfig.OPTIONAL_FIELDS)}"
            )
        if "backends" in payload:
            payload["backends"] = tuple(
                str(b) for b in payload["backends"]
            )
        return RunConfig(games=games, **payload)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def experiment_seed(config: RunConfig) -> int:
    """The run's experiment seed: the base seed, region-namespaced.

    Profile training always uses ``config.seed`` directly (shared
    across a sharded fleet); everything downstream of admission — node
    RNGs, session seeds, fault streams — uses this value, so regional
    shards of one fleet diverge deterministically.
    """
    if config.region:
        return region_seed(config.seed, config.region)
    return config.seed


def game_specs(
    games: Sequence[str], catalog: Optional[Dict] = None
) -> List[GameSpec]:
    """The catalog specs of ``games``, in order; unknown names rejected."""
    catalog = catalog if catalog is not None else build_catalog()
    unknown = [g for g in games if g not in catalog]
    if unknown:
        raise ValueError(
            f"unknown game(s) {unknown}; available: "
            f"{', '.join(sorted(catalog))}"
        )
    return [catalog[g] for g in games]


def build_profiles(
    config: RunConfig,
    catalog: Optional[Dict] = None,
) -> Dict[str, GameProfile]:
    """Train the config's game profiles (deterministic in the config)."""
    specs = game_specs(config.games, catalog)
    return {
        game: GameProfile.build(
            spec,
            n_players=config.players,
            sessions_per_player=config.sessions,
            seed=config.seed,
            backends=config.backends,
        )
        for game, spec in zip(config.games, specs)
    }


def build_cluster(
    config: RunConfig, profiles: Dict[str, GameProfile]
) -> ClusterScheduler:
    """One fresh fleet per call (gateway attached when configured).

    A regioned config prefixes node ids (``east/node-0``) and offsets
    node seeds from the region-namespaced experiment seed, so two
    regions of one sharded fleet never share node identity or node
    randomness.
    """
    prefix = f"{config.region}/" if config.region else ""
    base = experiment_seed(config)
    platforms = (
        _HETEROGENEOUS_PLATFORMS if config.heterogeneous
        else (REFERENCE_PLATFORM,)
    )
    nodes = [
        FleetNode(
            f"{prefix}node-{i}",
            make_strategy(config.strategy),
            profiles,
            platform=platforms[i % len(platforms)],
            seed=base + i,
        )
        for i in range(config.nodes)
    ]
    cluster = ClusterScheduler(nodes, policy=config.policy)
    if config.gateway:
        gateway = AdmissionGateway(
            cluster,
            config=GatewayConfig(
                queue_capacity=config.queue_capacity,
                rate_per_second=config.rate_limit,
                burst=config.burst,
                max_queue_seconds=config.max_queue_seconds,
                micro_batching=config.micro_batching,
            ),
        )
        cluster.attach_gateway(gateway)
    return cluster


def make_provisioner_factory(
    config: RunConfig, profiles: Dict[str, GameProfile]
) -> Optional[Callable[[ClusterScheduler], Provisioner]]:
    """The capacity-plane factory a config implies (None without one)."""
    if config.warm_pool is None:
        return None

    seed = experiment_seed(config)

    def factory(cluster: ClusterScheduler) -> Provisioner:
        return Provisioner(
            cluster,
            lambda node_id: FleetNode(
                node_id,
                make_strategy(config.strategy),
                profiles,
                seed=seed,
            ),
            config=ProvisionerConfig(warm_pool_size=config.warm_pool),
            seed=seed,
        )

    return factory


def build_experiment(
    config: RunConfig,
    profiles: Dict[str, GameProfile],
    *,
    plan: Optional[FaultPlan] = None,
    arrivals: Optional[object] = None,
    obs: Optional[Observer] = None,
    seed: Optional[int] = None,
) -> FleetExperiment:
    """The composition root: one config's fleet run, built but not run.

    Builds a fresh cluster (gateway included when configured) and the
    capacity plane the config implies, and wraps them in a
    :class:`FleetExperiment` over the config's games, horizon, arrival
    rate and detect interval.  ``plan``, ``arrivals`` and ``obs`` pass
    through to the experiment; ``seed`` overrides the experiment seed
    (default :func:`experiment_seed`), which replay uses to run from the
    seed its trace header recorded.
    """
    cluster = build_cluster(config, profiles)
    factory = make_provisioner_factory(config, profiles)
    return FleetExperiment(
        cluster,
        game_specs(config.games),
        horizon=config.horizon,
        rate_per_minute=config.rate_per_minute,
        seed=experiment_seed(config) if seed is None else seed,
        detect_interval=config.detect_interval,
        fault_plan=plan,
        provisioner=factory(cluster) if factory is not None else None,
        obs=obs,
        arrivals=arrivals,
    )


def record_run(
    config: RunConfig,
    *,
    scenario: str = "",
    plan: Optional[FaultPlan] = None,
    arrivals: Optional[object] = None,
    profiles: Optional[Dict[str, GameProfile]] = None,
) -> Tuple[FleetResult, TraceRecorder]:
    """Run one configured experiment and record it.

    Returns the run's result and the recorder, finalized over the
    finished experiment — call ``recorder.save(path)`` to persist the
    ``.cgtrace``.  ``arrivals`` overrides the config's Poisson stream
    (corpus scenarios pass their shaped load generator); ``plan`` is
    recorded into the trace and its seed pinned into the config's
    ``fault_seed``.
    """
    if plan is not None and config.fault_seed != plan.seed:
        config = replace(config, fault_seed=plan.seed)
    if profiles is None:
        profiles = build_profiles(config)
    recorder = TraceRecorder(
        seed=experiment_seed(config), config=config.to_dict(),
        scenario=scenario,
    )
    experiment = build_experiment(
        config, profiles, plan=plan, arrivals=arrivals
    )
    result = experiment.run()
    recorder.finalize(experiment, result)
    return result, recorder
