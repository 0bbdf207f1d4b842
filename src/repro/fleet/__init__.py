"""Fleet-of-fleets: regional shards behind a consistent-hash router.

The top layer of the stack: a :class:`FleetOfFleets` owns N regional
shards — each a fully independent partition with its own event stream,
cluster, provisioner, and :func:`~repro.util.rng.region_seed`-spaced
randomness — fronted by a :class:`SessionRouter` that consistent-hashes
players onto regions over a :class:`HashRing`.  Regional streams
execute independently and meet only in the ``@shard_merge_point``
aggregator, which folds them into one canonical cross-shard digest; at
N=1 the whole construction reduces byte-for-byte to the classic single
:class:`~repro.cluster.experiment.FleetExperiment`.  Startup
certification (:func:`certify_runtime`) refuses to run a fleet whose
``shardplan.json`` certificate no longer matches the registered entry
points.  See ``docs/FLEET.md``.
"""

from repro import _lazy_exports

__all__ = [
    "HashRing",
    "ring_point",
    "SessionRouter",
    "RoutedArrivals",
    "RegionSpec",
    "RegionShard",
    "RegionOutcome",
    "FleetOfFleets",
    "FleetOfFleetsResult",
    "region_outage_plan",
    "region_node_id",
    "certify_runtime",
    "load_certificate",
    "runtime_entry_points",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "certify_runtime": ".certify",
    "load_certificate": ".certify",
    "runtime_entry_points": ".certify",
    "FleetOfFleets": ".controller",
    "FleetOfFleetsResult": ".controller",
    "RegionOutcome": ".controller",
    "RegionShard": ".controller",
    "RegionSpec": ".controller",
    "region_node_id": ".plans",
    "region_outage_plan": ".plans",
    "HashRing": ".ring",
    "ring_point": ".ring",
    "RoutedArrivals": ".router",
    "SessionRouter": ".router",
})
