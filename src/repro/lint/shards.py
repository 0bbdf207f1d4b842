"""Shard-interference analysis and the certification rules (CG020–CG022).

ROADMAP item 1 splits the control plane into partitioned event streams
— one engine heap per shard, merged deterministically.  That split is
only sound for code the analyzer can *prove* partition-safe.  This
module is that proof: a static race detector over the name-resolved
call graph that walks forward from every **shard entry point** (a
function decorated ``@shard_entry("<group>")``, plus the conventional
``run``/``pump``/``dispatch``/``submit`` terminals under
``cluster``/``serve``) and classifies each reachable function:

``shard_local``
    reachable from a single shard *group* (one partitioned heap) and
    free of shared-state writes — safe to replicate per shard without
    coordination;
``shard_shared_read``
    reachable from two or more shard groups but still write-free —
    safe to share read-only across partitions;
``shard_interfering``
    can reach a module-/class-level state write — the static analogue
    of a data race; blocks partitioning until fixed or justified.

:func:`render_shard_plan` exports the verdict as a sorted, byte-stable
``shardplan.json`` certificate (schema ``cocg-shardplan/1``,
``cocg lint --shard-plan-out``): the entry points, each module's worst
class, the partition-safe module set and every blocking witness chain.
Per-function classes stay in :class:`ShardAnalysis`.  The runtime
counterpart — :func:`repro.util.effects.shard_entry` and
:func:`repro.sim.engine.validate_shard_plan` — cross-checks the shipped
certificate against the entry points actually registered at run time.

Three rules enforce the contract (CG015, in :mod:`repro.lint.effects`,
reports every entry-reachable shared-state write from the same
reachability, with both witness chains when two entries reach it):

========  ==============================================================
CG020     merge-order fragility: an engine emit whose priority ties are
          broken by anything other than the documented band ownership
CG021     seed-stream partition leakage: a ``derive_seed`` namespace
          shared across entry points, or a raw literal-seed RNG
CG022     cross-shard digest writes: a telemetry/digest sink fed from
          more than one partition without a declared merge point
========  ==============================================================
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.lint.dataflow import (
    Witness,
    entry_chain,
    reach_from,
    reach_taints,
    render_chain,
)
from repro.lint.project import ModuleSummary, ProjectContext, ProjectRule
from repro.lint.registry import ANALYZER_VERSION, register_project

__all__ = [
    "SHARD_ENTRY_TERMINALS",
    "SHARD_ENTRY_PACKAGES",
    "SHARD_EXEMPT_PACKAGES",
    "DEFAULT_GROUP",
    "shard_family",
    "SHARD_CLASSES",
    "ShardAnalysis",
    "shard_analysis",
    "shard_entry_points",
    "render_shard_plan",
    "MergeOrderFragility",
    "SeedStreamPartitionLeakage",
    "CrossShardDigestWrite",
]

#: Terminal names that make a ``cluster``/``serve`` function a shard
#: entry point by convention: ``FleetExperiment.run``, the gateway
#: ``pump``, cluster ``dispatch``/``submit``.  An explicit
#: ``@shard_entry`` decoration anywhere also creates an entry.
SHARD_ENTRY_TERMINALS = frozenset({"run", "pump", "dispatch", "submit"})
SHARD_ENTRY_PACKAGES = ("cluster", "serve")

#: Packages whose in-package writes are the sanctioned exception:
#: ``lint`` mutates its rule registries at import time only.
SHARD_EXEMPT_PACKAGES = frozenset({"lint"})

#: Group assigned to conventional (undecorated) entry points.  Today's
#: tree is one partition; the next PR splits it per region by
#: decorating entries into distinct groups.
DEFAULT_GROUP = "fleet"


def shard_family(group: str) -> str:
    """The partition *family* of an entry group.

    Groups spell either a bare partition name (``"fleet"`` — its own
    family) or ``family:member`` (``"region:controller"``).  Entries
    whose groups share a family run on replicas of the same partition
    template — the regional shards of one fleet — so code reachable
    from several of them is still local to each replica's heap, never
    contended between heaps.  Locality (and rule CG022) is therefore
    judged per family, while the certificate's entry table keeps the
    full ``family:member`` spelling.
    """
    return group.split(":", 1)[0]

#: Classification lattice, best to worst.
SHARD_CLASSES = ("shard_local", "shard_shared_read", "shard_interfering")

#: Packages whose *emit sites* the merge-order rule skips: the engine
#: itself (``sim``) forwards caller-chosen priorities by design, and
#: the exempt packages never schedule fleet events.
_EMIT_EXEMPT_PACKAGES = frozenset({"sim"}) | SHARD_EXEMPT_PACKAGES


def shard_entry_points(project: ProjectContext) -> Dict[str, str]:
    """Every shard entry point, as ``node_id -> group``.

    Decorated entries (``@shard_entry("g")``) win over the conventional
    terminal-name rule; undecorated conventional entries default to
    :data:`DEFAULT_GROUP`.
    """
    entries: Dict[str, str] = {}
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual in sorted(mod.functions):
            fn = mod.functions[qual]
            node = f"{name}::{qual}"
            if fn.shard_entry is not None:
                entries[node] = fn.shard_entry
            elif (mod.package in SHARD_ENTRY_PACKAGES
                  and qual.split(".")[-1] in SHARD_ENTRY_TERMINALS):
                entries[node] = DEFAULT_GROUP
    return entries


class ShardAnalysis:
    """Reachability + interference facts for one project context.

    Construction runs one forward BFS per entry point (for per-entry
    witness chains) and one reverse BFS for write-interference over the
    project's call graph; the
    :class:`~repro.lint.project.ProjectContext` owns one instance per
    run (:func:`shard_analysis`), shared by CG015, the CG020–CG022
    rules and the certificate writer.
    """

    def __init__(self, project: ProjectContext):
        self.project = project
        #: entry node id -> group name.
        self.entries: Dict[str, str] = shard_entry_points(project)
        #: entry node id -> forward parent pointers from that entry.
        self.entry_parents: Dict[str, Dict[str, Optional[str]]] = {}
        #: reachable node -> sorted entry node ids that reach it.
        self.reached_by: Dict[str, List[str]] = {}
        for entry in sorted(self.entries):
            parents = reach_from(project.graph, [entry])
            self.entry_parents[entry] = parents
            for node in parents:
                self.reached_by.setdefault(node, []).append(entry)
        for node in self.reached_by:
            self.reached_by[node].sort()
        #: node -> witness of the nearest reachable shared-state write
        #: (exempt packages' writes do not count).
        self.write_reach: Dict[str, Witness] = reach_taints(
            project, project.graph, self._own_write,
        )

    def _own_write(self, node: str) -> Optional[str]:
        mod = self.project.module_of(node)
        if mod.package in SHARD_EXEMPT_PACKAGES:
            return None
        sites = self.project.function(node).global_writes
        return sites[0].desc if sites else None

    def groups_of(self, node: str) -> Tuple[str, ...]:
        """Sorted distinct shard *families* whose entries reach ``node``.

        ``family:member`` groups collapse to their family
        (:func:`shard_family`): the members are replicas of one
        partition template, not partitions that can race each other.
        """
        return tuple(sorted({
            shard_family(self.entries[e])
            for e in self.reached_by.get(node, ())
        }))

    def classification(self, node: str) -> Optional[str]:
        """The shard class of a function (``None`` when unreachable).

        Locality is per shard *family*, not per entry function: two
        entries in the same family feed (replicas of) the same
        partitioned heap, so code they share is still local to that
        shard.
        """
        entries = self.reached_by.get(node)
        if not entries:
            return None
        if node in self.write_reach:
            return "shard_interfering"
        if len(self.groups_of(node)) > 1:
            return "shard_shared_read"
        return "shard_local"

    def chain_from(self, entry: str, node: str) -> List[str]:
        """The entry-to-function call chain (for witness printing)."""
        return entry_chain(self.entry_parents[entry], node)

    def blocking_writes(self) -> List[Tuple[str, List[str]]]:
        """``(node, chains)`` for each reachable function that itself
        writes shared state, sorted by node: the rendered chains from
        its first two entry points.  Exempt packages' writes do not
        count.  CG015 and the certificate both read this list."""
        return [
            (node, [render_chain(self.chain_from(entry, node))
                    for entry in self.reached_by[node][:2]])
            for node in sorted(self.reached_by) if self._own_write(node)
        ]

    # -- priority bands (CG020) ----------------------------------------
    def priority_bands(self) -> Dict[int, List[Tuple[str, str, str]]]:
        """value -> sorted ``(package, module, constant)`` owners.

        A *band* is a module-level integer constant whose name contains
        ``PRIO`` (``LIFECYCLE_PRIORITY``, ``FAULT_PRIORITY``,
        ``_PRIO_SUBMIT``): the documented owners of the total order at
        that priority value.
        """
        bands: Dict[int, List[Tuple[str, str, str]]] = {}
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            for const, value in sorted(mod.int_constants.items()):
                if "PRIO" in const.upper():
                    bands.setdefault(value, []).append(
                        (mod.package, name, const)
                    )
        for owners in bands.values():
            owners.sort()
        return bands

    def resolve_priority(self, mod: ModuleSummary,
                         ref: Optional[str]) -> Optional[int]:
        """Resolve a named emit priority to its constant value.

        The emitting module's own constants win; otherwise the name must
        resolve to one unambiguous value across the whole project
        (imported constants like ``LIFECYCLE_PRIORITY``).  ``None`` when
        the name is unknown or ambiguous.
        """
        if ref is None:
            return None
        if ref in mod.int_constants:
            return mod.int_constants[ref]
        values = {
            other.int_constants[ref]
            for other in self.project.modules.values()
            if ref in other.int_constants
        }
        return values.pop() if len(values) == 1 else None


def shard_analysis(project: ProjectContext) -> ShardAnalysis:
    """The project's shard analysis (built once, on first use)."""
    return project.shards


_CLASS_RANK = {cls: i for i, cls in enumerate(SHARD_CLASSES)}


def render_shard_plan(project: ProjectContext) -> str:
    """The ``shardplan.json`` certificate text (sorted, byte-stable).

    Keys are ``module::qualname`` / dotted module names only — no
    absolute paths — so a double run, a cold-vs-warm cache pair, and
    two machines all produce identical bytes.  The certificate names
    every entry point with its group, derives the worst class and the
    reachable-function count per module, counts reachable functions per
    class, lists the partition-safe module set, and records every
    blocking write with its witness chains.  A single function's class
    is :meth:`ShardAnalysis.classification`; it is not written out,
    so the certificate changes only when a module's verdict does.
    """
    analysis = shard_analysis(project)
    counts = {cls: 0 for cls in SHARD_CLASSES}
    module_class: Dict[str, str] = {}
    module_counts: Dict[str, int] = {}
    for node in analysis.reached_by:
        cls = analysis.classification(node)
        counts[cls] += 1
        module = node.split("::", 1)[0]
        module_counts[module] = module_counts.get(module, 0) + 1
        worst = module_class.get(module)
        if worst is None or _CLASS_RANK[cls] > _CLASS_RANK[worst]:
            module_class[module] = cls

    interfering: List[dict] = []
    for node, chains in analysis.blocking_writes():
        for site in project.function(node).global_writes:
            interfering.append({
                "function": node,
                "line": site.line,
                "site": site.desc,
                "entries": list(analysis.reached_by[node]),
                "chains": chains,
            })

    payload = {
        "schema": "cocg-shardplan/1",
        "analyzer_version": ANALYZER_VERSION,
        "classes": list(SHARD_CLASSES),
        "entry_points": {
            node: {
                "group": group,
                "declared": project.function(node).shard_entry is not None,
            }
            for node, group in sorted(analysis.entries.items())
        },
        "modules": {
            module: {
                "class": module_class[module],
                "reachable_functions": module_counts[module],
            }
            for module in sorted(module_class)
        },
        "partition_safe_modules": sorted(
            module for module, cls in module_class.items()
            if cls != "shard_interfering"
        ),
        "interfering": interfering,
        "counts": {
            "entry_points": len(analysis.entries),
            "groups": len(set(analysis.entries.values())),
            "families": len({
                shard_family(g) for g in analysis.entries.values()
            }),
            "reachable_functions": len(analysis.reached_by),
            "modules": len(module_class),
            "partition_safe_modules": sum(
                1 for cls in module_class.values()
                if cls != "shard_interfering"
            ),
            **counts,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CG020 — merge-order fragility


@register_project
class MergeOrderFragility(ProjectRule):
    """Engine emits must keep priority ties deterministically ordered.

    Events sort by ``(time, priority, seq)``.  Within one heap the
    ``seq`` tie-break is total; across *partitioned* heaps it is not —
    two shards emitting at the same ``(time, priority)`` merge in an
    order nothing defines.  The tree therefore documents band
    ownership: every named ``*PRIO*`` constant
    (``FAULT_PRIORITY = -100``, ``LIFECYCLE_PRIORITY = -50``, the
    ``_PRIO_*`` ladder) owns its value.  An entry-reachable emit is
    fragile when its priority is (a) not statically resolvable — the
    merge order cannot be proven at all — or (b) collides with a band
    constant owned by a *different* package without referencing it by
    name.  The engine's default band (no ``priority=`` argument) is
    exempt: ties there are broken by the documented per-shard FIFO.

    Fix: reference the owning constant by name (import it), pick an
    unused band value, or hoist a dynamic priority into a module-level
    constant.  ``# lint: disable=CG020`` only with a stated proof that
    the two emitters can never tie at the same time.
    """

    rule_id = "CG020"
    name = "merge-order-fragility"
    description = (
        "engine emit priority is dynamic or collides with a band "
        "owned by another package"
    )

    def check(self) -> None:
        analysis = shard_analysis(self.project)
        bands = analysis.priority_bands()
        for node in sorted(analysis.reached_by):
            mod = self.project.module_of(node)
            if mod.package in _EMIT_EXEMPT_PACKAGES:
                continue
            fn = self.project.function(node)
            for site in fn.engine_emits:
                if not site.explicit:
                    continue
                value = (site.priority if site.priority is not None
                         else analysis.resolve_priority(mod, site.ref))
                if value is None:
                    shown = (f"name {site.ref!r}" if site.ref is not None
                             else "a dynamic expression")
                    self.report(
                        mod, site.line, site.col,
                        f"{site.desc.split(' ')[0]} in {fn.qualname}() "
                        f"uses {shown} as its priority, which the "
                        f"analyzer cannot resolve to a constant; "
                        f"partitioned heaps cannot prove the merge order "
                        f"-- hoist it into a module-level *_PRIORITY "
                        f"constant",
                    )
                    continue
                foreign = [
                    (pkg, owner_mod, const)
                    for pkg, owner_mod, const in bands.get(value, ())
                    if pkg != mod.package and const != site.ref
                ]
                if foreign:
                    pkg, owner_mod, const = foreign[0]
                    self.report(
                        mod, site.line, site.col,
                        f"{site.desc.split(' ')[0]} in {fn.qualname}() "
                        f"emits at priority {value}, colliding with "
                        f"{owner_mod}.{const} = {value} owned by package "
                        f"'{pkg}'; cross-partition ties at that band "
                        f"have no documented order -- import the owning "
                        f"constant or pick an unused band",
                    )


# ---------------------------------------------------------------------------
# CG021 — seed-stream partition leakage


@register_project
class SeedStreamPartitionLeakage(ProjectRule):
    """Seed namespaces must not leak across partitions.

    ``derive_seed(seed, "<ns>", ...)`` is the only sanctioned way to
    mint an RNG stream: the namespace string partitions the seed space.
    Two hazards break that once streams are sharded: (a) two *modules*
    on entry-reachable paths deriving from the same namespace — their
    shards draw correlated randomness and replay diverges the moment
    one side adds a draw; (b) an RNG built from a raw integer literal
    (``as_rng(7)``), which bypasses ``derive_seed`` entirely and gives
    every shard the identical stream.

    Fix: give each module its own namespace string (they are free);
    for raw seeds, thread the run seed through
    ``derive_seed(seed, "<ns>", ...)`` instead of a literal.
    ``# lint: disable=CG021`` only for provably shard-local helpers.
    """

    rule_id = "CG021"
    name = "seed-stream-partition-leakage"
    description = (
        "derive_seed namespace shared across shard entry points, or a "
        "raw literal-seed RNG on an entry path"
    )

    def check(self) -> None:
        analysis = shard_analysis(self.project)
        # namespace -> sorted list of (module name, node, site).
        by_namespace: Dict[str, List[Tuple[str, str, object]]] = {}
        for node in sorted(analysis.reached_by):
            mod = self.project.module_of(node)
            if mod.package in SHARD_EXEMPT_PACKAGES:
                continue
            fn = self.project.function(node)
            for seed_site in fn.seed_derivations:
                if seed_site.namespace is not None:
                    by_namespace.setdefault(seed_site.namespace, []).append(
                        (mod.module, node, seed_site)
                    )
            for raw in fn.raw_seed_sites:
                entry = analysis.reached_by[node][0]
                chain = render_chain(analysis.chain_from(entry, node))
                self.report(
                    mod, raw.line, raw.col,
                    f"{raw.desc} in {fn.qualname}(), reachable from shard "
                    f"entry point {entry.replace('::', ':')} "
                    f"(chain: {chain}); every shard would draw the "
                    f"identical stream -- derive it with "
                    f"derive_seed(seed, '<ns>', ...) instead",
                )
        for namespace in sorted(by_namespace):
            sites = by_namespace[namespace]
            modules = sorted({m for m, _, _ in sites})
            if len(modules) < 2:
                continue
            entries = sorted({
                e for _, node, _ in sites
                for e in analysis.reached_by[node]
            })
            if len(entries) < 2:
                continue
            for mod_name, node, seed_site in sites:
                mod = self.project.modules[mod_name]
                others = [m for m in modules if m != mod_name]
                self.report(
                    mod, seed_site.line, seed_site.col,
                    f"derive_seed namespace {namespace!r} in "
                    f"{self.project.function(node).qualname}() is also "
                    f"used by module(s) {', '.join(others)} on "
                    f"entry-reachable paths "
                    f"({len(entries)} entry points); shards would draw "
                    f"correlated streams -- pick a unique namespace per "
                    f"module",
                )


# ---------------------------------------------------------------------------
# CG022 — cross-shard digest writes


@register_project
class CrossShardDigestWrite(ProjectRule):
    """Digest sinks fed from multiple partitions need a merge point.

    The fleet digest is the replay oracle: its bytes must be a pure
    function of (seed, fault plan).  When telemetry ``record*`` sites
    are reachable from entry points in *different shard groups*, the
    record interleaving depends on cross-shard scheduling — unless the
    writes funnel through one function marked
    ``@shard_merge_point`` (:mod:`repro.util.effects`), the declared
    place where per-shard streams join in a defined order.

    Fix: route the cross-shard records through a merge-marked
    aggregation function (one per digest), or split the sink per shard
    and merge digests after the run.  ``# lint: disable=CG022`` only
    when the sink is provably append-ordered by sim time alone.
    """

    rule_id = "CG022"
    name = "cross-shard-digest-write"
    description = (
        "telemetry/digest sink fed from more than one shard group "
        "without a declared merge point"
    )

    def check(self) -> None:
        analysis = shard_analysis(self.project)
        for node in sorted(analysis.reached_by):
            mod = self.project.module_of(node)
            if mod.package in SHARD_EXEMPT_PACKAGES:
                continue
            fn = self.project.function(node)
            if not fn.digest_writes:
                continue
            groups = analysis.groups_of(node)
            if len(groups) < 2:
                continue
            # One merge-marked frame on the chain from *every* group
            # legitimises the join; pick the sorted-first entry per
            # group as its representative chain.
            chains: List[List[str]] = []
            merged_everywhere = True
            for group in groups:
                entry = next(
                    e for e in analysis.reached_by[node]
                    if shard_family(analysis.entries[e]) == group
                )
                chain = analysis.chain_from(entry, node)
                chains.append(chain)
                if not any(self.project.function(n).shard_merge
                           for n in chain):
                    merged_everywhere = False
            if merged_everywhere:
                continue
            shown = "; ".join(
                f"chain {i + 1}: {render_chain(c)}"
                for i, c in enumerate(chains[:2])
            )
            for site in fn.digest_writes:
                self.report(
                    mod, site.line, site.col,
                    f"{site.desc} in {fn.qualname}() is fed from "
                    f"{len(groups)} shard groups "
                    f"({', '.join(groups)}) with no @shard_merge_point "
                    f"on the path ({shown}); declare the merge point "
                    f"where the per-shard streams join",
                )
