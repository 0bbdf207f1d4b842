"""Effect-signature inference and the effect-system rules (CG015–CG017).

The taint rules (CG010–CG013) answer "does hazard X reach sink Y?".
Sharding the control plane (ROADMAP item 1) needs the dual question
answered for *every* function: "what does this function do, including
everything it calls?"  That contract is an **effect signature** — a
subset of the effect alphabet

    ``{rng, clock, global_write, engine_emit, digest_write, io}``

whose lattice is subset inclusion with union as join.  Inference is a
fixpoint over the name-resolved call graph: each effect is seeded from
the per-function AST facts the module summaries already carry (RNG
draws, clock reads, module/class-level stores, engine ``at/after/every``
calls, digest ``record*`` calls, file/console I/O) and propagated
callee→caller with one reverse BFS per effect — equivalent to the
classic worklist fixpoint because the transfer function is monotone
union over a finite lattice, but with a witness chain for free.

On top of the inferred signatures sit three rules:

* **CG015** — shard safety: nothing reachable from a fleet/gateway/
  dispatch entry point may write shared module/class state;
* **CG016** — declared-vs-inferred drift against ``@effects(...)``
  declarations (:mod:`repro.util.effects`), and hot-path purity for
  the Algorithm-1/rollout path;
* **CG017** — architecture layering over the package DAG.

:func:`render_effects` exports every non-pure or declared function's
signature as a sorted, deterministic JSON artifact (``effects.json`` in
CI) keyed by ``module::qualname`` — no absolute paths, so the bytes are
stable across machines and across cold/warm cache runs.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.dataflow import (
    Witness,
    reach_taints,
    render_chain,
    witness_chain,
)
from repro.lint.project import FunctionSummary, ProjectContext, ProjectRule
from repro.lint.registry import ANALYZER_VERSION, register_project
from repro.lint.shards import shard_analysis

__all__ = [
    "EFFECT_NAMES",
    "EffectInference",
    "infer_effects",
    "render_effects",
    "LAYERS",
    "ShardSafetyRule",
    "EffectDeclarationRule",
    "LayeringRule",
]

#: The effect alphabet in canonical report order.  Mirrors
#: :data:`repro.util.effects.EFFECTS`; the analyzer deliberately does
#: not import the runtime module (the lint package stays self-contained)
#: and a test pins the two tuples equal.
EFFECT_NAMES = (
    "rng",
    "clock",
    "global_write",
    "engine_emit",
    "digest_write",
    "io",
)

#: effect name -> FunctionSummary fields holding its seed sites.
_SEED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "rng": ("rng_draws", "stream_draws"),
    "clock": ("clock_reads",),
    "global_write": ("global_writes",),
    "engine_emit": ("engine_emits",),
    "digest_write": ("digest_writes",),
    "io": ("io_sites",),
}


def _first_site(fn: FunctionSummary, effect: str) -> Optional[str]:
    """Description of the first site in ``fn`` seeding ``effect``."""
    for name in _SEED_FIELDS[effect]:
        sites = getattr(fn, name)
        if sites:
            return sites[0].desc
    return None


class EffectInference:
    """Per-function effect signatures over the project's call graph.

    Construction runs the whole inference (six reverse BFS passes);
    queries afterwards are dictionary lookups.  The
    :class:`~repro.lint.project.ProjectContext` owns one instance per
    run (:func:`infer_effects`), shared by CG012, CG016 and the
    artifact writer.
    """

    def __init__(self, project: ProjectContext):
        self.project = project
        self._witnesses: Dict[str, Dict[str, Witness]] = {
            effect: reach_taints(
                project, project.graph,
                lambda node, effect=effect: _first_site(
                    project.function(node), effect,
                ),
            )
            for effect in EFFECT_NAMES
        }

    def effects_of(self, node_id: str) -> FrozenSet[str]:
        """The inferred (transitive) signature of a function."""
        return frozenset(
            e for e in EFFECT_NAMES if node_id in self._witnesses[e]
        )

    def own_effects_of(self, node_id: str) -> Dict[str, str]:
        """Effects seeded *in the function itself*: effect -> first site."""
        fn = self.project.function(node_id)
        own = {effect: _first_site(fn, effect) for effect in EFFECT_NAMES}
        return {effect: site for effect, site in own.items()
                if site is not None}

    def reaching(self, effect: str) -> Dict[str, Witness]:
        """Every function with ``effect``, mapped to its witness."""
        return self._witnesses[effect]

    def witness(self, node_id: str, effect: str) -> Optional[Witness]:
        """Why ``node_id`` has ``effect`` (``None`` when it does not)."""
        return self._witnesses[effect].get(node_id)

    def chain(self, node_id: str, effect: str) -> List[str]:
        """Call chain from ``node_id`` down to the effect's direct site."""
        return witness_chain(self._witnesses[effect], node_id)


def infer_effects(project: ProjectContext) -> EffectInference:
    """The project's effect inference (built once, on first use)."""
    return project.effects


def render_effects(project: ProjectContext) -> str:
    """The ``effects.json`` artifact text (sorted, newline-terminated).

    Lists every function whose inferred signature is non-empty or that
    carries an ``@effects`` declaration, keyed ``module::qualname``.
    Module names only — no absolute paths — so a double run and a
    cold-vs-warm-cache pair produce byte-identical output.
    """
    inference = infer_effects(project)
    functions: Dict[str, dict] = {}
    total = 0
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual in sorted(mod.functions):
            total += 1
            node = f"{name}::{qual}"
            fn = mod.functions[qual]
            inferred = sorted(inference.effects_of(node),
                              key=EFFECT_NAMES.index)
            if not inferred and fn.declared_effects is None \
                    and not fn.hot_path:
                continue
            functions[node] = {
                "effects": inferred,
                "own": inference.own_effects_of(node),
                "declared": fn.declared_effects,
                "hot_path": fn.hot_path,
            }
    payload = {
        "schema": "cocg-effects/1",
        "analyzer_version": ANALYZER_VERSION,
        "effect_alphabet": list(EFFECT_NAMES),
        "counts": {
            "functions_total": total,
            "with_effects": sum(1 for f in functions.values()
                                if f["effects"]),
            "declared": sum(1 for f in functions.values()
                            if f["declared"] is not None),
            "hot_path": sum(1 for f in functions.values() if f["hot_path"]),
        },
        "functions": functions,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CG015 — shard safety

# Entry-point discovery, reachability and the exemption set live in
# :mod:`repro.lint.shards` (the shard-interference analyzer), so CG015,
# CG020–CG022 and the certificate can never disagree about what an
# entry point reaches.


@register_project
class ShardSafetyRule(ProjectRule):
    """Code reachable from shard entry points must not write shared state.

    ROADMAP item 1 shards the control plane into N parallel fleets.  Two
    shards running the same code diverge the moment any function on a
    shard-executed path mutates module- or class-level state: the write
    interleaving becomes schedule-dependent and byte-identical replay
    (CGReplay) is gone.  This rule walks *forward* from every shard
    entry point — a function decorated ``@shard_entry(...)``, plus the
    conventional ``run``/``pump``/``dispatch``/``submit`` terminals
    under ``cluster``/``serve`` — and flags each reachable function that stores
    into module- or class-level bindings, printing the entry-to-write
    call chain.  When two or more entry points reach the same write —
    the static analogue of a data race once the streams are partitioned
    — the finding names how many and prints the first two witness
    chains, the pair of code paths that would race.  Writes inside
    ``lint`` (import-time rule registration) are exempt.

    Example — ``cluster/a.py`` and ``cluster/b.py`` each define
    ``run()`` calling ``bump()``, which stores into a module-level
    ``_state``: one CG015 at the store, with ``chain 1: cluster.a:run
    -> cluster.shared:bump; chain 2: cluster.b:run ->
    cluster.shared:bump``.

    Fix: move the state onto an instance owned by the shard (``self``)
    or pass it explicitly down the chain shown.  ``# lint:
    disable=CG015`` only with a stated proof that the state is
    shard-local, or that the write is idempotent.
    """

    rule_id = "CG015"
    name = "shard-unsafe-global-write"
    description = (
        "function reachable from a fleet/gateway/dispatch entry point "
        "writes module- or class-level state"
    )

    def check(self) -> None:
        analysis = shard_analysis(self.project)
        for node, chains in analysis.blocking_writes():
            mod = self.project.module_of(node)
            fn = self.project.function(node)
            entries = analysis.reached_by[node]
            if len(entries) == 1:
                reach = (f"shard entry point {entries[0].replace('::', ':')} "
                         f"(chain: {chains[0]})")
            else:
                reach = (f"{len(entries)} shard entry points -- a static "
                         f"race once streams are partitioned "
                         f"(chain 1: {chains[0]}; chain 2: {chains[1]})")
            for site in fn.global_writes:
                self.report(
                    mod, site.line, site.col,
                    f"{site.desc} in {fn.qualname}() is reachable from "
                    f"{reach}; shard-parallel fleets must not share "
                    f"mutable module/class state -- keep it on the "
                    f"instance that owns it",
                )


# ---------------------------------------------------------------------------
# CG016 — declared vs inferred drift


def _fmt(effects) -> str:
    ordered = sorted(effects, key=EFFECT_NAMES.index)
    return "{" + ", ".join(ordered) + "}" if ordered else "pure"


@register_project
class EffectDeclarationRule(ProjectRule):
    """``@effects(...)`` declarations must match the inferred signature.

    A declaration is a contract: callers rely on it instead of
    re-deriving the transitive behaviour.  The contract rots in two
    directions — a function grows an effect its decorator does not
    admit (undeclared), or keeps declaring one the analyzer can no
    longer find (stale).  Both directions error, with the witness call
    chain for undeclared effects.

    ``hot_path=True`` functions are held to more.  ROADMAP item 2
    vectorises the Algorithm-1/rollout path (a numpy or compiled kernel
    swap), which is behaviour-preserving only if the path is
    referentially transparent up to its declared RNG stream: no clock
    reads, no shared-state writes, no engine emission, no digest
    writes, no I/O.  So a hot-path function may declare at most
    ``rng``, and every undeclared effect it has is reported with a
    hot-path hint instead of "declare it".

    Fix: for an undeclared effect, either add it to ``@effects(...)`` or
    break the call edge the chain shows — on a hot path, hoist the
    effect out (record results after the kernel returns; pass drawn
    samples in), or drop ``hot_path=True`` if the function genuinely is
    not hot-path; for a stale one, delete the name from the decorator.
    The inference is conservative (name-resolved call graph), so a
    spurious edge can be cut by renaming an over-generic method, or
    suppressed with ``# lint: disable=CG016`` on the ``def`` line.
    """

    rule_id = "CG016"
    name = "effect-declaration-drift"
    description = (
        "@effects declaration disagrees with the inferred effect signature, "
        "or a hot-path function has effects beyond its declared RNG stream"
    )

    def check(self) -> None:
        inference = infer_effects(self.project)
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            for qual in sorted(mod.functions):
                fn = mod.functions[qual]
                if fn.declared_effects is None:
                    continue
                node = f"{name}::{qual}"
                inferred = inference.effects_of(node)
                declared = frozenset(fn.declared_effects)
                where = "hot-path " if fn.hot_path else ""
                for effect in sorted(inferred - declared,
                                     key=EFFECT_NAMES.index):
                    witness = inference.witness(node, effect)
                    chain = inference.chain(node, effect)
                    if not fn.hot_path:
                        hint = (f"add '{effect}' to @effects(...) or break "
                                f"the call edge")
                    elif effect == "rng":
                        hint = "declare it with @effects('rng', hot_path=True)"
                    else:
                        hint = "hoist the effect out of the hot path"
                    self.report(
                        mod, fn.line, 1,
                        f"{where}{fn.qualname}() declares {_fmt(declared)} "
                        f"but the analyzer infers undeclared '{effect}': "
                        f"{witness.target} "
                        f"(chain: {render_chain(chain)}); {hint}",
                    )
                for effect in sorted(declared - inferred,
                                     key=EFFECT_NAMES.index):
                    self.report(
                        mod, fn.line, 1,
                        f"{fn.qualname}() declares effect '{effect}' the "
                        f"analyzer cannot find; drop the stale name from "
                        f"@effects(...)",
                    )
                if fn.hot_path:
                    for effect in sorted(declared - {"rng"},
                                         key=EFFECT_NAMES.index):
                        self.report(
                            mod, fn.line, 1,
                            f"hot-path {fn.qualname}() declares '{effect}'; "
                            f"a hot-path function may declare at most 'rng'",
                        )


# ---------------------------------------------------------------------------
# CG017 — architecture layering


#: package -> layer.  An import may only point at the same or a lower
#: layer; root modules (``cli``, ``config`` — package ``""``) are the
#: composition root and exempt.
LAYERS: Dict[str, int] = {
    "util": 0,
    "obs": 1, "mlkit": 1, "streaming": 1, "lint": 1,
    "platform_": 2,
    "sim": 3, "games": 3,
    "core": 4,
    "baselines": 5, "workloads": 5, "analysis": 5,
    "cluster": 6, "faults": 6, "serve": 6, "trace": 6,
    "fleet": 7,
}

_DAG_TEXT = (
    "util < obs/mlkit/streaming/lint < platform_ < sim/games < core "
    "< baselines/workloads/analysis < cluster/faults/serve/trace "
    "< fleet"
)


def _import_package(imported: str) -> Optional[str]:
    """Top-level ``repro`` subpackage an import statement targets."""
    if imported == "repro" or imported.startswith("repro."):
        parts = imported.split(".")
        return parts[1] if len(parts) > 1 else None
    return None


@register_project
class LayeringRule(ProjectRule):
    """Package imports must follow the architecture DAG (no back-edges).

    The layering is ``util < obs/mlkit/streaming/lint < platform_ <
    sim/games < core < baselines/workloads/analysis <
    cluster/faults/serve/trace``: ``sim`` can never import ``serve``,
    and shard-local code can never reach region-global singletons by
    importing upward.  ``obs`` sits low on purpose — observability must
    never import the packages it observes (hooks are injected downward),
    which is what keeps a shard's metrics registry free of back-edges.
    Same-layer imports are allowed (``cluster``/``faults``/``serve``/
    ``trace`` are interdependent by design); imports under ``if TYPE_CHECKING:`` are
    erased at runtime and exempt; root modules (``cli`` — the
    composition root) may import anything.

    Fix: invert the dependency — move the shared type down a layer, or
    inject the higher-layer object from the composition root.  Use a
    ``TYPE_CHECKING`` guard when only an annotation needs the name.
    """

    rule_id = "CG017"
    name = "layering-violation"
    description = "module imports a package from a higher architecture layer"

    def check(self) -> None:
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            src_layer = LAYERS.get(mod.package)
            if src_layer is None:
                continue
            for imported, line in sorted(mod.import_lines.items()):
                pkg = _import_package(imported)
                dst_layer = LAYERS.get(pkg) if pkg is not None else None
                if dst_layer is None or dst_layer <= src_layer:
                    continue
                if imported in mod.type_only_imports:
                    continue
                self.report(
                    mod, line, 1,
                    f"'{mod.module}' (layer {src_layer}: {mod.package}) "
                    f"imports '{imported}' from higher layer {dst_layer} "
                    f"({pkg}); the architecture DAG is {_DAG_TEXT} -- "
                    f"invert the dependency or inject it from the "
                    f"composition root",
                )
