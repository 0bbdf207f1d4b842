"""``repro.lint`` — two-phase static analyzer for the CoCG codebase.

The reproduction's correctness rests on conventions Python itself never
enforces: the *no global randomness* rule (:mod:`repro.util.rng`),
engine-clock-only time inside :mod:`repro.sim`, canonical
:data:`~repro.platform_.resources.DIMENSIONS` usage, exception hygiene
on scheduler/distributor decision paths, complete ``__all__`` exports,
and type-annotated public APIs.  This package parses the tree with
:mod:`ast` and enforces each convention in two phases:

* **per-file rules** (**CG001** – **CG009**, **CG014**) hook one pass
  over each file's AST;
* **whole-program rules** (**CG010** – **CG013**) run
  taint/reachability queries over a project-wide call graph built from
  per-module summaries (:mod:`repro.lint.project`,
  :mod:`repro.lint.dataflow`), catching cross-module hazards — an
  unseeded RNG draw laundered through helpers into ``serve/``, a set
  iteration whose order reaches the fleet digest — that no single file
  reveals.  On the same graph, the **effect system**
  (:mod:`repro.lint.effects`, **CG015** – **CG018**) infers
  per-function effect signatures (:data:`EFFECT_NAMES`) by fixpoint
  propagation and checks shard-safety of the fleet path, drift against
  ``@effects(...)`` declarations (:mod:`repro.util.effects`), the
  architecture layering DAG, and hot-path purity; ``--effects-out``
  exports the signatures as a deterministic ``effects.json``.  On top
  of both, the **shard-interference analyzer**
  (:mod:`repro.lint.shards`, **CG019** – **CG022**) classifies every
  function reachable from a shard entry point (``@shard_entry(...)``
  or the fleet/serve conventions) as *shard-local*,
  *shard-shared-read*, or *shard-interfering*, flags cross-partition
  mutable reach, merge-order fragility, seed-stream partition leakage,
  and cross-shard digest writes, and exports the byte-stable
  ``shardplan.json`` certificate via ``--shard-plan-out``.  See
  ``docs/LINT.md``.

Use it three ways:

* ``python -m repro.lint src/`` or ``cocg lint`` from a shell/CI
  (exit code 1 when findings exist, ``--format json``/``sarif`` for
  machines, ``--changed``/``--baseline`` to scope what fails a run,
  and a content-hash incremental cache making warm runs re-analyze
  only changed modules);
* :func:`lint_paths` as a library;
* ``# lint: disable=CGxxx`` pragmas to suppress a finding at a line
  (trailing comment) or for a whole file (standalone comment).

Adding a rule (a :class:`Rule` with :func:`register`, or a
:class:`~repro.lint.project.ProjectRule` with
:func:`~repro.lint.registry.register_project`) is described in
``docs/LINT.md``, "Adding a rule".
"""

from repro import _lazy_exports

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "ProjectContext",
    "ModuleSummary",
    "CallGraph",
    "Witness",
    "build_call_graph",
    "reach_sinks",
    "reach_taints",
    "summarize_module",
    "EFFECT_NAMES",
    "EffectInference",
    "infer_effects",
    "render_effects",
    "SHARD_CLASSES",
    "ShardAnalysis",
    "shard_analysis",
    "shard_entry_points",
    "render_shard_plan",
    "explain_rule",
    "rule_class",
    "UnknownRuleError",
    "register",
    "register_project",
    "all_rules",
    "all_project_rules",
    "resolve_rules",
    "resolve_project_rules",
    "ANALYZER_VERSION",
    "Suppressions",
    "parse_suppressions",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "LintCache",
    "cache_signature",
    "content_digest",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_text",
    "render_json",
    "render_sarif",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "apply_baseline": ".baseline",
    "fingerprint": ".baseline",
    "load_baseline": ".baseline",
    "write_baseline": ".baseline",
    "LintCache": ".cache",
    "cache_signature": ".cache",
    "content_digest": ".cache",
    "CallGraph": ".dataflow",
    "Witness": ".dataflow",
    "build_call_graph": ".dataflow",
    "reach_sinks": ".dataflow",
    "reach_taints": ".dataflow",
    "EFFECT_NAMES": ".effects",
    "EffectInference": ".effects",
    "infer_effects": ".effects",
    "render_effects": ".effects",
    "LintResult": ".engine",
    "iter_python_files": ".engine",
    "lint_paths": ".engine",
    "Finding": ".findings",
    "Suppressions": ".pragmas",
    "parse_suppressions": ".pragmas",
    "ModuleSummary": ".project",
    "ProjectContext": ".project",
    "ProjectRule": ".project",
    "summarize_module": ".project",
    "ANALYZER_VERSION": ".registry",
    "FileContext": ".registry",
    "Rule": ".registry",
    "UnknownRuleError": ".registry",
    "explain_rule": ".registry",
    "rule_class": ".registry",
    "all_project_rules": ".registry",
    "all_rules": ".registry",
    "register": ".registry",
    "register_project": ".registry",
    "resolve_project_rules": ".registry",
    "resolve_rules": ".registry",
    "render_json": ".reporters",
    "render_sarif": ".reporters",
    "render_text": ".reporters",
    "SHARD_CLASSES": ".shards",
    "ShardAnalysis": ".shards",
    "render_shard_plan": ".shards",
    "shard_analysis": ".shards",
    "shard_entry_points": ".shards",
})
