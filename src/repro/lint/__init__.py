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

from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.cache import LintCache, cache_signature, content_digest
from repro.lint.dataflow import (
    CallGraph,
    Witness,
    build_call_graph,
    reach_sinks,
    reach_taints,
)
from repro.lint.effects import (
    EFFECT_NAMES,
    EffectInference,
    infer_effects,
    render_effects,
)
from repro.lint.engine import LintResult, iter_python_files, lint_paths
from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions, parse_suppressions
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    ProjectRule,
    summarize_module,
)
from repro.lint.registry import (
    ANALYZER_VERSION,
    FileContext,
    Rule,
    UnknownRuleError,
    explain_rule,
    rule_class,
    all_project_rules,
    all_rules,
    register,
    register_project,
    resolve_project_rules,
    resolve_rules,
)
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.shards import (
    SHARD_CLASSES,
    ShardAnalysis,
    render_shard_plan,
    shard_analysis,
    shard_entry_points,
)

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
