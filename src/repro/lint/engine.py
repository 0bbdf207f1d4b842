"""File discovery, parsing, and two-phase rule dispatch.

:func:`lint_paths` is the library entry point.  It runs in two phases:

1. **Per-file** — expand files and directories into ``*.py`` targets,
   parse each with :mod:`ast`, build a
   :class:`~repro.lint.registry.FileContext` (the pragma table and the
   file's one :class:`~repro.lint.project.ImportTable` pre-pass, which
   also lists the file's nodes), and run the hooks of every applicable
   CG001–CG009/CG014 rule and the summariser's hooks in one pass over
   those nodes, distilling the module into a
   :class:`~repro.lint.project.ModuleSummary` for phase two.  With a
   :class:`~repro.lint.cache.LintCache`, files whose content hash is
   unchanged skip this phase: findings and summary come from the cache
   (:attr:`LintResult.files_reparsed` counts the rest).  The files left
   to analyse run on every usable CPU through
   :func:`repro.util.partition.run_partitioned`, and their results are
   consumed in file order, so the output never depends on CPU count.

2. **Whole-program** — the summaries form a
   :class:`~repro.lint.project.ProjectContext` over which the
   CG010–CG022 rules run taint/reachability queries on one shared call
   graph, effect inference and shard analysis.  This phase is
   cheap graph work and is recomputed every run, cached summaries
   included: a changed module can shift reachability for *unchanged*
   reverse dependencies, so their project findings must never be
   replayed from cache.

Rules scope themselves on the file's path *relative to the package
root*; :func:`_rel_parts` recovers that for installed trees
(``…/src/repro/core/x.py`` → ``("core", "x.py")``) and for fixture trees
(``tmp/core/x.py`` linted with root ``tmp`` → the same), so tests can
exercise path-scoped rules without a full package checkout.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, Optional, Sequence,
                    Set, Tuple, Type, cast)

from repro.lint.cache import CacheEntry, LintCache, content_digest, project_key
from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions
from repro.lint.project import (
    SUMMARY_HOOKS,
    ModuleSummary,
    ProjectContext,
    node_hooks,
    summarize_module,
)
from repro.lint.registry import (
    FileContext,
    Rule,
    all_project_rules,
    all_rules,
    resolve_project_rules,
    resolve_rules,
)

# Importing the rule modules populates both registries.
import repro.lint.rules  # noqa: F401  (side-effect import)
import repro.lint.project_rules  # noqa: F401  (side-effect import)
import repro.lint.shards as _shards  # registers CG019-CG022
import repro.lint.effects as _effects  # registers CG015-CG018

__all__ = ["LintResult", "lint_paths", "iter_python_files"]

#: Rule id used for files that do not parse at all.
_SYNTAX_RULE_ID = "CG000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules",
                   ".mypy_cache", ".ruff_cache", ".pytest_cache"}


@dataclass
class LintResult:
    """Findings plus how much was looked at to produce them."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files actually parsed this run — equal to :attr:`files_checked`
    #: on a cold run, and only the changed files on a warm cached run
    #: (the whole-program phase reuses cached summaries for the rest).
    files_reparsed: int = 0
    #: The ``effects.json`` artifact text (sorted, deterministic) when
    #: the run was asked for it (``lint_paths(..., effects=True)``).
    effects: Optional[str] = None
    #: The ``shardplan.json`` certificate text when the run was asked
    #: for it (``lint_paths(..., shard_plan=True)``).
    shard_plan: Optional[str] = None
    #: True when :attr:`shard_plan` was served from the incremental
    #: cache's project-phase memo instead of being re-derived.
    shard_plan_from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True when no rule fired."""
        return not self.findings


def iter_python_files(paths: Sequence[Path]) -> list[tuple[Path, Path]]:
    """Expand files/directories into ``(file, root)`` pairs.

    ``root`` is the directory the file was discovered under (the file's
    parent for explicit file arguments); rules use it to locate the file
    within the package when the path carries no ``repro`` component.
    """
    out: list[tuple[Path, Path]] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIR_NAMES for part in file.parts):
                    continue
                out.append((file, path))
        elif path.is_file():
            out.append((path, path.parent))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return out


#: Top-level subpackages of ``repro`` that path-scoped rules key on.
_KNOWN_SUBPACKAGES = {
    "analysis", "baselines", "cluster", "core", "faults", "fleet",
    "games", "lint", "mlkit", "platform_", "serve", "sim", "streaming",
    "util", "workloads",
}


def _rel_parts(file: Path, root: Path) -> tuple[str, ...]:
    """Path components of ``file`` relative to the ``repro`` package."""
    resolved = file.resolve().parts
    if "repro" in resolved:
        # Last occurrence: the package dir even when a parent dir is
        # also called "repro".
        idx = len(resolved) - 1 - resolved[::-1].index("repro")
        parts = resolved[idx + 1:]
        if parts:
            return tuple(parts)
    try:
        parts = file.resolve().relative_to(root.resolve()).parts
    except ValueError:
        parts = (file.name,)
    while parts and parts[0] in ("src", "repro"):
        parts = parts[1:]
    if len(parts) <= 1:
        # An explicit file argument carries no tree context; recover the
        # subpackage from any known directory name in the full path so
        # `lint core/x.py` scopes the same way as `lint core/`.
        dirs = resolved[:-1]
        for i in range(len(dirs) - 1, -1, -1):
            if dirs[i] in _KNOWN_SUBPACKAGES:
                return tuple(resolved[i:])
    return tuple(parts) if parts else (file.name,)


def _pragma_hygiene(path: str, suppressions: Suppressions,
                    known: Set[str], valid: str) -> list[Finding]:
    """CG000 findings for pragmas naming unknown rule ids.

    A ``# lint: disable=CG199`` suppresses nothing — silently.  That is
    the worst failure mode a suppression system can have (the author
    believes a rule is off), so an unknown id is a loud CG000-level
    finding listing the valid ids, exactly like ``--explain`` fails on
    an unknown id.  CG000 findings are never themselves suppressible.
    """
    out: list[Finding] = []
    for line, token in suppressions.declared:
        if token not in known:
            out.append(Finding(
                path=path, line=line, col=1, rule_id=_SYNTAX_RULE_ID,
                message=(f"pragma names unknown rule id {token!r}; "
                         f"valid ids: {valid}"),
            ))
    return out


def _analyze_file(
    file: Path,
    *,
    root: Path,
    rules: Sequence[Tuple[Type[Rule], list]],
    hooked: FrozenSet[type],
    known: Set[str],
    valid: str,
    source: Optional[str] = None,
) -> Tuple[list[Finding], Optional[ModuleSummary]]:
    """Parse one file, run the per-file rules, and summarise it.

    The hooks of every applicable rule (``rules`` pairs each class with
    its :func:`~repro.lint.project.node_hooks`) form one table keyed by
    node class, which :func:`~repro.lint.project.summarize_module` runs
    in its one loop over the nodes of the file's import pre-pass, next
    to the summary hooks.  Returns the sorted findings plus the
    module's whole-program summary (``None`` when the file does not
    parse — the CG000 finding stands in for it).
    """
    display = str(file)
    rel = _rel_parts(file, root)
    try:
        if source is None:
            source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 1
        reason = getattr(exc, "msg", None) or str(exc)
        return [Finding(path=display, line=int(line), col=int(col),
                        rule_id=_SYNTAX_RULE_ID,
                        message=f"file does not parse: {reason}")], None
    ctx = FileContext(path=display, rel_parts=rel, tree=tree, source=source,
                      hooked=hooked)
    table: Dict[type, list] = {}
    for rule_cls, hooks in rules:
        if rule_cls.applies_to(ctx):
            rule = rule_cls(ctx)
            rule.check()
            for node_cls, attr in hooks:
                table.setdefault(node_cls, []).append(getattr(rule, attr))
    summary = summarize_module(
        tree, path=display, rel_parts=rel, suppressions=ctx.suppressions,
        imports=ctx.imports, rule_hooks=table,
    )
    ctx.findings.extend(
        _pragma_hygiene(display, ctx.suppressions, known, valid))
    return sorted(ctx.findings), summary


def _lint_file(
    file: Path,
    root: Path,
    *,
    rules: Sequence[Tuple[Type[Rule], list]],
    hooked: FrozenSet[type],
    known: Set[str],
    valid: str,
) -> CacheEntry:
    """Read, hash, decode and analyse one file with :func:`_analyze_file`.

    The entry carries the digest of the bytes actually analysed.  Any
    failure is re-raised naming the file, so an error from a forked
    worker still says which file broke.
    """
    try:
        data = file.read_bytes()
        try:
            source: Optional[str] = data.decode("utf-8")
        except UnicodeDecodeError:
            source = None  # _analyze_file re-reads and reports CG000
        findings, summary = _analyze_file(
            file, root=root, rules=rules, hooked=hooked, known=known,
            valid=valid, source=source,
        )
    except Exception as exc:
        raise RuntimeError(
            f"linting {file} failed: {type(exc).__name__}: {exc}"
        ) from exc
    return CacheEntry(digest=content_digest(data), findings=findings,
                      summary=summary)


def _lint_misses(
    misses: Sequence[Tuple[Path, Path, int]],
    lint_file: Callable[[Path, Path], CacheEntry],
) -> list[CacheEntry]:
    """``lint_file`` over ``(file, root, size)`` misses, in their order.

    Two or more misses run on every usable CPU through
    :func:`repro.util.partition.run_partitioned` (imported here, so
    importing the engine stays cheap).  Each miss is one stream, named
    by its rank in size order, largest first: the seam deals sorted
    names round-robin, so the shares come out balanced, and a path
    (which may contain ``:``) is never a stream name.
    """
    if len(misses) < 2:
        return [lint_file(file, root) for file, root, _ in misses]
    from repro.util.partition import run_partitioned

    by_size = sorted(range(len(misses)), key=lambda i: -misses[i][2])
    digits = len(str(len(misses) - 1))
    names = [""] * len(misses)
    for rank, i in enumerate(by_size):
        names[i] = f"{rank:0{digits}d}"
    results = run_partitioned({
        name: functools.partial(lint_file, file, root)
        for name, (file, root, _) in zip(names, misses)
    })
    return [cast(CacheEntry, results[name]) for name in names]


def lint_paths(
    paths: Sequence[object],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    whole_program: bool = True,
    cache: Optional[LintCache] = None,
    only_paths: Optional[Iterable[object]] = None,
    effects: bool = False,
    shard_plan: bool = False,
) -> LintResult:
    """Lint files and directory trees, both phases.

    Parameters
    ----------
    paths:
        Files and/or directories (``str`` or :class:`~pathlib.Path`).
    select / ignore:
        Optional rule-id filters, as in
        :func:`repro.lint.registry.resolve_rules`; they apply to both
        phases (``--select CG011`` runs only the whole-program RNG
        rule).
    whole_program:
        Run the CG010–CG013 project phase (default).  Per-file-only
        mode exists for fixtures that are not meaningful as a project.
    cache:
        A loaded :class:`~repro.lint.cache.LintCache`.  The engine
        consults and updates it; the caller owns
        :meth:`~repro.lint.cache.LintCache.save`.
    only_paths:
        When given, *reported* findings are filtered to these files —
        the analysis itself still covers every path in ``paths`` so the
        whole-program phase sees full cross-module context (this backs
        ``cocg lint --changed``).
    effects:
        Additionally render the inferred effect signatures
        (:func:`repro.lint.effects.render_effects`) into
        :attr:`LintResult.effects` (backs ``--effects-out``).  Implies
        nothing about rule selection — the inference runs even when
        CG015–CG018 are deselected.
    shard_plan:
        Additionally render the shard-interference certificate
        (:func:`repro.lint.shards.render_shard_plan`) into
        :attr:`LintResult.shard_plan` (backs ``--shard-plan-out``).
        With a cache, the certificate is memoised keyed on the summary
        content hashes: a warm run with no changed files serves the
        byte-identical text without re-deriving the call graph
        (:attr:`LintResult.shard_plan_from_cache`).
    """
    select = list(select) if select is not None else None
    ignore = list(ignore) if ignore is not None else None
    rules = [(rule_cls, node_hooks(rule_cls))
             for rule_cls in resolve_rules(select, ignore)]
    # The walk records only the node classes some hook reads.
    hooked = frozenset([node_cls for _, hooks in rules for node_cls, _ in hooks]
                       + [node_cls for node_cls, _ in SUMMARY_HOOKS])
    known = set(all_rules()) | set(all_project_rules()) | {_SYNTAX_RULE_ID}
    valid = ", ".join(sorted(known))
    project_rules = resolve_project_rules(select, ignore) if whole_program else []
    result = LintResult()
    summaries: dict[str, ModuleSummary] = {}
    digests: dict[str, str] = {}
    live_keys: list[str] = []
    keep: Optional[Set[str]] = None
    if only_paths is not None:
        keep = {str(Path(p).resolve()) for p in only_paths}
    resolved_of: dict[str, str] = {}

    files = iter_python_files([Path(p) for p in paths])
    entries: list[Optional[CacheEntry]] = []
    misses: list[Tuple[Path, Path, int]] = []
    for file, root in files:
        key = str(file.resolve())
        live_keys.append(key)
        entry = None
        if cache is not None:
            entry = cache.get(key, content_digest(file.read_bytes()))
        entries.append(entry)
        if entry is None:
            misses.append((file, root, file.stat().st_size))
    fresh = iter(_lint_misses(misses, functools.partial(
        _lint_file, rules=rules, hooked=hooked, known=known, valid=valid,
    )))
    result.files_checked = len(files)
    for (file, _), key, entry in zip(files, live_keys, entries):
        if entry is None:
            entry = next(fresh)
            result.files_reparsed += 1
            if cache is not None:
                cache.put(key, entry)
        summary = entry.summary
        resolved_of[str(file)] = key
        if summary is not None:
            resolved_of[summary.path] = key
            summaries[summary.module] = summary
            digests[summary.module] = entry.digest
        result.findings.extend(entry.findings)

    if project_rules or effects or shard_plan:
        project = ProjectContext(summaries)
        for rule_cls in project_rules:
            rule = rule_cls(project)
            rule.check()
            result.findings.extend(rule.findings)
        if effects:
            result.effects = _effects.render_effects(project)
        if shard_plan:
            memo_key = project_key(digests)
            cached = (cache.get_project(memo_key)
                      if cache is not None else None)
            if cached is not None:
                result.shard_plan = cached
                result.shard_plan_from_cache = True
            else:
                result.shard_plan = _shards.render_shard_plan(project)
                if cache is not None:
                    cache.put_project(memo_key, result.shard_plan)

    if cache is not None:
        cache.prune(live_keys)

    if keep is not None:
        result.findings = [
            f for f in result.findings
            if resolved_of.get(f.path, str(Path(f.path).resolve())) in keep
        ]
    result.findings.sort()
    return result
