"""Rule base class, per-file context, and the rule registry.

A rule is a :class:`Rule` subclass decorated with :func:`register`.  Its
``visit_<NodeClass>`` hooks each check one node and never recurse: the
engine walks each file once and calls every applicable rule's hooks on
the nodes of their class.  Pragma suppression, finding collection and
the file's import aliases (:attr:`FileContext.imports`) live in the
context, so a new rule is typically ~30 lines: a class-level
id/description, an optional :meth:`Rule.applies_to` scope, and one or
two hooks (or a :meth:`Rule.check` over the module's statements).
"""

from __future__ import annotations

import ast
import inspect
from typing import ClassVar, FrozenSet, Iterable, Optional, Type

from repro.lint.findings import Finding
from repro.lint.pragmas import (Suppressions, may_hold_pragma,
                                 parse_suppressions)
from repro.lint.project import ImportTable, node_hooks

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "register_project",
    "all_rules",
    "all_project_rules",
    "resolve_rules",
    "resolve_project_rules",
    "rule_class",
    "explain_rule",
    "UnknownRuleError",
    "RETIRED",
    "ANALYZER_VERSION",
]

#: The analyzer's artifact version, written into ``effects.json`` and
#: ``shardplan.json``; bump it when their schema changes.  It is also
#: part of the incremental cache signature, which additionally hashes
#: the analyzer source, so a rule edit invalidates caches without a
#: bump.
#: v4: module summaries grew the effect-system facts (global/engine/
#: digest/io seeds, stream draws, @effects declarations, import lines).
#: v5: shard-certification facts (emit priorities, derive_seed
#: namespaces, raw-seed sites, @shard_entry/@shard_merge_point
#: decorations, module int constants).
#: v6: ``shardplan.json`` drops its per-function ``functions`` table.
#: v7: call sites on a call result or subscript (``f(...).run()``) are
#: recorded by attribute name.
#: v8: summaries record class bases and ``super()`` call sites, and
#: ``super().m()`` resolves to the enclosing class's project bases.
ANALYZER_VERSION = 8


class FileContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(
        self,
        *,
        path: str,
        rel_parts: tuple[str, ...],
        tree: ast.Module,
        source: str,
        hooked: Optional[FrozenSet[type]],
    ):
        self.path = path
        #: Path components relative to the ``repro`` package root, e.g.
        #: ``("core", "scheduler.py")``.  Rules scope themselves on this
        #: rather than on absolute paths so fixture trees lint the same
        #: way as the installed package.
        self.rel_parts = rel_parts
        self.tree = tree
        pragmas = may_hold_pragma(source)
        #: The file's import aliases, ``TYPE_CHECKING`` split and class
        #: names, from the one walk the summariser shares; it records
        #: the nodes of the ``hooked`` classes (``None``: all).
        self.imports = ImportTable(tree, hooked, literals=pragmas)
        #: The pragma table, read off the literals that walk recorded.
        self.suppressions = (parse_suppressions(source, self.imports.literals)
                             if pragmas else Suppressions())
        self.findings: list[Finding] = []

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        """Record a finding unless a pragma suppresses it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.is_suppressed(rule_id, line):
            return
        self.findings.append(
            Finding(path=self.path, line=line, col=col + 1,
                    rule_id=rule_id, message=message)
        )

    def in_subpackage(self, *names: str) -> bool:
        """True when the file lives under one of the given top-level
        subpackages (``core``, ``sim``, …)."""
        return bool(self.rel_parts) and self.rel_parts[0] in names

    def is_module(self, *parts: str) -> bool:
        """True when the file's relative path is exactly ``parts``."""
        return self.rel_parts == parts


class Rule:
    """Base class for all lint rules.

    Subclasses set :attr:`rule_id`, :attr:`name`, :attr:`description`
    (shown by ``--list-rules`` and in :doc:`docs/LINT.md`), optionally
    narrow :meth:`applies_to`, and implement ``visit_<NodeClass>`` hooks
    or :meth:`check`, which call :meth:`report`.
    """

    rule_id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        """Whether the rule runs on this file at all (default: yes)."""
        return True

    def check(self) -> None:
        """Whole-file checks beyond the node hooks (default: none)."""

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation at ``node``'s location."""
        self.ctx.report(self.rule_id, node, message)


#: retired rule id -> the live rule that reports its hazard now.
#: Retired ids are never reused: ``--explain`` names the successor,
#: ``--select``/``--ignore`` reject them with its name, and a pragma
#: naming one draws a CG000 finding that names it.
RETIRED = {"CG018": "CG016", "CG019": "CG015"}

#: rule id -> rule class, in registration order.
_REGISTRY: dict[str, Type[Rule]] = {}

#: rule id -> whole-program rule class (see
#: :class:`repro.lint.project.ProjectRule`), in registration order.
_PROJECT_REGISTRY: dict[str, type] = {}


class UnknownRuleError(ValueError):
    """Raised when ``--select``/``--ignore`` names a rule that does not
    exist, or one that is retired."""


def _retired_note(rule_id: str) -> str:
    """Why a retired id no longer names a rule, naming its successor."""
    return (f"rule id {rule_id} is retired; its hazard is reported "
            f"as {RETIRED[rule_id]}")


def _new_rule_id(cls: type) -> str:
    """``cls.rule_id``, refusing a missing, taken or retired id."""
    rule_id = getattr(cls, "rule_id", "")
    if not rule_id:
        raise ValueError(f"{cls.__name__} must set a rule_id")
    if (rule_id in _REGISTRY or rule_id in _PROJECT_REGISTRY
            or rule_id in RETIRED):
        raise ValueError(f"duplicate rule id {rule_id}")
    return rule_id


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry; a missing
    or duplicate id or a hook naming no ast class raises ValueError."""
    rule_id = _new_rule_id(cls)
    node_hooks(cls)
    _REGISTRY[rule_id] = cls
    return cls


def register_project(cls: type) -> type:
    """Class decorator adding a whole-program rule to the registry."""
    _PROJECT_REGISTRY[_new_rule_id(cls)] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """The registry, id -> class (copy; registration order preserved)."""
    return dict(_REGISTRY)


def all_project_rules() -> dict[str, type]:
    """The whole-program registry, id -> class (copy)."""
    return dict(_PROJECT_REGISTRY)


def _check_known(ids: list) -> None:
    """Raise on any id that names no live rule; a retired id's error
    names its successor."""
    retired = [r for r in ids if r in RETIRED]
    if retired:
        raise UnknownRuleError("; ".join(_retired_note(r)
                                         for r in sorted(retired)))
    known = set(_REGISTRY) | set(_PROJECT_REGISTRY)
    unknown = [r for r in ids if r not in known]
    if unknown:
        raise UnknownRuleError(f"unknown rule id(s): {', '.join(sorted(unknown))}")


def _resolve(
    registry: dict,
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
) -> list:
    """Shared select/ignore filtering over one registry.

    Unknown-id validation spans *both* registries: ``--select CG010``
    must not error merely because CG010 is a whole-program rule, and a
    typo must fail loudly instead of silently linting nothing.
    """
    chosen = dict(registry)
    if select is not None:
        wanted = list(select)
        _check_known(wanted)
        chosen = {r: registry[r] for r in registry if r in set(wanted)}
    if ignore is not None:
        dropped = list(ignore)
        _check_known(dropped)
        chosen = {r: c for r, c in chosen.items() if r not in set(dropped)}
    return list(chosen.values())


def resolve_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[Type[Rule]]:
    """Resolve enable/disable options into the per-file rules to run.

    ``select`` keeps only the named rules; ``ignore`` then removes rules
    from whatever ``select`` produced.  Unknown ids raise
    :class:`UnknownRuleError` so typos fail loudly instead of silently
    linting nothing.
    """
    return _resolve(_REGISTRY, select, ignore)


def resolve_project_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list:
    """Same select/ignore semantics for the whole-program rules."""
    return _resolve(_PROJECT_REGISTRY, select, ignore)


#: CG000 is synthesised by the engine, not registered; give it a
#: describable identity anyway so ``--explain CG000`` works.
_SYNTAX_RULE_EXPLANATION = """\
The file does not parse (SyntaxError / bad encoding).  Every other rule
needs an AST, so a non-parsing file produces exactly this one finding at
the failure location and is excluded from the whole-program phase.

Fix: make the file valid Python (the finding message carries the
parser's reason); there is no pragma — a file that cannot parse cannot
carry one."""


def rule_class(rule_id: str) -> type:
    """The rule class (per-file or whole-program) behind an id."""
    cls = _REGISTRY.get(rule_id) or _PROJECT_REGISTRY.get(rule_id)
    if cls is None:
        raise UnknownRuleError(f"unknown rule id: {rule_id}")
    return cls


def explain_rule(rule_id: str) -> str:
    """Human-readable rationale + fix recipe for one rule.

    Backs ``cocg lint --explain CGnnn``: header line (id · name), the
    one-line description, then the rule class's docstring — which by
    convention states *why* the rule exists and ends with a ``Fix:``
    recipe.
    """
    if rule_id == "CG000":
        return (f"CG000 · syntax-error\n  file does not parse\n\n"
                f"{_SYNTAX_RULE_EXPLANATION}")
    if rule_id in RETIRED:
        successor = RETIRED[rule_id]
        return (f"{rule_id} · retired\n  {_retired_note(rule_id)}; a "
                f"``# lint: disable={rule_id}`` pragma suppresses nothing "
                f"(CG000 names {successor})\n\n{explain_rule(successor)}")
    cls = rule_class(rule_id)
    doc = inspect.cleandoc(cls.__doc__ or "(no rationale recorded)")
    scope = ("whole-program" if rule_id in _PROJECT_REGISTRY
             else "per-file")
    return (f"{rule_id} · {cls.name} ({scope})\n"
            f"  {cls.description}\n\n{doc}")
