"""Whole-program context: per-module summaries and the project graph.

The per-file phase (:mod:`repro.lint.engine` running the CG001–CG009
rules) sees one AST at a time, so it structurally cannot catch an
unseeded RNG draw laundered through two helper calls into ``serve/``,
or a ``set`` iteration whose order reaches the fleet digest via a
callee in another module.  The whole-program phase closes that gap in
two steps:

1. Each parsed module is distilled into a :class:`ModuleSummary` — its
   imports, top-level definitions, a conservative per-function call
   list, and the *determinism facts* the CG010–CG013 rules consume
   (global-RNG draws, wall-clock reads, unordered-collection
   iterations, event dataclasses, digest definitions).  Summaries are
   plain dataclasses, which :func:`repro.lint.cache.encode` and
   :func:`~repro.lint.cache.decode` store by their fields and type
   hints, so warm runs skip re-parsing unchanged files entirely.

2. A :class:`ProjectContext` aggregates every summary into the module
   graph and a project-wide function index.  It owns the one call
   graph (:mod:`repro.lint.dataflow`), effect inference
   (:mod:`repro.lint.effects`) and shard analysis
   (:mod:`repro.lint.shards`) of a run, each built on first use, so
   every project rule queries the same instances.

The per-file facts both phases need — import aliases, the
``TYPE_CHECKING`` split, class names — come from one
:class:`ImportTable` per file, shared by the per-file rules and the
summariser.  Its walk is the only walk of the file: it records every
node with its :class:`Scope`, and :func:`summarize_module` runs the
rule hooks and the summary hooks in one loop over that list.

A :class:`ProjectRule` is the whole-program analogue of
:class:`~repro.lint.registry.Rule`: it is constructed once per run with
the :class:`ProjectContext` and reports findings against any module,
honouring that module's pragma table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, FrozenSet, List,
                    Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
                    TypeGuard, Union)

from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions

if TYPE_CHECKING:
    from repro.lint.dataflow import CallGraph
    from repro.lint.effects import EffectInference
    from repro.lint.shards import ShardAnalysis

__all__ = [
    "CallSite",
    "TaintSite",
    "EmitSite",
    "SeedSite",
    "UnorderedLoop",
    "EventClass",
    "FunctionSummary",
    "ModuleSummary",
    "ImportTable",
    "Scope",
    "ProjectContext",
    "ProjectRule",
    "dotted_name",
    "module_name_from_parts",
    "summarize_module",
    "node_hooks",
    "SUMMARY_HOOKS",
]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Call terminals too generic to resolve by name across the project —
#: edges through these would connect everything to everything.
_CALL_STOPLIST = frozenset({
    "append", "extend", "add", "remove", "discard", "pop", "popleft",
    "clear", "copy", "update", "get", "setdefault", "items", "keys",
    "values", "index", "count", "sort", "reverse", "join", "split",
    "strip", "format", "encode", "decode", "startswith", "endswith",
    "replace", "lower", "upper", "len", "print", "range", "int",
    "float", "str", "bool", "list", "dict", "set", "tuple", "frozenset",
    "sorted", "reversed", "min", "max", "sum", "abs", "round", "zip",
    "map", "filter", "enumerate", "isinstance", "issubclass", "hasattr",
    "getattr", "setattr", "repr", "type", "next", "iter", "super",
    "ValueError", "TypeError", "KeyError", "RuntimeError", "Exception",
})

#: Wrapping one of these around an iterable makes its order irrelevant
#: (``sorted``) or its consumption order-insensitive (aggregations).
_ORDER_SANITIZERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len",
    "set", "frozenset", "Counter",
})

#: ``time`` functions that read the wall clock (CG005, clock seeds).
WALL_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "localtime", "gmtime", "ctime",
})
#: ``datetime``/``date`` class methods that read the wall clock.
DATETIME_CLASS_FNS = frozenset({"now", "utcnow", "today"})

#: Deterministic ``numpy.random`` constructors that are allowed anywhere:
#: they create a fresh, explicitly seeded stream rather than touching
#: hidden state (CG001, RNG seeds).
NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})
STDLIB_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
#: Suffix of an RNG draw's description when it calls through a global
#: random module namespace — exactly the call sites CG001 reports.
GLOBAL_STATE_DRAW = " (global state)"

#: Method terminals that schedule simulation-engine events when called
#: on an object (``engine.at/after/every``) — the ``engine_emit`` seed.
_ENGINE_EMIT_METHODS = frozenset({"at", "after", "every"})

#: Method terminals that record into the replay digest / telemetry
#: plane — the ``digest_write`` seed.
_DIGEST_WRITE_METHODS = frozenset({
    "record", "record_second", "record_fault_event", "record_gateway_event",
})

#: Call terminals that perform file or console I/O — the ``io`` seed.
_IO_TERMINALS = frozenset({
    "open", "print", "input",
    "write_text", "read_text", "write_bytes", "read_bytes",
})

#: Container-mutating method terminals: calling one on a module- or
#: class-level name is a ``global_write``.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "add", "insert", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear", "sort", "reverse",
})


def module_name_from_parts(rel_parts: Tuple[str, ...]) -> str:
    """Dotted module name relative to the ``repro`` package root.

    ``("serve", "gateway.py")`` → ``"serve.gateway"``;
    ``("serve", "__init__.py")`` → ``"serve"``; a bare ``("cli.py",)``
    → ``"cli"``.
    """
    parts = list(rel_parts)
    if parts and parts[-1].endswith(".py"):
        stem = parts[-1][:-3]
        parts = parts[:-1] if stem == "__init__" else parts[:-1] + [stem]
    return ".".join(parts) if parts else "<root>"


@dataclass(frozen=True)
class CallSite:
    """One call expression: the terminal name and where it happens.

    ``on_self`` marks ``self.name(...)`` calls — the call graph resolves
    those against the enclosing class first instead of every project
    function sharing the terminal name.  ``on_super`` marks
    ``super().name(...)`` calls, which resolve against the enclosing
    class's project bases.
    """

    name: str
    line: int
    on_self: bool = False
    on_super: bool = False


@dataclass(frozen=True)
class TaintSite:
    """A determinism hazard inside a function (RNG draw / clock read)."""

    line: int
    col: int
    desc: str


@dataclass(frozen=True)
class EmitSite:
    """One engine ``at``/``after``/``every`` call and its priority.

    The priority is resolved as far as the AST allows:

    * kwarg absent → ``priority=0`` (the documented default band),
      ``explicit=False``;
    * integer literal (incl. unary minus) → ``priority=<value>``;
    * a bare/dotted name → ``ref=<terminal name>`` with ``priority``
      ``None`` — the shard analyzer resolves it against module-level
      integer constants;
    * anything else → ``priority=None`` and ``ref=None`` with
      ``explicit=True``: a dynamic priority the merge order cannot be
      proven for (rule CG020).
    """

    line: int
    col: int
    desc: str
    priority: Optional[int] = 0
    ref: Optional[str] = None
    explicit: bool = False


@dataclass(frozen=True)
class SeedSite:
    """One ``derive_seed(seed, "<namespace>", ...)`` call site.

    ``namespace`` is the first name argument when it is a string
    literal, ``None`` when it is computed (dynamic namespaces cannot be
    checked for cross-shard collisions, but they also cannot collide
    *statically*, so CG021 skips them).
    """

    line: int
    col: int
    namespace: Optional[str]


@dataclass(frozen=True)
class UnorderedLoop:
    """One iteration over an unordered (or order-fragile) collection."""

    line: int
    col: int
    kind: str  # "set" | "dict"
    desc: str


@dataclass(frozen=True)
class EventClass:
    """An event dataclass definition (``class FooEvent`` + ``@dataclass``)."""

    name: str
    line: int


@dataclass
class FunctionSummary:
    """What one function does, as far as the project rules care.

    The effect facts (``global_writes``, ``engine_emits``,
    ``digest_writes``, ``io_sites``, together with ``rng_draws`` and
    ``clock_reads``) seed the per-effect fixpoint in
    :mod:`repro.lint.effects`; ``declared_effects``/``hot_path`` mirror
    a static ``@effects(...)`` decoration
    (:mod:`repro.util.effects`).
    """

    qualname: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    rng_draws: List[TaintSite] = field(default_factory=list)
    #: draws from a *seeded, named* stream (``rng.normal(...)``,
    #: ``self._rng.choice(...)``) — fine for CG011, but still the
    #: ``rng`` effect for the effect system.
    stream_draws: List[TaintSite] = field(default_factory=list)
    clock_reads: List[TaintSite] = field(default_factory=list)
    unordered_loops: List[UnorderedLoop] = field(default_factory=list)
    global_writes: List[TaintSite] = field(default_factory=list)
    engine_emits: List[EmitSite] = field(default_factory=list)
    digest_writes: List[TaintSite] = field(default_factory=list)
    io_sites: List[TaintSite] = field(default_factory=list)
    #: ``derive_seed(...)`` call sites with their namespace literals.
    seed_derivations: List[SeedSite] = field(default_factory=list)
    #: ``as_rng(7)`` / ``default_rng(7)`` — RNG built from a literal
    #: seed, bypassing ``derive_seed`` namespacing (rule CG021).
    raw_seed_sites: List[TaintSite] = field(default_factory=list)
    #: ``None`` = undeclared; otherwise the sorted declared effect names.
    declared_effects: Optional[List[str]] = None
    hot_path: bool = False
    #: ``@shard_entry("<group>")`` decoration, statically read.
    shard_entry: Optional[str] = None
    #: ``@shard_merge_point`` decoration, statically read.
    shard_merge: bool = False


@dataclass
class ModuleSummary:
    """One module's contribution to the whole-program analysis."""

    module: str
    path: str
    rel_parts: Tuple[str, ...]
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: every imported module -> the first line it is imported on.
    import_lines: Dict[str, int] = field(default_factory=dict)
    #: imports that only exist under ``if TYPE_CHECKING:`` — erased at
    #: runtime, so exempt from the layering rule (CG017).
    type_only_imports: Set[str] = field(default_factory=set)
    event_classes: List[EventClass] = field(default_factory=list)
    event_constructions: Set[str] = field(default_factory=set)
    defines_digest: bool = False
    #: module-level ``NAME = <int>`` bindings — the shard analyzer
    #: resolves named emit priorities (``priority=LIFECYCLE_PRIORITY``)
    #: against these without importing the module.
    int_constants: Dict[str, int] = field(default_factory=dict)
    #: class path (``"Outer.Inner"``) -> the terminal names of its
    #: bases, import aliases undone (``super()`` call resolution).
    class_bases: Dict[str, List[str]] = field(default_factory=dict)
    suppressions: Suppressions = field(default_factory=Suppressions)

    @property
    def package(self) -> str:
        """Top-level subpackage the module lives in (``""`` at root)."""
        return self.rel_parts[0] if len(self.rel_parts) > 1 else ""


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_type_checking_guard(stmt: ast.stmt) -> TypeGuard[ast.If]:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    test = getattr(stmt, "test", None)
    return isinstance(stmt, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _effects_decoration(
    node: ast.AST,
) -> Tuple[bool, Optional[List[str]], bool]:
    """Parse a decorator: ``(is_effects, declared_names, hot_path)``.

    Matches ``@effects(...)`` by terminal name — the decorator is
    designed to be introspected statically, so the analyzer never
    imports the decorated module.
    """
    if not (isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").split(".")[-1] == "effects"):
        return False, None, False
    declared = sorted({
        arg.value for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    })
    hot = any(
        kw.arg == "hot_path"
        and isinstance(kw.value, ast.Constant) and bool(kw.value.value)
        for kw in node.keywords
    )
    return True, declared, hot


def _shard_decoration(node: ast.AST) -> Tuple[Optional[str], bool]:
    """Parse ``@shard_entry("g")`` / ``@shard_merge_point``.

    Returns ``(group, is_merge)``; ``(None, False)`` when the
    decorator is neither marker.  Matched by terminal name, like
    ``@effects(...)`` — the analyzer never imports the module.
    """
    if isinstance(node, ast.Call):
        terminal = (dotted_name(node.func) or "").split(".")[-1]
        if terminal == "shard_entry":
            group = next(
                (arg.value for arg in node.args
                 if isinstance(arg, ast.Constant)
                 and isinstance(arg.value, str)),
                None,
            ) or next(
                (kw.value.value for kw in node.keywords
                 if kw.arg == "group"
                 and isinstance(kw.value, ast.Constant)
                 and isinstance(kw.value.value, str)),
                None,
            )
            if group is not None:
                return group, False
        return None, terminal == "shard_merge_point"
    return None, (dotted_name(node) or "").split(".")[-1] == "shard_merge_point"


def _is_marker(decorator: ast.expr) -> bool:
    """Whether a decorator is an ``@effects``/``@shard_entry``/
    ``@shard_merge_point`` marker, which the summariser reads as a fact
    about the function instead of as code."""
    return (_effects_decoration(decorator)[0]
            or _shard_decoration(decorator) != (None, False))


class Scope(NamedTuple):
    """Where a node sits, as :class:`ImportTable`'s walk records it."""

    #: the innermost enclosing ``def`` (``None`` at module level).
    fn: Optional[ast.AST]
    #: the names of every enclosing class, outermost first.
    classes: Tuple[str, ...]
    #: the ``TYPE_CHECKING`` bucket an import here counts toward:
    #: type-only, runtime, or neither (a guard's test and else branch).
    bucket: Optional[Set[str]]


def _ast_classes() -> FrozenSet[type]:
    """Every node class the ``ast`` module defines."""
    found: Set[type] = set()
    pending = [ast.AST]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                pending.append(sub)
    return frozenset(found)


#: Node classes with no child node but, at most, their ``ctx``.  The
#: walk skips one outright unless a hook reads its class
#: (:func:`_walk_plan`).
_LEAVES = frozenset({
    ast.Name, ast.Constant, ast.alias, ast.Pass, ast.Break, ast.Continue,
    *(cls for base in (ast.expr_context, ast.operator, ast.boolop,
                       ast.unaryop, ast.cmpop)
      for cls in base.__subclasses__()),
})


#: The statements :meth:`ImportTable._enter` handles: a ``def`` and a
#: top-level ``TYPE_CHECKING`` guard give their children scopes of
#: their own, a class changes the scope, and an import is noted.
_SCOPING = frozenset({ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                      ast.Import, ast.ImportFrom, ast.If})


@lru_cache(maxsize=None)
def _walk_plan(
    hooked: Optional[FrozenSet[type]], literals: bool,
) -> Tuple[FrozenSet[type], Dict[type, Tuple[str, ...]]]:
    """What :class:`ImportTable`'s walk pushes, and where it looks.

    Returns the node classes the walk enters — all but the leaves no
    hook reads (``hooked=None`` reads every class), and the string
    leaves when it records ``literals`` — and each entered class's
    fields, ``ctx`` dropped when no context class is entered.
    """
    skip = _LEAVES - (_LEAVES if hooked is None else hooked)
    if literals:
        skip -= {ast.Constant}
    keep = _ast_classes() - skip
    ctx = any(cls in keep for cls in ast.expr_context.__subclasses__())
    fields = {cls: tuple(name for name in cls._fields if ctx or name != "ctx")
              for cls in keep}
    return keep, fields


class ImportTable:
    """The per-file facts every consumer shares, from one walk of the AST.

    The engine builds one table per parsed file.  The per-file rules
    read it as :attr:`FileContext.imports <repro.lint.registry.FileContext>`
    (CG001 the random aliases, CG005 the clock aliases, CG009 the deque
    aliases) and :func:`summarize_module` reads the same instance for
    the RNG/clock seeds, the import graph, the ``TYPE_CHECKING`` split,
    the class names and the import aliases of class bases.  The rule
    and summary hooks of the file all run from one loop over
    :attr:`nodes` and :attr:`scopes`.

    ``hooked`` names the node classes some hook reads (``None``: every
    class); the walk records only nodes of those classes, and never
    enters a leaf (:data:`_LEAVES`) of any other class.  With
    ``literals``, it also records the module's string literals for
    :func:`~repro.lint.pragmas.parse_suppressions`.
    """

    def __init__(self, tree: ast.Module,
                 hooked: Optional[FrozenSet[type]] = None, *,
                 literals: bool = False):
        #: names bound to the numpy package (``np``).
        self.numpy: Set[str] = set()
        #: names bound to ``numpy.random``.
        self.np_random: Set[str] = set()
        #: names bound to the stdlib ``random`` module.
        self.stdlib_random: Set[str] = set()
        self.time: Set[str] = set()
        self.datetime_mod: Set[str] = set()
        #: names bound to the ``datetime``/``date`` classes.
        self.datetime_cls: Set[str] = set()
        #: names bound to the ``collections`` module.
        self.collections: Set[str] = set()
        #: names bound to ``collections.deque``.
        self.deque: Set[str] = set()
        #: bare names from-imported from the random modules that draw
        #: from global state when called.
        self.random_fns: Set[str] = set()
        #: bare names that are wall-clock reads when called.
        self.clock_fns: Set[str] = set()
        #: bare names bound to numpy's default_rng / repro's as_rng.
        self.rng_ctors: Set[str] = set()
        #: ``from m import a as b`` aliases: ``b`` -> ``a``.
        self.renamed: Dict[str, str] = {}
        #: module -> first line it is imported on (in ``ast.walk`` order).
        self.module_lines: Dict[str, int] = {}
        #: modules imported *only* under a top-level ``if TYPE_CHECKING:``.
        self.type_only: Set[str] = set()
        #: classes defined anywhere in the module.
        self.class_names: Set[str] = set()
        #: the nodes of the hooked classes, depth-first in
        #: ``ast.NodeVisitor`` order.
        self.nodes: List[ast.AST] = []
        #: the :class:`Scope` of each node of :attr:`nodes`; ``None``
        #: where the summariser skips the node: return annotations and
        #: the subtrees of marker decorators (:func:`_is_marker`).
        self.scopes: List[Optional[Scope]] = []
        #: with ``literals``: every str/bytes ``Constant`` and every
        #: ``JoinedStr``, nested ones included.
        self.literals: List[ast.expr] = []

        # A top-level TYPE_CHECKING guard's body is type-only, its test
        # and else branch count toward neither, everything else is
        # runtime.  ``module_lines`` keeps each module's shallowest
        # import, the first seen within that depth: breadth-first
        # (ast.walk) and depth-first order agree within one depth.
        guarded: Set[str] = set()
        runtime: Set[str] = set()
        guards = set(filter(_is_type_checking_guard, tree.body))
        self._depth_of: Dict[str, int] = {}
        keep, fields = _walk_plan(hooked, literals)
        record = keep if hooked is None else hooked
        strings = (ast.Constant, ast.JoinedStr) if literals else ()
        stack: List[Tuple[ast.AST, Optional[Scope], int]] = [
            (tree, Scope(None, (), runtime), 0),
        ]
        nodes, scopes = self.nodes, self.scopes
        while stack:
            node, scope, depth = stack.pop()
            kind = type(node)
            if kind in record:
                nodes.append(node)
                scopes.append(scope)
            if kind in strings and (kind is ast.JoinedStr or type(
                    node.value) in (str, bytes)):  # type: ignore[attr-defined]
                self.literals.append(node)  # type: ignore[arg-type]
            depth += 1
            if kind in _SCOPING:
                kids, scope = self._enter(node, scope, depth, guards, guarded)
                if kids is not None:
                    kids.reverse()
                    stack.extend([(child, where, depth)
                                  for child, where in kids
                                  if type(child) in keep])
                    continue
            children: List[object] = []
            for name in fields[kind]:
                value = getattr(node, name)
                if type(value) is list:
                    children.extend(value)
                else:
                    children.append(value)
            children.reverse()
            stack.extend([(child, scope, depth) for child in children
                          if type(child) in keep])
        self.type_only = guarded - runtime

    def _enter(
        self, node: ast.AST, scope: Scope, depth: int,
        guards: Set[ast.AST], guarded: Set[str],
    ) -> Tuple[Optional[List[Tuple[ast.AST, Optional[Scope]]]], Scope]:
        """Note an import or a class, and return ``(children, scope)``:
        a ``def``'s or a ``TYPE_CHECKING`` guard's children in order,
        each with its own scope; otherwise ``None`` and the scope all
        the node's children share."""
        # Skipped subtrees (scope None) are expressions, so they hold
        # none of the scope-changing statements below.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope._replace(fn=node)
            return [(node.args, inner), *((s, inner) for s in node.body),
                    *((dec, None if _is_marker(dec) else scope)
                      for dec in node.decorator_list),
                    *((child, None) for child in (
                        node.returns, *getattr(node, "type_params", ())))
                    ], scope
        if isinstance(node, ast.If) and node in guards:
            neither = scope._replace(bucket=None)
            typed = scope._replace(bucket=guarded)
            return [(node.test, neither), *((s, typed) for s in node.body),
                    *((s, neither) for s in node.orelse)], scope
        if isinstance(node, ast.Import):
            self._note_import(node, scope.bucket, depth)
        elif isinstance(node, ast.ImportFrom):
            self._note_import_from(node, scope.bucket, depth)
        elif isinstance(node, ast.ClassDef):
            self.class_names.add(node.name)
            scope = scope._replace(classes=(*scope.classes, node.name))
        return None, scope

    def random_namespace(self, parts: List[str]) -> Optional[str]:
        """``"numpy.random"``/``"random"`` when the dotted call ``parts``
        go through a global random *module* namespace, else ``None``."""
        if ((len(parts) == 3 and parts[1] == "random"
             and parts[0] in self.numpy)
                or (len(parts) == 2 and parts[0] in self.np_random)):
            return "numpy.random"
        if len(parts) == 2 and parts[0] in self.stdlib_random:
            return "random"
        return None

    def reads_clock(self, parts: List[str]) -> bool:
        """Whether the dotted call ``parts`` reads the wall clock through
        a ``time``/``datetime`` module or class alias."""
        fn = parts[-1]
        prefix = ".".join(parts[:-1])
        return ((prefix in self.time and fn in WALL_CLOCK_FNS)
                or (prefix in self.datetime_cls and fn in DATETIME_CLASS_FNS)
                or (len(parts) == 3 and parts[0] in self.datetime_mod
                    and parts[1] in ("datetime", "date")
                    and fn in DATETIME_CLASS_FNS))

    def _note_module(self, target: str, line: int,
                     bucket: Optional[Set[str]], depth: int) -> None:
        if depth < self._depth_of.get(target, depth + 1):
            self._depth_of[target] = depth
            self.module_lines[target] = line
        if bucket is not None:
            bucket.add(target)

    def _note_import(self, node: ast.Import,
                     bucket: Optional[Set[str]], depth: int) -> None:
        for alias in node.names:
            self._note_module(alias.name, node.lineno, bucket, depth)
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                if alias.name == "numpy.random" and alias.asname:
                    self.np_random.add(alias.asname)
                else:
                    self.numpy.add(bound)
            elif alias.name == "random":
                self.stdlib_random.add(bound)
            elif alias.name == "time":
                self.time.add(alias.asname or "time")
            elif alias.name == "datetime":
                self.datetime_mod.add(alias.asname or "datetime")
            elif alias.name == "collections":
                self.collections.add(alias.asname or "collections")

    def _note_import_from(self, node: ast.ImportFrom,
                          bucket: Optional[Set[str]], depth: int) -> None:
        if node.module:
            self._note_module(node.module, node.lineno, bucket, depth)
        for alias in node.names:
            bound = alias.asname or alias.name
            if alias.asname:
                self.renamed[bound] = alias.name
            if node.module == "random":
                if alias.name not in STDLIB_RANDOM_ALLOWED:
                    self.random_fns.add(bound)
            elif node.module == "numpy.random":
                if alias.name == "default_rng":
                    self.rng_ctors.add(bound)
                elif alias.name not in NP_RANDOM_ALLOWED:
                    self.random_fns.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                self.np_random.add(bound)
            elif node.module == "time":
                if alias.name in WALL_CLOCK_FNS:
                    self.clock_fns.add(bound)
            elif node.module == "datetime":
                if alias.name in ("datetime", "date"):
                    self.datetime_cls.add(bound)
            elif node.module == "collections":
                if alias.name == "deque":
                    self.deque.add(bound)
            elif node.module is not None and (
                node.module == "repro.util.rng"
                or node.module.endswith("util.rng")
            ):
                if alias.name == "as_rng":
                    self.rng_ctors.add(bound)


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound by assignments in the module body (shared state)."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(e.id for e in target.elts
                             if isinstance(e, ast.Name))
    return names


def _const_int(node: ast.expr) -> Optional[int]:
    """The integer value of a literal (incl. unary minus), else ``None``.

    ``True``/``False`` are deliberately excluded: a ``priority=True``
    emit or ``as_rng(False)`` is not a numeric band / seed literal.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return -inner if inner is not None else None
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)):
        return node.value
    return None


def _module_int_constants(tree: ast.Module) -> Dict[str, int]:
    """Module-level ``NAME = <int literal>`` bindings."""
    out: Dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target: ast.expr = stmt.targets[0]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
            value = stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        const = _const_int(value)
        if const is not None:
            out[target.id] = const
    return out


def _root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def node_hooks(cls: type) -> List[Tuple[type, str]]:
    """``(ast class, method name)`` for each ``visit_<Class>`` of ``cls``;
    a ``<Class>`` that is no ast node class raises :class:`ValueError`."""
    hooks = [(getattr(ast, attr[len("visit_"):], None), attr)
             for attr in dir(cls) if attr.startswith("visit_")]
    for node_cls, attr in hooks:
        if not (isinstance(node_cls, type) and issubclass(node_cls, ast.AST)):
            raise ValueError(f"{cls.__name__}.{attr} names no ast node class")
    return hooks


class _Summarizer:
    """The summary hooks: each ``visit_<Class>(node, scope)`` reads one
    node, in the :class:`Scope` :class:`ImportTable` recorded for it,
    into the module's :class:`ModuleSummary`.  No hook recurses;
    :func:`summarize_module` runs them over the table's nodes in
    ``ast.NodeVisitor`` order."""

    def __init__(self, summary: ModuleSummary, imports: ImportTable,
                 tree: ast.Module):
        self.summary = summary
        self.imports = imports
        body = FunctionSummary(qualname=MODULE_BODY, line=1)
        summary.functions[MODULE_BODY] = body
        #: ``def`` node (``None`` for the module body) -> its summary.
        #: Keyed by node, not qualname: two same-named nested ``def``s
        #: share a qualname, and each keeps its own facts.
        self._functions: Dict[Optional[ast.AST], FunctionSummary] = {
            None: body,
        }
        #: AST node ids whose iteration order was sanitised by a wrapper
        #: (``sorted(x.items())``) — skipped by the unordered check.
        self._sanitized: Set[int] = set()
        #: per-``def`` map of local names to "set"/"dict" inferred from
        #: simple assignments.
        self._local_kinds: Dict[Optional[ast.AST], Dict[str, str]] = {
            None: {},
        }
        #: names bound at module level — a store through one of these
        #: from inside a function is shared-state mutation.
        self._module_names: Set[str] = _module_level_names(tree)

    def visit_FunctionDef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        scope: Scope,
    ) -> None:
        if node.name == "digest":
            self.summary.defines_digest = True
        fn = FunctionSummary(qualname=".".join((*scope.classes, node.name)),
                             line=node.lineno)
        # The walk skips the marker decorators' subtrees; every other
        # decorator runs at import time, so its calls (``@register``)
        # count toward the enclosing scope.
        for dec in node.decorator_list:
            is_effects, names, dec_hot = _effects_decoration(dec)
            if is_effects:
                fn.declared_effects = names
                fn.hot_path = fn.hot_path or dec_hot
                continue
            group, is_merge = _shard_decoration(dec)
            if group is not None:
                fn.shard_entry = group
            fn.shard_merge = fn.shard_merge or is_merge
        self.summary.functions[fn.qualname] = fn
        self._functions[node] = fn
        self._local_kinds[node] = {}

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef, scope: Scope) -> None:
        if node.name.endswith("Event") and any(
            dotted_name(d.func if isinstance(d, ast.Call) else d) in
            ("dataclass", "dataclasses.dataclass")
            for d in node.decorator_list
        ):
            self.summary.event_classes.append(
                EventClass(name=node.name, line=node.lineno)
            )
        bases: List[str] = []
        for base in node.bases:
            dotted = dotted_name(
                base.value if isinstance(base, ast.Subscript) else base)
            if dotted is not None:
                bases.append(self.imports.renamed.get(
                    dotted, dotted.split(".")[-1]))
        self.summary.class_bases[".".join((*scope.classes, node.name))] = bases

    # -- unordered-collection iteration --------------------------------
    @staticmethod
    def _is_set_construct(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            return callee in ("set", "frozenset")
        return False

    @staticmethod
    def _is_dict_construct(node: ast.expr) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) == "dict"
        return False

    def _classify_iter(self, node: ast.expr,
                       scope: Scope) -> Optional[Tuple[str, str]]:
        """``(kind, description)`` when ``node`` iterates unordered."""
        if id(node) in self._sanitized:
            return None
        if self._is_set_construct(node):
            return "set", "iteration over a set"
        if (isinstance(node, ast.Call) and not node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("items", "keys", "values")):
            owner = dotted_name(node.func.value) or "<dict>"
            return "dict", f"un-sorted iteration over {owner}.{node.func.attr}()"
        if isinstance(node, ast.Name):
            kind = self._local_kinds[scope.fn].get(node.id)
            if kind == "set":
                return "set", f"iteration over set {node.id!r}"
            if kind == "dict":
                return "dict", f"un-sorted iteration over dict {node.id!r}"
        return None

    def _check_iter(self, node: ast.expr, scope: Scope) -> None:
        classified = self._classify_iter(node, scope)
        if classified is not None:
            kind, desc = classified
            self._functions[scope.fn].unordered_loops.append(UnorderedLoop(
                line=node.lineno, col=node.col_offset + 1,
                kind=kind, desc=desc,
            ))

    def visit_For(self, node: Union[ast.For, ast.AsyncFor],
                  scope: Scope) -> None:
        self._check_iter(node.iter, scope)

    visit_AsyncFor = visit_For

    def visit_ListComp(
        self,
        node: Union[ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp],
        scope: Scope,
    ) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, scope)

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

    def visit_Assign(self, node: ast.Assign, scope: Scope) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            kinds = self._local_kinds[scope.fn]
            if self._is_set_construct(node.value):
                kinds[name] = "set"
            elif self._is_dict_construct(node.value):
                kinds[name] = "dict"
            else:
                kinds.pop(name, None)
        for target in node.targets:
            self._check_shared_store(target, scope)

    def visit_AugAssign(self, node: Union[ast.AugAssign, ast.AnnAssign],
                        scope: Scope) -> None:
        self._check_shared_store(node.target, scope)

    visit_AnnAssign = visit_AugAssign

    def visit_Global(self, node: ast.Global, scope: Scope) -> None:
        if scope.fn is not None:
            for name in node.names:
                self._record_global_write(
                    node, scope,
                    f"'global {name}' rebinding of module-level state",
                )

    def _record_global_write(self, node: ast.AST, scope: Scope,
                             desc: str) -> None:
        self._functions[scope.fn].global_writes.append(TaintSite(
            line=node.lineno, col=node.col_offset + 1, desc=desc,
        ))

    def _shared_root(self, node: ast.expr) -> Optional[str]:
        """Describe the shared binding an expression's root reaches.

        Returns e.g. ``"module-level '_CACHE'"`` when the chain starts
        at a module-body name, ``"class-level 'Config'"`` when it starts
        at a class defined in this module or at ``cls``; ``None`` for
        locals and ``self``.
        """
        root = _root_name(node)
        if root is None or root == "self":
            return None
        if root == "cls" or root in self.imports.class_names:
            return f"class-level {root!r}"
        if root in self._module_names:
            return f"module-level {root!r}"
        return None

    def _check_shared_store(self, target: ast.expr, scope: Scope) -> None:
        # A bare-name target is local rebinding (``global`` covers the
        # shared case); only stores *through* a chain mutate shared
        # state.  Module-body initialisation is definition, not mutation.
        if scope.fn is None:
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        shared = self._shared_root(target)
        if shared is not None:
            self._record_global_write(target, scope, f"store into {shared}")

    # -- calls, RNG draws, clock reads ---------------------------------
    def _check_rng(self, fn: FunctionSummary, node: ast.Call,
                   dotted: str) -> None:
        imp = self.imports
        parts = dotted.split(".")
        name = parts[-1]
        desc = None
        namespace = imp.random_namespace(parts)
        if namespace == "numpy.random":
            if name not in NP_RANDOM_ALLOWED:
                desc = f"numpy.random.{name}(){GLOBAL_STATE_DRAW}"
            elif name == "default_rng" and not node.args:
                desc = "default_rng() with no seed (OS entropy)"
        elif namespace == "random":
            if name not in STDLIB_RANDOM_ALLOWED:
                desc = f"random.{name}(){GLOBAL_STATE_DRAW}"
        elif len(parts) == 1:
            if name in imp.random_fns:
                desc = f"{name}() (global random state)"
            elif name in imp.rng_ctors:
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    desc = f"{name}(None) (OS entropy)"
        if desc is not None:
            fn.rng_draws.append(TaintSite(
                line=node.lineno, col=node.col_offset + 1, desc=desc,
            ))

    def _check_clock(self, fn: FunctionSummary, node: ast.Call,
                     dotted: str) -> None:
        parts = dotted.split(".")
        if self.imports.reads_clock(parts):
            desc = f"{dotted}() (wall clock)"
        elif len(parts) == 1 and parts[0] in self.imports.clock_fns:
            desc = f"{parts[0]}() (wall clock)"
        else:
            return
        fn.clock_reads.append(TaintSite(
            line=node.lineno, col=node.col_offset + 1, desc=desc,
        ))

    @staticmethod
    def _emit_priority(
        node: ast.Call,
    ) -> Tuple[Optional[int], Optional[str], bool]:
        """``(priority, ref, explicit)`` of an engine-emit call."""
        for kw in node.keywords:
            if kw.arg != "priority":
                continue
            const = _const_int(kw.value)
            if const is not None:
                return const, None, True
            ref = dotted_name(kw.value)
            if ref is not None and ref != "self" \
                    and not ref.startswith("self."):
                return None, ref.split(".")[-1], True
            return None, None, True
        return 0, None, False

    def _check_effect_seeds(self, node: ast.Call, scope: Scope, dotted: str,
                            terminal: str) -> None:
        """Record the engine-emit / digest-write / io / mutation facts."""
        fn = self._functions[scope.fn]
        site = TaintSite(line=node.lineno, col=node.col_offset + 1,
                         desc=f"{dotted}()")
        is_method = isinstance(node.func, ast.Attribute)
        if is_method and terminal in _ENGINE_EMIT_METHODS:
            priority, ref, explicit = self._emit_priority(node)
            fn.engine_emits.append(EmitSite(
                site.line, site.col, f"{dotted}() schedules an engine event",
                priority=priority, ref=ref, explicit=explicit,
            ))
        if terminal == "derive_seed":
            namespace = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                namespace = node.args[1].value
            fn.seed_derivations.append(SeedSite(
                line=site.line, col=site.col, namespace=namespace,
            ))
        if terminal in ("as_rng", "default_rng") and node.args:
            literal = _const_int(node.args[0])
            if literal is not None:
                fn.raw_seed_sites.append(TaintSite(
                    site.line, site.col,
                    f"{dotted}({literal}) builds an RNG from a fixed "
                    f"literal seed",
                ))
        if is_method and terminal in _DIGEST_WRITE_METHODS:
            fn.digest_writes.append(TaintSite(
                site.line, site.col,
                f"{dotted}() records into the telemetry/digest plane",
            ))
        if terminal in _IO_TERMINALS:
            fn.io_sites.append(TaintSite(
                site.line, site.col, f"{dotted}() performs I/O",
            ))
        if (is_method and terminal in _MUTATOR_METHODS
                and scope.fn is not None):
            shared = self._shared_root(node.func.value)
            if shared is not None:
                self._record_global_write(
                    node, scope, f"{dotted}() mutates {shared}",
                )
        if is_method:
            receiver = dotted_name(node.func.value)
            last = receiver.split(".")[-1] if receiver else ""
            if last in ("rng", "_rng") or last.endswith("_rng"):
                fn.stream_draws.append(TaintSite(
                    site.line, site.col,
                    f"{dotted}() draws from a seeded stream",
                ))

    def visit_Call(self, node: ast.Call, scope: Scope) -> None:
        fn = self._functions[scope.fn]
        dotted = dotted_name(node.func)
        if dotted is not None:
            terminal = dotted.split(".")[-1]
            if terminal in _ORDER_SANITIZERS:
                for arg in node.args:
                    self._sanitized.add(id(arg))
                    # one level deeper: sorted(x.items()) sanitises the
                    # .items() call; sorted(e for q in d.values()) the
                    # generator's iterables.
                    if isinstance(arg, ast.GeneratorExp):
                        for gen in arg.generators:
                            self._sanitized.add(id(gen.iter))
            if terminal not in _CALL_STOPLIST:
                on_self = (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                )
                fn.calls.append(CallSite(
                    name=terminal, line=node.lineno, on_self=on_self,
                ))
            if terminal.endswith("Event"):
                self.summary.event_constructions.add(terminal)
            self._check_rng(fn, node, dotted)
            self._check_clock(fn, node, dotted)
            self._check_effect_seeds(node, scope, dotted, terminal)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr not in _CALL_STOPLIST
        ):
            # A method on a call result or subscript
            # (``build(...).run()``, ``nodes[0].advance()``) has no
            # dotted name, but its attribute still names the callee.
            receiver = node.func.value
            fn.calls.append(CallSite(
                name=node.func.attr, line=node.lineno,
                on_super=(isinstance(receiver, ast.Call)
                          and isinstance(receiver.func, ast.Name)
                          and receiver.func.id == "super"),
            ))


#: ``(ast class, method name)`` of every summary hook.
SUMMARY_HOOKS = node_hooks(_Summarizer)


def summarize_module(
    tree: ast.Module,
    *,
    path: str,
    rel_parts: Tuple[str, ...],
    suppressions: Suppressions,
    imports: ImportTable,
    rule_hooks: Mapping[type, Sequence[Callable[[ast.AST], None]]],
) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`.

    ``imports`` is the file's :class:`ImportTable` — the same instance
    the per-file rules read as ``FileContext.imports``.  ``rule_hooks``
    maps a node class to the per-file rule hooks for it; they run in
    the same loop over :attr:`ImportTable.nodes` as the summary hooks,
    so each file is walked once.  The table must have recorded every
    class of ``rule_hooks`` and :data:`SUMMARY_HOOKS`.
    """
    summary = ModuleSummary(
        module=module_name_from_parts(rel_parts),
        path=path,
        rel_parts=rel_parts,
        suppressions=suppressions,
    )
    summary.import_lines = dict(imports.module_lines)
    summary.type_only_imports = set(imports.type_only)
    summary.int_constants = _module_int_constants(tree)
    summarizer = _Summarizer(summary, imports, tree)
    summary_hooks = {node_cls: getattr(summarizer, attr)
                     for node_cls, attr in SUMMARY_HOOKS}
    # node class -> (its rule hooks, its summary hook or None)
    dispatch = {
        node_cls: (tuple(rule_hooks.get(node_cls, ())),
                   summary_hooks.get(node_cls))
        for node_cls in [*rule_hooks, *summary_hooks]
    }
    unhooked: Tuple[tuple, None] = ((), None)
    for node, scope in zip(imports.nodes, imports.scopes):
        hooks, summary_hook = dispatch.get(type(node), unhooked)
        for hook in hooks:
            hook(node)
        if summary_hook is not None and scope is not None:
            summary_hook(node, scope)
    return summary


class ProjectContext:
    """Every module summary plus the indexes the project rules query."""

    def __init__(self, modules: Dict[str, ModuleSummary]):
        #: dotted module name -> summary.
        self.modules = modules
        #: terminal function/method name -> node ids defining it, where a
        #: node id is ``"<module>::<qualname>"``.
        self.function_index: Dict[str, List[str]] = {}
        for mod in modules.values():
            for qual in mod.functions:
                terminal = qual.split(".")[-1]
                node_id = f"{mod.module}::{qual}"
                self.function_index.setdefault(terminal, []).append(node_id)

    # The analyses below are built on first use and shared by every
    # project rule and artifact writer of the run.
    @cached_property
    def graph(self) -> "CallGraph":
        """The conservative call graph (:mod:`repro.lint.dataflow`)."""
        from repro.lint.dataflow import build_call_graph
        return build_call_graph(self)

    @cached_property
    def effects(self) -> "EffectInference":
        """Per-function effect signatures over :attr:`graph`."""
        from repro.lint.effects import EffectInference
        return EffectInference(self)

    @cached_property
    def shards(self) -> "ShardAnalysis":
        """Shard reachability and interference over :attr:`graph`."""
        from repro.lint.shards import ShardAnalysis
        return ShardAnalysis(self)

    def function(self, node_id: str) -> FunctionSummary:
        """Look a function summary up by its ``module::qualname`` id."""
        module, qual = node_id.split("::", 1)
        return self.modules[module].functions[qual]

    def module_of(self, node_id: str) -> ModuleSummary:
        """The summary of the module a function id belongs to."""
        return self.modules[node_id.split("::", 1)[0]]

    def functions_in(self, *packages: str) -> List[str]:
        """Function ids of every function under the given subpackages."""
        out: List[str] = []
        for name in sorted(self.modules):
            mod = self.modules[name]
            if mod.package in packages:
                out.extend(f"{name}::{q}" for q in sorted(mod.functions))
        return out


class ProjectRule:
    """Base class for whole-program rules (CG010–CG013, CG015–CG022).

    Subclasses set :attr:`rule_id`/:attr:`name`/:attr:`description`,
    are registered with
    :func:`repro.lint.registry.register_project`, and implement
    :meth:`check`, calling :meth:`report` per violation.  Pragma
    suppression uses the *reported module's* pragma table, so a
    ``# lint: disable=CG010`` works exactly like it does for per-file
    rules.
    """

    rule_id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.findings: List[Finding] = []

    def check(self) -> None:
        """Analyse the project; implemented by subclasses."""
        raise NotImplementedError

    def report(self, module: ModuleSummary, line: int, col: int,
               message: str) -> None:
        """Record one finding against ``module`` unless suppressed."""
        if module.suppressions.is_suppressed(self.rule_id, line):
            return
        self.findings.append(Finding(
            path=module.path, line=line, col=col,
            rule_id=self.rule_id, message=message,
        ))
