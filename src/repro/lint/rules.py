"""The CoCG invariant rules, CG001–CG009 and CG014.

Each rule protects one convention the interpreter cannot enforce but the
reproduction's correctness depends on (see ``docs/LINT.md`` for the full
rationale and ``docs/LINT.md#adding-a-rule`` for the extension recipe):

========  ==============================================================
CG001     no global-state randomness outside ``util/rng.py``
CG002     no mutable default arguments
CG003     public functions in ``core``/``mlkit``/``platform_`` are typed
CG004     ``__all__`` is present, accurate, and complete
CG005     no wall-clock reads inside ``sim`` (use the engine clock)
CG006     no bare/swallowed exceptions in scheduler/distributor paths
CG007     resource dimensions come from the canonical constants
CG008     fault paths re-raise, log to telemetry, or transition health
CG009     queues in ``serve``/``cluster`` declare an explicit bound
CG014     counter/total aggregates in ``serve``/``cluster``/``faults``
          live on the instance that counts, not at module level
========  ==============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Union

from repro.lint.project import (
    NP_RANDOM_ALLOWED,
    STDLIB_RANDOM_ALLOWED,
    WALL_CLOCK_FNS,
    dotted_name,
)
from repro.lint.registry import FileContext, Rule, register

__all__ = [
    "NoGlobalRandomness",
    "NoMutableDefaults",
    "PublicFunctionsTyped",
    "DunderAllConsistency",
    "NoWallClockInSim",
    "ExceptionHygiene",
    "CanonicalDimensions",
    "FaultPathAccountability",
    "BoundedQueues",
    "InstanceOwnedAggregates",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# ----------------------------------------------------------------------
# CG001
# ----------------------------------------------------------------------

@register
class NoGlobalRandomness(Rule):
    """CG001 — the *no global randomness* rule from ``util/rng.py``.

    Flags calls through the ``numpy.random`` and stdlib ``random``
    *module* namespaces (``np.random.uniform(...)``, ``random.choice``)
    everywhere except ``util/rng.py`` itself.  Such calls draw from
    hidden process-global state, so results silently depend on import
    order and on every other component's draw history.  Stochastic code
    must accept a :data:`repro.util.rng.Seed` and go through
    :func:`repro.util.rng.as_rng` / :func:`~repro.util.rng.spawn_rngs`.
    Seeded constructors (``default_rng``, ``Generator``, bit
    generators) are allowed; method calls on a threaded ``Generator``
    instance are of course fine.

    Fix: accept a ``Seed``/``Generator`` parameter and normalise it
    with :func:`repro.util.rng.as_rng`; derive child streams with
    :func:`~repro.util.rng.spawn_rngs` instead of drawing globally.
    """

    rule_id = "CG001"
    name = "no-global-randomness"
    description = ("global numpy.random / random call outside util/rng.py; "
                   "thread a Seed/Generator instead")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return not ctx.is_module("util", "rng.py")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [a.name for a in node.names
                   if a.name not in STDLIB_RANDOM_ALLOWED]
            if bad:
                self.report(node, f"import of global-state random function(s) "
                                  f"{', '.join(sorted(bad))} from the random module")
        elif node.module == "numpy.random":
            bad = [a.name for a in node.names
                   if a.name not in NP_RANDOM_ALLOWED]
            if bad:
                self.report(node, f"import of global-state numpy.random "
                                  f"function(s) {', '.join(sorted(bad))}")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            fn = parts[-1]
            namespace = self.ctx.imports.random_namespace(parts)
            allowed = (NP_RANDOM_ALLOWED if namespace == "numpy.random"
                       else STDLIB_RANDOM_ALLOWED)
            if namespace is not None and fn not in allowed:
                self.report(node, f"call to global-state {namespace}.{fn}; "
                                  f"use util.rng.as_rng and Generator methods")


# ----------------------------------------------------------------------
# CG002
# ----------------------------------------------------------------------

_MUTABLE_DISPLAY = (ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "defaultdict", "Counter", "deque", "OrderedDict",
})


@register
class NoMutableDefaults(Rule):
    """CG002 — no mutable default arguments.

    A mutable default is evaluated once at definition time and shared by
    every call, so state leaks between supposedly independent sessions,
    experiments, and simulator runs.  Use ``None`` and materialise inside
    the function body.

    Fix: default to ``None`` and materialise the container inside the
    function body (``xs = [] if xs is None else xs``).
    """

    rule_id = "CG002"
    name = "no-mutable-defaults"
    description = "mutable default argument (shared across calls); default to None"

    def _check_defaults(self, node: Union[_FunctionNode, ast.Lambda],
                        label: str) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, _MUTABLE_DISPLAY):
                self.report(default, f"mutable default in {label}")
            elif isinstance(default, ast.Call):
                callee = dotted_name(default.func)
                if callee is not None and callee.split(".")[-1] in _MUTABLE_CALLS:
                    self.report(default,
                                f"mutable default {callee}(...) in {label}")

    def visit_FunctionDef(self, node: _FunctionNode) -> None:
        self._check_defaults(node, f"function {node.name!r}")

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, "lambda")


# ----------------------------------------------------------------------
# CG003
# ----------------------------------------------------------------------

@register
class PublicFunctionsTyped(Rule):
    """CG003 — public API in ``core``/``mlkit``/``platform_`` is typed.

    Every public module-level function and every public method of a
    public class must annotate all parameters (``self``/``cls`` exempt)
    and the return type.  These are the packages downstream code builds
    on; annotations there are what makes the ``py.typed`` marker honest.

    Fix: annotate every public parameter and the return type; prefix
    genuinely internal helpers with ``_`` instead.
    """

    rule_id = "CG003"
    name = "public-functions-typed"
    description = ("public function in core/mlkit/platform_ missing "
                   "parameter or return annotations")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.in_subpackage("core", "mlkit", "platform_")

    def check(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(stmt, method=False)
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_function(sub, method=True)

    def _check_function(self, node: _FunctionNode, *, method: bool) -> None:
        public = not node.name.startswith("_") or node.name == "__init__"
        if not public:
            return
        args = list(node.args.posonlyargs) + list(node.args.args)
        if method and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        args += list(node.args.kwonlyargs)
        for extra in (node.args.vararg, node.args.kwarg):
            if extra is not None:
                args.append(extra)
        missing = [a.arg for a in args if a.annotation is None]
        if missing:
            self.report(node, f"public function {node.name!r} has unannotated "
                              f"parameter(s): {', '.join(missing)}")
        if node.returns is None and node.name != "__init__":
            self.report(node, f"public function {node.name!r} has no "
                              f"return annotation")


# ----------------------------------------------------------------------
# CG004
# ----------------------------------------------------------------------

@register
class DunderAllConsistency(Rule):
    """CG004 — ``__all__`` is present, accurate, and complete.

    Three checks per module: the module declares ``__all__`` when it
    defines public functions/classes; every exported name actually
    exists at module level; and every public function/class is exported.
    Recognises literal ``__all__ = [...]`` plus ``+=`` / ``.append`` /
    ``.extend`` augmentation with string literals.

    Fix: add the missing public names to ``__all__`` (or prefix them
    with ``_``); keep ``__all__`` a literal list of strings.
    """

    rule_id = "CG004"
    name = "dunder-all-consistency"
    description = "__all__ missing, exports a nonexistent name, or omits a public def"

    def check(self) -> None:
        exported: list[str] = []
        declaration: Optional[ast.stmt] = None
        opaque = False          # __all__ built dynamically; skip the file
        star_import = False
        bound: set[str] = set()
        public_defs: list[Union[_FunctionNode, ast.ClassDef]] = []
        # A lazy package binds ``__getattr__`` from a call given a
        # ``{name: defining module}`` dict literal (PEP 562): its keys
        # are module-level names, and each must be exported.
        lazy: list[tuple[str, ast.stmt]] = []  # (name, its table)

        def literal_names(node: ast.AST) -> Optional[list[str]]:
            if isinstance(node, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts
            ):
                return [e.value for e in node.elts]  # type: ignore[union-attr]
            return None

        def lazy_names(stmt: ast.Assign) -> list[str]:
            binds_getattr = any(
                isinstance(name_node, ast.Name) and name_node.id == "__getattr__"
                for target in stmt.targets for name_node in ast.walk(target)
            )
            if not binds_getattr or not isinstance(stmt.value, ast.Call):
                return []
            for arg in stmt.value.args:
                if isinstance(arg, ast.Dict) and all(
                    isinstance(k, ast.Constant) and isinstance(k.value, str)
                    for k in arg.keys
                ):
                    return [k.value for k in arg.keys]  # type: ignore[union-attr]
            return []

        def scan(statements: list[ast.stmt]) -> None:
            nonlocal declaration, opaque, star_import
            for stmt in statements:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    bound.add(stmt.name)
                    if not stmt.name.startswith("_"):
                        public_defs.append(stmt)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                bound.add(name_node.id)
                    for name in lazy_names(stmt):
                        lazy.append((name, stmt))
                        bound.add(name)
                    if any(isinstance(t, ast.Name) and t.id == "__all__"
                           for t in stmt.targets):
                        declaration = declaration or stmt
                        names = literal_names(stmt.value)
                        if names is None:
                            opaque = True
                        else:
                            exported.extend(names)
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        bound.add(stmt.target.id)
                elif isinstance(stmt, ast.AugAssign):
                    if (isinstance(stmt.target, ast.Name)
                            and stmt.target.id == "__all__"):
                        names = literal_names(stmt.value)
                        if names is None:
                            opaque = True
                        else:
                            exported.extend(names)
                elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    call = stmt.value
                    dotted = dotted_name(call.func)
                    if dotted == "__all__.append":
                        if (len(call.args) == 1
                                and isinstance(call.args[0], ast.Constant)
                                and isinstance(call.args[0].value, str)):
                            exported.append(call.args[0].value)
                        else:
                            opaque = True
                    elif dotted == "__all__.extend":
                        names = (literal_names(call.args[0])
                                 if len(call.args) == 1 else None)
                        if names is None:
                            opaque = True
                        else:
                            exported.extend(names)
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        if alias.name == "*":
                            star_import = True
                        else:
                            bound.add(alias.asname or alias.name)
                elif isinstance(stmt, ast.If):
                    scan(stmt.body)
                    scan(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    scan(stmt.body)
                    scan(stmt.orelse)
                    scan(stmt.finalbody)
                    for handler in stmt.handlers:
                        scan(handler.body)
                elif isinstance(stmt, (ast.With, ast.For, ast.While)):
                    scan(stmt.body)
                    scan(getattr(stmt, "orelse", []))

        scan(self.ctx.tree.body)
        if opaque:
            return  # dynamically built __all__; nothing safe to assert
        if declaration is None:
            if public_defs:
                self.report(self.ctx.tree, "module defines public names but "
                                           "declares no __all__")
            return
        if not star_import:
            for name in exported:
                if name not in bound:
                    self.report(declaration,
                                f"__all__ exports {name!r} which is not "
                                f"defined at module level")
        export_set = set(exported)
        for definition in public_defs:
            if definition.name not in export_set:
                self.report(definition, f"public definition "
                                        f"{definition.name!r} missing from __all__")
        for name, table in lazy:
            if name not in export_set:
                self.report(table, f"lazy export {name!r} missing from __all__")


# ----------------------------------------------------------------------
# CG005
# ----------------------------------------------------------------------

@register
class NoWallClockInSim(Rule):
    """CG005 — simulation code never reads the wall clock.

    Everything under ``sim/`` must take its notion of time from the
    engine clock (:class:`repro.sim.engine.SimulationEngine`), never
    from ``time.time()`` and friends: a wall-clock read makes simulated
    timelines irreproducible and couples results to host load.

    Fix: take the current time as a parameter or read the simulation
    engine's clock (``engine.now``); wall-clock reads belong outside
    the deterministic core.
    """

    rule_id = "CG005"
    name = "no-wall-clock-in-sim"
    description = "wall-clock read inside sim/; use the engine clock"

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.in_subpackage("sim")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            bad = [a.name for a in node.names if a.name in WALL_CLOCK_FNS]
            if bad:
                self.report(node, f"import of wall-clock function(s) "
                                  f"{', '.join(sorted(bad))} from the time module")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None and self.ctx.imports.reads_clock(dotted.split(".")):
            self.report(node, f"wall-clock call {dotted}() in sim/")


# ----------------------------------------------------------------------
# CG006
# ----------------------------------------------------------------------

@register
class ExceptionHygiene(Rule):
    """CG006 — no bare or swallowed exceptions on control paths.

    Bare ``except:`` is flagged everywhere (it catches ``SystemExit``
    and ``KeyboardInterrupt`` too).  In scheduler/distributor/cluster
    paths — where a silently ignored error becomes a wrong placement
    decision rather than a crash — a handler for ``Exception`` /
    ``BaseException`` whose body is only ``pass``/``...``/``continue``
    is also flagged: handle, log, or re-raise.

    Fix: catch the narrowest exception type that the decision path can
    actually raise, and either handle it or re-raise with context —
    never ``except Exception: pass``.
    """

    rule_id = "CG006"
    name = "exception-hygiene"
    description = "bare except, or swallowed exception in scheduler/distributor paths"

    def _in_control_path(self) -> bool:
        parts = self.ctx.rel_parts
        if parts and parts[0] == "cluster":
            return True
        filename = parts[-1] if parts else ""
        return "scheduler" in filename or "distributor" in filename

    @staticmethod
    def _is_broad(handler_type: Optional[ast.expr]) -> bool:
        if handler_type is None:
            return True
        names = []
        if isinstance(handler_type, ast.Tuple):
            names = [dotted_name(e) for e in handler_type.elts]
        else:
            names = [dotted_name(handler_type)]
        return any(n in ("Exception", "BaseException") for n in names if n)

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Continue):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring or bare ...
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare except: catches SystemExit/KeyboardInterrupt; "
                              "name the exception type")
        elif (self._in_control_path() and self._is_broad(node.type)
              and self._swallows(node.body)):
            self.report(node, "swallowed exception on a scheduler/distributor "
                              "path; handle, log, or re-raise")


# ----------------------------------------------------------------------
# CG007
# ----------------------------------------------------------------------

#: Mirrors repro.platform_.resources.DIMENSIONS.  Kept as literals here —
#: the linter must not import the code under analysis.
_DIM_LITERALS = frozenset({"cpu", "gpu", "gpu_mem", "ram"})  # lint: disable=CG007


def _dim_constant(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in _DIM_LITERALS):
        return node.value
    return None


@register
class CanonicalDimensions(Rule):
    """CG007 — resource dimensions come from the canonical constants.

    Indexing, comparing, or enumerating resource dimensions with ad-hoc
    string literals (``vec["gpu"]``, ``dim == "cpu"``,
    ``("cpu", "gpu", ...)``) silently diverges the moment a dimension is
    added or renamed.  Use :data:`repro.platform_.resources.DIMENSIONS`
    and the ``CPU``/``GPU``/``GPU_MEM``/``RAM`` index constants, which
    exist precisely so there is one definition site.  Keyword/mapping
    construction (``ResourceVector(cpu=35)``) is the sanctioned API and
    is not flagged.

    Fix: build vectors through
    :class:`repro.platform_.resources.ResourceVector` and index by the
    canonical :data:`~repro.platform_.resources.DIMENSIONS` names.
    """

    rule_id = "CG007"
    name = "canonical-dimensions"
    description = ("resource-dimension string literal; use "
                   "platform_.resources.DIMENSIONS / index constants")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return not ctx.is_module("platform_", "resources.py")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dim = _dim_constant(node.slice)
        if dim is not None:
            self.report(node.slice, f"subscript by dimension literal {dim!r}; "
                                    f"use the CPU/GPU/GPU_MEM/RAM constants")

    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left, *node.comparators]:
            dim = _dim_constant(operand)
            if dim is not None:
                self.report(operand, f"comparison against dimension literal "
                                     f"{dim!r}; use the canonical constants")

    def visit_List(self, node: Union[ast.List, ast.Tuple, ast.Set]) -> None:
        dims = [d for d in (_dim_constant(e) for e in node.elts) if d is not None]
        if len(dims) >= 2:
            self.report(node, "ad-hoc dimension sequence literal; use "
                              "platform_.resources.DIMENSIONS")

    visit_Tuple = visit_Set = visit_List

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if (dotted is not None and dotted.endswith(".index")
                and len(node.args) == 1):
            dim = _dim_constant(node.args[0])
            if dim is not None:
                self.report(node.args[0], f".index({dim!r}) on a dimension "
                                          f"literal; use the index constants")


# ----------------------------------------------------------------------
# CG008
# ----------------------------------------------------------------------

#: Method names whose invocation inside a handler counts as *accounting
#: for* the fault: telemetry/log sinks and health-state transitions.
_FAULT_ACCOUNTING_CALLS = frozenset({
    "record_fault_event", "record_failure", "record_success",
    "note_degraded", "crash", "recover", "drain",
    "crash_node", "recover_node", "drain_node",
    "_log", "log", "warning", "error", "exception", "report",
})


@register
class FaultPathAccountability(Rule):
    """CG008 — fault paths re-raise, log to telemetry, or move health.

    On the resilience-critical paths — ``faults/``, ``cluster/``, and
    ``core/scheduler.py`` — a handler that catches *everything* (bare
    ``except:``, ``Exception``, ``BaseException``) must visibly account
    for the error: re-raise it, log it to telemetry or the decision log,
    or transition a health state (breaker trip, node down, …).  A broad
    handler that quietly substitutes a value is exactly how an injected
    fault disappears from the QoS accounting, so the degradation claims
    become untestable.  CG006 bans the empty swallow; this rule demands
    positive evidence of accounting.

    Fix: record the injected fault through the telemetry recorder
    (``record_fault_event``) in the same code path that mutates state,
    so the digest explains every divergence.
    """

    rule_id = "CG008"
    name = "fault-path-accountability"
    description = ("broad exception handler on a fault path with no "
                   "re-raise, telemetry log, or health transition")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        parts = ctx.rel_parts
        if parts and parts[0] in ("faults", "cluster"):
            return True
        return ctx.is_module("core", "scheduler.py")

    @staticmethod
    def _accounts(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    if dotted is not None and (
                        dotted.split(".")[-1] in _FAULT_ACCOUNTING_CALLS
                    ):
                        return True
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and target.attr in ("health", "_state")):
                            return True
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or ExceptionHygiene._is_broad(node.type)
        if broad and not self._accounts(node.body):
            self.report(node, "broad handler on a fault path must re-raise, "
                              "log to telemetry, or transition a health state")


# ----------------------------------------------------------------------
# CG009
# ----------------------------------------------------------------------

_QUEUE_NAME = re.compile(r"queue|backlog", re.IGNORECASE)


@register
class BoundedQueues(Rule):
    """CG009 — queues on the serving path declare an explicit bound.

    An unbounded queue in ``serve/`` or ``cluster/`` is a latent OOM and
    an unbounded-latency bug: under the open-loop arrival rates the
    serve layer exists to survive, anything that buffers requests
    without a capacity silently converts overload into memory growth
    and multi-minute queueing delays instead of an explicit *shed*
    verdict.  Two shapes are flagged:

    * ``deque(...)`` constructed without a ``maxlen=`` keyword
      (including ``collections.deque`` and import aliases);
    * an empty-list initialiser (``x = []`` / ``x = list()``) whose
      target name contains ``queue`` or ``backlog``.

    Queues whose bound is enforced elsewhere (e.g. a capacity check in
    the producer) carry a pragma naming the bound::

        self._queue = []  # lint: disable=CG009 - bounded by queue_limit in submit()

    Fix: give the queue an explicit ``maxlen``/capacity and a defined
    overflow policy (reject, drop-oldest, or backpressure).
    """

    rule_id = "CG009"
    name = "bounded-queues"
    description = ("unbounded queue in serve/cluster: deque without maxlen, "
                   "or queue/backlog-named list; declare the bound or pragma it")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.in_subpackage("serve", "cluster")

    def _is_deque_call(self, node: ast.Call) -> bool:
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        parts = dotted.split(".")
        if len(parts) == 1:
            return parts[0] in self.ctx.imports.deque
        return (len(parts) == 2 and parts[0] in self.ctx.imports.collections
                and parts[1] == "deque")

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_deque_call(node):
            if not any(kw.arg == "maxlen" for kw in node.keywords):
                self.report(node, "deque without maxlen= on the serving path; "
                                  "declare the bound (or pragma the external one)")

    @staticmethod
    def _target_name(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    @staticmethod
    def _is_empty_list(value: Optional[ast.expr]) -> bool:
        if isinstance(value, ast.List) and not value.elts:
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
                and not value.args and not value.keywords)

    def _check_assign_target(self, target: ast.expr,
                             value: Optional[ast.expr]) -> None:
        name = self._target_name(target)
        if (name is not None and _QUEUE_NAME.search(name)
                and self._is_empty_list(value)):
            self.report(target, f"queue-named list {name!r} has no bound; "
                                f"use deque(maxlen=...) or pragma the "
                                f"enforced capacity")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assign_target(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_assign_target(node.target, node.value)


# ----------------------------------------------------------------------
# CG014
# ----------------------------------------------------------------------

_AGGREGATE_NAME = re.compile(r"count|counter|total|stats|metric|tally",
                             re.IGNORECASE)
_AGGREGATE_CALLS = frozenset({
    "dict", "list", "set", "defaultdict", "Counter", "OrderedDict",
})


@register
class InstanceOwnedAggregates(Rule):
    """CG014 — counter-like aggregates live on the instance that counts.

    A bare module-level dict/list named like a counter (``_totals = {}``,
    ``STATS = defaultdict(int)``) in ``serve/``, ``cluster/`` or
    ``faults/`` is invisible observability: it accumulates process-global
    state the post-run reader (``repro.obs.reader``) never sees, it
    survives across experiments inside one process (two runs share the
    tally, breaking same-seed determinism), and nothing ties it to the
    run that produced it.

    Flagged: a module **top-level** ``Assign``/``AnnAssign`` whose
    target name matches ``count|counter|total|stats|metric|tally``
    (case-insensitive) and whose value is a mutable aggregate — a
    dict/list/set display or comprehension, or a call to ``dict`` /
    ``list`` / ``set`` / ``defaultdict`` / ``Counter`` /
    ``OrderedDict``.  Class- and function-scoped state is exempt (it
    dies with its owner); genuinely non-metric tables carry a pragma::

        _STAT_NAMES = {...}  # lint: disable=CG014 -- static lookup table, never mutated

    Fix: keep the tally on the owning instance — an attribute of the
    object that does the counting, like ``ClusterScheduler.dispatched``
    — where ``repro.obs.reader`` reads it after the run.
    """

    rule_id = "CG014"
    name = "instance-owned-aggregates"
    description = ("module-level counter/total aggregate in serve/cluster/"
                   "faults; keep the tally on its owning instance or pragma it")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.in_subpackage("serve", "cluster", "faults")

    @staticmethod
    def _is_mutable_aggregate(value: Optional[ast.expr]) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                return dotted.split(".")[-1] in _AGGREGATE_CALLS
        return False

    def _check_target(self, target: ast.expr,
                      value: Optional[ast.expr]) -> None:
        if (isinstance(target, ast.Name)
                and _AGGREGATE_NAME.search(target.id)
                and self._is_mutable_aggregate(value)):
            self.report(
                target,
                f"module-level aggregate {target.id!r} is process-global; "
                f"keep the tally on the instance that owns it (or pragma a "
                f"genuinely static table)",
            )

    def check(self) -> None:
        # Module top level only: deliberately no recursion into class or
        # function bodies, whose state dies with its owner.
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._check_target(target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                self._check_target(stmt.target, stmt.value)
