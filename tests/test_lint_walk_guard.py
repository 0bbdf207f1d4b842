"""Guard rail for the linter's per-file walk.

Every per-file rule and every summary hook runs from one loop over the
nodes of the file's one depth-first walk.  This guard pins what a cold
lint produces, so a change in how files are walked cannot move a single
finding or artifact byte:

* the sha256 of the sorted ``Finding.format()`` lines, with paths
  relative to the repository, of cold lints of ``tests/``,
  ``examples/``, ``benchmarks/``, ``perfbench/`` and the two committed
  fixture trees (this file's own findings are left out so that editing
  it does not move the pin);
* the ``effects`` and ``shard_plan`` texts of a cold lint of ``src``;
* the exact findings of a planted tree where every per-file rule fires
  at depth: inside a lambda default inside a method, inside a return
  annotation, inside an ``@effects(...)`` decorator argument, inside a
  comprehension's lambda in an ``except`` handler, inside an f-string,
  and through import aliases bound further down the file.  The
  summariser skips return annotations and ``@effects`` decorators; the
  rule pass must still see them;
* the summary of a module whose facts depend on scope: decorators,
  nested and same-named ``def``s, classes inside methods, per-``def``
  local kinds, and the first line of a repeated import;
* that the walk skips only what no hook reads: a test-local rule that
  hooks ``Name`` and ``Constant`` sees every one, and
  ``ImportTable.nodes`` is the hooked-class subsequence of
  ``ast.NodeVisitor`` order.

The tree and planted-tree pins are the output of the analyzer before
the rule visitors were folded into one pass, and they held when the
summariser joined that pass.  The ``src`` pins also move with the tree:
``effects.json`` lists every function in ``src``, and they were re-pinned
when ``super().m()`` calls began resolving to the enclosing class's
bases.  When CG018/CG019 were folded into CG016/CG015 and CG011 stopped
re-reporting CG001's sites, the planted tree lost its two CG011
duplicates and the fixture pin moved with CG015's reworded fix.
"""

from __future__ import annotations

import ast
import hashlib
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.lint import all_rules, lint_paths, summarize_module
from repro.lint import registry
from repro.lint.pragmas import Suppressions
from repro.lint.project import SUMMARY_HOOKS, ImportTable, node_hooks

REPO_ROOT = Path(__file__).resolve().parent.parent
SELF = "tests/test_lint_walk_guard.py"

#: tree -> (finding count, 16-hex sha256 of the sorted format lines).
TREE_PINS: Dict[str, tuple] = {
    "tests": (66, "88377454e1b7bbef"),
    "examples": (12, "1937bc785fb972cb"),
    "benchmarks": (22, "80bd76e5fbe5cc46"),
    "perfbench": (4, "e9a966a52d678a01"),
    "tests/data/sarif_fixture": (1, "1d55ef28a6c6d64f"),
    "tests/data/shard_fixture": (3, "59de4206d0c7f091"),
}

#: artifact -> 16-hex sha256 of its text for a cold lint of ``src``.
SRC_PINS = {
    "effects": "a04c39a693ee5a8e",
    "shard_plan": "078ae231edfe9bac",
}

PLANTED = {
    "cluster/pool_scheduler.py": """\
        from collections import deque as dq
        from repro.util.effects import effects

        _total_hits = {}


        class Pool:
            def submit(self, job, on_done=lambda q=[]: q, bound=lambda: dq()):
                if job:
                    self._backlog = []
                    pending = dq()
                try:
                    return rnd.random()
                except Exception:
                    return [(lambda: rnd.choice(job)) for _ in job]

            def drain(self) -> Dict["gpu"]:
                try:
                    pass
                except:
                    pass


        @effects("rng", hot_path=bool(rnd.randint(0, 1)))
        def tally(x):
            for dim in [("cpu", "gpu") for _ in x]:
                if dim == "ram":
                    return f"{x['cpu']}"
            return x.index("gpu_mem")


        import random as rnd
        """,
    "sim/clock.py": """\
        __all__ = ["stamp", "missing"]

        from time import time as wall


        def stamp(cb=lambda: clk.perf_counter()):
            return [clk.monotonic() for _ in range(1)]


        class Ticker:
            def tick(self):
                def inner():
                    try:
                        return 1
                    except:
                        return 0
                return inner


        import time as clk
        """,
    "core/typed.py": """\
        __all__ = ["plan", "Planner"]

        import numpy as np


        def plan(x, *args, **kw):
            def inner(y=set(), z={"gpu": 1}["gpu"]):
                return np.random.rand()
            return inner


        class Planner:
            def run(self, n: int, order=lambda: sorted({}.keys(), key=np.random.rand)):
                return {"gpu": n}["gpu"]
        """,
    "util/rng.py": """\
        __all__ = ["draw"]

        import numpy as np


        def draw() -> float:
            return float(np.random.rand())
        """,
    "serve/queues.py": """\
        # lint: disable=CG014
        from collections import deque

        __all__ = ["make", "make_typo"]

        _COUNTS = {}


        def make():
            return deque()  # lint: disable=CG009


        def make_typo():
            return deque()  # lint: disable=CG099
        """,
}

PLANTED_FINDINGS: List[str] = [
    "cluster/pool_scheduler.py:10:13: CG009 queue-named list '_backlog' has no bound; use "
    'deque(maxlen=...) or pragma the enforced capacity',
    'cluster/pool_scheduler.py:11:23: CG009 deque without maxlen= on the serving path; declare '
    'the bound (or pragma the external one)',
    'cluster/pool_scheduler.py:13:20: CG001 call to global-state random.random; use '
    'util.rng.as_rng and Generator methods',
    'cluster/pool_scheduler.py:14:9: CG008 broad handler on a fault path must re-raise, log to '
    'telemetry, or transition a health state',
    'cluster/pool_scheduler.py:15:30: CG001 call to global-state random.choice; use '
    'util.rng.as_rng and Generator methods',
    "cluster/pool_scheduler.py:17:29: CG007 subscript by dimension literal 'gpu'; use the "
    'CPU/GPU/GPU_MEM/RAM constants',
    'cluster/pool_scheduler.py:1:1: CG004 module defines public names but declares no __all__',
    'cluster/pool_scheduler.py:20:9: CG006 bare except: catches SystemExit/KeyboardInterrupt; '
    'name the exception type',
    'cluster/pool_scheduler.py:20:9: CG008 broad handler on a fault path must re-raise, log to '
    'telemetry, or transition a health state',
    'cluster/pool_scheduler.py:24:31: CG001 call to global-state random.randint; use '
    'util.rng.as_rng and Generator methods',
    "cluster/pool_scheduler.py:25:1: CG016 tally() declares effect 'rng' the analyzer cannot "
    'find; drop the stale name from @effects(...)',
    'cluster/pool_scheduler.py:26:17: CG007 ad-hoc dimension sequence literal; use '
    'platform_.resources.DIMENSIONS',
    "cluster/pool_scheduler.py:27:19: CG007 comparison against dimension literal 'ram'; use "
    'the canonical constants',
    "cluster/pool_scheduler.py:28:25: CG007 subscript by dimension literal 'cpu'; use the "
    'CPU/GPU/GPU_MEM/RAM constants',
    "cluster/pool_scheduler.py:29:20: CG007 .index('gpu_mem') on a dimension literal; use the "
    'index constants',
    "cluster/pool_scheduler.py:4:1: CG014 module-level aggregate '_total_hits' is "
    'process-global; keep the tally on the instance that owns it (or pragma a genuinely '
    'static table)',
    'cluster/pool_scheduler.py:8:44: CG002 mutable default in lambda',
    'cluster/pool_scheduler.py:8:65: CG009 deque without maxlen= on the serving path; declare '
    'the bound (or pragma the external one)',
    "core/typed.py:13:5: CG003 public function 'run' has no return annotation",
    "core/typed.py:13:5: CG003 public function 'run' has unannotated parameter(s): order",
    "core/typed.py:14:27: CG007 subscript by dimension literal 'gpu'; use the "
    'CPU/GPU/GPU_MEM/RAM constants',
    "core/typed.py:6:1: CG003 public function 'plan' has no return annotation",
    "core/typed.py:6:1: CG003 public function 'plan' has unannotated parameter(s): x, args, kw",
    "core/typed.py:7:17: CG002 mutable default set(...) in function 'inner'",
    "core/typed.py:7:37: CG007 subscript by dimension literal 'gpu'; use the "
    'CPU/GPU/GPU_MEM/RAM constants',
    'core/typed.py:8:16: CG001 call to global-state numpy.random.rand; use util.rng.as_rng and '
    'Generator methods',
    'serve/queues.py:14:12: CG009 deque without maxlen= on the serving path; declare the bound '
    '(or pragma the external one)',
    "serve/queues.py:14:1: CG000 pragma names unknown rule id 'CG099'; valid ids: CG000, "
    'CG001, CG002, CG003, CG004, CG005, CG006, CG007, CG008, CG009, CG010, CG011, CG012, '
    'CG013, CG014, CG015, CG016, CG017, CG020, CG021, CG022',
    "sim/clock.py:10:1: CG004 public definition 'Ticker' missing from __all__",
    'sim/clock.py:15:13: CG006 bare except: catches SystemExit/KeyboardInterrupt; name the '
    'exception type',
    "sim/clock.py:1:1: CG004 __all__ exports 'missing' which is not defined at module level",
    'sim/clock.py:3:1: CG005 import of wall-clock function(s) time from the time module',
    'sim/clock.py:6:22: CG005 wall-clock call clk.perf_counter() in sim/',
    'sim/clock.py:7:13: CG005 wall-clock call clk.monotonic() in sim/',
]


def _relative(lines, prefix: str) -> List[str]:
    return sorted(line[len(prefix):] if line.startswith(prefix) else line
                  for line in lines)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def tree_lines(tree: str) -> List[str]:
    """Sorted format lines of a cold lint of ``tree`` (repo-relative)."""
    result = lint_paths([tree])
    return sorted(f.format() for f in result.findings if f.path != SELF)


def planted_lines(root: Path) -> List[str]:
    for rel, source in PLANTED.items():
        file = root / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    result = lint_paths([root])
    return _relative((f.format() for f in result.findings), f"{root}/")


@pytest.mark.parametrize("tree", sorted(TREE_PINS))
def test_tree_findings_are_pinned(tree, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    lines = tree_lines(tree)
    assert (len(lines), _sha(lines)) == TREE_PINS[tree]


def test_src_artifacts_are_pinned(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    result = lint_paths(["src"], effects=True, shard_plan=True)
    assert result.findings == []
    assert {
        "effects": _sha([result.effects]),
        "shard_plan": _sha([result.shard_plan]),
    } == SRC_PINS


def test_planted_tree_findings_are_pinned(tmp_path):
    assert planted_lines(tmp_path) == PLANTED_FINDINGS


def test_planted_tree_fires_every_per_file_rule(tmp_path):
    fired = {line.split(": ", 1)[1].split(" ", 1)[0]
             for line in planted_lines(tmp_path)}
    assert set(all_rules()) <= fired


SCOPED = """\
    import random
    from repro.util.effects import effects


    def outer():
        kinds = set()

        def inner():
            kinds = [1]
            for k in kinds:
                random.random()

        for k in kinds:
            pass
        return inner


    def other():
        def inner():
            return time_now()
        return inner


    class Pool:
        @register(random.choice([1]))
        @effects("rng", hot_path=bool(random.random()))
        def submit(self) -> random.random():
            class Job:
                def run(self):
                    return random.randint(0, 1)
            return Job
    """


def _summary(source: str):
    tree = ast.parse(textwrap.dedent(source))
    return summarize_module(
        tree, path="core/scoped.py", rel_parts=("core", "scoped.py"),
        suppressions=Suppressions(), imports=ImportTable(tree),
        rule_hooks={},
    )


def test_summary_hooks_read_each_node_in_its_scope():
    functions = _summary(SCOPED).functions
    assert list(functions) == [
        "<module>", "outer", "inner", "other", "Pool.submit", "Pool.Job.run",
    ]

    def draws(qualname):
        return [t.desc for t in functions[qualname].rng_draws]

    # A decorator runs in the enclosing scope, except the @effects marker,
    # which is read as a fact; the return annotation is skipped.
    assert draws("<module>") == ["random.choice() (global state)"]
    assert draws("Pool.submit") == []
    assert functions["Pool.submit"].declared_effects == ["rng"]
    assert draws("Pool.Job.run") == ["random.randint() (global state)"]
    # Same-named nested defs share a qualname; the later one's facts win
    # and the earlier one's never leak into it.
    assert draws("inner") == []
    assert [c.name for c in functions["inner"].calls] == ["time_now"]
    # Each def infers its own local kinds: inner's list does not hide
    # outer's set.
    assert [u.desc for u in functions["outer"].unordered_loops] == [
        "iteration over set 'kinds'",
    ]


def test_import_line_is_the_first_in_ast_walk_order():
    tree = ast.parse(textwrap.dedent("""\
        def f():
            import a
        import a
        import b
        if b:
            import b
        import b
        """))
    assert ImportTable(tree).module_lines == {"a": 3, "b": 4}


#: Every node class in one module: decorators, annotations, defaults,
#: comprehensions, f-strings, patterns, and a docstring holding pragma
#: text (``NO_PRAGMA_TEXT`` drops it, so the walk records no literals).
WALKED = """\
    \"\"\"Module doc; # lint: disable=CG001 is text here.\"\"\"
    import os as o
    from x import (y as z)
    G = -1


    @deco(1, name="n")
    @effects("rng")
    def f(a: int = 2, *args, k=None, **kw) -> "Ret":
        global G
        if a > 1 and not k:
            pass
        for i in range(3):
            break
        while True:
            continue
        x = [i + 1 for i in (1, 2) if i]
        y = {k: v for k, v in kw.items()}
        del x, y
        s = f"{a!r:>{w}} {b'#'} {'#'}" "tail"
        lam = lambda q=3: -q
        match a:
            case [1, *rest]:
                pass
            case {"k": v, **others}:
                pass
            case Point(x=0) | None:
                pass
        return a is not None


    class C(Base, metaclass=M):
        attr: int = 5

        async def run(self):
            async for item in self.items:
                await item
    """
NO_PRAGMA_TEXT = WALKED.replace("# lint: disable=CG001 is text", "text")

#: The classes ``lint_paths`` records with every rule selected.
ENGINE_HOOKED = frozenset(
    [node_cls for rule in all_rules().values()
     for node_cls, _ in node_hooks(rule)]
    + [node_cls for node_cls, _ in SUMMARY_HOOKS])


class _Preorder(ast.NodeVisitor):
    """Every node, in the order ``ast.NodeVisitor`` visits them."""

    def __init__(self) -> None:
        self.nodes: List[ast.AST] = []

    def generic_visit(self, node: ast.AST) -> None:
        self.nodes.append(node)
        super().generic_visit(node)


class _CountLeaves(registry.Rule):
    """Reports every ``Name`` and every ``Constant``."""

    rule_id = "CG900"
    name = "count-leaves"
    description = "every Name and Constant"

    def visit_Name(self, node: ast.Name) -> None:
        self.report(node, f"Name {node.id}")

    def visit_Constant(self, node: ast.Constant) -> None:
        self.report(node, f"Constant {node.value!r}")


@pytest.mark.parametrize("source", [WALKED, NO_PRAGMA_TEXT],
                         ids=["pragma-text", "no-pragma-text"])
def test_leaf_hooks_fire_once_per_node(source, tmp_path, monkeypatch):
    # The walk skips leaf classes no hook reads; the skip set comes
    # from the hook table, so a rule hooking a leaf sees every one.
    monkeypatch.setitem(registry._REGISTRY, _CountLeaves.rule_id,
                        _CountLeaves)
    file = tmp_path / "walked.py"
    file.write_text(textwrap.dedent(source))
    result = lint_paths([file], select=[_CountLeaves.rule_id],
                        whole_program=False)
    expected = sorted(
        (node.lineno, node.col_offset + 1,
         f"Name {node.id}" if isinstance(node, ast.Name)
         else f"Constant {node.value!r}")
        for node in ast.walk(ast.parse(file.read_text()))
        if isinstance(node, (ast.Name, ast.Constant)))
    assert len(expected) > 40
    assert sorted((f.line, f.col, f.message)
                  for f in result.findings) == expected


@pytest.mark.parametrize("hooked", [
    ENGINE_HOOKED,
    frozenset({ast.Name, ast.Load, ast.Constant, ast.Add, ast.Pass}),
    frozenset(),
    None,
], ids=["engine", "leaves", "nothing", "everything"])
@pytest.mark.parametrize("literals", [False, True])
def test_walk_records_the_hooked_subsequence(hooked, literals):
    tree = ast.parse(textwrap.dedent(WALKED))
    order = _Preorder()
    order.visit(tree)
    table = ImportTable(tree, hooked, literals=literals)
    assert table.nodes == [node for node in order.nodes
                           if hooked is None or type(node) in hooked]
    assert len(table.scopes) == len(table.nodes)
    strings = [node for node in order.nodes
               if isinstance(node, ast.JoinedStr)
               or (isinstance(node, ast.Constant)
                   and isinstance(node.value, (str, bytes)))]
    assert sorted(map(id, table.literals)) == sorted(
        map(id, strings if literals else []))
