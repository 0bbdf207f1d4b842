"""Guard rail for the linter's per-file walk.

Every per-file rule reports through the same one-pass dispatch, and the
summariser walks each file on its own.  This guard pins what a cold
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
  rule pass must still see them.

The pins are the output of the analyzer before the rule visitors were
folded into one pass.
"""

from __future__ import annotations

import hashlib
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.lint import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SELF = "tests/test_lint_walk_guard.py"

#: tree -> (finding count, 16-hex sha256 of the sorted format lines).
TREE_PINS: Dict[str, tuple] = {
    "tests": (64, "ea9a4cea62b655f8"),
    "examples": (12, "1937bc785fb972cb"),
    "benchmarks": (22, "80bd76e5fbe5cc46"),
    "perfbench": (4, "e9a966a52d678a01"),
    "tests/data/sarif_fixture": (1, "1d55ef28a6c6d64f"),
    "tests/data/shard_fixture": (3, "b7959653fd6abc16"),
}

#: artifact -> 16-hex sha256 of its text for a cold lint of ``src``.
SRC_PINS = {
    "effects": "ef0dd2c0120bf342",
    "shard_plan": "943998eb524085fc",
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
    'cluster/pool_scheduler.py:13:20: CG011 random.random() (global state) inside '
    'determinism-critical cluster.pool_scheduler.Pool.submit()',
    'cluster/pool_scheduler.py:14:9: CG008 broad handler on a fault path must re-raise, log to '
    'telemetry, or transition a health state',
    'cluster/pool_scheduler.py:15:30: CG001 call to global-state random.choice; use '
    'util.rng.as_rng and Generator methods',
    'cluster/pool_scheduler.py:15:30: CG011 random.choice() (global state) inside '
    'determinism-critical cluster.pool_scheduler.Pool.submit()',
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
    "cluster/pool_scheduler.py:4:1: CG014 module-level aggregate '_total_hits' bypasses the "
    'metrics registry; register it in repro.obs (or pragma a genuinely static table)',
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
    'CG013, CG014, CG015, CG016, CG017, CG018, CG019, CG020, CG021, CG022',
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
