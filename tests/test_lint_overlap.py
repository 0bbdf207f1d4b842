"""Overlap matrix: which rules report each planted hazard.

``OVERLAP_TREE`` is a whole-program tree with one site per hazard for
every rule.  The matrix maps each reported position
(``path:line:col``) to the sorted ids of the rules that report there.
``PARENT_MATRIX`` is the catalogue's matrix before rules that report
the same hazard at the same position were folded together.  Three
pairs did:

* ``random.random()`` in ``sim/`` — CG001 and CG011 (CG011 now leaves
  the draw to CG001 and reports only laundered chains);
* a module-level write two shard entries reach — CG015 and CG019
  (retired into CG015, which prints both chains);
* a hot-path function with an undeclared effect — CG016 and CG018
  (retired into CG016, which carries the hot-path hint).

``MATRIX`` is the catalogue's matrix now: the parent's minus exactly
those duplicates (``REMOVED``).
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Tuple

from repro.lint import all_project_rules, all_rules, lint_paths

OVERLAP_TREE: Dict[str, str] = {
    # CG001 + CG011 at the draw; a laundered CG001 draw and an unseeded
    # constructor that only CG011 sees through the helper calls.
    "sim/draws.py": """\
        import random

        __all__ = ["jitter", "jittered", "entropy"]


        def jitter():
            return random.random()


        def jittered():
            return noise()


        def entropy():
            return fresh()
        """,
    "util/noise.py": """\
        import random

        import numpy as np

        __all__ = ["noise", "fresh", "pad"]


        def noise():
            return random.random()


        def fresh():
            return np.random.default_rng()


        def pad(xs=[]):
            return xs
        """,
    # CG005 direct read in sim; CG012 laundered through util.
    "sim/clock.py": """\
        import time

        __all__ = ["now", "tick"]


        def now():
            return time.time()


        def tick():
            return stamp()
        """,
    "util/wall.py": """\
        import time

        __all__ = ["stamp"]


        def stamp():
            return time.perf_counter()
        """,
    # CG017: sim imports upward.
    "sim/boot.py": """\
        __all__ = ["boot"]
        from repro.serve.gateway import Gateway


        def boot():
            return Gateway
        """,
    # CG003 in core.
    "core/plan.py": """\
        __all__ = ["plan"]


        def plan(x):
            return x
        """,
    # CG004: public names, no __all__.
    "analysis/tables.py": """\
        def table():
            return ()
        """,
    # CG006 + CG008 on a broad handler in cluster; CG007; CG009;
    # CG014 on an aggregate nothing writes.
    "cluster/pool_scheduler.py": """\
        from collections import deque

        __all__ = ["drain", "width", "backlog"]

        _total_hits = {}


        def drain(job):
            try:
                return job()
            except:
                pass


        def width(alloc):
            return alloc["gpu"]


        def backlog():
            return deque()
        """,
    # CG015: one entry reaches a module-level write.
    "cluster/fleet.py": """\
        __all__ = ["Fleet"]

        _seen = {}


        class Fleet:
            def run(self):
                return self.step()

            def step(self):
                _seen["runs"] = 1
        """,
    # CG015 + CG019: two entries reach one write.
    "cluster/a.py": """\
        __all__ = ["run"]


        def run():
            bump()
        """,
    "cluster/b.py": """\
        __all__ = ["run"]


        def run():
            bump()
        """,
    "cluster/shared.py": """\
        __all__ = ["bump"]

        _state = {}


        def bump():
            _state["n"] = 1
        """,
    # CG020 dynamic emit priority; CG021 raw literal seed.
    "cluster/emit.py": """\
        __all__ = ["submit", "dispatch"]


        def submit(engine, p):
            engine.at(1.0, submit, priority=p)


        def dispatch():
            return as_rng(7)
        """,
    # CG022: two shard groups feed one digest sink.
    "fleet/regions.py": """\
        from repro.util.effects import shard_entry

        __all__ = ["east", "west", "log_it"]


        @shard_entry("east")
        def east(telemetry):
            log_it(telemetry)


        @shard_entry("west")
        def west(telemetry):
            log_it(telemetry)


        def log_it(telemetry):
            telemetry.record(1)
        """,
    # CG010 unordered iteration into a sink; CG013 an event nothing
    # records.
    "faults/replay.py": """\
        from dataclasses import dataclass

        __all__ = ["ProbeEvent", "replay"]


        @dataclass
        class ProbeEvent:
            at: float


        def replay(log, xs):
            for x in set(xs):
                log.record(x)
        """,
    # CG016 alone (plain drift); CG016 + CG018 on hot paths: an
    # undeclared clock, an undeclared rng, and a stale non-rng declaration.
    "util/kernel.py": """\
        import time

        from repro.util.effects import effects

        __all__ = ["emit", "step", "draw", "calc"]


        @effects()
        def emit():
            print("x")


        @effects(hot_path=True)
        def step(x):
            return time.time() + x


        @effects(hot_path=True)
        def draw(rng):
            return rng.normal()


        @effects("clock", hot_path=True)
        def calc(x):
            return x
        """,
}

#: The matrix before the fold.
PARENT_MATRIX: Dict[str, List[str]] = {
    "analysis/tables.py:1:1": ["CG004"],
    "cluster/emit.py:5:5": ["CG020"],
    "cluster/emit.py:9:12": ["CG021"],
    "cluster/fleet.py:11:9": ["CG015"],
    "cluster/pool_scheduler.py:11:5": ["CG006", "CG008"],
    "cluster/pool_scheduler.py:16:18": ["CG007"],
    "cluster/pool_scheduler.py:20:12": ["CG009"],
    "cluster/pool_scheduler.py:5:1": ["CG014"],
    "cluster/shared.py:7:5": ["CG015", "CG019"],
    "core/plan.py:4:1": ["CG003"],
    "faults/replay.py:12:14": ["CG010"],
    "faults/replay.py:7:1": ["CG013"],
    "fleet/regions.py:17:5": ["CG022"],
    "sim/boot.py:2:1": ["CG017"],
    "sim/clock.py:11:1": ["CG012"],
    "sim/clock.py:7:12": ["CG005"],
    "sim/draws.py:11:1": ["CG011"],
    "sim/draws.py:15:1": ["CG011"],
    "sim/draws.py:7:12": ["CG001", "CG011"],
    "util/kernel.py:14:1": ["CG016", "CG018"],
    "util/kernel.py:19:1": ["CG016", "CG018"],
    "util/kernel.py:24:1": ["CG016", "CG018"],
    "util/kernel.py:9:1": ["CG016"],
    "util/noise.py:16:12": ["CG002"],
    "util/noise.py:9:12": ["CG001"],
}

#: The duplicate findings the fold removed: ``(site, rule)``.
REMOVED = frozenset({
    ("sim/draws.py:7:12", "CG011"),
    ("cluster/shared.py:7:5", "CG019"),
    ("util/kernel.py:14:1", "CG018"),
    ("util/kernel.py:19:1", "CG018"),
    ("util/kernel.py:24:1", "CG018"),
})


#: The matrix after the fold.
MATRIX: Dict[str, List[str]] = {
    "analysis/tables.py:1:1": ["CG004"],
    "cluster/emit.py:5:5": ["CG020"],
    "cluster/emit.py:9:12": ["CG021"],
    "cluster/fleet.py:11:9": ["CG015"],
    "cluster/pool_scheduler.py:11:5": ["CG006", "CG008"],
    "cluster/pool_scheduler.py:16:18": ["CG007"],
    "cluster/pool_scheduler.py:20:12": ["CG009"],
    "cluster/pool_scheduler.py:5:1": ["CG014"],
    "cluster/shared.py:7:5": ["CG015"],
    "core/plan.py:4:1": ["CG003"],
    "faults/replay.py:12:14": ["CG010"],
    "faults/replay.py:7:1": ["CG013"],
    "fleet/regions.py:17:5": ["CG022"],
    "sim/boot.py:2:1": ["CG017"],
    "sim/clock.py:11:1": ["CG012"],
    "sim/clock.py:7:12": ["CG005"],
    "sim/draws.py:11:1": ["CG011"],
    "sim/draws.py:15:1": ["CG011"],
    "sim/draws.py:7:12": ["CG001"],
    "util/kernel.py:14:1": ["CG016"],
    "util/kernel.py:19:1": ["CG016"],
    "util/kernel.py:24:1": ["CG016"],
    "util/kernel.py:9:1": ["CG016"],
    "util/noise.py:16:12": ["CG002"],
    "util/noise.py:9:12": ["CG001"],
}

#: The same-position pairs of the parent matrix.
FOLDED_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("CG001", "CG011"),
    ("CG015", "CG019"),
    ("CG016", "CG018"),
)


def _pairs(matrix: Dict[str, List[str]]) -> set:
    return {(site, rule) for site, rules in matrix.items() for rule in rules}


def overlap_matrix(root: Path) -> Dict[str, List[str]]:
    """``path:line:col`` -> sorted rule ids of a cold lint of the tree."""
    for rel, source in OVERLAP_TREE.items():
        file = root / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    sites: Dict[str, set] = {}
    for finding in lint_paths([root]).findings:
        rel = Path(finding.path).relative_to(root).as_posix()
        sites.setdefault(f"{rel}:{finding.line}:{finding.col}",
                         set()).add(finding.rule_id)
    return {site: sorted(rules) for site, rules in sorted(sites.items())}


def test_matrix_is_pinned(tmp_path):
    assert overlap_matrix(tmp_path) == MATRIX


def test_folded_pairs_shared_a_site_in_the_parent():
    for pair in FOLDED_PAIRS:
        assert any(set(pair) <= set(rules)
                   for rules in PARENT_MATRIX.values()), pair


def test_every_hazard_keeps_a_finding():
    assert set(MATRIX) == set(PARENT_MATRIX)
    assert all(MATRIX.values())


def test_no_site_carries_a_folded_pair():
    for site, rules in MATRIX.items():
        for pair in FOLDED_PAIRS:
            assert not set(pair) <= set(rules), (site, pair)


def test_diff_is_exactly_the_removed_duplicates():
    assert _pairs(PARENT_MATRIX) - _pairs(MATRIX) == REMOVED
    assert _pairs(MATRIX) <= _pairs(PARENT_MATRIX)


def test_every_live_rule_fires_somewhere():
    fired = {rule for rules in MATRIX.values() for rule in rules}
    assert fired == set(all_rules()) | set(all_project_rules())
