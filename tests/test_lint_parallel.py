"""The linter's per-file phase on the fork seam.

:func:`repro.lint.lint_paths` hands every file the cache does not serve
to :func:`repro.util.partition.run_partitioned`, one stream per file, and
consumes the results in file order.  Its output must therefore not
depend on how many CPUs ran it: a lint forced onto one CPU and a lint
forked over three give the same findings, SARIF, ``effects.json``, shard
plan, ``files_reparsed`` and cache contents.  A rule that raises in a
worker fails the lint with a :class:`ShardError` naming the file, and
leaves no worker behind.
"""

from __future__ import annotations

import json
import os
import signal
import textwrap
from pathlib import Path

import pytest

import repro.util.partition as partition
from repro.lint import Rule, lint_paths, registry, render_sarif
from repro.lint.cache import LintCache, encode
from repro.util.partition import ShardError

from tests.test_fleet import _assert_no_children
from tests.test_lint_walk_guard import PLANTED

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ["src", "tests/data/sarif_fixture", "tests/data/shard_fixture"]


@pytest.fixture
def forks(monkeypatch):
    """Count this process's ``os.fork`` calls; fail a hung drain."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def hung(signum, frame):
        raise TimeoutError("lint_paths hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield calls
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def lint_on(cpus: int, monkeypatch, paths, cache: LintCache) -> dict:
    """Everything a lint of ``paths`` on ``cpus`` CPUs produces."""
    monkeypatch.setattr(partition, "_usable_cpus", lambda: cpus)
    result = lint_paths(paths, cache=cache, effects=True, shard_plan=True)
    return {
        "findings": [f.format() for f in result.findings],
        "sarif": render_sarif(result),
        "effects": result.effects,
        "shard_plan": result.shard_plan,
        "files_checked": result.files_checked,
        "files_reparsed": result.files_reparsed,
        "cache": json.dumps(
            [(key, encode(entry)) for key, entry in cache.entries.items()]
        ),
    }


@pytest.mark.parametrize("tree", TREES)
def test_parallel_lint_equals_single_cpu_lint(tree, monkeypatch, forks):
    monkeypatch.chdir(REPO_ROOT)
    single = lint_on(1, monkeypatch, [tree], LintCache(None, "single"))
    assert forks == []
    parallel = lint_on(3, monkeypatch, [tree], LintCache(None, "parallel"))
    files = single["files_checked"]
    assert single["files_reparsed"] == files >= 2
    assert len(forks) == min(files, 3) - 1
    assert parallel == single
    _assert_no_children()


def test_partly_warm_cache_lints_the_same_on_any_cpu_count(
        tmp_path, monkeypatch, forks):
    # Two changed files among cache hits: the misses fork, and the
    # results still land in file order.
    runs = {}
    for cpus in (1, 2):
        for rel, source in PLANTED.items():
            file = tmp_path / rel
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(textwrap.dedent(source))
        cache = LintCache(None, "warm")
        cold = lint_on(cpus, monkeypatch, [tmp_path], cache)
        for rel in ("core/typed.py", "sim/clock.py"):
            with open(tmp_path / rel, "a") as handle:
                handle.write("\nEXTRA = 1\n")
        runs[cpus] = (cold, lint_on(cpus, monkeypatch, [tmp_path], cache))
    assert len(forks) == 2  # the cold and the warm lint on two CPUs
    assert runs[2] == runs[1]
    assert runs[1][1]["files_reparsed"] == 2
    _assert_no_children()


class _Boom(Rule):
    """Raises on the name ``BOOM``, wherever it appears."""

    rule_id = "CG900"
    name = "boom"
    description = "raises while analysing a file"

    def visit_Name(self, node) -> None:
        if node.id == "BOOM":
            raise ZeroDivisionError("boom")


@pytest.mark.parametrize("boom, in_worker", [("b.py", True), ("a.py", False)])
def test_a_rule_raising_names_the_file_and_reaps_every_worker(
        boom, in_worker, tmp_path, monkeypatch, forks):
    monkeypatch.setitem(registry._REGISTRY, _Boom.rule_id, _Boom)
    monkeypatch.setattr(partition, "_usable_cpus", lambda: 2)
    # Largest first: a.py is rank 0 (the caller's share), b.py rank 1
    # (the worker's), c.py rank 2 (the caller's).
    for name, lines in (("a.py", 30), ("b.py", 20), ("c.py", 10)):
        body = "".join(f"X{i} = {i}\n" for i in range(lines))
        if name == boom:
            body += "BOOM\n"
        (tmp_path / name).write_text(body)
    with pytest.raises(ShardError) as info:
        lint_paths([tmp_path])
    assert len(forks) == 1
    message = str(info.value)
    assert f"linting {tmp_path / boom} failed" in message
    assert "ZeroDivisionError: boom" in message
    assert ("Traceback (most recent call last)" in message) is in_worker
    _assert_no_children()
