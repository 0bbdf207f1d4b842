"""Fixed reference work that gauges how fast the host runs during a run.

The shared host this benchmark runs on switches between a fast and a
slow state that lasts from seconds to minutes, and CPU time moves with
wall time, so neither clock alone tells the program's cost from the
host's state.  ``run.py`` times this fixed work before every replica
and scales the replicas' host times by ``REFERENCE_S`` over the
reference's own fastest time in the run: the figures read as seconds
on a host on which the reference takes ``REFERENCE_S``.

The work is a small copy of what a workload does, one kind per kind of
workload.  ``simulator``: parsing and walking a little Python source, a
heap-ordered event loop over small objects and dicts, and arithmetic on
short numpy vectors (``platform_`` resource vectors).  ``lint``: parsing
a module of 2400 lines and indexing its nodes by type, the linter's
large, pointer-chasing working set, which a busy neighbour on the host
slows more than the small simulator mix.  It reads no file.  Changing
it, or ``REFERENCE_S``, moves every figure the benchmark reports.
"""

from __future__ import annotations

import ast
import heapq
import random
import time
from typing import Dict, List

import numpy as np

#: Per kind, the reference's fastest time on the 2-vCPU Xeon VM the
#: bounds were set on.
REFERENCE_S = {"simulator": 0.07, "lint": 0.08}

_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n"
    f"    if x > y:\n"
    f"        return [v * {i} for v in range(x) if v % 3]\n"
    f"    return {{'k{i}': x + y, 'n': (x, y)}}\n"
    for i in range(300)
)

_MODULE = "\n".join(
    f"class C{i}:\n"
    f"    def m{i}(self, x, y={i}):\n"
    f"        if x > y and self.k{i % 7}:\n"
    f"            return [v * {i} for v in range(x) if v % 3]\n"
    f"        z = {{'k{i}': x + y, 'n': (x, y), 's': self.q{i % 11}(x)}}\n"
    f"        for a, b in z.items():\n"
    f"            self.acc = getattr(self, 'acc', 0) + len(str(a)) * b\n"
    f"        return z\n"
    for i in range(300)
)


class _Event:
    __slots__ = ("due", "kind", "load")

    def __init__(self, due: float, kind: int, load: List[float]) -> None:
        self.due, self.kind, self.load = due, kind, load

    def __lt__(self, other: "_Event") -> bool:
        return self.due < other.due


def _parse() -> int:
    return sum(len(type(node).__name__) for node in ast.walk(ast.parse(_SOURCE)))


def _events() -> float:
    rng = random.Random(7)
    heap = [
        _Event(rng.random(), i % 5, [rng.random() for _ in range(4)])
        for i in range(200)
    ]
    heapq.heapify(heap)
    totals: Dict[int, List[float]] = {}
    for _ in range(20000):
        event = heapq.heappop(heap)
        acc = totals.setdefault(event.kind, [0.0] * 4)
        for i, x in enumerate(event.load):
            acc[i] += x
        heapq.heappush(
            heap, _Event(event.due + rng.random(), (event.kind + 1) % 5, event.load)
        )
    return sum(map(sum, totals.values()))


def _vectors() -> float:
    base = np.linspace(0.1, 0.6, 6)
    total = np.zeros(6)
    for _ in range(5000):
        total += np.minimum(np.asarray(base) * 1.01, 0.5)
    return float(total.sum())


def _index() -> int:
    index: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(ast.parse(_MODULE)):
        index.setdefault(type(node).__name__, []).append(node)
    names = {node.id for node in index.get("Name", ())}
    return len(names) + sum(map(len, index.values()))


def reference_seconds(kind: str) -> float:
    """Host seconds the fixed reference work of ``kind`` takes now."""
    start = time.perf_counter()
    if kind == "lint":
        _index()
    else:
        _parse()
        _events()
        _vectors()
    return time.perf_counter() - start
