"""In-memory spans recorded from outside the program.

The benchmark never edits the code it measures.  A traced run replaces
chosen class and module attributes with thin wrappers (:func:`patched`),
each call becomes one span (name, start, end, parent), and every
attribute is put back in a ``finally`` — so an exception inside the
program cannot leave a wrapper behind for the next run.

Self time of a span is its duration minus the time its direct child
spans cover.  All spans come from one thread, so children nest strictly
inside their parent and the self times of every span under a root add
up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "resolve", "patched"]

#: Which results of a call count as "flagged" (admitted, shed, ...);
#: ``None`` means the span only counts calls.
Flag = Optional[Callable[[Any], bool]]


def resolve(target: str) -> Optional[Tuple[Any, str]]:
    """``"pkg.module:Class.attr"`` -> ``(owner, attr)``, or None.

    The attribute must be defined on the owner itself (not inherited),
    so restoring it is an exact undo.  A target that no longer exists
    resolves to None: a later change may rename or delete it, and the
    benchmark then reports zero calls instead of failing.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Wrap a raw class-dict value, keeping its descriptor kind."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if callable(raw):
        return wrap(raw)
    return None


@contextmanager
def patched(
    targets: Sequence[Tuple[Any, str, Callable[[Callable], Callable]]],
) -> Iterator[None]:
    """Replace each ``owner.attr`` by ``wrap(original)`` for the block.

    A target listed twice is wrapped once.  Originals are restored in
    reverse order in a ``finally``.
    """
    saved: List[Tuple[Any, str, Any]] = []
    seen = set()
    try:
        for owner, attr, wrap in targets:
            key = (id(owner), attr)
            if key in seen:
                continue
            raw = vars(owner)[attr]
            new = _rewrap(raw, wrap)
            if new is None:
                continue
            seen.add(key)
            setattr(owner, attr, new)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Tracer:
    """Span store for one traced run.

    Spans live in flat arrays (name id, start, end, parent index), 24
    bytes each, so a run with a few hundred thousand calls stays small.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flagged: Counter = Counter()
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(
                f"span nesting broken: closed {idx}, innermost was {popped}"
            )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around a block (the benchmark's own phases)."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, flag: Flag = None) -> Callable[[Callable], Callable]:
        """A wrapper maker that records a span named ``name`` per call."""

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._finish(idx)
                if flag is not None and flag(result):
                    self.flagged[name] += 1
                return result

            return wrapper

        return wrap

    # ------------------------------------------------------------------
    def summary(
        self,
    ) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], Dict[str, float]]:
        """Per-name ``{calls, self_s}`` split by root, and root durations.

        Returns ``(layers, roots)``: ``layers[root][name]`` holds the
        calls and summed self time of spans named ``name`` under roots
        named ``root`` (the root's own self time appears under its own
        name); ``roots[root]`` is the summed duration of those roots.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        n = len(self.start)
        covered = [0.0] * n
        root_of = [0] * n
        for i in range(n):
            p = self.parent[i]
            duration = self.end[i] - self.start[i]
            if p < 0:
                root_of[i] = i
            else:
                root_of[i] = root_of[p]
                covered[p] += duration
        layers: Dict[str, Dict[str, Dict[str, float]]] = {}
        roots: Dict[str, float] = {}
        for i in range(n):
            duration = self.end[i] - self.start[i]
            root = self.names[self.name_id[root_of[i]]]
            name = self.names[self.name_id[i]]
            if self.parent[i] < 0:
                roots[root] = roots.get(root, 0.0) + duration
            entry = layers.setdefault(root, {}).setdefault(
                name, {"calls": 0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += duration - covered[i]
        return layers, roots
