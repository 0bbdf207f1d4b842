"""Taint/reachability over the conservative project call graph.

The graph is name-resolved: a call site's terminal identifier links to
*every* project function defining that name (methods included), except
that ``self.m()`` and ``super().m()`` resolve through the enclosing
class (:func:`build_call_graph`).  That
over-approximates dynamic dispatch — exactly the right bias for a
determinism linter, where a missed edge is a silently broken replay and
a spurious edge is at worst a pragma.  Very generic names (``get``,
``append``, …) are stoplisted at summary time so the over-approximation
stays useful.

Two queries serve the CG010–CG012 rules:

* :func:`reach_sinks` — which functions can *reach* one of a set of
  named sinks (forward slicing for "does this loop's order land in the
  digest/dispatch path?");
* :func:`reach_taints` — which functions can reach a *tainted*
  function (an RNG draw or wall-clock read), with a witness chain so
  the finding can print the actual call path.

Both run one BFS over the reversed graph — linear in edges, cheap even
on warm incremental runs where every module summary comes from cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.project import ProjectContext

__all__ = ["Witness", "CallGraph", "build_call_graph",
           "reach_sinks", "reach_taints", "witness_chain", "render_chain",
           "reach_from", "entry_chain"]


@dataclass(frozen=True)
class Witness:
    """Why a function is marked: what it reaches and through whom.

    ``target`` describes the sink/taint; ``next_hop`` is the callee one
    step closer to it (``None`` when the function itself is the direct
    site); ``depth`` is the number of call hops to the target.
    """

    target: str
    next_hop: Optional[str]
    depth: int


class CallGraph:
    """Forward edges ``caller -> callees`` over function node ids."""

    def __init__(self, edges: Dict[str, Set[str]]):
        self.edges = edges

    def callees(self, node: str) -> Set[str]:
        """Functions a node calls (resolved conservatively)."""
        return self.edges.get(node, set())

    def reversed_edges(self) -> Dict[str, Set[str]]:
        """``callee -> callers`` (built on demand for BFS)."""
        rev: Dict[str, Set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                rev.setdefault(callee, set()).add(caller)
        return rev


def build_call_graph(project: ProjectContext) -> CallGraph:
    """Resolve every summarised call site against the function index.

    ``self.method(...)`` calls resolve *precisely* when the enclosing
    class defines ``method`` in the same module: the edge goes to that
    one definition instead of to every project function sharing the
    terminal name.  ``super().method(...)`` calls resolve to ``method``
    on each project class the enclosing class names as a base, walking
    further up from a base that does not define it; a base that names
    no project class (``Exception``, ``object``) adds no edge.  Other
    calls, and ``self`` calls to methods the class does not define
    locally (inherited, protocol, or duck-typed), keep the conservative
    every-definition fan-out — a missed edge is a silently broken
    replay; a spurious one is at worst a pragma.
    """
    classes: Dict[str, List[Tuple[str, str]]] = {}
    for name in sorted(project.modules):
        for path in project.modules[name].class_bases:
            classes.setdefault(path.split(".")[-1], []).append((name, path))

    def inherited(module: str, path: str, method: str,
                  seen: Set[Tuple[str, str]]) -> Set[str]:
        """``method`` as each project base of class ``path`` has it."""
        found: Set[str] = set()
        for base in project.modules[module].class_bases[path]:
            for owner in classes.get(base, ()):
                if owner in seen:
                    continue
                seen.add(owner)
                base_module, base_path = owner
                qual = f"{base_path}.{method}"
                if qual in project.modules[base_module].functions:
                    found.add(f"{base_module}::{qual}")
                else:
                    found |= inherited(base_module, base_path, method, seen)
        return found

    edges: Dict[str, Set[str]] = {}
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual, fn in mod.functions.items():
            node = f"{name}::{qual}"
            class_prefix = qual.rsplit(".", 1)[0] if "." in qual else None
            targets: Set[str] = set()
            for call in fn.calls:
                if call.on_self and class_prefix is not None:
                    own_method = f"{class_prefix}.{call.name}"
                    if own_method in mod.functions:
                        if own_method != qual:
                            targets.add(f"{name}::{own_method}")
                        continue
                if call.on_super and class_prefix in mod.class_bases:
                    targets |= inherited(name, class_prefix, call.name,
                                         {(name, class_prefix)})
                    continue
                for target in project.function_index.get(call.name, ()):
                    if target != node:
                        targets.add(target)
            edges[node] = targets
    return CallGraph(edges)


def _propagate(
    graph: CallGraph,
    direct: Dict[str, str],
) -> Dict[str, Witness]:
    """Reverse-BFS marker spread from directly-marked functions.

    ``direct`` maps node id -> target description for functions that
    *are* the site (they call the sink / contain the draw).  Returns a
    witness for every function from which some marked function is
    reachable, shortest chain first.
    """
    marked: Dict[str, Witness] = {
        node: Witness(target=desc, next_hop=None, depth=0)
        for node, desc in direct.items()
    }
    rev = graph.reversed_edges()
    frontier = deque(marked)
    while frontier:
        current = frontier.popleft()
        witness = marked[current]
        for caller in rev.get(current, ()):
            if caller not in marked:
                marked[caller] = Witness(
                    target=witness.target,
                    next_hop=current,
                    depth=witness.depth + 1,
                )
                frontier.append(caller)
    return marked


def reach_sinks(
    project: ProjectContext,
    graph: CallGraph,
    sink_names: Iterable[str],
) -> Dict[str, Witness]:
    """Functions from which an ordering-sensitive sink is reachable.

    A function is *direct* when it calls a sink by terminal name or is
    itself named like one (a loop inside ``submit`` already decides
    admission order).
    """
    sinks = set(sink_names)
    direct: Dict[str, str] = {}
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual, fn in mod.functions.items():
            node = f"{name}::{qual}"
            terminal = qual.split(".")[-1]
            if terminal in sinks:
                direct[node] = terminal
                continue
            called = sorted({c.name for c in fn.calls if c.name in sinks})
            if called:
                direct[node] = called[0]
    return _propagate(graph, direct)


def reach_taints(
    project: ProjectContext,
    graph: CallGraph,
    tainted: Callable[[str], Optional[str]],
) -> Dict[str, Witness]:
    """Functions from which a tainted function is reachable.

    ``tainted(node_id)`` returns a description of the hazard when the
    function itself contains one (e.g. its first RNG draw), else
    ``None``.
    """
    direct: Dict[str, str] = {}
    for name in sorted(project.modules):
        for qual in project.modules[name].functions:
            node = f"{name}::{qual}"
            desc = tainted(node)
            if desc is not None:
                direct[node] = desc
    return _propagate(graph, direct)


def reach_from(
    graph: CallGraph,
    roots: Iterable[str],
) -> Dict[str, Optional[str]]:
    """Forward BFS: every function reachable *from* the given roots.

    Returns ``node -> predecessor`` parent pointers (``None`` for a
    root), shortest chain first — :func:`entry_chain` renders the
    entry-point-to-function call path CG015 prints.  Deterministic:
    roots and callees are expanded in sorted order.
    """
    parents: Dict[str, Optional[str]] = {}
    frontier = deque()
    for root in sorted(set(roots)):
        parents[root] = None
        frontier.append(root)
    while frontier:
        current = frontier.popleft()
        for callee in sorted(graph.callees(current)):
            if callee not in parents:
                parents[callee] = current
                frontier.append(callee)
    return parents


def entry_chain(
    parents: Dict[str, Optional[str]],
    node: str,
    *,
    limit: int = 6,
) -> List[str]:
    """The call chain from a :func:`reach_from` root down to ``node``."""
    chain: List[str] = [node]
    current = parents.get(node)
    while current is not None and len(chain) < limit:
        chain.append(current)
        current = parents.get(current)
    chain.reverse()
    return chain


def witness_chain(
    witnesses: Dict[str, Witness],
    start: str,
    *,
    limit: int = 6,
) -> List[str]:
    """The call chain from ``start`` to its witness target, as node ids."""
    chain: List[str] = [start]
    current: Optional[str] = witnesses[start].next_hop
    while current is not None and len(chain) < limit:
        chain.append(current)
        current = witnesses[current].next_hop
    return chain


def render_chain(chain: List[str]) -> str:
    """``serve.gateway::pump -> util.jitter::wobble`` display form."""
    return " -> ".join(node.replace("::", ":") for node in chain)
