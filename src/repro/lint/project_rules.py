"""The whole-program determinism rules, CG010–CG013.

Each rule defends the repo's load-bearing guarantee — same seed + fault
plan ⇒ byte-identical fleet digest — against a hazard the per-file
rules (CG001–CG009) structurally cannot see, because it only manifests
across module boundaries:

========  ==============================================================
CG010     unordered-collection iteration feeding an ordering-sensitive
          sink (dispatch, digest/telemetry recording, queue admission)
CG011     a random draw reachable from determinism-critical code that
          does not go through a named, seeded stream (``util/rng.py``)
CG012     wall-clock values crossing into ``sim/``-clocked code
CG013     an event dataclass emitted by ``faults``/``serve``/``sim``
          that never reaches the fleet digest
========  ==============================================================

All four run on :class:`~repro.lint.project.ProjectContext` summaries
and the context's one conservative call graph
(:mod:`repro.lint.dataflow`); see ``docs/LINT.md`` for the full
rationale and the pragma escape hatches.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lint.dataflow import (
    Witness,
    reach_sinks,
    reach_taints,
    render_chain,
    witness_chain,
)
from repro.lint.effects import infer_effects
from repro.lint.project import GLOBAL_STATE_DRAW, ProjectRule
from repro.lint.registry import register_project

__all__ = [
    "ORDER_SINKS",
    "DETERMINISM_PACKAGES",
    "UnorderedIterationToSink",
    "RngStreamDiscipline",
    "WallClockTaint",
    "DigestCompleteness",
]

#: Function terminals whose inputs are ordering-sensitive: they decide
#: where a request lands, what enters a queue, or what bytes feed the
#: fleet digest / telemetry logs.
ORDER_SINKS = frozenset({
    "dispatch", "dispatch_one", "dispatch_order", "try_admit",
    "submit", "offer", "pump",
    "record", "record_second", "record_fault_event",
    "record_gateway_event", "digest",
})

#: Subpackages whose behaviour is replay-checked byte-for-byte.
DETERMINISM_PACKAGES = ("serve", "cluster", "sim", "faults", "trace",
                        "fleet")

#: Packages whose event dataclasses must reach the fleet digest.
EVENT_PACKAGES = ("serve", "faults", "sim", "trace", "fleet")


def _is_rng_module(module: str) -> bool:
    return module in ("util.rng", "rng")


@register_project
class UnorderedIterationToSink(ProjectRule):
    """CG010 — no unordered iteration into ordering-sensitive sinks.

    A ``for`` loop (or comprehension) over a ``set`` or an un-``sorted``
    dict view inside ``serve``/``cluster``/``sim``/``faults`` is flagged
    when the enclosing function can reach — possibly through other
    modules — a dispatch, queue-admission, or digest/telemetry-recording
    call.  There, iteration order *is* behaviour: it decides placement
    and the bytes of the fleet digest, so it must be canonical
    (``sorted``) or proven order-insensitive with a pragma.

    Fix: iterate ``sorted(...)`` (or an explicitly ordered list); if
    the consumer is provably order-insensitive, suppress with
    ``# lint: disable=CG010 -- <why>``.
    """

    rule_id = "CG010"
    name = "no-unordered-iteration-to-sink"
    description = ("set / un-sorted dict iteration flows into dispatch, "
                   "queue admission, or the fleet digest; sort it")

    def check(self) -> None:
        reaching = reach_sinks(self.project, self.project.graph, ORDER_SINKS)
        for node in self.project.functions_in(*DETERMINISM_PACKAGES):
            witness = reaching.get(node)
            if witness is None:
                continue
            fn = self.project.function(node)
            mod = self.project.module_of(node)
            where = (f"ordering-sensitive sink {witness.target!r}"
                     if witness.depth == 0 else
                     f"sink {witness.target!r} via "
                     f"{render_chain(witness_chain(reaching, node)[1:])}")
            for loop in fn.unordered_loops:
                self.report(
                    mod, loop.line, loop.col,
                    f"{loop.desc} in {fn.qualname}() reaches {where}; "
                    f"iterate in sorted() order or pragma a proof of "
                    f"order-insensitivity",
                )


class _TaintRule(ProjectRule):
    """Shared machinery: report critical functions reaching a taint."""

    #: packages whose functions must stay clear of the taint.
    critical_packages: tuple = ()

    def _reaching(self) -> Dict[str, Witness]:
        """Every function that reaches the taint, with its witness."""
        raise NotImplementedError

    def _own_sites(self, node: str) -> list:
        raise NotImplementedError

    def _report_own(self, node: str) -> None:
        """Hazards sitting directly inside a critical function."""
        fn = self.project.function(node)
        mod = self.project.module_of(node)
        for site in self._own_sites(node):
            self.report(
                mod, site.line, site.col,
                f"{site.desc} inside determinism-critical "
                f"{mod.module}.{fn.qualname}()",
            )

    def check(self) -> None:
        reaching = self._reaching()
        critical = set(self.project.functions_in(*self.critical_packages))
        for node in sorted(critical):
            if self._own_sites(node):
                self._report_own(node)
                continue
            witness = reaching.get(node)
            if witness is None:
                continue
            # Report at the deepest critical frame only: if the next hop
            # toward the taint is itself critical, that frame carries
            # the finding.
            hop = witness.next_hop
            if hop is None or hop in critical:
                continue
            fn = self.project.function(node)
            mod = self.project.module_of(node)
            call_line = fn.line
            hop_terminal = hop.split("::", 1)[1].split(".")[-1]
            for call in fn.calls:
                if call.name == hop_terminal:
                    call_line = call.line
                    break
            chain = render_chain(witness_chain(reaching, node))
            self.report(
                mod, call_line, 1,
                f"{fn.qualname}() reaches {witness.target} through "
                f"{chain}; {self.remedy}",
            )

    remedy = "remove the hazard or route it through a seeded stream"


@register_project
class RngStreamDiscipline(_TaintRule):
    """CG011 — RNG stream discipline, whole-program.

    Every random draw reachable from ``serve``/``cluster``/``sim``/
    ``faults`` must come from a named, seeded substream normalised by
    ``util/rng.py`` (``as_rng`` / ``spawn_rngs`` / ``derive_seed``).
    CG001 flags global-state draws file-by-file; this rule catches the
    laundered ones — an unseeded ``random.random()`` or ``default_rng()``
    two helper calls upstream of the serving path — and reports at the
    critical package's entry into the tainted chain.  A draw sitting
    directly in a critical function is reported here only when CG001
    does not already report it at the same position (an unseeded
    ``default_rng()``, a call through a ``from random import``
    alias); CG001's draws still seed the taint, so their callers'
    laundered chains are reported.

    Fix: thread a seeded ``Generator`` down the call chain shown in
    the witness; the chain tells you exactly which helper needs the
    ``rng`` parameter.
    """

    rule_id = "CG011"
    name = "rng-stream-discipline"
    description = ("random draw without a named seeded stream is reachable "
                   "from serve/cluster/sim/faults; thread a Seed")

    critical_packages = DETERMINISM_PACKAGES
    remedy = ("thread a Seed through util.rng.as_rng/spawn_rngs instead "
              "of hidden global state")

    def _own_sites(self, node: str) -> list:
        # A global-state call through the module namespace is CG001's
        # finding at the same position; never double-report it.
        return [site for site in self._draws(node)
                if not site.desc.endswith(GLOBAL_STATE_DRAW)]

    def _draws(self, node: str) -> list:
        if _is_rng_module(node.split("::", 1)[0]):
            return []
        return self.project.function(node).rng_draws

    def _taint_of(self, node: str) -> Optional[str]:
        sites = self._draws(node)
        return sites[0].desc if sites else None

    def _reaching(self) -> Dict[str, Witness]:
        return reach_taints(self.project, self.project.graph, self._taint_of)


@register_project
class WallClockTaint(_TaintRule):
    """CG012 — wall-clock values must not cross into ``sim/``.

    CG005 bans wall-clock reads *inside* ``sim/``; this generalises it
    across module boundaries: a function in ``sim/`` may not call —
    however indirectly — code that reads ``time.*`` or
    ``datetime.now()``.  Simulated timelines take time from the engine
    clock only; a laundered wall-clock read couples replay output to
    host load.

    Fix: pass sim-time (``engine.now``) into the helper chain the
    witness prints instead of letting it read the wall clock.
    """

    rule_id = "CG012"
    name = "no-wall-clock-taint-in-sim"
    description = ("wall-clock read reachable from sim/-clocked code; "
                   "use the engine clock")

    critical_packages = ("sim",)
    remedy = "take time from the engine clock instead"

    def _own_sites(self, node: str) -> list:
        # Direct reads inside sim/ are CG005's finding; here they only
        # mark the function tainted so callers get the cross-module
        # report.  Never double-report them.
        return []

    def _reaching(self) -> Dict[str, Witness]:
        # Seeded from each function's first clock read: exactly the
        # effect inference's ``clock`` pass, so reuse its witnesses.
        return infer_effects(self.project).reaching("clock")


@register_project
class DigestCompleteness(ProjectRule):
    """CG013 — every emitted event dataclass reaches the fleet digest.

    An event dataclass (``@dataclass class FooEvent``) defined under
    ``faults``/``serve``/``sim`` exists to make a decision replayable;
    one that is never constructed inside a digest-bearing module (a
    module defining a ``digest()`` function) is a decision the replay
    check cannot see.  Either record it — construct it in the telemetry
    plane, like :class:`~repro.sim.telemetry.FaultEvent` and
    :class:`~repro.sim.telemetry.GatewayEvent` — or carry an explicit
    ``# lint: disable=CG013`` pragma stating why it is out of scope.

    Fix: either record the event class into the digest where it is
    constructed, or delete the dead event class.
    """

    rule_id = "CG013"
    name = "digest-completeness"
    description = ("event dataclass in faults/serve/sim never recorded "
                   "into the fleet digest")

    def check(self) -> None:
        digest_constructions: set = set()
        for mod in self.project.modules.values():
            if mod.defines_digest:
                digest_constructions |= mod.event_constructions
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            if mod.package not in EVENT_PACKAGES:
                continue
            for event in mod.event_classes:
                if event.name in digest_constructions:
                    continue
                self.report(
                    mod, event.line, 1,
                    f"event dataclass {event.name!r} is never constructed "
                    f"in a digest-bearing module; record it into the fleet "
                    f"digest or pragma why it is exempt",
                )
