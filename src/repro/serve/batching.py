"""Algorithm-1 pre-screened dispatch.

Naive per-request admission asks every ``request × node`` pair the
node's ``try_admit``.  Algorithm 1 judges a newcomer only against the
node's running set, so each CoCG node keeps one shared
:class:`~repro.core.distributor.BatchEvaluation` over that set
(``CoCGScheduler.admission_batch``): it sums the node's current
co-consumption and rolls its sessions' predictors forward at most once,
decides each distinct game's terms once (a queue of a hundred ``contra``
requests is one decision per node snapshot), and is dropped only when
the node admits, releases or runs its control cycle.  The batcher reads
that snapshot to pre-screen each candidate node before asking it.

Outcome equivalence is by construction, not by luck:

* candidates are walked in exactly the order naive dispatch uses —
  requests in queue order, nodes via
  :meth:`~repro.cluster.fleet.ClusterScheduler.candidate_order` (the
  round-robin cursor advances identically);
* the pre-screen evaluates the same ``(entry_min, steady)`` terms
  (``CoCGScheduler.admission_terms``) against the same snapshot the
  node's own ``try_admit`` reads, so it rejects exactly when the node
  would reject — the node is simply never asked (neither path builds a
  :class:`~repro.games.session.GameSession` for a refusal: strategies
  build one only after they admit);
* a node that passes the pre-screen still goes through the authoritative
  ``node.try_admit`` (placement can fail under the cap even when
  Algorithm 1 passes), whose verdict is the pre-screen's own memoized
  decision.

Nodes whose strategy does not expose a CoCG scheduler (baselines) fall
back to plain ``try_admit`` — the batcher degrades to naive dispatch for
them instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - cluster imports nothing from here
    from repro.cluster.fleet import ClusterScheduler, FleetNode
    from repro.serve.gateway import AdmissionGateway, QueuedRequest

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Algorithm-1 pre-screen in front of a fleet's nodes.

    One instance lives inside an
    :class:`~repro.serve.gateway.AdmissionGateway`, which calls
    :meth:`dispatch_one` per due request.  Plain counts expose how much
    work the pre-screen saved (read through :meth:`stats`); each keeps
    the sim time of its last update.  Rounds and admissions are the
    gateway's own records (its ``pumps`` log and its admitted verdicts).
    """

    def __init__(self, gateway: "AdmissionGateway") -> None:
        self._gateway = gateway
        #: Pre-screen Algorithm-1 evaluations (shared-snapshot path).
        self.evaluations = 0
        self.evaluated_at: Optional[float] = None
        #: Candidates the pre-screen rejected — the node's
        #: ``try_admit`` was never entered.
        self.prescreen_rejects = 0
        self.rejected_at: Optional[float] = None
        #: Candidate probes that fell back to plain ``try_admit``
        #: (non-CoCG strategy or unknown game profile).
        self.fallback_probes = 0
        self.probed_at: Optional[float] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _probe(node: "FleetNode"):
        """The node's CoCG scheduler, if its strategy exposes one."""
        sched = getattr(node.strategy, "scheduler", None)
        if sched is None:
            return None
        if not (
            hasattr(sched, "admission_batch")
            and hasattr(sched, "admission_terms")
        ):
            return None
        return sched

    def dispatch_one(
        self,
        cluster: "ClusterScheduler",
        entry: "QueuedRequest",
        *,
        time: float,
        seed_for,
    ) -> Optional["FleetNode"]:
        """Place one request, pre-screening each node on its snapshot.

        Mirrors :meth:`ClusterScheduler.dispatch` (same candidate order,
        same ``dispatched``/``deferred`` accounting) with the Algorithm-1
        pre-screen in front of each node's ``try_admit``.
        """
        request = entry.request
        for node in cluster.candidate_order(request):
            sched = self._probe(node)
            profile = (
                node.profiles.get(request.spec.name)
                if sched is not None
                else None
            )
            if sched is not None and profile is not None:
                entry_min, steady = sched.admission_terms(profile)
                self.evaluations += 1
                self.evaluated_at = time
                if not sched.admission_batch().evaluate(entry_min, steady).admitted:
                    self.prescreen_rejects += 1
                    self.rejected_at = time
                    continue
            else:
                self.fallback_probes += 1
                self.probed_at = time
            if node.try_admit(
                request,
                time=time,
                seed=seed_for(request, entry.incarnation),
                incarnation=entry.incarnation,
            ):
                cluster.note_dispatch("dispatched", time=time)
                return node
        cluster.note_dispatch("deferred", time=time)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """The counts as a flat dict of ints."""
        gateway = self._gateway
        return {
            "rounds": len(gateway.pumps),
            "evaluations": self.evaluations,
            "prescreen_rejects": self.prescreen_rejects,
            "admissions": sum(
                1 for e in gateway.telemetry.gateway_events
                if e.outcome == "admitted"
            ),
            "fallback_probes": self.fallback_probes,
        }
