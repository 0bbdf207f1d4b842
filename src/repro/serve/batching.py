"""Micro-batched Algorithm-1 dispatch.

Naive per-request admission evaluates Algorithm 1 from scratch for every
``request × node`` pair: each evaluation re-sums the node's current
co-consumption and re-rolls every running session's predictor
``horizon`` iterations.  Within one scheduling tick none of that depends
on the candidate, so a tick's pending requests form a natural
*micro-batch*: one :class:`~repro.core.distributor.BatchEvaluation` per
node answers every candidate from a single shared rollout pass, and
decides each distinct game's terms once (a queue of a hundred ``contra``
requests is one decision per node snapshot).

Outcome equivalence is by construction, not by luck:

* candidates are walked in exactly the order naive dispatch uses —
  requests in queue order, nodes via
  :meth:`~repro.cluster.fleet.ClusterScheduler.candidate_order` (the
  round-robin cursor advances identically);
* the pre-screen evaluates the same ``(entry_min, steady)`` terms
  (``CoCGScheduler.admission_terms``) against the same running views as
  the node's own ``try_admit`` would, so it rejects exactly when the
  node would reject — the node is simply never asked (neither path
  builds a :class:`~repro.games.session.GameSession` for a refusal:
  strategies build one only after they admit);
* a node that passes the pre-screen still goes through the authoritative
  ``node.try_admit`` (placement can fail under the cap even when
  Algorithm 1 passes), and an admission drops that node's batch
  snapshot, since its running set just changed.

Nodes whose strategy does not expose a CoCG scheduler (baselines) fall
back to plain ``try_admit`` — the batcher degrades to naive dispatch for
them instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.distributor import BatchEvaluation

if TYPE_CHECKING:  # pragma: no cover - cluster imports nothing from here
    from repro.cluster.fleet import ClusterScheduler, FleetNode
    from repro.serve.gateway import QueuedRequest

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Per-tick shared Algorithm-1 evaluation across a fleet's nodes.

    One instance lives inside an
    :class:`~repro.serve.gateway.AdmissionGateway`; the gateway calls
    :meth:`begin_round` once per pump and :meth:`dispatch_one` per due
    request.  Plain counts expose how much work batching saved (read
    through :meth:`stats`); the three the gateway's logs cannot recount
    keep the sim time of their last update.
    """

    def __init__(self) -> None:
        #: Batch rounds begun, and batched dispatches that stuck.
        self.rounds = 0
        self.admissions = 0
        #: Pre-screen Algorithm-1 evaluations (shared-rollout path).
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
        self._batches: Dict[str, BatchEvaluation] = {}

    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Start a fresh batch round: all node snapshots are dropped."""
        self.rounds += 1
        self._batches = {}

    @staticmethod
    def _probe(node: "FleetNode"):
        """The node's CoCG scheduler, if its strategy exposes one."""
        sched = getattr(node.strategy, "scheduler", None)
        if sched is None:
            return None
        if not (
            hasattr(sched, "distributor")
            and hasattr(sched, "task_views")
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
        """Place one request using the round's shared batch snapshots.

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
                batch = self._batches.get(node.node_id)
                if batch is None:
                    batch = sched.distributor.begin_batch(sched.task_views())
                    self._batches[node.node_id] = batch
                entry_min, steady = sched.admission_terms(profile)
                self.evaluations += 1
                self.evaluated_at = time
                if not batch.evaluate(entry_min, steady).admitted:
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
                # The node's running set changed; its snapshot is stale.
                self._batches.pop(node.node_id, None)
                self.admissions += 1
                cluster.note_dispatch("dispatched", time=time)
                return node
        cluster.note_dispatch("deferred", time=time)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """The counts as a flat dict of ints."""
        return {
            "rounds": self.rounds,
            "evaluations": self.evaluations,
            "prescreen_rejects": self.prescreen_rejects,
            "admissions": self.admissions,
            "fallback_probes": self.fallback_probes,
        }
