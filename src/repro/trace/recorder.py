"""The recording half of record/replay.

A :class:`TraceRecorder` reads a finished run; nothing below the
composition root knows it exists.  Run the
:class:`~repro.cluster.experiment.FleetExperiment` as usual, then
:meth:`~TraceRecorder.finalize` builds the body from the logs the run
already keeps — the experiment's arrival stream and fault schedule,
the gateway telemetry's verdicts and each node's ``stage_log`` — and
seals it with the run's fleet telemetry digest, the value every replay
must reproduce.  :func:`repro.trace.harness.record_run` does both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.trace.events import (
    SCHEMA,
    ArrivalEvent,
    FaultScheduleEvent,
    StageEvent,
    TraceHeader,
)
from repro.trace.format import TraceDocument, config_fingerprint
from repro.trace.players import behaviour_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from pathlib import Path

    from repro.cluster.experiment import FleetExperiment, FleetResult

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Reads one finished run into a sealed trace.

    Parameters
    ----------
    seed:
        The experiment's base seed (goes into the header).
    config:
        JSON-serializable run configuration — conventionally a
        :class:`repro.trace.harness.RunConfig` payload.  Its canonical
        fingerprint lands in the header; replays verify it.
    scenario:
        Corpus scenario name, or ``""`` for an ad-hoc recording.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        config: Optional[Dict] = None,
        scenario: str = "",
    ):
        config = dict(config) if config is not None else {}
        self.header = TraceHeader(
            schema=SCHEMA,
            scenario=str(scenario),
            seed=int(seed),
            config=config,
            fingerprint=config_fingerprint(config),
            meta={"numpy": np.__version__},
        )
        self._doc = TraceDocument(header=self.header)
        self._sealed: Optional[TraceDocument] = None

    # ------------------------------------------------------------------
    def finalize(
        self, experiment: "FleetExperiment", result: "FleetResult"
    ) -> TraceDocument:
        """Read a finished run into the trace and seal it.

        The body comes from what the run already logged: the arrival
        stream, the fault schedule, the gateway's verdicts (its
        telemetry) and every node's ``stage_log`` — standbys added
        mid-run included, since nodes are never removed.  The trailer
        carries ``result.telemetry_digest``, the value every replay
        must reproduce.  The writer sorts the body, so the order these
        are read in does not matter.  A second call raises
        ``RuntimeError``: it would seal the body twice over.
        """
        if self._sealed is not None:
            raise RuntimeError(
                "trace is already finalized — a second finalize would "
                "double its body"
            )
        doc = self._doc
        doc.arrivals.extend(
            ArrivalEvent(
                time=float(request.arrival),
                request_id=int(request.request_id),
                game=request.spec.name,
                script=request.script or "",
                player=request.player.player_id,
                behaviour=behaviour_of(request.player),
                category=request.spec.category.value,
            )
            for request in experiment.arrivals.requests
        )
        if experiment.fault_plan is not None:
            doc.faults.extend(
                FaultScheduleEvent(
                    time=float(spec.time), index=index, spec=spec.to_dict()
                )
                for index, spec in enumerate(experiment.fault_plan.scheduled())
            )
        cluster = experiment.cluster
        if cluster.gateway is not None:
            # Verdicts are instants in the request's timeline.
            doc.stages.extend(
                StageEvent(
                    time=ev.time, session=f"r{ev.request_id}",
                    stage=ev.outcome, start=ev.time, end=ev.time,
                    node=ev.node,
                )
                for ev in cluster.gateway.telemetry.gateway_events
            )
        for node in cluster.nodes:
            doc.stages.extend(
                StageEvent(
                    time=float(t), session=session, stage=stage,
                    start=float(start), end=float(end), node=node.node_id,
                )
                for t, session, stage, start, end in node.stage_log
            )
        self._sealed = doc.sealed(result.telemetry_digest)
        return self._sealed

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has sealed the document."""
        return self._sealed is not None

    @property
    def document(self) -> TraceDocument:
        """The sealed trace (RuntimeError before :meth:`finalize`)."""
        if self._sealed is None:
            raise RuntimeError(
                "trace is not finalized yet — run the experiment first"
            )
        return self._sealed

    def save(self, path: "Path | str"):
        """Write the sealed trace to disk (``*.cgtrace``)."""
        return self.document.save(path)

    def stats(self) -> Dict[str, int]:
        """Record counts (for benchmark artifacts)."""
        return {
            "arrivals": len(self._doc.arrivals),
            "stages": len(self._doc.stages),
            "faults": len(self._doc.faults),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"TraceRecorder(arrivals={s['arrivals']}, stages={s['stages']}, "
            f"faults={s['faults']}, finalized={self.finalized})"
        )
