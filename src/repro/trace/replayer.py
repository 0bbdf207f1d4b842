"""The replay half of record/replay.

A :class:`TraceReplayer` drives a :class:`~repro.cluster.experiment.FleetExperiment`
from a parsed trace instead of a live load generator: arrivals are
rebuilt from the trace's arrival records (players reconstructed from the
behaviour registry — pure functions of ``(player_id, category,
behaviour)``), the fault plan from its fault records, and the fleet
from the header's :class:`~repro.trace.harness.RunConfig` through the
same composition root a live run uses.  After the run, the replayed
fleet telemetry digest is checked against the digest the trailer
recorded; a mismatch raises :class:`ReplayDivergence` with the first
divergent timeline record, so "what changed" is one error message away.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.cluster.experiment import FleetResult
from repro.core.pipeline import GameProfile
from repro.faults.plan import FaultPlan, FaultSpec
from repro.games.spec import GameSpec
from repro.trace.format import TraceDocument, TraceError, TraceFormatError
from repro.trace.harness import (
    RunConfig,
    build_experiment,
    build_profiles,
    game_specs,
)
from repro.trace.players import make_player
from repro.trace.recorder import TraceRecorder
from repro.workloads.requests import GameRequest

__all__ = [
    "ReplayDivergence",
    "ReplayedArrivals",
    "ReplayReport",
    "TraceReplayer",
    "replay_document",
    "replay_path",
]


class ReplayDivergence(TraceError):
    """The replayed run did not reproduce the trace's fleet digest."""


class ReplayedArrivals:
    """An arrival source rebuilt record-by-record from a trace.

    Drop-in for :class:`~repro.workloads.requests.PoissonArrivals` (the
    ``arrivals=`` parameter of :class:`FleetExperiment`): exposes the
    ``requests`` list, with every request id, arrival time, script and
    player reconstructed exactly as the live run saw them.
    """

    def __init__(
        self, document: TraceDocument, specs: Mapping[str, GameSpec]
    ):
        self.requests: List[GameRequest] = []
        for arrival in document.arrivals:
            spec = specs.get(arrival.game)
            if spec is None:
                raise TraceFormatError(
                    f"arrival r{arrival.request_id} names game "
                    f"{arrival.game!r} which is not in the provided spec "
                    f"set: {', '.join(sorted(specs))}"
                )
            if spec.category.value != arrival.category:
                raise TraceFormatError(
                    f"arrival r{arrival.request_id}: trace says "
                    f"{arrival.game!r} is category {arrival.category!r} "
                    f"but the catalog says {spec.category.value!r} — the "
                    f"environment drifted since recording"
                )
            # Live load generators build players with seed=0; the
            # behaviour registry reproduces them from two strings.
            player = make_player(
                arrival.player, spec.category, arrival.behaviour, seed=0
            )
            self.requests.append(GameRequest(
                spec=spec,
                script=arrival.script or None,
                player=player,
                arrival=arrival.time,
                request_id=arrival.request_id,
            ))

    def due(self, t0: float, t1: float) -> List[GameRequest]:
        """Requests arriving in ``[t0, t1)`` (PoissonArrivals parity)."""
        return [r for r in self.requests if t0 <= r.arrival < t1]


@dataclass
class ReplayReport:
    """Outcome of one replay, digest check included."""

    scenario: str
    seed: int
    horizon: int
    expected_digest: str
    replayed_digest: str
    matched: bool
    records: int
    result: FleetResult
    divergence: str = ""

    def summary_lines(self) -> List[str]:
        """Human-readable report (one string per output line)."""
        lines = [
            f"scenario:          {self.scenario or '(ad hoc)'}",
            f"seed / horizon:    {self.seed} / {self.horizon}s",
            f"body records:      {self.records}",
            f"expected digest:   {self.expected_digest}",
            f"replayed digest:   {self.replayed_digest}",
            f"digest match:      {'yes' if self.matched else 'NO'}",
        ]
        if self.divergence:
            lines.append(f"first divergence:  {self.divergence}")
        return lines


class TraceReplayer:
    """Drives the engine from a trace and checks the digest contract.

    Parameters
    ----------
    document:
        The parsed trace (``TraceDocument.load(path)``).
    config:
        The header's run configuration,
        ``RunConfig.from_dict(document.header.config)``.  Every replay
        builds a fresh fleet from it through
        :func:`~repro.trace.harness.build_experiment`, and its
        ``horizon``, ``detect_interval`` and ``fault_seed`` drive the
        run.
    profiles:
        The trained game profiles (``build_profiles(config)``).
    """

    def __init__(
        self,
        document: TraceDocument,
        config: RunConfig,
        profiles: Dict[str, GameProfile],
    ):
        self.document = document
        self.config = config
        self.profiles = profiles
        self.specs = {
            spec.name: spec for spec in game_specs(config.games)
        }

    # ------------------------------------------------------------------
    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault schedule rebuilt from the trace's fault records."""
        if not self.document.faults:
            return None
        return FaultPlan(
            seed=self.config.fault_seed,
            faults=[
                FaultSpec.from_dict(f.spec)
                for f in sorted(self.document.faults, key=lambda f: f.index)
            ],
        )

    def run(self, *, strict: bool = True) -> ReplayReport:
        """Replay the trace; check the fleet digest against the trailer.

        ``strict=True`` (the default) raises :class:`ReplayDivergence`
        on a mismatch; ``strict=False`` returns the report with
        ``matched=False`` and the first divergent record named.
        """
        header = self.document.header
        # Re-record the replay so a divergence can name the first
        # timeline record that differs, not just the digests.
        echo = TraceRecorder(
            seed=header.seed, config=header.config, scenario=header.scenario
        )
        result = build_experiment(
            self.config,
            self.profiles,
            plan=self.fault_plan(),
            arrivals=ReplayedArrivals(self.document, self.specs),
            trace=echo,
            seed=header.seed,
        ).run()
        expected = self.document.trailer.fleet_digest
        replayed = result.telemetry_digest
        matched = expected == replayed
        divergence = ""
        if not matched:
            divergence = _first_divergence(self.document, echo.document)
        report = ReplayReport(
            scenario=header.scenario,
            seed=header.seed,
            horizon=self.config.horizon,
            expected_digest=expected,
            replayed_digest=replayed,
            matched=matched,
            records=self.document.trailer.records,
            result=result,
            divergence=divergence,
        )
        if strict and not matched:
            raise ReplayDivergence(
                f"replayed fleet digest {replayed[:16]}… does not match "
                f"the recorded digest {expected[:16]}…"
                + (f"; first divergent record: {divergence}" if divergence
                   else "")
            )
        return report


def replay_document(
    document: TraceDocument,
    *,
    profiles: Optional[Dict[str, GameProfile]] = None,
    strict: bool = True,
) -> ReplayReport:
    """Replay a parsed trace against a fleet rebuilt from its header."""
    config = RunConfig.from_dict(document.header.config)
    if profiles is None:
        profiles = build_profiles(config)
    return TraceReplayer(document, config, profiles).run(strict=strict)


def replay_path(
    path: Union[str, Path],
    *,
    profiles: Optional[Dict[str, GameProfile]] = None,
    strict: bool = True,
) -> ReplayReport:
    """Load one ``.cgtrace`` file and replay it (the CLI/CI entry)."""
    return replay_document(
        TraceDocument.load(path), profiles=profiles, strict=strict
    )


def _first_divergence(
    recorded: TraceDocument, replayed: TraceDocument
) -> str:
    """Name the first body line where the two timelines part ways."""
    a, b = recorded.body_lines(), replayed.body_lines()
    for i, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            return f"record {i}: recorded {line_a} vs replayed {line_b}"
    if len(a) != len(b):
        longer, tag = (a, "recorded") if len(a) > len(b) else (b, "replayed")
        return (
            f"record {min(len(a), len(b))}: only the {tag} run has "
            f"{longer[min(len(a), len(b))]}"
        )
    return ""
