"""Chaos harness: the same fleet run with and without a fault plan.

:func:`run_chaos` executes two :class:`FleetExperiment` runs from
identical seeds — one fault-free, one under the plan — and packages the
QoS/throughput deltas.  This is what ``cocg chaos`` and the CI chaos
smoke job drive; :func:`default_plan` is the canonical demo schedule
(one node crash mid-run with recovery, low-rate telemetry dropout, a
predictor-backend outage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.experiment import FleetExperiment, FleetResult
from repro.cluster.fleet import ClusterScheduler
from repro.cluster.provisioner import Provisioner
from repro.faults.plan import FaultPlan
from repro.games.spec import GameSpec
from repro.util.rng import Seed

__all__ = ["ChaosReport", "default_plan", "reclaim_storm_plan", "run_chaos"]


def default_plan(
    horizon: int, *, seed: int = 0, crash_node: str = "n1"
) -> FaultPlan:
    """The demo schedule: crash + recovery, 1 % dropout, model outage."""
    crash_at = max(1.0, horizon / 3.0)
    return (
        FaultPlan(seed=seed)
        .node_crash(crash_at, crash_node, recover_after=horizon / 6.0)
        .telemetry_dropout(0.0, duration=float(horizon), rate=0.01)
        .predictor_failure(
            max(1.0, horizon / 4.0), recover_after=horizon / 4.0
        )
    )


def reclaim_storm_plan(
    horizon: int,
    *,
    seed: int = 0,
    nodes: Sequence[str] = ("n1", "n2"),
    notice: float = 45.0,
) -> FaultPlan:
    """A reclamation storm: staggered spot reclaims under capacity stress.

    Spot reclaims hit the given nodes one after another through the
    middle of the run while a provision-fail window delays the first
    replacements and the warm pool is exhausted once — the scenario the
    session-accountability invariant is asserted under (zero unaccounted
    sessions; see ``docs/FAULTS.md``).  Needs a
    :class:`~repro.cluster.provisioner.Provisioner` to recover capacity;
    without one the reclaimed nodes just stay down.
    """
    plan = FaultPlan(seed=seed)
    first = max(1.0, horizon / 4.0)
    step = max(1.0, horizon / (2.0 * max(1, len(nodes))))
    plan.provision_fail(first, duration=max(30.0, horizon / 8.0))
    for i, node in enumerate(nodes):
        plan.spot_reclaim(first + i * step, node, notice=notice)
    plan.warm_pool_exhaust(
        max(1.0, first - 10.0), duration=max(30.0, horizon / 10.0)
    )
    return plan


@dataclass
class ChaosReport:
    """Side-by-side outcome of the fault-free and faulted runs."""

    baseline: FleetResult
    faulted: FleetResult
    plan: FaultPlan
    #: The finished faulted run, for post-run readers (the metrics and
    #: span export, a trace recorder).
    experiment: Optional[FleetExperiment] = None

    @property
    def violation_delta(self) -> float:
        """Extra QoS-violation fraction caused by the faults."""
        return (
            self.faulted.violation_fraction - self.baseline.violation_fraction
        )

    @property
    def completed_delta(self) -> int:
        """Completed runs lost (negative = lost) to the faults."""
        return sum(self.faulted.completed_runs.values()) - sum(
            self.baseline.completed_runs.values()
        )

    def summary_lines(self) -> List[str]:
        """Human-readable report (one string per output line)."""
        base, chaos = self.baseline, self.faulted
        lines = [
            f"fault plan: {len(self.plan)} faults (seed {self.plan.seed})",
            "",
            f"{'':24s}{'fault-free':>12s}{'faulted':>12s}",
            (
                f"{'completed runs':24s}"
                f"{sum(base.completed_runs.values()):>12d}"
                f"{sum(chaos.completed_runs.values()):>12d}"
            ),
            (
                f"{'throughput (Eq-2)':24s}"
                f"{base.throughput:>12.3f}{chaos.throughput:>12.3f}"
            ),
            (
                f"{'QoS violation frac':24s}"
                f"{base.violation_fraction:>12.4f}"
                f"{chaos.violation_fraction:>12.4f}"
            ),
            (
                f"{'fraction of best FPS':24s}"
                f"{base.fraction_of_best:>12.3f}{chaos.fraction_of_best:>12.3f}"
            ),
            (
                f"{'degraded seconds':24s}"
                f"{base.degraded_seconds:>12d}{chaos.degraded_seconds:>12d}"
            ),
            (
                f"{'dead letters':24s}"
                f"{len(base.dead_letters):>12d}{len(chaos.dead_letters):>12d}"
            ),
            (
                f"{'requeues/evictions':24s}"
                f"{base.requeues:>9d}/{base.evictions:<2d}"
                f"{chaos.requeues:>9d}/{chaos.evictions:<2d}"
            ),
            "",
            f"QoS-violation delta: {self.violation_delta:+.4f}",
            f"completed-runs delta: {self.completed_delta:+d}",
        ]
        if chaos.provisioner_stats:
            stats = chaos.provisioner_stats
            lines.append("")
            lines.append(
                "provisioner: "
                f"{stats.get('provisioned', 0)} provisioned, "
                f"{stats.get('warm_promoted', 0)} promoted, "
                f"{stats.get('retried', 0)} retried, "
                f"{stats.get('failed', 0)} failed, "
                f"{stats.get('timed_out', 0)} timed out, "
                f"{stats.get('reclaimed', 0)} reclaimed"
            )
        if chaos.session_accounting:
            acct = chaos.session_accounting
            lines.append(
                "session accounting: "
                f"{acct.get('dispatched', 0)} dispatched = "
                f"{acct.get('completed', 0)} completed + "
                f"{acct.get('running', 0)} running + "
                f"{acct.get('evicted', 0)} evicted "
                f"(unaccounted: {chaos.unaccounted_sessions})"
            )
        if chaos.fault_events:
            lines.append("")
            lines.append("faults applied:")
            lines.extend(f"  {event}" for event in chaos.fault_events)
        return lines


def run_chaos(
    make_cluster: Callable[[], ClusterScheduler],
    specs: Sequence[GameSpec],
    *,
    plan: FaultPlan,
    horizon: int = 600,
    rate_per_minute: float = 2.0,
    seed: Seed = 0,
    detect_interval: int = 5,
    make_provisioner: Optional[
        Callable[[ClusterScheduler], Provisioner]
    ] = None,
) -> ChaosReport:
    """Run fault-free and faulted experiments from identical seeds.

    ``make_cluster`` must build a *fresh* cluster per call — nodes and
    strategies are stateful, so the two runs cannot share one.
    ``make_provisioner``, when given, builds a fresh capacity plane over
    each run's cluster (both runs get one, so the provisioning faults
    are the only difference between them).  The report keeps the
    finished faulted experiment, so its metrics and spans can be read
    after the run.  To record a faulted run as a replayable trace, use
    :func:`repro.trace.record_run` with ``plan=``.
    """

    def build(fault_plan) -> FleetExperiment:
        cluster = make_cluster()
        provisioner = (
            make_provisioner(cluster) if make_provisioner is not None else None
        )
        return FleetExperiment(
            cluster,
            specs,
            horizon=horizon,
            rate_per_minute=rate_per_minute,
            seed=seed,
            detect_interval=detect_interval,
            fault_plan=fault_plan,
            provisioner=provisioner,
        )

    baseline = build(None).run()
    experiment = build(plan)
    return ChaosReport(
        baseline=baseline, faulted=experiment.run(), plan=plan,
        experiment=experiment,
    )
