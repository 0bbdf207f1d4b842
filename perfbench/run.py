#!/usr/bin/env python3
"""Outside-in benchmark of the CoCG simulator.

Run from the repository root::

    python3 perfbench/run.py --workload launch-day --seed 11 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: a few inputs
of the workload (the first uses ``--seed``, the rest seeds derived from
it) run round-robin until ``--seconds`` have passed.  Each replica's
host times are scaled to the reference host speed by the fixed work of
``reference.py``, timed just before and just after it: on a shared host
the speed changes from minute to minute.  A host time is then, per
input, the median of its scaled repetitions, averaged over the inputs.
``--trace 1`` runs the ``--seed`` input in
untraced/traced pairs for ``--seconds`` and reports per-layer call
counts and self times (medians over the traced runs), the simulated
outcomes, and the tracing overhead.

Every replica is checked: sessions are all accounted for, a traced run
reproduces its untraced twin's digest, and at the canonical seed 11 the
outputs equal the committed references (``corpus/launch-day.cgtrace``,
the pinned ``fleet-n4`` digest, ``src/repro/shardplan.json``).  A failed
check counts as a failed operation; it never stops the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before
it are a readable report: machine fingerprint, one line per replica,
and in traced runs the per-layer attribution table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from spans import Tracer, patched, resolve  # noqa: E402
from workloads import (  # noqa: E402
    SRC,
    WORKLOADS,
    Pins,
    PumpProbe,
    Replica,
    Size,
    Workload,
    replica_seed,
)

#: Fresh interpreters timed per run to measure import cost.
IMPORT_SAMPLES = 8

#: Import samples whose times are averaged: the fastest ones.
FASTEST_IMPORTS = 2

#: Repetitions of the reference work per gauge of the host; the fastest counts.
GAUGE_REPS = 2


@dataclass(frozen=True)
class Layer:
    """One traced layer boundary: a span name and the callables it wraps.

    ``ratio`` names a per-call outcome ratio and the predicate over the
    wrapped call's result that counts toward it.
    """

    name: str
    targets: Tuple[str, ...] = ()
    ratio: Optional[Tuple[str, Callable[[Any], bool]]] = None
    rule_checks: str = ""  # "file" / "project": every registered rule's check()

    def resolve(self) -> List[Tuple[Any, str]]:
        found = [r for r in map(resolve, self.targets) if r is not None]
        if self.rule_checks:
            from repro.lint import registry
            from repro.lint.project import ProjectRule

            if self.rule_checks == "file":
                classes = [registry.Rule, *registry.all_rules().values()]
            else:
                classes = [ProjectRule, *registry.all_project_rules().values()]
            found += [(cls, "check") for cls in classes if "check" in vars(cls)]
        return found


LAYERS: Tuple[Layer, ...] = (
    Layer("platform_.rv_from_array",
          ("repro.platform_.resources:ResourceVector.from_array",)),
    Layer("platform_.qos_record",
          ("repro.platform_.qos:QoSTracker.record_second",)),
    Layer("games.advance", ("repro.games.session:GameSession.advance",)),
    Layer("core.profile_build", ("repro.core.pipeline:GameProfile.build",)),
    Layer("core.control", ("repro.core.scheduler:CoCGScheduler.control",)),
    Layer("core.try_admit", ("repro.core.scheduler:CoCGScheduler.try_admit",),
          ratio=("accept_ratio", lambda r: bool(getattr(r, "admitted", r)))),
    Layer("core.can_admit", ("repro.core.distributor:Distributor.can_admit",)),
    Layer("core.evaluate", ("repro.core.distributor:BatchEvaluation.evaluate",)),
    Layer("core.predicted_peaks",
          ("repro.core.scheduler:SessionControl.predicted_peaks",)),
    Layer("sim.run_until", ("repro.sim.engine:SimulationEngine.run_until",)),
    Layer("sim.telemetry_record", ("repro.sim.telemetry:TelemetryRecorder.record",)),
    Layer("sim.telemetry_digest", ("repro.sim.telemetry:TelemetryRecorder.digest",)),
    Layer("cluster.experiment", ("repro.cluster.experiment:FleetExperiment.run",)),
    Layer("cluster.tick", ("repro.cluster.fleet:FleetNode.tick",)),
    Layer("cluster.control", ("repro.cluster.fleet:ClusterScheduler.control",)),
    Layer("cluster.pump", ("repro.cluster.fleet:ClusterScheduler.pump",)),
    Layer("cluster.dispatch", ("repro.cluster.fleet:ClusterScheduler.dispatch",),
          ratio=("deferred_ratio", lambda r: r is None)),
    Layer("cluster.node_try_admit", ("repro.cluster.fleet:FleetNode.try_admit",)),
    Layer("serve.offer", ("repro.serve.gateway:AdmissionGateway.offer",),
          ratio=("shed_ratio", lambda r: not getattr(r, "accepted", True))),
    Layer("serve.pump", ("repro.serve.gateway:AdmissionGateway.pump",)),
    Layer("serve.batch_dispatch",
          ("repro.serve.batching:MicroBatcher.dispatch_one",)),
    Layer("trace.record", tuple(
        f"repro.trace.recorder:TraceRecorder.{m}"
        for m in ("record_arrival", "record_stage", "record_verdict",
                  "record_plan")
    )),
    Layer("trace.dumps", ("repro.trace.format:TraceDocument.dumps",)),
    Layer("fleet.build_shards",
          ("repro.fleet.controller:FleetOfFleets.build_shards",)),
    Layer("fleet.split", ("repro.fleet.router:SessionRouter.split",)),
    Layer("fleet.run_partitioned", ("repro.sim:run_partitioned",)),
    Layer("fleet.merge", ("repro.fleet.controller:FleetOfFleets.merge",)),
    Layer("lint.parse", ("repro.lint.engine:_analyze_file",)),
    Layer("lint.file_rules", rule_checks="file"),
    Layer("lint.summarize", ("repro.lint.engine:summarize_module",)),
    Layer("lint.project_context",
          ("repro.lint.project:ProjectContext.__init__",)),
    Layer("lint.project_rules", rule_checks="project"),
    Layer("lint.effects", ("repro.lint.effects:infer_effects",
                           "repro.lint.effects:render_effects")),
    Layer("lint.shard_plan", ("repro.lint.shards:shard_analysis",
                              "repro.lint.shards:render_shard_plan")),
)

#: Simulated outcomes reported by traced runs (from the untraced twin).
OUTCOMES = (
    ("outcome.arrivals", "arrivals", "count"),
    ("outcome.wait_samples", "served", "count"),
    ("outcome.eq2_throughput", "eq2_throughput", "s"),
    ("outcome.fraction_of_best", "fraction_of_best", "ratio"),
    ("outcome.qos_violation_frac", "qos_violation_frac", "ratio"),
    ("outcome.refused_frac", "refused_frac", "ratio"),
    ("outcome.wait_p50_sim_s", "wait_p50_sim_s", "s"),
    ("outcome.wait_p80_sim_s", "wait_p80_sim_s", "s"),
    ("serve.prescreen_ratio", "prescreen_ratio", "ratio"),
    ("lint.files", "files", "count"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        if layer.ratio is not None:
            units[f"{layer.name}.{layer.ratio[0]}"] = "ratio"
    units.update({name: unit for name, _key, unit in OUTCOMES})
    units.update({
        "outcome.session_s_per_s": "s/s",
        "lint.kloc_per_s": "kloc/s",
        "unattributed.self_s": "s",
        "unattributed.setup_self_s": "s",
        "traced.run_s": "s",
        "untraced.run_s": "s",
        "trace_overhead_frac": "ratio",
    })
    return units


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# One replica
# ---------------------------------------------------------------------------

def run_replica(
    workload: Workload, seed: int, tracer: Optional[Tracer] = None
) -> Replica:
    """Set up and run one replica; an exception becomes a failure."""
    replica = Replica(seed)
    probe = PumpProbe()
    probe_hooks = [
        (owner, attr, probe.wrap)
        for owner, attr in filter(None, [resolve(PumpProbe.TARGET)])
    ]
    trace_hooks = []
    if tracer is not None:
        for layer in LAYERS:
            flag = layer.ratio[1] if layer.ratio is not None else None
            wrap = tracer.wrap(layer.name, flag)
            trace_hooks += [(o, a, wrap) for o, a in layer.resolve()]

    def phase(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    gc.collect()  # every replica starts without the previous one's garbage
    try:
        with patched(probe_hooks), patched(trace_hooks):
            t0 = time.perf_counter()
            with phase("setup"):
                state = workload.setup(seed)
            t1 = time.perf_counter()
            with phase("run"):
                result = workload.run(state)
            t2 = time.perf_counter()
        replica.setup_s, replica.run_s = t1 - t0, t2 - t1
        replica.digest, replica.failures, replica.outcome = workload.finish(
            state, result, probe
        )
    except Exception:  # a failed operation, counted; the run goes on
        replica.failures.append(traceback.format_exc())
    return replica


def fastest_mean(samples: Sequence[float]) -> float:
    """Mean of the ``FASTEST_IMPORTS`` smallest ``samples``."""
    return statistics.fmean(sorted(samples)[:FASTEST_IMPORTS])


def gauge(kind: str) -> float:
    """Host seconds of the ``kind`` reference work, without the garbage a
    replica left: the fastest of ``GAUGE_REPS`` after a full collection."""
    gc.collect()
    return min(reference_seconds(kind) for _ in range(GAUGE_REPS))


def import_seconds(modules: Sequence[str], kind: str) -> Tuple[float, float]:
    """Import time of ``modules`` over fresh interpreters: the fastest
    mean unscaled, and scaled sample by sample by the ``kind`` reference
    work each interpreter times right after its imports."""
    code = (
        "import sys, time\nt = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "t = time.perf_counter() - t\n"
        + f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        + "from reference import reference_seconds\n"
        + f"print(t, reference_seconds({kind!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    raw, scaled = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        seconds, reference = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S[kind] / reference)
    return fastest_mean(raw), fastest_mean(scaled)


def _describe(replica: Replica) -> str:
    status = "ok" if not replica.failures else "FAILED"
    return (
        f"replica seed={replica.seed} setup_s={replica.setup_s:.4f} "
        f"run_s={replica.run_s:.4f} digest={replica.digest[:16]} {status}"
    )


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, log: Callable[[str], None]
) -> Tuple[Dict[str, float], List[Replica]]:
    """The workload's inputs round-robin for ``seconds``; each host time
    scaled replica by replica to the reference host speed (see
    ``reference.py``), per input the median, averaged over inputs."""
    import_s, scaled_import_s = import_seconds(workload.imports,
                                               workload.reference)
    for module in workload.imports:  # replica set-up excludes imports
        __import__(module)
    seeds = [replica_seed(seed, k) for k in range(workload.inputs)]
    replicas: List[Replica] = []
    references: List[float] = []
    first: Dict[int, str] = {}  # seed -> digest of its first good repetition
    deadline = time.perf_counter() + seconds
    while not replicas or time.perf_counter() < deadline:
        replica = run_replica(workload, seeds[len(replicas) % len(seeds)])
        if not replicas:
            # Peak after one replica: the lint workload's resident size
            # creeps up with every further replica, which would tie the
            # figure to how many replicas fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        references.append(gauge(workload.reference))
        if not replica.failures:
            expected = first.setdefault(replica.seed, replica.digest)
            if replica.digest != expected:
                replica.failures.append(
                    f"digest {replica.digest} != first repetition's {expected}"
                )
        replicas.append(replica)
        log(f"{_describe(replica)} reference_s={references[-1]:.4f}")
    # references[i] is timed after replica i, so replica i sits between
    # references[i - 1] and references[i]; the first has only the latter.
    # The reference work must not run before the first replica: it
    # would raise the peak resident size.
    scales = [
        REFERENCE_S[workload.reference]
        / statistics.fmean(references[max(0, i - 1):i + 1])
        for i in range(len(replicas))
    ]
    pairs = list(zip(replicas, scales))
    ok = [(r, s) for r, s in pairs if not r.failures] or pairs
    by_seed: Dict[int, List[Tuple[Replica, float]]] = {}
    for replica, scale in ok:
        by_seed.setdefault(replica.seed, []).append((replica, scale))

    def host(attr: str, scaled: bool = True) -> float:
        return statistics.fmean(
            statistics.median(
                getattr(r, attr) * (s if scaled else 1.0) for r, s in group
            )
            for group in by_seed.values()
        )

    metrics = {
        "setup_s": scaled_import_s + host("setup_s"),
        "run_s": host("run_s"),
        "peak_rss_mb": peak_rss_mb,
    }
    log(f"imports_s={import_s:.4f} scaled={scaled_import_s:.4f} "
        f"inputs={len(by_seed)} replicas={len(replicas)} "
        f"host_scale={statistics.median(scales):.4f} "
        f"unscaled setup_s={import_s + host('setup_s', False):.4f} "
        f"run_s={host('run_s', False):.4f}")
    return metrics, replicas


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced replica, plus attribution errors."""
    layers, roots = tracer.summary()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls = sum(p.get(layer.name, {}).get("calls", 0) for p in layers.values())
        self_s = sum(
            p.get(layer.name, {}).get("self_s", 0.0) for p in layers.values()
        )
        out[f"{layer.name}.calls"] = float(calls)
        out[f"{layer.name}.self_s"] = self_s
        if layer.ratio is not None:
            flagged = tracer.flagged.get(layer.name, 0)
            out[f"{layer.name}.{layer.ratio[0]}"] = flagged / calls if calls else 0.0
    run = layers.get("run", {})
    out["unattributed.self_s"] = run.get("run", {}).get("self_s", 0.0)
    out["unattributed.setup_self_s"] = (
        layers.get("setup", {}).get("setup", {}).get("self_s", 0.0)
    )
    out["traced.run_s"] = roots.get("run", 0.0)
    errors = []
    attributed = sum(entry["self_s"] for entry in run.values())
    if abs(attributed - out["traced.run_s"]) > 1e-6 * max(1.0, out["traced.run_s"]):
        errors.append(
            f"layer self times sum to {attributed:.6f} s, traced run_s is "
            f"{out['traced.run_s']:.6f} s"
        )
    stray = sorted(set(roots) - {"setup", "run"})
    if stray:
        errors.append(f"spans outside the setup/run roots: {stray}")
    return out, errors


def measure_layers(
    workload: Workload, seed: int, seconds: float, log: Callable[[str], None]
) -> Tuple[Dict[str, float], List[Replica]]:
    """Untraced/traced pairs of the ``seed`` input for ``seconds``."""
    for module in workload.imports:
        __import__(module)
    plain: List[Replica] = []
    traced: List[Replica] = []
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        twin = run_replica(workload, seed)
        tracer = Tracer()
        replica = run_replica(workload, seed, tracer)
        if not replica.failures:
            metrics, errors = layer_metrics(tracer)
            replica.failures += errors
            samples.append(metrics)
        if not (twin.failures or replica.failures):
            if replica.digest != twin.digest:
                replica.failures.append(
                    f"traced digest {replica.digest} != untraced {twin.digest}"
                )
            if plain and twin.digest != plain[0].digest:
                twin.failures.append(
                    f"digest {twin.digest} != first run's {plain[0].digest}"
                )
        plain.append(twin)
        traced.append(replica)
        log("untraced " + _describe(twin))
        log("traced   " + _describe(replica))
    out = {
        name: statistics.median(s[name] for s in samples)
        for name in (samples[0] if samples else ())
    }
    ok = [r for r in plain if not r.failures]
    untraced_run = statistics.median(r.run_s for r in ok) if ok else 0.0
    outcome = ok[0].outcome if ok else {}
    out.update({name: outcome.get(key, 0.0) for name, key, _unit in OUTCOMES})
    out["untraced.run_s"] = untraced_run
    if untraced_run:
        if samples:
            out["trace_overhead_frac"] = out["traced.run_s"] / untraced_run - 1.0
        out["outcome.session_s_per_s"] = outcome.get("session_s", 0.0) / untraced_run
        out["lint.kloc_per_s"] = outcome.get("kloc", 0.0) / untraced_run
    for name in per_layer_units():
        out.setdefault(name, 0.0)
    log_attribution(out, log)
    return out, plain + traced


def log_attribution(metrics: Dict[str, float], log: Callable[[str], None]) -> None:
    """The per-layer self-time table of a traced run, largest first."""
    rows = [
        (metrics[f"{layer.name}.self_s"], layer.name,
         int(metrics[f"{layer.name}.calls"]))
        for layer in LAYERS
        if metrics[f"{layer.name}.calls"]
    ]
    rows.append((metrics["unattributed.self_s"], "unattributed (run)", 0))
    rows.append((metrics["unattributed.setup_self_s"], "unattributed (setup)", 0))
    total = sum(row[0] for row in rows)
    log(f"{'layer':<28} {'calls':>9} {'self_s':>9} {'share':>7}")
    for self_s, name, calls in sorted(rows, reverse=True):
        share = self_s / total if total else 0.0
        log(f"{name:<28} {calls:>9} {self_s:>9.4f} {share:>7.1%}")
    log(
        f"traced run_s={metrics['traced.run_s']:.4f} "
        f"untraced run_s={metrics['untraced.run_s']:.4f} "
        f"overhead={metrics['trace_overhead_frac']:.1%}"
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def fingerprint() -> Dict[str, str]:
    """The machine a result was measured on."""
    import numpy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size: Optional[Size] = None,
    pins: Optional[Pins] = None,
    log: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """One benchmark run; returns the result object printed last."""
    workload = WORKLOADS[workload_name](size or Size(), pins or Pins())
    if trace:
        metrics, replicas = measure_layers(workload, seed, seconds, log)
        units = per_layer_units()
    else:
        metrics, replicas = measure_end_to_end(workload, seed, seconds, log)
        units = END_TO_END_UNITS
    failed = [r for r in replicas if r.failures]
    for replica in failed:
        for failure in replica.failures:
            print(f"seed {replica.seed}: {failure}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(replicas),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"fingerprint": fingerprint(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
