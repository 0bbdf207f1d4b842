"""Command-line interface.

Four subcommands cover the operator workflow the paper describes:

* ``cocg catalog`` — list the evaluated games and their structure;
* ``cocg profile GAME -o FILE`` — run the offline pipeline once and
  persist the artifact (frame clustering + stage library + trained
  predictors);
* ``cocg colocate GAME [GAME …]`` — run a co-location experiment under a
  chosen strategy and print throughput/QoS;
* ``cocg fleet GAME [GAME …]`` — dispatch Poisson arrivals over a small
  heterogeneous fleet; ``--regions N`` runs the fleet-of-fleets instead:
  N independent regional shards behind the consistent-hash session
  router, merged into one cross-shard digest (``docs/FLEET.md``);
* ``cocg serve GAME [GAME …]`` — the fleet behind the serve-layer
  admission gateway: bounded queues, rate limiting, micro-batched
  Algorithm-1 dispatch, per-category SLO report (``docs/SERVE.md``);
* ``cocg chaos GAME [GAME …]`` — the fleet experiment under an injected
  fault plan, reported against the fault-free run (``docs/FAULTS.md``);
* ``cocg obs GAME [GAME …]`` — run a gateway-fronted experiment, read
  the finished run through the deterministic observability pipeline and
  export ``metrics.prom`` + ``trace.json`` (``docs/OBSERVABILITY.md``);
  ``--check-determinism`` runs twice and verifies the artifacts are
  byte-identical;
* ``cocg record GAME [GAME …] -o FILE`` — run a gateway-fronted fleet
  experiment, read the finished run into a trace and persist it as a
  versioned ``.cgtrace`` file (``docs/TRACE.md``);
* ``cocg replay TRACE`` — rebuild the fleet from a trace's header and
  replay its recorded workload; non-zero exit unless the replayed fleet
  telemetry digest matches the recorded one byte-for-byte;
* ``cocg corpus list|generate`` — list the shipped workload scenarios or
  regenerate their ``.cgtrace`` files under ``corpus/``;
* ``cocg lint [PATH …]`` — run the CoCG invariant checker
  (:mod:`repro.lint`, per-file rules CG001–CG009 and CG014, the
  whole-program rules CG010–CG013, the effect system CG015–CG017 and
  the shard certification CG020–CG022) over the codebase.

Every fleet command turns its flags into one
:class:`~repro.trace.harness.RunConfig` and builds its run through
:func:`repro.trace.harness.build_experiment` (``cocg chaos`` hands the
harness builders to :func:`~repro.faults.run_chaos`), so the CLI, the
corpus, regional shards and replay assemble a fleet the same way.

Diagnostics (bad plans, unknown games/scenarios, digest mismatches) go
to stderr; stdout carries only the requested report, so piping
``cocg … | tee`` captures clean output.

``cocg fleet`` and ``cocg serve`` certify the shard-plan certificate
(the packaged ``shardplan.json``, or ``--shard-plan PATH``) against the
runtime's registered entry points before starting; a stale or
undecorated certificate fails fast with exit code 2.

Run ``python -m repro.cli --help`` (or the installed ``cocg`` script).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.pipeline import GameProfile
    from repro.trace.harness import RunConfig

__all__ = [
    "main",
    "build_parser",
    "cmd_catalog",
    "cmd_profile",
    "cmd_colocate",
    "cmd_fleet",
    "cmd_serve",
    "cmd_chaos",
    "cmd_obs",
    "cmd_record",
    "cmd_replay",
    "cmd_corpus",
    "cmd_lint",
]


def _err(message: str) -> None:
    """Print an error diagnostic to stderr (stdout stays report-only)."""
    print(message, file=sys.stderr)


def _certify_or_fail(args) -> int:
    """Startup shard-plan certification shared by fleet/serve.

    Returns 0 when the certificate matches the runtime's registered
    entry points, 2 (with the full problem list on stderr) when it is
    stale, undecorated, or unreadable.
    """
    from repro.fleet import certify_runtime
    from repro.sim import ShardPlanError

    path = getattr(args, "shard_plan", None)
    try:
        certify_runtime(path)
    except (ShardPlanError, OSError, ValueError) as exc:
        _err(f"shard-plan certification failed: {exc}")
        _err("hint: regenerate with `cocg lint src/ --shard-plan-out "
             "src/repro/shardplan.json`")
        return 2
    return 0


def _run_config(args, **overrides) -> RunConfig:
    """The :class:`~repro.trace.harness.RunConfig` a command's flags
    describe: every flag named like a config field and ``--rate``;
    ``overrides`` win."""
    from dataclasses import fields

    from repro.trace.harness import RunConfig

    flags = vars(args)
    values = {f.name: flags[f.name] for f in fields(RunConfig) if f.name in flags}
    if "rate" in flags:
        values["rate_per_minute"] = flags["rate"]
    values.update(overrides)
    return RunConfig(**values)


def _load_or_build_profiles(
    config: RunConfig, profiles_dir: Optional[str]
) -> Dict[str, GameProfile]:
    """The config's profiles: loaded from ``--profiles-dir`` when saved
    there, else trained by the harness (and saved when a dir is set)."""
    from dataclasses import replace
    from pathlib import Path

    from repro.core.pipeline import GameProfile
    from repro.trace.harness import build_profiles, game_specs

    try:
        specs = game_specs(config.games)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    profiles = {}
    for game, spec in zip(config.games, specs):
        path = Path(profiles_dir) / f"{game}.profile.json" if profiles_dir else None
        if path is not None and path.exists():
            profiles[game] = GameProfile.load(path, spec)
            print(f"loaded profile: {path}")
            continue
        print(f"profiling {game} (no saved profile)…")
        profiles[game] = build_profiles(replace(config, games=(game,)))[game]
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            profiles[game].save(path)
            print(f"saved profile: {path}")
    return profiles


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_catalog(args) -> int:
    """``cocg catalog``: list the evaluated games and their structure."""
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    print(f"{'game':14} {'category':8} {'K':>2} {'lock':>5} {'length':7} scripts")
    print("-" * 70)
    for name, spec in sorted(catalog.items()):
        lock = f"{spec.frame_lock:.0f}" if spec.frame_lock else "-"
        length = "long" if spec.long_term else "short"
        scripts = ", ".join(s.name for s in spec.scripts)
        print(
            f"{name:14} {spec.category.value:8} {len(spec.clusters):>2} "
            f"{lock:>5} {length:7} {scripts}"
        )
    return 0


def cmd_profile(args) -> int:
    """``cocg profile``: run the offline pipeline, optionally persist."""
    from repro.core.pipeline import GameProfile
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    if args.game not in catalog:
        raise SystemExit(
            f"unknown game {args.game!r}; available: {', '.join(sorted(catalog))}"
        )
    profile = GameProfile.build(
        catalog[args.game],
        n_players=args.players,
        sessions_per_player=args.sessions,
        seed=args.seed,
    )
    print(profile.library.summary())
    for backend, predictor in sorted(profile.predictors.items()):
        print(f"{backend}: next-stage accuracy {predictor.accuracy_:.1%}")
    if args.output:
        profile.save(args.output)
        print(f"saved: {args.output}")
    return 0


def cmd_colocate(args) -> int:
    """``cocg colocate``: run one co-location experiment and report."""
    import numpy as np

    from repro.core.predictor import BACKENDS
    from repro.trace.harness import make_strategy
    from repro.cluster.experiment import ColocationExperiment

    profiles = _load_or_build_profiles(
        _run_config(args, backends=BACKENDS), args.profiles_dir
    )
    result = ColocationExperiment(
        profiles, make_strategy(args.strategy), horizon=args.horizon,
        seed=args.seed,
    ).run()
    print(f"\nstrategy:           {result.strategy}")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"co-located seconds: {result.colocated_seconds}/{result.horizon}")
    print(f"peak usage:         {np.round(result.peak_total_usage, 1)} (cap 95)")
    print(f"over-cap seconds:   {result.over_cap_seconds}")
    for game in sorted(profiles):
        fob = result.fraction_of_best[game]
        if not np.isnan(fob):
            print(f"  {game:14} {fob:.0%} of best FPS")
    return 0


def _cmd_fleet_regions(args) -> int:
    """The ``cocg fleet --regions N`` path: the fleet-of-fleets."""
    from repro.fleet import FleetOfFleets, RegionSpec

    if args.heterogeneous:
        _err("note: --heterogeneous is ignored with --regions "
             "(regional shards run the reference platform)")
    try:
        config = _run_config(args, gateway=False, heterogeneous=False)
        regions = [RegionSpec(f"r{i}") for i in range(args.regions)]
        result = FleetOfFleets(config, regions).run()
    except ValueError as exc:
        _err(str(exc))
        return 2
    print(f"\nfleet-of-fleets: {args.regions} regions x {args.nodes} "
          f"nodes, policy={args.policy}")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"{'region':8} {'routed':>7} {'completed':>10} digest")
    for name in sorted(result.regions):
        outcome = result.regions[name]
        print(f"  {name:8} {result.requests_routed.get(name, 0):>5} "
              f"{sum(outcome.result.completed_runs.values()):>10} "
              f"{outcome.digest[:16]}…")
    print(f"merged digest:      {result.merged_digest}")
    return 0


def cmd_fleet(args) -> int:
    """``cocg fleet``: Poisson arrivals over a (possibly heterogeneous)
    fleet of CoCG- or baseline-scheduled nodes; ``--regions N`` runs
    the sharded fleet-of-fleets instead."""
    from repro.core.predictor import BACKENDS
    from repro.trace.harness import build_experiment

    rc = _certify_or_fail(args)
    if rc:
        return rc
    if args.regions > 1:
        return _cmd_fleet_regions(args)
    config = _run_config(args, backends=BACKENDS, gateway=False)
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    result = build_experiment(config, profiles).run()
    print(f"\nfleet of {args.nodes} nodes, policy={args.policy}")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"mean wait:          {result.mean_wait_seconds:.1f}s "
          f"({result.deferrals} deferrals, {result.waiting} still queued)")
    print(f"fraction of best:   {result.fraction_of_best:.0%}")
    for node_id, gpu in sorted(result.per_node_mean_gpu.items()):
        print(f"  {node_id:8} mean GPU {gpu:5.1f} %  "
              f"runs {result.per_node_completed.get(node_id, {})}")
    return 0


def cmd_serve(args) -> int:
    """``cocg serve``: the fleet behind the admission gateway."""
    from repro.core.predictor import BACKENDS
    from repro.trace.harness import build_experiment

    rc = _certify_or_fail(args)
    if rc:
        return rc
    config = _run_config(args, backends=BACKENDS)
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    experiment = build_experiment(config, profiles)
    result = experiment.run()
    gateway = experiment.cluster.gateway
    stats = gateway.stats()
    print(f"\nfleet of {args.nodes} nodes behind the gateway "
          f"(policy={args.policy})")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"gateway outcomes:   queued={stats['queued']} "
          f"admitted={stats['admitted']} shed={stats['shed']} "
          f"dead-lettered={stats['dead_lettered']}")
    print(f"still queued:       {stats['depth']} "
          f"({stats['throttled_rounds']} throttled rounds)")
    b = gateway.batcher.stats()
    print(f"micro-batching:     {b['evaluations']} shared evaluations, "
          f"{b['prescreen_rejects']} pre-screen rejects")
    print("per-category SLO (time in queue):")
    for line in gateway.slo.summary_lines():
        print(f"  {line}")
    print(f"telemetry digest:   {result.telemetry_digest}")
    if args.obs_out:
        from repro.obs import Observer

        obs = Observer().finalize(experiment)
        metrics_path, trace_path = obs.write(args.obs_out)
        print(f"observability:      {metrics_path} + {trace_path} "
              f"(trace digest {obs.trace_digest()[:16]}…)")
    return 0


def cmd_chaos(args) -> int:
    """``cocg chaos``: the fleet run with vs. without injected faults.

    ``--validate`` parses and checks ``--plan`` without running anything
    (exit 1 on any problem); ``--scenario reclaim-storm`` runs the
    elastic-capacity storm with a provisioner attached.
    """
    import json
    from pathlib import Path

    from repro.core.predictor import BACKENDS
    from repro.faults import (
        FaultPlan,
        default_plan,
        reclaim_storm_plan,
        run_chaos,
        validate_plan_payload,
    )
    from repro.trace.harness import (
        build_cluster,
        game_specs,
        make_provisioner_factory,
    )

    if args.validate:
        if not args.plan:
            _err("--validate needs --plan <plan.json>")
            return 2
        try:
            payload = json.loads(Path(args.plan).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _err(f"{args.plan}: cannot read plan: {exc}")
            return 1
        errors = validate_plan_payload(payload)
        if errors:
            _err(f"{args.plan}: {len(errors)} problem(s)")
            for error in errors:
                _err(f"  {error}")
            return 1
        plan = FaultPlan.from_dict(payload)
        print(f"{args.plan}: ok ({len(plan)} faults, seed {plan.seed})")
        return 0

    if not args.games:
        _err("at least one GAME is required (unless --validate)")
        return 2

    warm_pool = args.warm_pool
    if warm_pool is None and args.scenario == "reclaim-storm":
        warm_pool = 1
    config = _run_config(
        args, backends=BACKENDS, gateway=False, warm_pool=warm_pool
    )
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    if args.plan:
        try:
            plan = FaultPlan.from_dict(json.loads(Path(args.plan).read_text()))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            _err(f"{args.plan}: bad fault plan: {exc}")
            _err("hint: cocg chaos --validate --plan "
                 f"{args.plan} lists every problem")
            return 2
        print(f"loaded fault plan: {args.plan} ({len(plan)} faults)")
    elif args.scenario == "reclaim-storm":
        plan = reclaim_storm_plan(
            args.horizon,
            seed=args.seed,
            nodes=tuple(f"node-{i}" for i in range(args.nodes)),
        )
        print(f"scenario: reclaim-storm ({len(plan)} faults)")
    else:
        plan = default_plan(
            args.horizon, seed=args.seed, crash_node=f"node-{args.nodes - 1}"
        )

    report = run_chaos(
        lambda: build_cluster(config, profiles),
        game_specs(config.games),
        plan=plan,
        horizon=config.horizon,
        rate_per_minute=config.rate_per_minute,
        seed=config.seed,
        detect_interval=config.detect_interval,
        make_provisioner=make_provisioner_factory(config, profiles),
    )
    print()
    for line in report.summary_lines():
        print(line)
    print(f"\ntelemetry digest (faulted): {report.faulted.telemetry_digest}")
    if args.obs_out:
        from repro.obs import Observer

        obs = Observer().finalize(report.experiment)
        metrics_path, trace_path = obs.write(args.obs_out)
        print(f"observability (faulted run): {metrics_path} + {trace_path} "
              f"(trace digest {obs.trace_digest()[:16]}…)")
    if report.faulted.unaccounted_sessions:
        _err(
            f"WARNING: {report.faulted.unaccounted_sessions} unaccounted "
            "sessions — the robustness ledger does not balance"
        )
        return 1
    return 0


def cmd_obs(args) -> int:
    """``cocg obs``: run one observed experiment, export the artifacts.

    Runs the gateway-fronted fleet, reads the finished run and writes
    ``metrics.prom`` (Prometheus text exposition)
    and ``trace.json`` (Chrome trace events — load it in Perfetto) under
    ``--out``.  ``--check-determinism`` repeats the run from the same
    seeds and fails unless both artifacts come back byte-identical —
    the same property CI asserts.
    """
    from repro.core.predictor import BACKENDS
    from repro.faults import default_plan
    from repro.obs import Observer
    from repro.serve import GatewayConfig
    from repro.trace.harness import build_experiment

    # The gateway runs at GatewayConfig's own defaults here, not the
    # narrower RunConfig ones `cocg serve` and `cocg record` use.
    defaults = GatewayConfig()
    config = _run_config(
        args,
        backends=BACKENDS,
        queue_capacity=defaults.queue_capacity,
        rate_limit=defaults.rate_per_second,
        burst=defaults.burst,
        max_queue_seconds=defaults.max_queue_seconds,
    )
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    plan = (
        default_plan(
            args.horizon, seed=args.seed, crash_node=f"node-{args.nodes - 1}"
        )
        if args.faults
        else None
    )

    def run():
        experiment = build_experiment(config, profiles, plan=plan)
        return experiment.run(), Observer().finalize(experiment)

    result, obs = run()
    if args.check_determinism:
        result2, obs2 = run()
        same_metrics = obs.metrics_text() == obs2.metrics_text()
        same_trace = obs.trace_digest() == obs2.trace_digest()
        same_telemetry = result.telemetry_digest == result2.telemetry_digest
        print(f"metrics byte-identical across runs: {same_metrics}")
        print(f"trace digests equal across runs:    {same_trace}")
        print(f"telemetry digests equal:            {same_telemetry}")
        if not (same_metrics and same_trace and same_telemetry):
            raise SystemExit("observability output is not deterministic")
    metrics_path, trace_path = obs.write(args.out)
    print(f"metric families:    {len(obs.registry)}")
    print(f"trace spans:        {len(obs.tracer)} "
          f"on streams {', '.join(obs.tracer.streams())}")
    print(f"trace digest:       {obs.trace_digest()}")
    print(f"wrote:              {metrics_path}")
    print(f"wrote:              {trace_path}")
    return 0


def cmd_record(args) -> int:
    """``cocg record``: run one experiment and persist it as a trace.

    The run is gateway-fronted (same shape as ``cocg serve``); an
    optional ``--plan`` injects a fault schedule and ``--warm-pool N``
    attaches a capacity plane — both are captured in the trace, so
    ``cocg replay`` reproduces the whole run.
    """
    import json
    from pathlib import Path

    from repro.faults import FaultPlan
    from repro.trace import record_run

    plan = None
    if args.plan:
        try:
            plan = FaultPlan.from_dict(
                json.loads(Path(args.plan).read_text())
            )
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            _err(f"{args.plan}: bad fault plan: {exc}")
            _err("hint: cocg chaos --validate --plan "
                 f"{args.plan} lists every problem")
            return 2
    try:
        config = _run_config(args)
        result, recorder = record_run(config, plan=plan)
    except ValueError as exc:
        _err(str(exc))
        return 2
    path = recorder.save(args.output)
    stats = recorder.stats()
    document = recorder.document
    print(f"recorded {args.horizon}s over {args.nodes} nodes: "
          f"{stats['arrivals']} arrivals, {stats['stages']} stage records, "
          f"{stats['faults']} scheduled faults")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"fleet digest:       {document.trailer.fleet_digest}")
    print(f"wrote:              {path}")
    return 0


def cmd_replay(args) -> int:
    """``cocg replay``: replay a trace, check the digest contract.

    Exit 0 when the replayed fleet telemetry digest matches the trace's
    trailer byte-for-byte, 1 on divergence (the first divergent record
    is named on stderr), 2 when the trace itself cannot be parsed.
    """
    from repro.trace import TraceError, replay_path

    try:
        report = replay_path(args.trace, strict=False)
    except (OSError, TraceError, ValueError) as exc:
        _err(f"{args.trace}: {exc}")
        return 2
    for line in report.summary_lines():
        print(line)
    if not report.matched:
        _err(f"{args.trace}: replay diverged from the recorded run"
             + (f" at {report.divergence}" if report.divergence else ""))
        return 1
    return 0


def cmd_corpus(args) -> int:
    """``cocg corpus``: list or regenerate the shipped scenario corpus.

    ``list`` prints the catalogue; ``generate [NAME …]`` re-records the
    named scenarios (default: all) under ``--out``.  Generation is
    deterministic — the same repo state always produces byte-identical
    ``.cgtrace`` files, which is how CI keeps ``corpus/`` honest.
    """
    from pathlib import Path

    from repro.trace import SCENARIOS, generate_scenario, scenario_names

    if args.action == "list":
        print(f"{'scenario':14} {'games':18} {'horizon':>7} {'faults':>6}  description")
        print("-" * 78)
        for name in scenario_names():
            spec = SCENARIOS[name]
            plan = spec.plan()
            print(
                f"{name:14} {','.join(spec.config.games):18} "
                f"{spec.config.horizon:>6}s {len(plan) if plan else 0:>6}  "
                f"{spec.description}"
            )
        return 0

    names = list(args.names) or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        _err(f"unknown scenario(s) {', '.join(unknown)}; shipped: "
             f"{', '.join(scenario_names())}")
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        result, recorder = generate_scenario(name)
        path = recorder.save(out / f"{name}.cgtrace")
        document = recorder.document
        print(f"{name}: {document.trailer.records} records, "
              f"digest {document.trailer.fleet_digest[:16]}… -> {path}")
    return 0


def cmd_lint(args) -> int:
    """``cocg lint``: run the invariant checker (exit 1 on findings)."""
    from repro.lint.__main__ import run_from_args

    return run_from_args(args)


# ----------------------------------------------------------------------

class _LazyChoices:
    """argparse ``choices`` that load their names on first use.

    Assigned to an action after ``add_argument`` (which would iterate
    them to check the metavar), they load only when that argument is
    checked or its help is printed.  Building the parser then imports
    neither numpy nor the simulator, so ``cocg lint`` and ``cocg --help``
    start fast.
    """

    def __init__(self, load: Callable[[], Tuple[str, ...]]) -> None:
        self._load = load

    def __iter__(self) -> Iterator[str]:
        return iter(self._load())

    def __contains__(self, name: object) -> bool:
        return name in self._load()


def _strategy_names() -> Tuple[str, ...]:
    from repro.trace.harness import STRATEGIES

    return tuple(STRATEGIES)


def _policy_names() -> Tuple[str, ...]:
    from repro.cluster.fleet import ClusterScheduler

    return ClusterScheduler.POLICIES


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    strategies = _LazyChoices(_strategy_names)
    policies = _LazyChoices(_policy_names)
    parser = argparse.ArgumentParser(
        prog="cocg",
        description="CoCG: fine-grained cloud game co-location (IPDPS'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the evaluated games").set_defaults(
        func=cmd_catalog
    )

    p = sub.add_parser("profile", help="run the offline pipeline for one game")
    p.add_argument("game")
    p.add_argument("-o", "--output", help="save the profile JSON here")
    p.add_argument("--players", type=int, default=6)
    p.add_argument("--sessions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    c = sub.add_parser("colocate", help="co-locate games on one server")
    c.add_argument("games", nargs="+")
    c.add_argument("--strategy", default="cocg").choices = strategies
    c.add_argument("--horizon", type=int, default=3600)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--players", type=int, default=5)
    c.add_argument("--sessions", type=int, default=4)
    c.add_argument("--profiles-dir", help="cache profiles here")
    c.set_defaults(func=cmd_colocate)

    f = sub.add_parser("fleet", help="Poisson arrivals over a fleet")
    f.add_argument("games", nargs="+")
    f.add_argument("--nodes", type=int, default=3)
    f.add_argument("--policy", default="first-fit").choices = policies
    f.add_argument("--strategy", default="cocg").choices = strategies
    f.add_argument("--heterogeneous", action="store_true",
                   help="mix reference/weak-GPU/big-server platforms")
    f.add_argument("--rate", type=float, default=1.0, help="arrivals per minute")
    f.add_argument("--horizon", type=int, default=2400)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--players", type=int, default=4)
    f.add_argument("--sessions", type=int, default=3)
    f.add_argument("--profiles-dir", help="cache profiles here")
    f.add_argument("--regions", type=int, default=1, metavar="N",
                   help="run N regional shards behind the consistent-hash "
                        "session router (fleet-of-fleets; default 1 = the "
                        "classic single fleet)")
    f.add_argument("--shard-plan", metavar="PATH",
                   help="shard-plan certificate to certify against "
                        "(default: the packaged shardplan.json)")
    f.set_defaults(func=cmd_fleet)

    s = sub.add_parser(
        "serve", help="fleet behind the serve-layer admission gateway"
    )
    s.add_argument("games", nargs="+")
    s.add_argument("--nodes", type=int, default=3)
    s.add_argument("--policy", default="round-robin").choices = policies
    s.add_argument("--rate", type=float, default=4.0, help="arrivals per minute")
    s.add_argument("--horizon", type=int, default=1800)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--queue-capacity", type=int, default=64,
                   help="per-category queue bound (overflow sheds)")
    s.add_argument("--rate-limit", type=float, default=4.0,
                   help="dispatch attempts per second (token refill)")
    s.add_argument("--burst", type=int, default=8, help="token-bucket depth")
    s.add_argument("--max-queue-seconds", type=float, default=300.0,
                   help="queue patience before dead-lettering")
    s.add_argument("--players", type=int, default=4)
    s.add_argument("--sessions", type=int, default=3)
    s.add_argument("--profiles-dir", help="cache profiles here")
    s.add_argument("--obs-out", metavar="DIR",
                   help="read the finished run into metrics.prom + "
                        "trace.json here")
    s.add_argument("--shard-plan", metavar="PATH",
                   help="shard-plan certificate to certify against "
                        "(default: the packaged shardplan.json)")
    s.set_defaults(func=cmd_serve)

    ch = sub.add_parser(
        "chaos", help="fleet experiment under an injected fault plan"
    )
    ch.add_argument("games", nargs="*",
                    help="game mix (required unless --validate)")
    ch.add_argument("--nodes", type=int, default=2)
    ch.add_argument("--policy", default="round-robin").choices = policies
    ch.add_argument("--strategy", default="cocg").choices = strategies
    ch.add_argument("--plan", help="fault-plan JSON file (default: demo plan)")
    ch.add_argument("--validate", action="store_true",
                    help="parse and check --plan without running; "
                         "non-zero exit on any unknown kind/field")
    ch.add_argument("--scenario", choices=("default", "reclaim-storm"),
                    default="default",
                    help="built-in plan when --plan is absent "
                         "(reclaim-storm attaches a provisioner)")
    ch.add_argument("--warm-pool", type=int, default=None, metavar="N",
                    help="attach a Provisioner with N pre-booted standbys "
                         "(implied =1 by --scenario reclaim-storm)")
    ch.add_argument("--rate", type=float, default=2.0, help="arrivals per minute")
    ch.add_argument("--horizon", type=int, default=900)
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--players", type=int, default=4)
    ch.add_argument("--sessions", type=int, default=3)
    ch.add_argument("--profiles-dir", help="cache profiles here")
    ch.add_argument("--obs-out", metavar="DIR",
                    help="read the finished faulted run into "
                         "metrics.prom + trace.json here")
    ch.set_defaults(func=cmd_chaos)

    o = sub.add_parser(
        "obs",
        help="run an observed experiment; export metrics.prom + trace.json",
    )
    o.add_argument("games", nargs="+")
    o.add_argument("--nodes", type=int, default=2)
    o.add_argument("--policy", default="round-robin").choices = policies
    o.add_argument("--rate", type=float, default=2.0, help="arrivals per minute")
    o.add_argument("--horizon", type=int, default=600)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--faults", action="store_true",
                   help="replay the demo fault plan (fault spans in the trace)")
    o.add_argument("--out", default="obs-out", metavar="DIR",
                   help="artifact directory (default: obs-out)")
    o.add_argument("--check-determinism", action="store_true",
                   help="run twice; fail unless the artifacts are "
                        "byte-identical")
    o.add_argument("--players", type=int, default=4)
    o.add_argument("--sessions", type=int, default=3)
    o.add_argument("--profiles-dir", help="cache profiles here")
    o.set_defaults(func=cmd_obs)

    r = sub.add_parser(
        "record",
        help="record a gateway-fronted run as a .cgtrace file",
    )
    r.add_argument("games", nargs="+")
    r.add_argument("-o", "--output", default="run.cgtrace",
                   help="trace file to write (default: run.cgtrace)")
    r.add_argument("--nodes", type=int, default=2)
    r.add_argument("--policy", default="round-robin").choices = policies
    r.add_argument("--strategy", default="cocg").choices = strategies
    r.add_argument("--rate", type=float, default=2.0, help="arrivals per minute")
    r.add_argument("--horizon", type=int, default=600)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--plan", help="fault-plan JSON to inject and record")
    r.add_argument("--warm-pool", type=int, default=None, metavar="N",
                   help="attach a Provisioner with N pre-booted standbys")
    r.add_argument("--queue-capacity", type=int, default=64)
    r.add_argument("--rate-limit", type=float, default=4.0)
    r.add_argument("--burst", type=int, default=8)
    r.add_argument("--max-queue-seconds", type=float, default=300.0)
    r.add_argument("--players", type=int, default=3,
                   help="profile-corpus players (captured in the trace)")
    r.add_argument("--sessions", type=int, default=2)
    r.set_defaults(func=cmd_record)

    rp = sub.add_parser(
        "replay",
        help="replay a .cgtrace; fail unless the fleet digest matches",
    )
    rp.add_argument("trace", help="the .cgtrace file to replay")
    rp.set_defaults(func=cmd_replay)

    co = sub.add_parser(
        "corpus", help="list or regenerate the shipped scenario corpus"
    )
    co.add_argument("action", choices=("list", "generate"))
    co.add_argument("names", nargs="*",
                    help="scenarios to generate (default: all)")
    co.add_argument("--out", default="corpus", metavar="DIR",
                    help="output directory (default: corpus/)")
    co.set_defaults(func=cmd_corpus)

    from repro.lint.__main__ import configure_parser as _configure_lint_parser

    lint = sub.add_parser(
        "lint", help="check CoCG invariants (rules CG001-CG022)"
    )
    _configure_lint_parser(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
