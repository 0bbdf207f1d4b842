#!/usr/bin/env python3
"""The serve layer in front of a CoCG fleet: bounded admission, batched
Algorithm-1 dispatch, per-category SLO report.

Runs Poisson arrivals over a three-node fleet fronted by an
:class:`repro.serve.AdmissionGateway`: requests queue per game category
under a token-bucket rate limit, overload is shed explicitly, and
dispatch pre-screens each node on its one Algorithm-1 snapshot per node
state, which the node's own admission shares.

With ``--check-determinism`` the gateway run executes twice and the
script exits non-zero unless both produce byte-identical fleet digests
(gateway shed/queue verdicts are part of the digest) — the pattern the
CI ``serve-smoke`` job enforces.  The 100k-request decision-count stats
(``BENCH_serve.json``) come from ``benchmarks/test_serve_throughput.py``.

Run:  python examples/serve_fleet.py [--check-determinism]
"""

import argparse
import sys

from repro import CoCGStrategy, GameProfile, build_catalog
from repro.cluster import ClusterScheduler, FleetExperiment, FleetNode
from repro.serve import AdmissionGateway, GatewayConfig

HORIZON = 900
SEED = 11
RATE = 6.0  # arrivals per minute — deliberately above fleet capacity
GAMES = ("contra", "dota2")
N_NODES = 3


def build_profiles() -> dict:
    catalog = build_catalog()
    print(f"Profiling {', '.join(GAMES)}…")
    return {
        name: GameProfile.build(
            catalog[name], n_players=4, sessions_per_player=3, seed=SEED
        )
        for name in GAMES
    }


def run_once(profiles: dict, specs: list):
    """One gateway-fronted fleet run; returns (result, gateway)."""
    nodes = [
        FleetNode(f"node-{i}", CoCGStrategy(), profiles, seed=SEED + i)
        for i in range(N_NODES)
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(
        cluster,
        config=GatewayConfig(
            queue_capacity=32,
            rate_per_second=3.0,
            burst=6,
            max_queue_seconds=240.0,
        ),
    )
    cluster.attach_gateway(gateway)
    result = FleetExperiment(
        cluster, specs, horizon=HORIZON, rate_per_minute=RATE, seed=SEED
    ).run()
    return result, gateway


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the gateway experiment twice and require identical "
             "fleet digests (exit 1 otherwise); write BENCH_serve.json",
    )
    args = parser.parse_args()

    catalog = build_catalog()
    profiles = build_profiles()
    specs = [catalog[name] for name in GAMES]

    if args.check_determinism:
        digests = []
        for attempt in (1, 2):
            result, _gateway = run_once(profiles, specs)
            digests.append(result.telemetry_digest)
            print(f"gateway run {attempt}: digest {result.telemetry_digest}")
        if digests[0] != digests[1]:
            print("FAIL: fleet digests differ between identical replays")
            return 1
        print("OK: gateway replay is deterministic (digests identical)")
        return 0

    result, gateway = run_once(profiles, specs)

    stats = gateway.stats()
    print(f"\nfleet of {N_NODES} nodes behind the gateway")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"gateway outcomes:   queued={stats['queued']} "
          f"admitted={stats['admitted']} shed={stats['shed']} "
          f"dead-lettered={stats['dead_lettered']}")
    b = gateway.batcher.stats()
    print(f"micro-batching:     {b['evaluations']} shared evaluations, "
          f"{b['prescreen_rejects']} pre-screen rejects over "
          f"{b['rounds']} rounds")
    print("per-category SLO (time in queue):")
    for line in gateway.slo.summary_lines():
        print(f"  {line}")
    print(f"telemetry digest:   {result.telemetry_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
