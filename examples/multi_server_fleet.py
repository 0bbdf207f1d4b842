#!/usr/bin/env python3
"""A small cloud-gaming fleet: Poisson arrivals over several servers.

The paper's evaluation co-locates pairs on one backend server; this
example scales the same machinery out: an open-loop Poisson request
stream over the full five-game catalog is dispatched to a fleet of
CoCG-scheduled servers (first server whose Algorithm-1 distributor
admits the game wins), using the discrete-event engine for arrivals.

Prints fleet utilisation, per-server placements, admission deferrals and
QoS — a taste of the §IV-D "larger servers, more games" discussion.

Run:  python examples/multi_server_fleet.py
"""

from functools import partial

import numpy as np

from repro import CoCGStrategy, GameProfile, build_catalog
from repro.analysis.report import format_table
from repro.platform_.allocator import Allocator
from repro.platform_.qos import QoSTracker
from repro.platform_.server import GPUDevice, Server
from repro.sim.engine import SimulationEngine
from repro.sim.telemetry import TelemetryRecorder
from repro.workloads.requests import PoissonArrivals

N_SERVERS = 3
HORIZON = 2400
SEED = 5


def main() -> None:
    catalog = build_catalog()
    print("Profiling the five-game catalog…")
    profiles = {
        name: GameProfile.build(
            spec, n_players=4, sessions_per_player=3, seed=SEED
        )
        for name, spec in catalog.items()
    }

    fleet = []
    for i in range(N_SERVERS):
        server = Server(f"server-{i}", gpus=[GPUDevice(name="gpu0")])
        strategy = CoCGStrategy()
        strategy.attach(Allocator(server), profiles)
        fleet.append(
            {
                "server": server,
                "strategy": strategy,
                "telemetry": TelemetryRecorder(seed=SEED + i),
                "qos": QoSTracker(),
                "sessions": {},
                "completed": 0,
            }
        )

    arrivals = PoissonArrivals(
        list(catalog.values()), rate_per_minute=1.2, seed=SEED, horizon=HORIZON
    )
    print(f"{len(arrivals.requests)} requests over {HORIZON}s across "
          f"{N_SERVERS} servers")
    waiting = []
    deferred_total = 0

    engine = SimulationEngine()

    def tick(engine: SimulationEngine) -> None:
        nonlocal deferred_total
        t = int(engine.now)
        waiting.extend(arrivals.due(t - 1, t))
        # Dispatch: first server that admits.
        still_waiting = []
        for request in waiting:
            # The session is built only by the server that admits it.
            make_session = partial(request.make_session, seed=request.request_id)
            for node in fleet:
                session = node["strategy"].try_admit(
                    request.run_id(), request.spec.name, make_session, time=t
                )
                if session is not None:
                    node["sessions"][session.session_id] = session
                    break
            else:
                deferred_total += 1
                still_waiting.append(request)
        waiting[:] = still_waiting
        # Advance every hosted session.
        for node in fleet:
            for sid in list(node["sessions"]):
                session = node["sessions"][sid]
                alloc = node["strategy"].allocation_of(sid)
                tick_ = session.advance(alloc)
                node["telemetry"].record(t, sid, tick_.demand, alloc)
                node["qos"].record_second(
                    sid, tick_.nominal_fps, tick_.demand, alloc,
                    frame_lock=tick_.frame_lock,
                )
                if tick_.finished:
                    node["strategy"].release(sid, time=t)
                    node["completed"] += 1
                    del node["sessions"][sid]
        if t % 5 == 0:
            for node in fleet:
                node["strategy"].control(t, node["telemetry"])

    engine.every(1.0, tick)
    engine.run_until(HORIZON)

    rows = []
    for node in fleet:
        total = node["telemetry"].total_usage_matrix(HORIZON)
        qos = node["qos"]
        fob = (
            qos.overall_fraction_of_best() if qos.session_ids else float("nan")
        )
        rows.append([
            node["server"].server_id,
            node["completed"],
            len(node["sessions"]),
            float(total[:, 1].mean()),
            float(total[:, 1].max()),
            fob * 100 if not np.isnan(fob) else float("nan"),
        ])
    print("\n" + format_table(
        ["server", "completed", "still running", "mean GPU %", "peak GPU %",
         "% of best FPS"],
        rows,
        title="Fleet after the run",
    ))
    print(f"\nDeferred admission attempts: {deferred_total} "
          f"(requests retry each second until a server accepts)")
    print(f"Requests never served: {len(waiting)}")


if __name__ == "__main__":
    main()
