"""Experiment workloads.

* :mod:`~repro.workloads.requests` — game request streams: the paper's
  continuous-backlog protocol ("the selected game will continuously run
  requests until the distributor passes") plus Poisson arrivals.
* :mod:`~repro.workloads.metrics` — Eq-2 throughput and summary tables.

The drivers that run these streams — the Figs 9–13 co-location
experiment included — live in :mod:`repro.cluster.experiment`.
"""

from repro import _lazy_exports

__all__ = [
    "GameRequest",
    "ContinuousBacklog",
    "PoissonArrivals",
    "throughput_eq2",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ContinuousBacklog": ".requests",
    "GameRequest": ".requests",
    "PoissonArrivals": ".requests",
    "throughput_eq2": ".metrics",
})
