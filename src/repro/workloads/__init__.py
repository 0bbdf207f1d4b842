"""Experiment workloads and the co-location driver.

* :mod:`~repro.workloads.requests` — game request streams: the paper's
  continuous-backlog protocol ("the selected game will continuously run
  requests until the distributor passes") plus Poisson arrivals.
* :mod:`~repro.workloads.experiment` — the 2-hour co-location
  experiment driver that runs any strategy over a server and produces
  the throughput/QoS numbers of Figs 9–13.
* :mod:`~repro.workloads.metrics` — Eq-2 throughput and summary tables.
"""

from repro import _lazy_exports

__all__ = [
    "GameRequest",
    "ContinuousBacklog",
    "PoissonArrivals",
    "ColocationExperiment",
    "ExperimentResult",
    "throughput_eq2",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ContinuousBacklog": ".requests",
    "GameRequest": ".requests",
    "PoissonArrivals": ".requests",
    "ColocationExperiment": ".experiment",
    "ExperimentResult": ".experiment",
    "throughput_eq2": ".metrics",
})
