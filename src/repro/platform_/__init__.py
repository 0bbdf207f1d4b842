"""Heterogeneous platform substrate.

Models the paper's testbed — a multi-core CPU host with several discrete
GPUs, cgroup-style per-game resource ceilings, and FPS-based QoS — as a
deterministic simulation substrate:

* :mod:`~repro.platform_.resources` — the 4-dimensional resource vector
  (CPU, GPU, GPU memory, RAM) everything is measured in.
* :mod:`~repro.platform_.server` — a server with CPU/RAM capacity and
  per-GPU capacity; games are placed on exactly one GPU (paper §IV-C).
* :mod:`~repro.platform_.allocator` — the cgroup-like allocation
  interface with conservation checks.
* :mod:`~repro.platform_.qos` — the FPS model (undersupply ⇒ frame
  drops; 30/60 frame locks) and QoS-violation accounting.
* :mod:`~repro.platform_.profile` — platform scaling profiles for the
  heterogeneity/migration experiments (§IV-D).
"""

from repro import _lazy_exports

__all__ = [
    "DIMENSIONS",
    "N_DIMS",
    "CPU",
    "GPU",
    "GPU_MEM",
    "RAM",
    "ResourceVector",
    "Server",
    "GPUDevice",
    "Placement",
    "Allocator",
    "AllocationError",
    "FpsModel",
    "QoSTracker",
    "QoSReport",
    "PlatformProfile",
    "REFERENCE_PLATFORM",
    "WEAK_GPU_PLATFORM",
    "BIG_SERVER_PLATFORM",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "CPU": ".resources",
    "DIMENSIONS": ".resources",
    "GPU": ".resources",
    "GPU_MEM": ".resources",
    "N_DIMS": ".resources",
    "RAM": ".resources",
    "ResourceVector": ".resources",
    "GPUDevice": ".server",
    "Placement": ".server",
    "Server": ".server",
    "Allocator": ".allocator",
    "AllocationError": ".allocator",
    "FpsModel": ".qos",
    "QoSTracker": ".qos",
    "QoSReport": ".qos",
    "BIG_SERVER_PLATFORM": ".profile",
    "PlatformProfile": ".profile",
    "REFERENCE_PLATFORM": ".profile",
    "WEAK_GPU_PLATFORM": ".profile",
})
