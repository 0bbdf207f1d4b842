"""Platform heterogeneity profiles.

Paper §IV-D argues CoCG ports across platforms: "the number of stages and
the logical relationship between the stages will not change … the only
thing that will change is the amount of resources consumed."  We model a
platform as a per-dimension demand scaling relative to the reference
testbed (i7-7700 + GTX 2080): a weaker GPU inflates the ``gpu`` demand
fraction, a beefier CPU deflates ``cpu``, and so on.

The invariance claim becomes a testable property: profiling the *same
game* on two platforms must yield the same cluster count and stage graph,
with only the cluster centroids rescaled
(:mod:`benchmarks.test_ablation_platform_invariance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.platform_.resources import ResourceVector
from repro.util.validation import check_positive

__all__ = ["PlatformProfile", "REFERENCE_PLATFORM", "WEAK_GPU_PLATFORM", "BIG_SERVER_PLATFORM"]


@dataclass(frozen=True)
class PlatformProfile:
    """Demand scaling of a platform relative to the reference testbed.

    A factor > 1 means the platform is *weaker* on that dimension (the
    same game consumes a larger fraction of it).

    Parameters
    ----------
    name:
        Human-readable platform name.
    cpu_factor, gpu_factor, gpu_mem_factor, ram_factor:
        Positive demand multipliers.
    """

    name: str
    cpu_factor: float = 1.0
    gpu_factor: float = 1.0
    gpu_mem_factor: float = 1.0
    ram_factor: float = 1.0

    def __post_init__(self) -> None:
        for field_name in ("cpu_factor", "gpu_factor", "gpu_mem_factor", "ram_factor"):
            check_positive(field_name, getattr(self, field_name))

    @cached_property
    def factors(self) -> ResourceVector:
        """The four multipliers as a vector (built once per profile)."""
        return ResourceVector(
            cpu=self.cpu_factor,
            gpu=self.gpu_factor,
            gpu_mem=self.gpu_mem_factor,
            ram=self.ram_factor,
        )

    def scale_demand(self, demand: ResourceVector) -> ResourceVector:
        """Demand of a game on this platform, clipped at 100 %."""
        return demand.scale(self.factors).clip(0.0, 100.0)


#: The paper's testbed: 4-core i7-7700, 8 GB RAM, 2× GTX 2080.
REFERENCE_PLATFORM = PlatformProfile("i7-7700+gtx2080")

#: A platform with a weaker GPU (e.g. a GTX 1660-class device).
WEAK_GPU_PLATFORM = PlatformProfile(
    "weak-gpu", gpu_factor=1.4, gpu_mem_factor=1.25
)

#: A larger server with more cores and memory (§IV-D scaling discussion).
BIG_SERVER_PLATFORM = PlatformProfile(
    "big-server", cpu_factor=0.5, ram_factor=0.5, gpu_factor=0.9
)
